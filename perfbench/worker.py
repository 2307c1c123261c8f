"""Run one qgrass CLI operation in a fresh interpreter; print a JSON report.

    python3 perfbench/worker.py REQUEST_JSON

REQUEST_JSON holds `src` (the directory holding the `qgrass` package),
`context` ([p, m, n, q]), `argv` (the CLI arguments, or null to measure
set-up only), `trace` (wrap the layers with the tracer), `spans` (a file
to append the traced spans to, or null) and `op` (the operation's index
in its pass, which tags its spans).

The report, one JSON line on stdout, gives `ready`, the CLOCK_MONOTONIC
time at which the interpreter had started, imported qgrass and built the
context; then, for an operation, its exit code, CLOCK_MONOTONIC start and
end, stdout digest, size and text, the peak RSS of this process and, when
traced, the tracer's raw sums.  The caller times set-up from the moment it
spawned this process.
"""

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main(request: dict) -> dict:
    sys.path.insert(0, request["src"])
    import qgrass.cli
    import qgrass.lattice

    qgrass.lattice.Context(*request["context"])
    report = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if request["argv"] is None:
        return report

    tracer = None
    if request["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer(op_id=request["op"])
        tracer.install()

    out = io.StringIO()
    error = None
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        code = qgrass.cli.run(list(request["argv"]), out=out)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code, error = None, traceback.format_exc(limit=-5)
    t1 = time.clock_gettime(time.CLOCK_MONOTONIC)

    stdout = out.getvalue().encode("utf-8")
    report.update(
        code=code,
        error=error,
        op_start=t0,
        op_end=t1,
        sha256=hashlib.sha256(stdout).hexdigest(),
        out_bytes=len(stdout),
        stdout=stdout.decode("utf-8"),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.report()
        if request.get("spans"):
            tracer.write_spans(request["spans"])
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
