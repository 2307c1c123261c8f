"""qgrass benchmark: the sagbi, kernel and skew workloads through the CLI.

    python3 perfbench/run.py --workload {sagbi,kernel,skew} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/qgrass`.  Every operation
is one call of `qgrass.cli.run(argv, out=...)` in a fresh interpreter
(`worker.py`), one at a time, single-threaded, `--jobs` left at 1, so each
pays interpreter start, import and cold caches as a CLI user does.  Each
operation is checked: exit code 0, the workload's own output checks, and
the sha256 of stdout against `digests.json`, recorded at the seed commit.

--trace 0 runs passes of the workload (a pass is the workload's operation
list) for --seconds seconds, plus a few set-up-only spawns, and reports the
end-to-end metrics.  --trace 1 runs exactly one untraced and one traced
pass, whatever --seconds says, so its counts repeat for a given seed, and
reports the per-layer metrics with the tracing overhead; the spans go to
perfbench/out/.

Speed-normalized times.  The host's speed changes by up to 2x within
seconds (other tenants), far more than the changes this benchmark must
see.  While a worker runs, this process times a fixed chunk of pure-Python
work (`probe_chunk`) about every 50 ms on the other core; the two
cores' speeds track each other.  Each set-up and operation time is
divided by the median slowdown (chunk time / PROBE_NOMINAL_S) of the
chunks in its window, widened to at least a second, giving seconds at the
nominal speed.  The end-to-end metrics use these; the
summary line also prints the raw wall figures.

The last stdout line is the JSON result; the line before it is a readable
summary.  Exits 2 without a result when the checkout has no `src/qgrass`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 7  # set-up-only interpreter starts per untraced run
DEADLINE_S = 165.0  # no operation may end later than this into a run
PROBE_WAIT_S = 0.05  # pause between probe chunks: under 3% of a core
PROBE_NOMINAL_S = 0.0013  # median probe chunk time on the reference machine
PROBE_WINDOW_S = 1.0  # shortest window a slowdown is taken over


def probe_chunk() -> int:
    """Fixed pure-Python work, dict and tuple traffic as in qgrass; its time
    follows the machine's current speed."""
    d: dict = {}
    for i in range(3000):
        k = (i & 63, i >> 6)
        d[k] = d.get(k, 0) + i
    return len(d)


def now() -> float:
    # Shared with the worker's clock, so windows span both processes.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Outcome:
    """One operation as measured and checked; `*_ref_s` are speed-normalized."""

    op: workloads.Op
    failure: Optional[str]
    setup_s: Optional[float] = None
    setup_ref_s: Optional[float] = None
    op_s: float = 0.0
    op_ref_s: float = 0.0
    maxrss_kb: int = 0
    out_bytes: int = 0
    trace: Optional[dict] = None


class Session:
    """One benchmark run: spawns workers and samples the machine's speed."""

    def __init__(self, digests: dict):
        self.digests = digests
        self.deadline = now() + DEADLINE_S
        self.probe: list[tuple[float, float]] = []  # (midpoint, chunk seconds)

    def slowdown(self, t0: float, t1: float) -> float:
        """Median probe slowdown over [t0, t1], widened to PROBE_WINDOW_S.

        The host's speed holds for about a second at a time, so a short
        window borrows the chunks around it rather than trust one or two.
        """
        mid = (t0 + t1) / 2
        lo, hi = min(t0, mid - PROBE_WINDOW_S / 2), max(t1, mid + PROBE_WINDOW_S / 2)
        inside = [d for t, d in self.probe if lo <= t <= hi]
        if not inside:
            inside = [min(self.probe, key=lambda s: abs(s[0] - mid))[1]]
        return statistics.median(inside) / PROBE_NOMINAL_S

    def spawn(self, ctx, argv=None, trace=False, spans: Optional[Path] = None, op: int = 0):
        """Run a worker to completion; (report, spawn time) or (None, reason)."""
        request = {
            "src": str(SRC),
            "context": list(ctx),
            "argv": None if argv is None else list(argv),
            "trace": trace,
            "spans": None if spans is None else str(spans),
            "op": op,
        }
        started = now()
        proc = subprocess.Popen(
            [sys.executable, "-I", str(WORKER), json.dumps(request)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            while True:
                t = now()
                probe_chunk()
                self.probe.append(((t + now()) / 2, now() - t))
                try:
                    stdout, stderr = proc.communicate(timeout=PROBE_WAIT_S)
                    break
                except subprocess.TimeoutExpired:
                    if now() > self.deadline:
                        return None, "timed out"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        lines = stdout.splitlines()
        if proc.returncode != 0 or not lines:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            return None, f"worker exited {proc.returncode}: {tail[0]}"
        return json.loads(lines[-1]), started

    def setup_only(self, ctx) -> Optional[float]:
        """Speed-normalized set-up time of one interpreter, None if it failed."""
        report, started = self.spawn(ctx)
        if report is None:
            return None
        return (report["ready"] - started) / self.slowdown(started, report["ready"])

    def run_op(self, op: workloads.Op, trace=False, spans=None, index=0) -> Outcome:
        report, started = self.spawn(op.ctx, op.argv, trace, spans, index)
        if report is None:
            return Outcome(op, started)
        ready, t0, t1 = report["ready"], report["op_start"], report["op_end"]
        outcome = Outcome(
            op,
            None,
            setup_s=ready - started,
            setup_ref_s=(ready - started) / self.slowdown(started, ready),
            op_s=t1 - t0,
            op_ref_s=(t1 - t0) / self.slowdown(t0, t1),
            maxrss_kb=report["maxrss_kb"],
            out_bytes=report["out_bytes"],
            trace=report.get("trace"),
        )
        expected = self.digests.get(" ".join(op.argv))
        if report["error"] is not None:
            outcome.failure = report["error"].strip().splitlines()[-1]
        elif report["code"] != 0:
            outcome.failure = f"exit code {report['code']}"
        elif expected is None:
            outcome.failure = "no recorded digest for this invocation"
        elif report["sha256"] != expected:
            outcome.failure = f"stdout sha256 {report['sha256'][:16]}... != recorded {expected[:16]}..."
        else:
            outcome.failure = op.check(report["stdout"])
        return outcome


def _report_failures(outcomes: list[Outcome]) -> None:
    for o in outcomes:
        if o.failure is not None:
            print(f"FAILED {' '.join(o.op.argv)}: {o.failure}", file=sys.stderr)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, digests: dict, smoke: bool = False) -> dict:
    """Untraced run: whole passes, at least one, until `seconds` have elapsed."""
    session = Session(digests)
    start = now()
    ops = workloads.plan(workload, seed, smoke)
    session.spawn(ops[0].ctx)  # compiles bytecode; not counted
    setups = [session.setup_only(ops[0].ctx) for _ in range(SETUP_SPAWNS)]
    outcomes: list[Outcome] = []
    while True:
        outcomes.extend(session.run_op(op) for op in ops)
        if now() - start >= seconds or now() >= session.deadline:
            break
    _report_failures(outcomes)

    ok = [o for o in outcomes if o.failure is None]
    setups = [s for s in setups if s is not None] + [o.setup_ref_s for o in outcomes if o.setup_ref_s]
    pairs = sum(o.op.pairs for o in ok)
    wall = [o.op_s for o in ok]
    metrics = {
        "pairs_per_s": (pairs / sum(o.op_ref_s for o in ok) if ok else 0.0, "1/s"),
        "op_p50_s": (_median([o.op_ref_s for o in ok]), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (max((o.maxrss_kb for o in ok), default=0) / 1024, "MB"),
    }
    p90 = "n/a"
    if len(wall) >= 2:
        cut = statistics.quantiles(wall, n=10)[-1]
        beyond = sum(t > cut for t in wall)
        rule = "" if beyond >= 10 else ", fewer than 10 beyond: not a steady figure"
        p90 = f"{cut:.4f} s ({beyond} samples beyond{rule})"
    failed = len(outcomes) - len(ok)
    summary = (
        f"{workload} seed={seed}: "
        + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
        + f"; ops={len(outcomes)}, setups={len(setups)}, error_rate={failed}/{len(outcomes)}"
        + f"; wall: pairs_per_s={pairs / sum(wall) if ok else 0.0:.6g} 1/s"
        + f", op_p50_s={_median(wall):.6g} s, op_p90_s={p90}"
        + f", setup_s={_median([o.setup_s for o in outcomes if o.setup_s]):.6g} s"
        + f"; median slowdown={_median([d for _, d in session.probe]) / PROBE_NOMINAL_S:.3f}"
    )
    return {"outcomes": outcomes, "metrics": metrics, "summary": summary}


def measure_traced(workload: str, seed: int, digests: dict, smoke: bool = False) -> dict:
    """One untraced and one traced pass; the per-layer metrics and overhead."""
    session = Session(digests)
    ops = workloads.plan(workload, seed, smoke)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}{'-smoke' if smoke else ''}.jsonl"
    spans.write_text("")
    session.spawn(ops[0].ctx)  # compiles bytecode; not counted
    plain = [session.run_op(op) for op in ops]
    traced = [session.run_op(op, True, spans, k) for k, op in enumerate(ops)]
    outcomes = plain + traced
    _report_failures(outcomes)

    metrics = tracer.metrics([o.trace for o in traced if o.trace is not None])
    metrics["cli.out_bytes"] = (sum(o.out_bytes for o in traced), "bytes")
    untraced_wall = sum(o.op_s for o in plain)
    traced_wall = sum(o.op_s for o in traced)
    metrics["trace_overhead"] = (traced_wall / untraced_wall if untraced_wall else 0.0, "ratio")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    absent = sorted({a for o in traced if o.trace for a in o.trace["absent"]})
    failed = sum(o.failure is not None for o in outcomes)
    summary = (
        f"{workload} seed={seed} traced: "
        + ", ".join(f"{k}={'absent' if v is None else format(v, '.6g')} {u}" for k, (v, u) in metrics.items())
        + f"; absent boundaries={absent or 'none'}; spans in {spans.relative_to(ROOT)}"
        + f"; error_rate={failed}/{len(outcomes)}"
    )
    return {"outcomes": outcomes, "metrics": metrics, "summary": summary}


def result_json(result: dict) -> dict:
    outcomes = result["outcomes"]
    failed = sum(o.failure is not None for o in outcomes)
    return {
        "correct": bool(outcomes) and failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qgrass" / "cli.py").is_file():
        print(f"perfbench: no qgrass sources under {SRC}; run from a qgrass checkout", file=sys.stderr)
        return 2
    digests = json.loads(DIGESTS.read_text())
    if args.trace:
        result = measure_traced(args.workload, args.seed, digests)
    else:
        result = measure(args.workload, args.seed, args.seconds, digests)
    print(result["summary"])
    print(json.dumps(result_json(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
