"""Record the sha256 of stdout of every benchmark invocation.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json: invocation (argv joined by spaces) -> the
sha256 hex digest of its stdout.  The digests pin the output bytes of the
commit they were recorded at; run this only at a commit whose output is
the reference, never to make a failing benchmark pass.
"""

from __future__ import annotations

import hashlib
import io
import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROCESSES = 2

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def digest(argv: tuple[str, ...]) -> tuple[str, str]:
    sys.path.insert(0, str(SRC))
    from qgrass import cli

    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return " ".join(argv), hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def invocations() -> list[tuple[str, ...]]:
    argvs = []
    for smoke in (False, True):
        for workload in ("sagbi", "kernel"):
            argvs += [op.argv for op in workloads.plan(workload, 0, smoke)]
    argvs += workloads.all_skew_argvs(workloads.SKEW_CTX)
    argvs += workloads.all_skew_argvs(workloads.SMOKE_CTX)
    return argvs


def main() -> None:
    argvs = invocations()
    with multiprocessing.get_context("spawn").Pool(PROCESSES) as pool:
        digests = dict(pool.imap_unordered(digest, argvs, chunksize=4))
    (HERE / "digests.json").write_text(json.dumps(dict(sorted(digests.items())), indent=0) + "\n")
    print(f"recorded {len(digests)} digests")


if __name__ == "__main__":
    main()
