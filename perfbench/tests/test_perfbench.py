"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = json.loads(run.DIGESTS.read_text())
COUNTS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]


def names(result) -> list[str]:
    return list(run.result_json(result)["metrics"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workload(workload):
    """One untraced and one traced run of each workload at the smoke size."""
    plain = run.measure(workload, 1, 0, DIGESTS, smoke=True)
    assert run.result_json(plain)["failed"] == 0
    assert run.result_json(plain)["correct"]
    assert names(plain) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(v > 0 for v, _ in plain["metrics"].values())

    traced = run.measure_traced(workload, 1, DIGESTS, smoke=True)
    assert run.result_json(traced)["correct"]
    assert names(traced) == [m["name"] for m in BENCHMARK["per_layer"]]
    values = {k: v for k, (v, _) in traced["metrics"].items()}
    assert None not in values.values()
    if workload in ("sagbi", "skew"):
        assert values["linalg.nullspace_calls"] == 0
        assert values["linalg.key_calls"] == 0
    else:
        assert values["linalg.nullspace_calls"] > 0


def test_traced_counts_repeat():
    first = run.measure_traced("sagbi", 3, DIGESTS, smoke=True)["metrics"]
    second = run.measure_traced("sagbi", 3, DIGESTS, smoke=True)["metrics"]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_corrupted_digest_counts_as_error():
    op = workloads.plan("kernel", 1, smoke=True)[0]
    corrupted = dict(DIGESTS)
    corrupted[" ".join(op.argv)] = "0" * 64
    result = run.result_json(run.measure("kernel", 1, 0, corrupted, smoke=True))
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def test_absent_boundary_is_reported_not_fatal(monkeypatch):
    """A boundary deleted by a refactor yields absent metrics, not a crash."""
    from qgrass import cli, polyring, syzygy

    monkeypatch.delattr(syzygy, "coefficient_relations")
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.run(list(workloads.plan("sagbi", 1, smoke=True)[0].argv), out=io.StringIO())
    finally:
        t.uninstall()
    assert code == 0
    metrics = tracer.metrics([t.report()])
    assert metrics["syzygy.relations_out"][0] is None
    assert metrics["straighten.subduct_calls"][0] == 25
    assert metrics["polyring.compare_calls"][0] > 0

    monkeypatch.delattr(polyring.TermOrder, "compare")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert tracer.metrics([t.report()])["polyring.compare_calls"][0] is None


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    args = ["--workload", "sagbi", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
