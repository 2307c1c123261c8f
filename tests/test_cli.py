import io
import json
import pathlib

import pytest

from qgrass import cli, polyring
from qgrass.lattice import Context, parse_var

from conftest import golden_text


def run_cli(*argv):
    buf = io.StringIO()
    code = cli.run(list(argv), out=buf)
    return code, buf.getvalue()


def test_degree_55():
    code, out = run_cli("--p", "2", "--m", "3", "--q", "1", "degree")
    assert code == 0
    assert out == "55\n"


def test_poset_list_p1():
    code, out = run_cli("--p", "1", "--m", "1", "--q", "0", "poset", "list")
    assert code == 0
    assert out == "1^0\n2^0\n"


def test_poset_list_count_and_interval():
    code, out = run_cli("--p", "2", "--m", "3", "--q", "1", "poset", "list")
    assert code == 0
    assert len(out.splitlines()) == 20
    code, out = run_cli(
        "--p", "3", "--m", "3", "--n", "1", "poset", "list",
        "--interval", "146^1", "235^2",
    )
    assert code == 0
    assert len(out.splitlines()) == 12


def test_poset_rank():
    code, out = run_cli("--p", "3", "--m", "4", "--q", "2", "poset", "rank", "235^2")
    assert code == 0
    assert out == "18\n"


def test_poset_pairs_count():
    code, out = run_cli("--p", "3", "--m", "3", "--q", "1", "poset", "pairs")
    assert code == 0
    assert len(out.splitlines()) == 106


def test_phi_golden():
    code, out = run_cli("--p", "3", "--m", "3", "--n", "1", "phi", "456^2")
    assert code == 0
    assert out.rstrip("\n") == golden_text("phi_456_2.txt")


def test_psi_and_chi():
    code, out = run_cli("--p", "3", "--m", "3", "--n", "1", "psi", "456^2")
    assert code == 0
    assert out == "x[3,6,0]*x[1,5,1]*x[2,4,1]\n"
    code, out = run_cli("--p", "3", "--m", "3", "--n", "1", "chi", "123^0")
    assert code == 0
    assert len(out.splitlines()) == 1


def test_pi_golden():
    code, out = run_cli("--p", "3", "--m", "4", "--n", "2", "pi", "235^2")
    assert code == 0
    assert out.rstrip("\n") == golden_text("pi_235_2_m4.txt")


def test_straighten_golden():
    code, out = run_cli(
        "--p", "3", "--m", "3", "--n", "1", "--compact",
        "straighten", "156^1", "234^2",
    )
    assert code == 0
    assert out.rstrip("\n") == golden_text("straighten_156_1_234_2.txt")


def test_straighten_comparable_is_usage_error():
    code, _ = run_cli("--p", "3", "--m", "3", "--n", "1", "straighten", "146^1", "235^2")
    assert code == 1


def test_groebner_interval():
    code, out = run_cli(
        "--p", "3", "--m", "3", "--n", "1", "--compact",
        "groebner", "--interval", "146^1", "235^2",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 18
    assert "346^1*125^2 - 246^1*135^2 + 146^1*235^2" in lines


def test_schubert_images():
    code, out = run_cli(
        "--p", "3", "--m", "3", "--n", "1", "--compact",
        "schubert", "235^2", "--skew", "146^1",
    )
    assert code == 0
    image_lines = [l for l in out.splitlines() if "->" in l]
    assert image_lines == golden_text("schubert_images_235_2_146_1.txt").splitlines()


def test_sagbi_check_report():
    code, out = run_cli("--p", "2", "--m", "2", "--n", "1", "sagbi-check")
    assert code == 0
    report = json.loads(out)
    assert report["context"] == {"p": 2, "m": 2, "n": 1, "q": 2}
    assert report["pairs_total"] == 5
    assert report["failures"] == []


def test_sagbi_check_jobs_deterministic():
    _, seq = run_cli("--p", "2", "--m", "3", "--n", "1", "sagbi-check")
    _, par = run_cli("--p", "2", "--m", "3", "--n", "1", "sagbi-check", "--jobs", "2")
    assert seq == par


def test_syzygy_w_and_v():
    code, out_w = run_cli(
        "--p", "3", "--m", "3", "--n", "1", "--compact", "syzygy", "w", "156^1", "234^2"
    )
    assert code == 0
    assert len(out_w.rstrip().split(" + ")) >= 3
    code, out_v = run_cli(
        "--p", "3", "--m", "3", "--n", "1", "--compact", "syzygy", "v", "156^1", "234^2"
    )
    assert code == 0
    assert out_v.rstrip("\n") == golden_text("straighten_156_1_234_2.txt")


def test_obvious_rank_report():
    code, out = run_cli("--p", "3", "--m", "3", "--q", "1", "obvious", "--rank")
    assert code == 0
    assert json.loads(out) == {
        "generators": 105,
        "rank": 105,
        "kernel_dim": 106,
        "deficit": 1,
    }


def test_obvious_list_parses_back():
    code, out = run_cli("--p", "2", "--m", "2", "--q", "1", "obvious")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines:
        assert not polyring.parse_text(line, "C", p=2).is_zero()


def test_json_format_round_trip():
    code, out = run_cli(
        "--p", "3", "--m", "3", "--n", "1", "--format", "json", "phi", "456^2"
    )
    assert code == 0
    poly, kind = polyring.parse_json(out)
    assert kind == "X"
    from qgrass.maps import phi

    assert poly == phi(parse_var("456^2"), Context(3, 3, 1, 3))


def test_json_output_validates_against_schema():
    import jsonschema

    schema = json.loads(
        (pathlib.Path(__file__).parent.parent / "schemas" / "polynomial.json").read_text()
    )
    for argv in [
        ("--p", "3", "--m", "3", "--n", "1", "--format", "json", "phi", "456^2"),
        ("--p", "3", "--m", "4", "--n", "2", "--format", "json", "pi", "235^2"),
        ("--p", "2", "--m", "2", "--q", "0", "--format", "json", "straighten", "14^0", "23^0"),
    ]:
        code, out = run_cli(*argv)
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


def test_identical_invocations_identical_bytes():
    a = run_cli("--p", "3", "--m", "3", "--n", "1", "groebner", "--interval", "146^1", "235^2")
    b = run_cli("--p", "3", "--m", "3", "--n", "1", "groebner", "--interval", "146^1", "235^2")
    assert a == b


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--p", "2", "degree"])  # missing --m
    assert exc.value.code == 1


def test_invalid_context_exit_code():
    code, _ = run_cli("--p", "2", "--m", "2", "--n", "1", "--q", "3", "degree")
    assert code == 1


def test_bad_variable_exit_code():
    code, _ = run_cli("--p", "3", "--m", "3", "--n", "1", "phi", "999^9")
    assert code == 1


def test_n_defaults_from_q():
    # q without n: entry degree defaults to ceil(q/p)
    code, out = run_cli("--p", "2", "--m", "2", "--q", "3", "sagbi-check")
    assert code == 0
    assert json.loads(out)["context"]["n"] == 2


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sagbi_check_rejects_jobs_below_one(jobs):
    code, out = run_cli("--p", "2", "--m", "2", "--n", "1", "sagbi-check", "--jobs", jobs)
    assert code == 1
    assert out == ""


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the worker count, starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.mark.parametrize("cpus,expected", [(4, 4), (64, 5), (None, None)])
def test_sagbi_check_caps_workers(monkeypatch, cpus, expected):
    from qgrass import straighten

    monkeypatch.setattr(straighten, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(straighten.os, "cpu_count", lambda: cpus)
    _SerialPool.sizes = []
    ctx = Context(2, 2, 1, 2)  # 5 incomparable pairs
    report = straighten.sagbi_check(ctx, jobs=1000)
    assert report == straighten.sagbi_check(ctx, jobs=1)
    assert _SerialPool.sizes == ([expected] if expected else [])


def test_obvious_rank_report_3313():
    code, out = run_cli("--p", "3", "--m", "3", "--n", "1", "--q", "3", "obvious", "--rank")
    assert code == 0
    assert out == '{"generators":245,"rank":245,"kernel_dim":250,"deficit":5}\n'
