import argparse
import concurrent.futures
import contextlib
import gc
import hashlib
import io
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys

import pytest

from qgrass import cli, lattice, maps, polyring, straighten, syzygy
from qgrass.errors import InternalInconsistencyError, InvalidInputError, SagbiFailureError
from qgrass.lattice import Context, parse_var

from conftest import golden_text
from parsers import parse_json, parse_text
from pins import PINS, check
from test_lattice import BAD_VARS


def run_cli(*argv):
    buf = io.StringIO()
    code = cli.run(list(argv), out=buf)
    return code, buf.getvalue()


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin[0])
def test_pinned_stdout(pin):
    assert check(pin) is None


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


def test_poset_pairs_count():
    code, out = run_cli("--p", "3", "--m", "3", "--q", "1", "poset", "pairs")
    assert code == 0
    assert len(out.splitlines()) == 106


def test_poset_json_bytes():
    # json.dumps' default separators, unlike the compact groebner and sagbi-check documents
    json_2211 = ("--p", "2", "--m", "2", "--n", "1", "--q", "1", "--format", "json")
    pairs = '[["1,4^0", "2,3^0"], ["3,4^0", "1,2^1"], ["1,4^1", "2,3^1"]]\n'
    assert run_cli(*json_2211, "poset", "pairs") == (0, pairs)
    code, out = run_cli(*json_2211, "--compact", "poset", "list", "--interval", "12^0", "24^0")
    assert (code, out) == (0, '["12^0", "13^0", "14^0", "23^0", "24^0"]\n')


def test_chi_prints_one_line():
    code, out = run_cli("--p", "3", "--m", "3", "--n", "1", "chi", "123^0")
    assert code == 0
    assert len(out.splitlines()) == 1


def test_straighten_comparable_is_usage_error():
    code, _ = run_cli("--p", "3", "--m", "3", "--n", "1", "straighten", "146^1", "235^2")
    assert code == 1


def test_straighten_outside_interval_is_usage_error():
    # neither 356^0 nor 124^1 lies in [146^1, 235^2]
    code, out = run_cli(
        "--p", "3", "--m", "3", "--n", "1", "--q", "3",
        "straighten", "356^0", "124^1", "--interval", "146^1", "235^2",
    )
    assert code == 1
    assert out == ""


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


def test_sagbi_check_jobs_deterministic():
    _, seq = run_cli("--p", "2", "--m", "3", "--n", "1", "sagbi-check")
    _, par = run_cli("--p", "2", "--m", "3", "--n", "1", "sagbi-check", "--jobs", "2")
    assert seq == par


def test_all_skew_syzygies_3313_sha256(ctx333):
    tableaux = lattice.incomparable_pairs(ctx333)
    assert len(tableaux) == 250
    out = "".join(
        polyring.emit_text(syzygy.skew_syzygy_w(t, ctx333), "C", ctx333, compact=True) + "\n"
        for t in tableaux
    )
    digest = "8cc4c258a64b7d8b8af6d1b1f0fa0c5134a27d2a88223cc4298f99cd633ebb15"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_all_lifted_syzygies_3313_sha256(ctx333):
    tableaux = lattice.incomparable_pairs(ctx333)
    assert len(tableaux) == 250
    out = "".join(
        polyring.emit_text(syzygy.quantum_syzygy_v(t, ctx333), "C", ctx333, compact=True)
        + "\n"
        for t in tableaux
    )
    digest = "c0dbbd4b01a89cf4f612e7044c6729df692ae182a258d2da18f8a78665b96690"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_obvious_list_parses_back():
    code, out = run_cli("--p", "2", "--m", "2", "--q", "1", "obvious")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines:
        assert not parse_text(line, "C", p=2).is_zero()


def test_json_format_round_trip():
    code, out = run_cli(
        "--p", "3", "--m", "3", "--n", "1", "--format", "json", "phi", "456^2"
    )
    assert code == 0
    poly, kind = parse_json(out)
    assert kind == "X"
    from qgrass.maps import phi

    assert poly == phi(parse_var("456^2"), Context(3, 3, 1, 3))


def test_json_output_validates_against_schema():
    jsonschema = pytest.importorskip("jsonschema")

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
    # groebner embeds one polynomial document per quadric
    code, out = run_cli("--p", "2", "--m", "2", "--n", "1", "--format", "json", "groebner")
    assert code == 0
    quadrics = json.loads(out)
    assert quadrics
    for quadric in quadrics:
        jsonschema.validate(quadric["poly"], schema)


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


def test_p_zero_is_refused_before_n_is_derived_from_q(capsys):
    code, out = run_cli("--p", "0", "--m", "1", "--q", "1", "degree")
    assert (code, out) == (1, "")
    assert "p must be >= 1" in capsys.readouterr().err


def test_start_up_imports_no_worker_or_dataclass_support():
    # a fresh interpreter imports only what a serial run needs
    src = str(pathlib.Path(cli.__file__).parents[1])
    heavy = ["concurrent.futures", "multiprocessing", "dataclasses", "inspect"]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import qgrass.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
    # Context still validates on construction, field by field, in order
    for args, message in [
        ((0, 1), "p must be >= 1, got 0"),
        ((1, 0), "m must be >= 1, got 0"),
        ((1, 1, -1), "n must be >= 0, got -1"),
        ((2, 1, 1, 3), "q must satisfy 0 <= q <= n*p = 2, got 3"),
    ]:
        with pytest.raises(InvalidInputError) as exc:
            Context(*args)
        assert str(exc.value) == message


# the modules that only the argparse path and non-int coefficients need
LAZY = ["argparse", "gettext", "fractions", "decimal", "numbers"]

# in a fresh interpreter: import qgrass.cli, run argv (the words after the
# code) unless there are none, and print as JSON the LAZY modules loaded
# after the import, those loaded after the run, and the run's exit code,
# stdout and stderr
FRESH_RUN = """
import io, json, sys
sys.path.insert(0, {src!r})
import qgrass.cli
lazy = {lazy!r}
before = [m for m in lazy if m in sys.modules]
out, err = sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
try:
    code = qgrass.cli.run(sys.argv[1:]) if sys.argv[1:] else None
except SystemExit as exc:
    code = exc.code
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
after = [m for m in lazy if m in sys.modules]
print(json.dumps([before, after, code, out.getvalue(), err.getvalue()]))
"""


def _fresh_run(argv):
    """(LAZY modules loaded by `import qgrass.cli`, those loaded after
    cli.run(argv), exit code, stdout, stderr) in a fresh `python -I`."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    code = FRESH_RUN.format(src=src, lazy=LAZY)
    done = subprocess.run([sys.executable, "-I", "-c", code, *argv], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout))


def test_start_up_imports_neither_argparse_nor_fractions():
    assert _fresh_run([]) == ([], [], None, "", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["--p", "2", "--m", "2", "--n", "1", "sagbi-check"],
        ["--p", "3", "--m", "3", "--n", "1", "--q", "2", "obvious", "--rank"],
        ["--p", "3", "--m", "3", "--n", "1", "--q", "3", "--compact", "groebner",
         "--interval", "146^1", "235^2"],
    ],
    ids=["sagbi-check", "obvious --rank", "groebner --interval"],
)
def test_a_plain_run_loads_neither_argparse_nor_fractions(argv):
    # the command lines of the three benchmark workloads, at small contexts
    code, out = run_cli(*argv)
    assert _fresh_run(argv) == ([], [], code, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["--p", "2", "degree"],  # a usage error: --m is missing
        ["--p", "2", "--m", "2", "--n", "1", "--format=text", "poset", "list"],
    ],
    ids=["help", "usage error", "--format=text"],
)
def test_help_usage_errors_and_other_forms_load_argparse(capsys, argv):
    # the bytes of an in-process run, whose help and usage errors
    # test_help_and_usage_errors_ignore_the_terminal_width pins by sha256
    before, after, *printed = _fresh_run(argv)
    assert (before, "argparse" in after) == ([], True)
    assert printed == list(_run_output(argv, capsys))


def test_bad_variable_exit_code():
    code, _ = run_cli("--p", "3", "--m", "3", "--n", "1", "phi", "999^9")
    assert code == 1


@pytest.mark.parametrize("text", BAD_VARS)
def test_variable_outside_the_grammar_exits_1(capsys, text):
    code, out = run_cli("--p", "3", "--m", "3", "--n", "1", "poset", "rank", text)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err.startswith("qgrass: error:")


def test_empty_skew_exits_1(capsys):
    # an empty --skew is a variable outside the grammar, not a missing one
    code, out = run_cli("--p", "2", "--m", "2", "--n", "1", "schubert", "34^2", "--skew", "")
    assert (code, out) == (1, "")
    assert "bad lattice variable ''" in capsys.readouterr().err


def test_degree_refuses_a_reversed_interval(capsys):
    # as poset list, poset pairs and groebner do
    code, out = run_cli(
        "--p", "3", "--m", "3", "--n", "1", "--q", "3", "degree", "--interval", "356^2", "124^0"
    )
    assert (code, out) == (1, "")
    assert "invalid interval" in capsys.readouterr().err


C2212 = ["--p", "2", "--m", "2", "--n", "1", "--q", "2"]
C3313 = ["--p", "3", "--m", "3", "--n", "1", "--q", "3"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (C2212 + ["straighten", "14^0", "14^0"], "1,4^0 and 1,4^0 are comparable"),
        (
            C3313 + ["straighten", "346^1", "125^2", "--interval", "124^0", "236^1"],
            "3,4,6^1 is not in the interval from 1,2,4^0 to 2,3,6^1",
        ),
        (
            C3313 + ["degree", "--interval", "356^2", "124^0"],
            "invalid interval: 3,5,6^2 is not below 1,2,4^0",
        ),
        (C3313 + ["schubert", "124^0", "--skew", "356^2"], "3,5,6^2 is not below 1,2,4^0"),
        (C3313 + ["phi", "999^9"], "columns must be strictly increasing: 9,9,9^9"),
        (C3313 + ["pi", "12,13,14^0"], "columns must lie in [1, 6]: 12,13,14^0"),
        (C3313 + ["poset", "rank", "124^4"], "shift exceeds q=3: 1,2,4^4"),
        (C3313 + ["poset", "rank", "23^1"], "expected 3 columns in '23^1'"),
    ],
)
def test_errors_name_elements_as_the_command_line_writes_them(capsys, argv, message):
    assert run_cli(*argv) == (cli.USAGE_ERROR, "")
    assert capsys.readouterr().err == f"qgrass: error: {message}\n"


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
    """Stands in for ProcessPoolExecutor: records the worker count and the
    items of each chunk that map is asked for, starts nothing."""

    sizes = []
    chunks = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        items = list(items)
        chunks = [items[a : a + chunksize] for a in range(0, len(items), chunksize)]
        self.chunks.extend(chunks)
        return [fn(item) for chunk in chunks for item in chunk]


@pytest.mark.parametrize("cpus,expected", [(4, 4), (64, 5), (None, None)])
def test_sagbi_check_caps_workers(monkeypatch, cpus, expected):
    from qgrass import straighten

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(straighten.os, "cpu_count", lambda: cpus)
    _SerialPool.sizes, _SerialPool.chunks = [], []
    ctx = Context(2, 2, 1, 2)  # 5 incomparable pairs
    report = straighten.sagbi_check(ctx, jobs=1000)
    assert report == straighten.sagbi_check(ctx, jobs=1)
    assert _SerialPool.sizes == ([expected] if expected else [])


def test_sagbi_check_reports_failure(raw_images):
    code, out = run_cli("--p", "2", "--m", "2", "--n", "1", "--q", "1", "sagbi-check")
    assert code == 2
    assert json.loads(out) == {
        "context": {"p": 2, "m": 2, "n": 1, "q": 1},
        "pairs_total": 3,
        "failures": [
            {
                "pair": ["1,4^1", "2,3^1"],
                "witness_monomial": "x[1,4,0]*x[2,3,0]*x[1,2,1]*x[2,1,1]",
            }
        ],
    }
    with pytest.raises(SagbiFailureError):
        straighten.reduced_groebner(Context(2, 2, 1, 1))


@pytest.mark.parametrize("jobs", [2, 3, 4, 5])
def test_sagbi_check_failures_keep_order_across_chunks(raw_images, monkeypatch, jobs):
    ctx = Context(3, 3, 1, 1)
    serial = straighten.sagbi_check(ctx, jobs=1)
    assert (len(serial["failures"]), serial["pairs_total"]) == (35, 106)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(straighten.os, "cpu_count", lambda: 8)
    _SerialPool.sizes, _SerialPool.chunks = [], []
    assert straighten.sagbi_check(ctx, jobs=jobs) == serial
    assert _SerialPool.sizes == [jobs]
    # at most one chunk per worker, contiguous and in canonical order
    assert 1 < len(_SerialPool.chunks) <= jobs
    pairs = straighten.subduction_table(ctx, None).incomparable
    assert [p for chunk in _SerialPool.chunks for p in chunk] == pairs


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork" or (os.cpu_count() or 1) < 2,
    reason="needs forked workers (to inherit the patch) and two CPUs",
)
def test_sagbi_check_failures_through_worker_processes(raw_images):
    # nonzero remainders and witnesses travel back from 2 real workers
    ctx = Context(3, 3, 1, 1)
    serial = straighten.sagbi_check(ctx, jobs=1)
    assert serial["failures"]
    assert straighten.sagbi_check(ctx, jobs=2) == serial


@pytest.fixture
def fresh_tables():
    """Clear the subduction table cache before and after the test, so a
    table built under a patch neither meets a cached one nor outlives it."""
    straighten._subduction_table.cache_clear()
    yield
    straighten._subduction_table.cache_clear()


def test_two_pairs_with_one_lead_monomial_are_internal_errors(fresh_tables, monkeypatch):
    # psi(1,4^0) := psi(2,3^0): the standard pairs (1,4^0)^2 and (2,3^0)^2
    # then share one lead monomial
    ctx = Context(2, 2, 1, 2)
    a, b = parse_var("1,4^0"), parse_var("2,3^0")
    real_psi = maps.psi
    monkeypatch.setattr(maps, "psi", lambda u, c: real_psi(b if u == a else u, c))
    with pytest.raises(InternalInconsistencyError, match="two standard factorizations"):
        straighten.subduction_table(ctx)
    code, out = run_cli("--p", "2", "--m", "2", "--n", "1", "--q", "2", "sagbi-check")
    assert code == 2
    assert out == ""


def test_kernel_oracle_needs_no_subduction_table(fresh_tables, monkeypatch):
    # the psi collision above stops every table build, but the oracle
    # reads only the masked images and still finds one relation per pair
    ctx = Context(2, 2, 1, 2)
    a, b = parse_var("1,4^0"), parse_var("2,3^0")
    real_psi = maps.psi
    monkeypatch.setattr(maps, "psi", lambda u, c: real_psi(b if u == a else u, c))
    relations = straighten.kernel_quadrics_oracle(ctx)
    assert len(relations) == len(lattice.incomparable_pairs(ctx)) == 5
    assert straighten._subduction_table.cache_info().currsize == 0


def test_jobs_are_checked_before_any_table_is_built(fresh_tables):
    with pytest.raises(InvalidInputError, match="jobs must be >= 1"):
        straighten.sagbi_check(Context(2, 2, 1, 2), jobs=0)
    assert straighten._subduction_table.cache_info().currsize == 0


def test_a_closed_stdout_exits_1_without_a_traceback():
    # the read end is closed before the child starts, so its first write
    # fails, every time
    src = str(pathlib.Path(cli.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from qgrass.cli import main; main()"
    argv = ["--p", "3", "--m", "3", "--n", "1", "--q", "3", "groebner"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, *argv], stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert b"Traceback" not in done.stderr, done.stderr.decode()


def eager_parser():
    """The 16 parsers written out by hand: the reference for `build_parser`,
    which builds them from the command tables."""
    parser = cli._parser_class()(prog="qgrass", description=cli.__doc__.rpartition("\n\n")[0])
    parser.add_argument("--p", type=int, required=True, help="number of matrix rows")
    parser.add_argument("--m", type=int, required=True, help="column surplus")
    parser.add_argument("--n", type=int, default=None, help="entry degree (default: ceil(q/p))")
    parser.add_argument("--q", type=int, default=None, help="shift bound (default: n*p)")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--compact", action="store_true", help="compact digit form for variables")
    sub = parser.add_subparsers(dest="command", required=True)

    poset = sub.add_parser("poset", help="lattice elements, incomparable pairs, ranks")
    poset_sub = poset.add_subparsers(dest="poset_command", required=True)
    p_list = poset_sub.add_parser("list")
    p_list.add_argument("--interval", nargs=2, metavar=("BOT", "TOP"))
    p_pairs = poset_sub.add_parser("pairs")
    p_pairs.add_argument("--interval", nargs=2, metavar=("BOT", "TOP"))
    p_rank = poset_sub.add_parser("rank")
    p_rank.add_argument("var")

    degree = sub.add_parser("degree", help="number of maximal chains")
    degree.add_argument("--interval", nargs=2, metavar=("BOT", "TOP"))

    for name in ("phi", "psi", "chi", "pi"):
        gen = sub.add_parser(name, help=f"{name} image of a lattice variable")
        gen.add_argument("var")

    schubert = sub.add_parser("schubert", help="cell mask and masked generator images")
    schubert.add_argument("top")
    schubert.add_argument("--skew", metavar="BOT", default=None)

    straight = sub.add_parser("straighten", help="straightening relation of an incomparable pair")
    straight.add_argument("gamma")
    straight.add_argument("delta")
    straight.add_argument("--interval", nargs=2, metavar=("BOT", "TOP"))

    groebner = sub.add_parser("groebner", help="all quadratic straightening relations")
    groebner.add_argument("--interval", nargs=2, metavar=("BOT", "TOP"))

    check = sub.add_parser("sagbi-check", help="subduct every incomparable product")
    check.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes, >= 1 (capped at the CPU count and the number of pairs)",
    )

    syz = sub.add_parser("syzygy", help="skew (w) or lifted (v) syzygy of a two-row tableau")
    syz.add_argument("kind", choices=["w", "v"])
    syz.add_argument("row1")
    syz.add_argument("row2")

    obvious = sub.add_parser("obvious", help="t-coefficient relations from the classical quadrics")
    obvious.add_argument("--rank", action="store_true", help="emit the rank/deficit report")

    # each leaf's handler, which cli.run calls from the parsed namespace
    for table, choices in ((cli._COMMANDS, sub.choices), (cli._POSET_COMMANDS, poset_sub.choices)):
        for name, leaf in choices.items():
            if table[name][2] is not None:
                leaf.set_defaults(handler=table[name][2])
    return parser


COMMANDS = [
    "poset", "degree", "phi", "psi", "chi", "pi", "schubert", "straighten", "groebner",
    "sagbi-check", "syzygy", "obvious",
]


def _parse(build, argv, capsys):
    """(exit code or None, Namespace or None, stdout, stderr) of one parse."""
    try:
        args, code = build().parse_args(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    captured = capsys.readouterr()
    return code, args, captured.out, captured.err


# The three test_deferred_parser_* tests compare the parsers that
# build_parser makes from the command tables with the hand-written
# eager_parser.  No parser is deferred any more; the names stay so that
# their test ids do.
@pytest.mark.parametrize(
    "argv",
    [["--help"]]
    + [[cmd, "--help"] for cmd in COMMANDS]
    + [["poset", sub, "--help"] for sub in ("list", "pairs", "rank")],
    ids=lambda argv: " ".join(argv[:-1]) or "root",
)
def test_deferred_parser_help_matches_eager(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    eager = _parse(eager_parser, argv, capsys)
    assert eager[0] == 0 and eager[2]
    assert _parse(cli.build_parser, argv, capsys) == eager


CTX = ["--p", "3", "--m", "3", "--n", "1", "--q", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        CTX + ["--format", "json", "--compact", "poset", "list", "--interval", "146^1", "235^2"],
        CTX + ["poset", "pairs", "--interval", "146^1", "235^2"],
        ["--p", "2", "--m", "3", "poset", "pairs"],
        CTX + ["poset", "rank", "235^2"],
        CTX + ["degree", "--interval", "146^1", "235^2"],
        CTX + ["degree"],
        CTX + ["phi", "456^2"],
        CTX + ["--format", "text", "psi", "456^2"],
        CTX + ["chi", "123^0"],
        CTX + ["pi", "235^2"],
        CTX + ["schubert", "235^2", "--skew", "146^1"],
        CTX + ["schubert", "235^2"],
        CTX + ["straighten", "156^1", "234^2", "--interval", "146^1", "235^2"],
        CTX + ["groebner", "--interval", "146^1", "235^2"],
        CTX + ["groebner"],
        CTX + ["sagbi-check", "--jobs", "2"],
        CTX + ["sagbi-check"],
        CTX + ["syzygy", "w", "156^1", "234^2"],
        CTX + ["syzygy", "v", "156^1", "234^2"],
        CTX + ["obvious", "--rank"],
        CTX + ["obvious"],
    ],
    ids=lambda argv: " ".join(argv[len(CTX):]),
)
def test_deferred_parser_namespace_matches_eager(capsys, argv):
    eager = _parse(eager_parser, argv, capsys)
    assert eager[0] is None and eager[1] is not None
    assert _parse(cli.build_parser, argv, capsys) == eager


@pytest.mark.parametrize(
    "argv",
    [
        CTX + ["nope"],
        ["--p", "2", "degree"],
        ["--p", "x", "--m", "2", "degree"],
        CTX + ["phi"],
        CTX + ["syzygy", "z", "156^1", "234^2"],
        CTX + ["groebner", "--interval", "146^1"],
        CTX + ["sagbi-check", "--jobs", "x"],
        CTX + ["poset", "nope"],
        CTX + ["poset", "rank"],
        CTX,
    ],
    ids=[
        "unknown-command", "missing-m", "non-integer-p", "missing-positional", "bad-syzygy-kind",
        "one-value-interval", "non-integer-jobs", "unknown-poset-command", "missing-poset-var",
        "missing-command",
    ],
)
def test_deferred_parser_usage_errors_match_eager(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    eager = _parse(eager_parser, argv, capsys)
    assert eager[0] == cli.USAGE_ERROR and eager[3]
    assert _parse(cli.build_parser, argv, capsys) == eager


def test_a_run_builds_only_the_invoked_commands_parser(collector, monkeypatch):
    src = str(pathlib.Path(cli.__file__).parents[1])
    code = (
        f"import argparse, sys; sys.path.insert(0, {src!r}); calls = []; "
        "init = argparse.ArgumentParser.__init__; "
        "argparse.ArgumentParser.__init__ = lambda *a, **k: calls.append(1) or init(*a, **k); "
        "import qgrass.cli; print(len(calls))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr

    calls = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    gc.disable()
    gc.collect()
    # a plain command line builds no parser and leaves no cyclic garbage
    plain = run_cli("--p", "2", "--m", "2", "--n", "1", "--format", "text", "poset", "list")
    assert (plain[0], calls, gc.collect()) == (0, [], 0)
    # written with `--opt=value` it goes to argparse, which builds every
    # parser of the tables, and runs the same command
    assert run_cli("--p", "2", "--m", "2", "--n", "1", "--format=text", "poset", "list") == plain
    assert len(calls) == 1 + len(cli._COMMANDS) + len(cli._POSET_COMMANDS)


def _run_output(argv, capsys):
    """(exit code, stdout, stderr) of cli.run(argv), SystemExit included."""
    try:
        code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv,sha256",
    [
        (["--help"], "b3968b88e5362ecefe279ab9a8ff3bee4bb65fd4dcbc37f5fa852aecd76cfa9a"),
        (["groebner", "--help"], "8e7db020b103c3dfd0ed24b5145575a185b2a48e4ea463756ec471de993e6db8"),
        (["poset", "list", "--help"],
         "ab3eb6a858c392d12603779d6255213f9e33c7b3b0d5961ec2975d6efd1f9445"),
        (["--p", "2", "degree"], "91933262278e7e67322c2e86e46c0e1dd590277b6f013582ff6e3d9e6867974c"),
        (CTX + ["nope"], "102cdacda6002de0133b620f5b11e66edd8f280fa53d09ca47327d69b3975e7a"),
    ],
    ids=["root help", "groebner help", "poset list help", "missing-m", "unknown-command"],
)
def test_help_and_usage_errors_ignore_the_terminal_width(monkeypatch, capsys, argv, sha256):
    # sha256 is that of the help on stdout, or of the usage error on
    # stderr, as argparse wrapped them under COLUMNS=80
    outputs = []
    for columns in ("40", "80", "200", None):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        outputs.append(_run_output(argv, capsys))
    assert outputs == [outputs[0]] * 4
    code, out, err = outputs[0]
    assert (err if code == 0 else out) == ""
    assert hashlib.sha256((out + err).encode()).hexdigest() == sha256


def _argv_id(argv):
    """argv as a test id: its words, an empty or spaced one in quotes and a
    long one cut short."""
    def word(w):
        return repr(w) if not w or " " in w else w if len(w) < 20 else f"{w[:4]}...({len(w)} chars)"

    return " ".join(map(word, argv))


def _argparse_vars(argv):
    """vars() of build_parser().parse_args(argv), or the exit code of the
    SystemExit that argparse raises instead."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        # the three benchmark workloads' command lines
        CTX + ["sagbi-check"],
        CTX + ["obvious", "--rank"],
        CTX + ["--compact", "groebner", "--interval", "146^1", "235^2"],
        # a repeated option keeps its last value, a repeated flag stays set
        ["--p", "2", "--p", "3", "--m", "3", "--compact", "--compact", "degree"],
        CTX + ["groebner", "--interval", "123^0", "456^3", "--interval", "146^1", "235^2"],
        # options between positionals, in any order
        CTX + ["straighten", "156^1", "--interval", "146^1", "235^2", "234^2"],
        CTX + ["schubert", "--skew", "146^1", "235^2"],
        # ints with a minus or leading zeros, and an empty str
        ["--p", "-1", "--m", "007", "degree"],
        CTX + ["schubert", "34^2", "--skew", ""],
        CTX + ["--format", "json", "syzygy", "v", "156^1", "234^2"],
        CTX + ["poset", "rank", "235^2"],
    ],
    ids=_argv_id,
)
def test_the_plain_reader_reads_as_argparse_does(argv):
    plain = cli._plain_args(argv)
    assert plain is not None
    assert vars(plain) == _argparse_vars(argv)


@pytest.mark.parametrize(
    "argv",
    [
        CTX + ["groebner", "--help"],
        CTX + ["-h"],
        ["--p", "3", "--m", "3", "--form", "json", "degree"],  # an abbreviation
        ["--p=3", "--m", "3", "degree"],
        CTX + ["--", "degree"],
        CTX + ["groebner", "--compact"],  # a root option after the command
        # words that are not ASCII digits: int() reads some, refuses others
        *(["--p", text, "--m", "3", "degree"] for text in ("+3", " 3", "3_0", "\u0663", "")),
        ["--p", "9" * 5000, "--m", "3", "degree"],  # beyond int()'s digit limit
        CTX + ["--format", "xml", "degree"],
        CTX + ["syzygy", "z", "156^1", "234^2"],
        CTX + ["schubert", "235^2", "--skew", "-146^1"],
        CTX + ["phi", "-456^2"],
        CTX + ["groebner", "--interval", "146^1"],
        ["--p", "2", "degree"],
        CTX + ["phi"],
        CTX,
        CTX + ["nope"],
        CTX + ["poset"],
        CTX + ["poset", "-h"],
        CTX + ["groebner", "extra"],
    ],
    ids=_argv_id,
)
def test_the_plain_reader_leaves_every_other_form_to_argparse(argv):
    assert cli._plain_args(argv) is None


@pytest.fixture
def collector():
    """Put the cyclic collector back as it was before the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_the_collector_is_paused_inside_a_run(collector, monkeypatch):
    gc.enable()
    seen = []
    real = lattice.count_maximal_chains

    def recording(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(lattice, "count_maximal_chains", recording)
    assert run_cli("--p", "2", "--m", "2", "degree") == (0, "2\n")
    assert seen == [False]
    assert gc.isenabled()


def _exit_code_from(argv, enabled):
    """cli.run's exit code, or that of the SystemExit it raises, with the
    collector set to enabled before the run; the run must leave it so."""
    (gc.enable if enabled else gc.disable)()
    try:
        code = cli.run(argv, out=io.StringIO())
    except SystemExit as exc:
        code = exc.code
    assert gc.isenabled() is enabled
    return code


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv,code",
    [
        (["--p", "2", "--m", "2", "degree"], 0),
        (["--p", "2", "--m", "2", "--n", "1", "--q", "3", "degree"], 1),  # a QgrassError
        (["--p", "2", "degree"], 1),  # argparse's SystemExit: --m is missing
    ],
    ids=["exit 0", "QgrassError", "SystemExit"],
)
def test_a_run_leaves_the_collector_as_it_found_it(collector, capsys, argv, code, enabled):
    assert _exit_code_from(argv, enabled) == code


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_failed_run_leaves_the_collector_as_it_found_it(collector, raw_images, capsys, enabled):
    argv = ["--p", "2", "--m", "2", "--n", "1", "--q", "1", "sagbi-check"]
    assert _exit_code_from(argv, enabled) == cli.MATH_ERROR
