"""Randomized property suites; runnable standalone via
`pytest tests/test_properties.py`.  Each suite drives at least 1000 cases."""

import contextlib
import io
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from qgrass import cli
from qgrass.lattice import (
    Context,
    elements,
    from_young,
    leq,
    meet_join,
    rank,
    to_young,
)
from qgrass.polyring import (
    Polynomial,
    X_ORDER,
    XVar,
    emit_json,
    emit_text,
    initial_form,
    mono_from_pairs,
    mono_mul,
)

from parsers import parse_json, parse_text
from test_lattice import young_rank

CTX = Context(3, 3, 1, 3)
ELEMS = elements(CTX)
XVARS = [XVar(i, j, l) for i in (1, 2, 3) for j in range(1, 7) for l in (0, 1)]

MANY = settings(max_examples=1000, deadline=None, derandomize=True)

lattice_var = st.sampled_from(ELEMS)
x_var = st.sampled_from(XVARS)

coeff = st.one_of(
    st.integers(min_value=-99, max_value=99).filter(bool),
    st.builds(
        Fraction,
        st.integers(min_value=-30, max_value=30).filter(bool),
        st.integers(min_value=1, max_value=12),
    ),
)


def x_mono(draw_vars):
    return mono_from_pairs((v, 1) for v in draw_vars)


x_monomial = st.lists(x_var, min_size=1, max_size=4).map(x_mono)
c_monomial = st.lists(lattice_var, min_size=1, max_size=3).map(
    lambda vs: mono_from_pairs((v, 1) for v in vs)
)


def poly_from(pairs):
    acc = {}
    for m, c in pairs:
        acc[m] = acc.get(m, 0) + c
    return Polynomial(acc)


x_polynomial = st.lists(st.tuples(x_monomial, coeff), min_size=0, max_size=6).map(poly_from)
c_polynomial = st.lists(st.tuples(c_monomial, coeff), min_size=0, max_size=6).map(poly_from)


# -- lattice laws -------------------------------------------------------------


@MANY
@given(lattice_var, lattice_var, lattice_var)
def test_lattice_laws(u, v, w):
    mu, ju = meet_join(u, v)
    mv, jv = meet_join(v, u)
    assert (mu, ju) == (mv, jv)  # commutativity
    assert leq(mu, u) and leq(mu, v) and leq(u, ju) and leq(v, ju)  # bounds
    # associativity via iterated meets/joins
    m_uv_w = meet_join(mu, w)[0]
    m_u_vw = meet_join(u, meet_join(v, w)[0])[0]
    assert m_uv_w == m_u_vw
    j_uv_w = meet_join(ju, w)[1]
    j_u_vw = meet_join(u, meet_join(v, w)[1])[1]
    assert j_uv_w == j_u_vw
    # absorption
    assert meet_join(u, ju)[0] == u
    assert meet_join(u, mu)[1] == u
    # distributivity
    lhs = meet_join(u, meet_join(v, w)[1])[0]
    rhs = meet_join(meet_join(u, v)[0], meet_join(u, w)[0])[1]
    assert lhs == rhs


@MANY
@given(lattice_var, lattice_var)
def test_order_from_meet_and_join(u, v):
    meet, join = meet_join(u, v)
    assert leq(u, v) == (meet == u) == (join == v)


@MANY
@given(lattice_var, lattice_var)
def test_rank_modularity_and_young(u, v):
    meet, join = meet_join(u, v)
    assert rank(meet, CTX) + rank(join, CTX) == rank(u, CTX) + rank(v, CTX)
    ju, jv = to_young(u, CTX), to_young(v, CTX)
    assert leq(u, v) == all(a <= b for a, b in zip(ju.entries, jv.entries))
    assert rank(u, CTX) == young_rank(ju)
    assert from_young(ju, CTX) == u
    jm, jj = to_young(meet, CTX), to_young(join, CTX)
    assert jm.entries == tuple(map(min, zip(ju.entries, jv.entries)))
    assert jj.entries == tuple(map(max, zip(ju.entries, jv.entries)))


# -- term order and initial forms ----------------------------------------------


@MANY
@given(x_monomial, x_monomial, x_monomial)
def test_term_order_multiplicative(a, b, c):
    assert X_ORDER.compare(mono_mul(a, c), mono_mul(b, c)) == X_ORDER.compare(a, b)
    assert X_ORDER.compare(mono_mul(a, b), a) >= 0  # 1 is minimal


@MANY
@given(x_polynomial, x_polynomial)
def test_leading_term_and_weight_multiplicative(f, g):
    w = lambda v: -((3 * v.level + v.row) ** 2)
    fg = f * g
    if f.is_zero() or g.is_zero():
        assert fg.is_zero()
        return
    cf, mf = X_ORDER.leading_term(f)
    cg, mg = X_ORDER.leading_term(g)
    cfg, mfg = X_ORDER.leading_term(fg)
    assert mfg == mono_mul(mf, mg)
    assert cfg == cf * cg
    assert initial_form(fg, w) == initial_form(f, w) * initial_form(g, w)


# -- serialization -------------------------------------------------------------


@MANY
@given(x_polynomial)
def test_x_serialization_round_trip(f):
    assert parse_text(emit_text(f, "X"), "X") == f
    back, kind = parse_json(emit_json(f, "X"))
    assert kind == "X" and back == f


@MANY
@given(c_polynomial)
def test_c_serialization_round_trip(f):
    assert parse_text(emit_text(f, "C", CTX), "C", p=3) == f
    assert parse_text(emit_text(f, "C", CTX, compact=True), "C", p=3) == f
    back, kind = parse_json(emit_json(f, "C", CTX))
    assert kind == "C" and back == f


# -- command-line readers -------------------------------------------------------

# words of every kind: exact option names, abbreviations, `--opt=value`,
# help, `--`, command names, ints (some in forms that int() reads but the
# plain reader leaves to argparse), variables, choices and the empty word
WORDS = (
    [name for name, _ in cli._ROOT]
    + ["--interval", "--skew", "--jobs", "--rank"]
    + ["--form", "--comp", "--int", "--sk", "--jo", "--ra", "--c"]
    + ["--p=3", "--format=json", "-h", "--help", "--"]
    + list(cli._COMMANDS) + list(cli._POSET_COMMANDS)
    + ["3", "1", "2", "-1", "+3", "3_0", "\u0663"]
    + ["146^1", "235^2", "156^1", "234^2", "123^0"]
    + ["text", "json", "w", "v", ""]
)
word = st.sampled_from(WORDS)


def _leaves(table, words=()):
    """(command words, argument spec) of each leaf command of table."""
    for name, (_, spec, _) in table.items():
        if isinstance(spec, dict):
            yield from _leaves(spec, words + (name,))
        else:
            yield list(words + (name,)), spec


def _written(name, kwargs):
    """One argument written out: its option name, if any, then its values,
    mostly plain."""
    if kwargs.get("action") == "store_true":
        return st.just([name])
    if "choices" in kwargs:
        value = st.sampled_from(kwargs["choices"] * 5 + ["x"])
    elif kwargs.get("type") is int:
        value = st.sampled_from(["3", "1", "-1", "07"] * 3 + ["+3", "3_0"])
    else:
        value = st.sampled_from(["146^1", "235^2", "156^1", "234^2", ""] * 2 + ["-1"])
    count = kwargs.get("nargs", 1)
    values = st.lists(value, min_size=count, max_size=count)
    return values.map(lambda vs: [name, *vs] if name.startswith("-") else vs)


@st.composite
def _arguments(draw, spec):
    """spec's arguments written out, each mostly once (but an option
    sometimes twice, and any argument sometimes not at all), in any order."""
    phrases = []
    for name, kwargs in spec:
        for _ in range(draw(st.sampled_from([0] + [1] * 8 + [2] * (name[0] == "-")))):
            phrases.append(draw(_written(name, kwargs)))
    return [w for phrase in draw(st.permutations(phrases)) for w in phrase]


@st.composite
def command_line(draw):
    words, spec = draw(st.sampled_from(list(_leaves(cli._COMMANDS))))
    return draw(_arguments(cli._ROOT)) + words + draw(_arguments(spec))


# random words, command lines written out from the tables, and those with
# one random word put in
argv = st.one_of(
    st.lists(word, max_size=12),
    command_line(),
    st.builds(lambda ws, i, w: ws[:i] + [w] + ws[i:], command_line(), st.integers(0, 20), word),
)


@MANY
@given(argv)
def test_the_plain_reader_agrees_with_argparse(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = cli.build_parser().parse_args(argv)  # a SystemExit fails the test
        assert vars(plain) == vars(parsed)
