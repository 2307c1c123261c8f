import functools
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test skips; the other tests still run
    given = settings = st = None

from qgrass.lattice import Context, PluckerVar, YoungSeq, parse_var
from qgrass import lattice, maps, polyring
from qgrass.errors import DomainError, InvalidInputError
from qgrass.maps import generator_image
from qgrass.polyring import (
    Polynomial,
    X_ORDER,
    XVar,
    det,
    emit_json,
    emit_text,
    format_variable,
    initial_form,
    mono_deg,
    mono_from_pairs,
    mono_mul,
    norm_coeff,
    order_for,
    pair_mono,
)

from conftest import minor_map, variable
from parsers import parse_json, parse_text

CTX = Context(3, 3, 1, 3)


def mono(*vars_):
    return mono_from_pairs((v, 1) for v in vars_)


def mono_div(a, b):
    """a / b, or None when b does not divide a."""
    db = dict(b)
    out = []
    for v, e in a:
        r = e - db.pop(v, 0)
        if r < 0:
            return None
        if r:
            out.append((v, r))
    if db:
        return None
    return tuple(out)


def degree(poly):
    """Total degree; -1 for the zero polynomial."""
    return max((mono_deg(m) for m in poly.terms), default=-1)


def test_variable_chain_order():
    chain = [
        XVar(1, 2, 0),
        XVar(1, 2, 1),
        XVar(1, 5, 1),
        XVar(2, 3, 1),
        XVar(2, 4, 1),
        XVar(1, 3, 2),
    ]
    keys = [X_ORDER.var_key(v) for v in chain]
    assert keys == sorted(keys)


def test_degrevlex_degree_first():
    a = mono(XVar(1, 1, 0), XVar(1, 2, 0))
    b = mono(XVar(1, 1, 0), XVar(1, 2, 0), XVar(1, 3, 0))
    assert X_ORDER.compare(a, b) < 0


def test_degrevlex_tie_break_smallest_variable():
    # same degree: the monomial with less of the smallest variable wins
    a = mono(XVar(1, 1, 0), XVar(2, 2, 0))
    b = mono(XVar(1, 2, 0), XVar(2, 1, 0))
    # smallest differing variable is x[1,1,0]; a has it, b does not
    assert X_ORDER.compare(b, a) > 0
    # equal monomials tie at every variable
    assert X_ORDER.compare(a, a) == 0


def test_leading_term_of_phi_golden(ctx333):
    from qgrass.maps import phi

    coeff, m = X_ORDER.leading_term(phi(parse_var("456^2"), ctx333))
    assert coeff == -1
    assert m == mono(XVar(3, 6, 0), XVar(1, 5, 1), XVar(2, 4, 1))


def test_ring_ops():
    x = variable(XVar(1, 1, 0))
    y = variable(XVar(1, 2, 0))
    assert (x + (-x)).is_zero()
    assert (x + y) * (x - y) == x * x - y * y
    assert degree(x * y) == 2
    assert degree(Polynomial.zero()) == -1
    assert X_ORDER.leading_term(Polynomial.zero()) is None


def test_scalar_and_fraction_normalization():
    x = variable(XVar(1, 1, 0))
    f = x.scale(Fraction(4, 2))
    assert f.terms == {mono(XVar(1, 1, 0)): 2}
    assert isinstance(list(f.terms.values())[0], int)
    g = x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2))
    assert g == x


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_arithmetic_results_are_in_normal_form():
    # polynomials in x, y as dicts (i, j) -> coefficient for x^i*y^j, with
    # int, half and whole Fraction coefficients; the reference computes
    # term by term in Fraction and drops zeros
    x, y = XVar(1, 1, 0), XVar(1, 2, 0)
    exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
    small = st.integers(-3, 3)
    coeffs = st.one_of(
        small, small.map(lambda k: Fraction(k, 2)), small.map(lambda k: Fraction(2 * k, 2))
    )
    dicts = st.dictionaries(exponents, coeffs, max_size=5)

    def poly(d):
        return Polynomial({mono_from_pairs([(x, i), (y, j)]): c for (i, j), c in d.items()})

    def reference(d):
        return {mono_from_pairs([(x, i), (y, j)]): c for (i, j), c in d.items() if c}

    def plus(a, b):
        out = {e: Fraction(c) for e, c in a.items()}
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
        return out

    def times(a, b):
        out = {}
        for (i, j), ca in a.items():
            for (k, l), cb in b.items():
                out[i + k, j + l] = out.get((i + k, j + l), 0) + Fraction(ca) * cb
        return out

    def negated(a):
        return {e: -Fraction(c) for e, c in a.items()}

    @settings(max_examples=200, deadline=None)
    @given(dicts, dicts, coeffs)
    def check(a, b, c):
        pa, pb = poly(a), poly(b)
        results = [
            (pa + pb, plus(a, b)),
            (pa - pb, plus(a, negated(b))),
            (-pa, negated(a)),
            (pa * pb, times(a, b)),
            (pa.scale(c), times(a, {(0, 0): c})),
            (pa.scale(0), {}),
        ]
        for got, want in results:
            assert all(v != 0 for v in got.terms.values())
            assert not any(type(v) is Fraction and v.denominator == 1 for v in got.terms.values())
            assert got.terms == reference(want)

    check()


def test_norm_coeff_turns_only_a_whole_fraction_into_an_int():
    for c in (0, -3, 7, 10**30):
        assert norm_coeff(c) is c
    whole = norm_coeff(Fraction(-4, 2))
    assert (whole, type(whole)) == (-2, int)
    half = Fraction(1, 2)
    assert norm_coeff(half) is half
    # any other value, a bool included, comes back as it is
    assert norm_coeff(True) is True
    assert norm_coeff(2.0) == 2.0 and type(norm_coeff(2.0)) is float


def test_format_coeff_prints_every_fraction_as_n_over_d():
    # a Fraction with denominator 1 never reaches the emitters from a
    # Polynomial, which normalizes it, but still prints as n/1
    fractions = [Fraction(1, 2), Fraction(-6, 4), Fraction(3, 1)]
    assert [polyring._format_coeff(c) for c in fractions] == ["1/2", "-3/2", "3/1"]
    assert [polyring._format_coeff(c) for c in (7, -3, 0, True)] == ["7", "-3", "0", "True"]


F = Polynomial({mono(XVar(1, 1, 0)): 1, mono(XVar(2, 2, 0)): -2})


# each case names the statement of polyring that it reaches and no command runs
@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: order_for("Q"), InvalidInputError, id="order_for-unknown-universe"),
        pytest.param(lambda: order_for("C"), InvalidInputError, id="order_for-C-without-context"),
        pytest.param(
            lambda: format_variable(XVar(1, 1, 0), "Q"),
            InvalidInputError,
            id="format_variable-unknown-universe",
        ),
        pytest.param(lambda: F**-1, InvalidInputError, id="pow-negative-exponent"),
        pytest.param(lambda: F.scale(0), Polynomial.zero(), id="scale-by-zero"),
        pytest.param(
            lambda: (F * 3, 3 * F),
            (Polynomial({mono(XVar(1, 1, 0)): 3, mono(XVar(2, 2, 0)): -6}),) * 2,
            id="mul-by-a-scalar",
        ),
        pytest.param(lambda: repr(Polynomial.zero()), "Polynomial(0 terms)", id="repr"),
    ],
)
def test_library_paths(call, expected):
    if expected is InvalidInputError:
        with pytest.raises(InvalidInputError):
            call()
    else:
        assert call() == expected


def test_polynomial_is_unhashable():
    # a Polynomial is mutable, and generator_image's cache hands one
    # instance to every caller, so a hash of it could go stale
    with pytest.raises(TypeError):
        hash(Polynomial())


def test_mono_div():
    a = mono(XVar(1, 1, 0), XVar(1, 2, 0))
    b = mono(XVar(1, 1, 0))
    assert mono_div(a, b) == mono(XVar(1, 2, 0))
    assert mono_div(b, a) is None


def test_initial_form():
    f = variable(XVar(1, 1, 0)) + variable(XVar(1, 1, 1))
    w = lambda v: -v.level
    assert initial_form(f, w) == variable(XVar(1, 1, 0))
    single = Polynomial.term(mono(XVar(2, 2, 1)), 7)
    assert initial_form(single, w) == single
    assert initial_form(Polynomial.zero(), w).is_zero()


def test_initial_form_multiplicative():
    rng = random.Random(7)
    xvars = [XVar(i, j, l) for i in (1, 2) for j in (1, 2, 3) for l in (0, 1)]
    w = lambda v: -((2 * v.level + v.row) ** 2)
    for _ in range(50):
        f = Polynomial(
            {mono(*rng.sample(xvars, 2)): rng.randint(-3, 3) for _ in range(4)}
        )
        g = Polynomial(
            {mono(*rng.sample(xvars, 2)): rng.randint(-3, 3) for _ in range(4)}
        )
        if f.is_zero() or g.is_zero():
            continue
        assert initial_form(f * g, w) == initial_form(f, w) * initial_form(g, w)


def level_sum(a):
    """Total level of an X-monomial; equals its degree in the deformation parameter."""
    return sum(e * v.level for v, e in a)


def cofactor_det(rows):
    """Reference: determinant of a matrix of polynomials by cofactor expansion
    along the sparsest row."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InvalidInputError("determinant of a non-square matrix")
    if n == 0:
        return Polynomial.constant(1)
    if n == 1:
        return rows[0][0]
    r = min(range(n), key=lambda i: sum(1 for e in rows[i] if e))
    rest = [row for i, row in enumerate(rows) if i != r]
    acc = Polynomial.zero()
    for j, e in enumerate(rows[r]):
        if not e:
            continue
        piece = e * cofactor_det([row[:j] + row[j + 1 :] for row in rest])
        acc = acc + (piece if (r + j) % 2 == 0 else -piece)
    return acc


def level_summed_matrix(ctx, mask=frozenset()):
    """Reference: the p x (m+p) matrix whose (i,j) entry sums x[i,j,l] over
    the unmasked levels l."""
    return [
        [
            Polynomial(
                {((XVar(i, j, l), 1),): 1 for l in range(ctx.n + 1) if XVar(i, j, l) not in mask}
            )
            for j in range(1, ctx.width + 1)
        ]
        for i in range(1, ctx.p + 1)
    ]


@functools.lru_cache(maxsize=64)
def cofactor_minor(ctx, cols, mask=frozenset()):
    """Reference: the maximal minor on cols of the level-summed matrix; the
    coefficients of one minor are read off one expansion."""
    matrix = level_summed_matrix(ctx, mask)
    return cofactor_det([[row[j - 1] for j in cols] for row in matrix])


def det_coeff(ctx, cols, a, mask=frozenset()):
    """Reference: coefficient of t^a in the maximal minor on cols, the terms
    of the cofactor minor whose level sum is a."""
    minor = cofactor_minor(ctx, tuple(cols), mask)
    return Polynomial({m: c for m, c in minor.terms.items() if level_sum(m) == a})


def test_det_coeff_masked_matches_leibniz_oracle():
    rng = random.Random(13)
    allvars = [XVar(i, j, l) for i in (1, 2, 3) for j in range(1, 7) for l in (0, 1)]
    for _ in range(6):
        mask = frozenset(rng.sample(allvars, 8))
        cols = tuple(sorted(rng.sample(range(1, 7), 3)))
        a = rng.randint(0, 3)
        image = generator_image(PluckerVar(cols, a), CTX, mask)
        assert image == det_coeff(CTX, cols, a, mask)


# (3,3,1,1) is the one context with q < n*p, where interval_mask truncates
# the images even without an interval (the cell mask of the top element)
DIFF_CONTEXTS = [
    Context(*params) for params in [(2, 2, 1, 2), (2, 3, 1, 2), (3, 3, 1, 1), (3, 3, 1, 3), (3, 3, 2, 6)]
]


def interval_masks(ctx, count, seed):
    """The masks of count seeded intervals [b, t], b < t."""
    rng = random.Random(seed)
    elems = lattice.elements(ctx)
    masks = []
    while len(masks) < count:
        b, t = rng.sample(elems, 2)
        if lattice.leq(b, t):
            masks.append(maps.schubert_mask(ctx, t, b))
    return masks


def assert_signed_terms(f):
    """No two Leibniz terms cancel, so every coefficient is 1 or -1."""
    assert set(f.terms.values()) <= {1, -1}


@pytest.mark.parametrize("ctx", DIFF_CONTEXTS, ids=str)
def test_generator_image_matches_cofactor_reference(ctx, monkeypatch):
    elems = lattice.elements(ctx)
    masks = [maps.EMPTY_MASK]
    masks += [maps.schubert_mask(ctx, u) for u in elems]
    masks += interval_masks(ctx, 20, seed=sum(ctx))
    # uncached, signed images included, so the ~20k images at (3,3,2,6)
    # are not kept; elements sorted by columns, so each reference minor is
    # expanded once per mask
    monkeypatch.setattr(maps, "signed_image", maps.signed_image.__wrapped__)
    build = maps.generator_image.__wrapped__
    for mask in masks:
        for u in sorted(elems, key=lambda u: u.cols):
            f = build(u, ctx, mask)
            assert f == det_coeff(ctx, u.cols, u.shift, mask), (u, sorted(mask))
            assert_signed_terms(f)


@pytest.mark.parametrize("ctx", DIFF_CONTEXTS, ids=str)
def test_unmasked_image_has_one_term_per_permutation_and_composition(ctx):
    for u in lattice.elements(ctx):
        compositions = sum(
            1 for ls in itertools.product(range(ctx.n + 1), repeat=ctx.p) if sum(ls) == u.shift
        )
        f = generator_image(u, ctx)
        assert len(f.terms) == math.factorial(ctx.p) * compositions, u
        assert_signed_terms(f)


@pytest.mark.parametrize("ctx", DIFF_CONTEXTS, ids=str)
def test_chi_matches_cofactor_reference(ctx):
    # every shift up to one past n*p, where the rows leave the stacked matrix
    columns = itertools.combinations(range(1, ctx.width + 1), ctx.p)
    for cols, a in itertools.product(columns, range(ctx.n * ctx.p + 2)):
        u = PluckerVar(cols, a)
        if u.shift + ctx.p > ctx.p * (ctx.n + 1):
            with pytest.raises(DomainError):
                maps.chi(u, ctx)
            continue
        levels_rows = [divmod(u.shift + i, ctx.p) for i in range(ctx.p)]
        block = [[variable(XVar(r + 1, j, l)) for j in u.cols] for l, r in levels_rows]
        f = maps.chi(u, ctx)
        assert f == cofactor_det(block), u
        assert len(f.terms) == math.factorial(ctx.p)
        assert_signed_terms(f)


def test_minor_map_refuses_a_repeated_column(ctx333):
    with pytest.raises(InvalidInputError):
        minor_map(YoungSeq((2, 2, 5)), ctx333)


def test_det_zero_row():
    assert det([[None, None], [XVar(2, 1, 0), XVar(2, 2, 0)]]).is_zero()


def test_det_refuses_a_non_square_block():
    with pytest.raises(InvalidInputError):
        det([[XVar(1, 1, 0), XVar(1, 2, 0)]])


def test_det_coeff_degree_count():
    # coefficient of t^a has 6 * C(3, a) terms for the full 3x3 minor
    for a, n_terms in [(0, 6), (1, 18), (2, 18), (3, 6)]:
        assert len(generator_image(PluckerVar((4, 5, 6), a), CTX).terms) == n_terms


def test_level_sum_grading():
    f = generator_image(PluckerVar((1, 3, 5), 2), CTX)
    assert f and all(level_sum(m) == 2 for m in f.terms)


def test_emit_parse_round_trip_x():
    f = generator_image(PluckerVar((2, 4, 6), 1), CTX) + Polynomial.term(
        mono(XVar(1, 1, 0), XVar(1, 1, 1)), Fraction(5, 3)
    )
    text = emit_text(f, "X")
    assert parse_text(text, "X") == f
    doc = emit_json(f, "X")
    back, kind = parse_json(doc)
    assert kind == "X" and back == f


def test_emit_parse_round_trip_c(ctx333):
    u, v = parse_var("156^1"), parse_var("234^2")
    f = Polynomial({mono(u, v): 2, mono_from_pairs([(u, 2)]): -1})
    text = emit_text(f, "C", ctx333)
    assert parse_text(text, "C", p=3) == f
    compact = emit_text(f, "C", ctx333, compact=True)
    assert parse_text(compact, "C", p=3) == f
    back, kind = parse_json(emit_json(f, "C", ctx333))
    assert kind == "C" and back == f


def test_emit_zero():
    assert emit_text(Polynomial.zero(), "X") == "0"
    assert parse_text("0", "X").is_zero()


def test_json_schema_validation(ctx333):
    jsonschema = pytest.importorskip("jsonschema")

    schema = json.loads(
        (pathlib.Path(__file__).parent.parent / "schemas" / "polynomial.json").read_text()
    )
    from qgrass.maps import phi, pi

    for doc in [
        emit_json(phi(parse_var("456^2"), ctx333), "X"),
        emit_json(pi(parse_var("235^2"), ctx333), "J"),
        emit_json(Polynomial.zero(), "X"),
    ]:
        jsonschema.validate(json.loads(doc), schema)


BAD_TEXT = [
    "x[1,1,0]**a",
    "x[1,1,0]**-1",
    "x[1,1,0]**0",
    "x[1,1,0]**1.5",
    "2/0*x[1,1,0]",
    "x[1,2,0] - 3/00*x[1,1,0]",
]


@pytest.mark.parametrize("text", BAD_TEXT)
def test_parse_text_refuses_what_the_schema_refuses(text):
    with pytest.raises(InvalidInputError):
        parse_text(text, "X")


def _term(c, *pairs):
    return {"c": c, "m": [list(pair) for pair in pairs]}


BAD_JSON = [
    {"vars": "X", "terms": [_term("1", ("x[1,1,0]", -2))]},
    {"vars": "X", "terms": [_term("1", ("x[1,1,0]", 0))]},
    {"vars": "X", "terms": [_term("1", ("x[1,1,0]", 1.5))]},
    {"vars": "X", "terms": [_term("1", ("x[1,1,0]", "2"))]},
    {"vars": "X", "terms": [_term("1", ("x[1,1,0]", True))]},
    {"vars": "X", "terms": [_term("1.5", ("x[1,1,0]", 1))]},
    {"vars": "X", "terms": [_term(2, ("x[1,1,0]", 1))]},
    {"vars": "Q", "terms": []},
    {"terms": []},
    {"vars": "X"},
    {"vars": "X", "terms": [], "extra": 1},
    {"vars": "X", "terms": [{"m": [["x[1,1,0]", 1]]}]},
    {"vars": "X", "terms": [{"c": "1"}]},
    ["X", []],
]


@pytest.mark.parametrize("doc", BAD_JSON)
def test_parse_json_refuses_what_the_schema_refuses(doc):
    with pytest.raises(InvalidInputError):
        parse_json(json.dumps(doc))
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (pathlib.Path(__file__).parent.parent / "schemas" / "polynomial.json").read_text()
    )
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


def test_parse_json_refuses_a_zero_denominator():
    # the schema's coefficient pattern admits "a/0", which names no number
    doc = {"vars": "X", "terms": [_term("2/0", ("x[1,1,0]", 1))]}
    with pytest.raises(InvalidInputError):
        parse_json(json.dumps(doc))


@pytest.mark.parametrize(
    "parse,text",
    [
        (lambda t: parse_text(t, "X"), ""),
        (lambda t: parse_text(t, "X"), "-"),
        (lambda t: parse_text(t, "X"), "x[1,1,0]*"),
        (lambda t: parse_text(t, "X"), "*x[1,1,0]"),
        (lambda t: parse_text(t, "X"), "x[1,1,0]* *x[1,2,0]"),
        (lambda t: parse_text(t, "X"), "x[１,1,0]"),
        (lambda t: parse_text(t, "J"), "(５,9,10)"),
        (lambda t: parse_text(t, "X"), "x[1,1,0]**２"),
        (parse_json, json.dumps({"vars": "X", "terms": [_term("1", ("x[1,1,0]", 1, 2))]})),
        (parse_json, json.dumps({"vars": "X", "terms": [_term("1", ("x[1,1,0]",))]})),
        (parse_json, json.dumps({"vars": "X", "terms": [{"c": "1", "m": "x"}]})),
        (parse_json, json.dumps({"vars": "X", "terms": {}})),
        (parse_json, "["),
    ],
    ids=["empty-text", "sign-only", "dangling-star", "leading-star", "doubled-star",
         "wide-digit-variable", "wide-digit-sequence", "wide-digit-exponent",
         "pair-of-3", "pair-of-1", "m-not-array", "terms-not-array", "not-json"],
)
def test_parsers_refuse_malformed_input(parse, text):
    with pytest.raises(InvalidInputError):
        parse(text)


def test_emission_is_descending(ctx333):
    from qgrass.maps import phi

    f = phi(parse_var("456^2"), ctx333)
    terms = X_ORDER.sorted_terms(f)
    for (a, _), (b, _) in zip(terms, terms[1:]):
        assert X_ORDER.compare(a, b) > 0


def test_order_multiplicative_property():
    rng = random.Random(3)
    xvars = [XVar(i, j, l) for i in (1, 2, 3) for j in (1, 2, 3) for l in (0, 1)]
    for _ in range(100):
        a = mono(*rng.sample(xvars, 2))
        b = mono(*rng.sample(xvars, 2))
        c = mono(*rng.sample(xvars, 2))
        cmp_ab = X_ORDER.compare(a, b)
        assert X_ORDER.compare(mono_mul(a, c), mono_mul(b, c)) == cmp_ab


@pytest.mark.parametrize("params", [(3, 3, 1, 2), (3, 3, 2, 6)])
def test_pair_mono_matches_mono_from_pairs(params):
    elems = lattice.elements(Context(*params))
    for u, v in itertools.combinations_with_replacement(elems, 2):
        for a, b in ((u, v), (v, u)):
            assert pair_mono(a, b) == mono_from_pairs([(a, 1), (b, 1)])
