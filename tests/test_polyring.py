import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest

from qgrass.lattice import Context, parse_var
from qgrass import polyring
from qgrass.errors import InvalidInputError
from qgrass.polyring import (
    Polynomial,
    X_ORDER,
    XVar,
    c_order,
    det,
    det_coeff,
    emit_json,
    emit_text,
    generator_matrix,
    initial_form,
    level_sum,
    mono_deg,
    mono_div,
    mono_from_pairs,
    mono_mul,
    parse_json,
    parse_text,
)

CTX = Context(3, 3, 1, 3)


def mono(*vars_):
    return mono_from_pairs((v, 1) for v in vars_)


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


def test_leading_term_of_phi_golden(ctx333):
    from qgrass.maps import phi

    coeff, m = X_ORDER.leading_term(phi(parse_var("456^2"), ctx333))
    assert coeff == -1
    assert m == mono(XVar(3, 6, 0), XVar(1, 5, 1), XVar(2, 4, 1))


def test_ring_ops():
    x = Polynomial.variable(XVar(1, 1, 0))
    y = Polynomial.variable(XVar(1, 2, 0))
    assert (x + (-x)).is_zero()
    assert (x + y) * (x - y) == x * x - y * y
    assert (x * y).degree() == 2
    assert Polynomial.zero().degree() == -1
    assert X_ORDER.leading_term(Polynomial.zero()) is None


def test_scalar_and_fraction_normalization():
    x = Polynomial.variable(XVar(1, 1, 0))
    f = x.scale(Fraction(4, 2))
    assert f.terms == {mono(XVar(1, 1, 0)): 2}
    assert isinstance(list(f.terms.values())[0], int)
    g = x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2))
    assert g == x


def test_mono_div():
    a = mono(XVar(1, 1, 0), XVar(1, 2, 0))
    b = mono(XVar(1, 1, 0))
    assert mono_div(a, b) == mono(XVar(1, 2, 0))
    assert mono_div(b, a) is None


def test_initial_form():
    f = Polynomial.variable(XVar(1, 1, 0)) + Polynomial.variable(XVar(1, 1, 1))
    w = lambda v: -v.level
    assert initial_form(f, w) == Polynomial.variable(XVar(1, 1, 0))
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


def perm_sign(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def leibniz_det_coeff(ctx, cols, a, mask=frozenset()):
    """Independent oracle: sum over permutations and level assignments."""
    acc = {}
    for perm in itertools.permutations(range(ctx.p)):
        sgn = perm_sign(perm)
        for levels in itertools.product(range(ctx.n + 1), repeat=ctx.p):
            if sum(levels) != a:
                continue
            vs = [XVar(i + 1, cols[perm[i]], levels[i]) for i in range(ctx.p)]
            if any(v in mask for v in vs):
                continue
            m = mono_from_pairs((v, 1) for v in vs)
            acc[m] = acc.get(m, 0) + sgn
    return Polynomial(acc)


def test_det_coeff_matches_leibniz_oracle():
    rng = random.Random(11)
    for _ in range(8):
        cols = tuple(sorted(rng.sample(range(1, 7), 3)))
        a = rng.randint(0, 3)
        assert det_coeff(CTX, cols, a) == leibniz_det_coeff(CTX, cols, a)


def test_det_coeff_masked_matches_leibniz_oracle():
    rng = random.Random(13)
    allvars = [XVar(i, j, l) for i in (1, 2, 3) for j in range(1, 7) for l in (0, 1)]
    for _ in range(6):
        mask = frozenset(rng.sample(allvars, 8))
        cols = tuple(sorted(rng.sample(range(1, 7), 3)))
        a = rng.randint(0, 3)
        assert det_coeff(CTX, cols, a, mask) == leibniz_det_coeff(CTX, cols, a, mask)


def test_det_zero_row():
    rows = [
        [Polynomial.zero(), Polynomial.zero()],
        [Polynomial.variable(XVar(2, 1, 0)), Polynomial.variable(XVar(2, 2, 0))],
    ]
    assert det(rows).is_zero()


def test_det_coeff_above_max_degree_is_zero():
    assert det_coeff(CTX, (1, 2, 3), 4).is_zero()


def test_det_coeff_degree_count():
    # coefficient of t^a has 6 * C(3, a) terms for the full 3x3 minor
    for a, n_terms in [(0, 6), (1, 18), (2, 18), (3, 6)]:
        assert len(det_coeff(CTX, (4, 5, 6), a).terms) == n_terms


def test_level_sum_grading():
    f = det_coeff(CTX, (1, 3, 5), 2)
    assert all(level_sum(m) == 2 for m in f.terms)


def test_emit_parse_round_trip_x():
    f = det_coeff(CTX, (2, 4, 6), 1) + Polynomial.term(
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
    import jsonschema

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
    import jsonschema

    schema = json.loads(
        (pathlib.Path(__file__).parent.parent / "schemas" / "polynomial.json").read_text()
    )
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)
    with pytest.raises(InvalidInputError):
        parse_json(json.dumps(doc))


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
        (parse_json, json.dumps({"vars": "X", "terms": [_term("1", ("x[1,1,0]", 1, 2))]})),
        (parse_json, json.dumps({"vars": "X", "terms": [_term("1", ("x[1,1,0]",))]})),
        (parse_json, json.dumps({"vars": "X", "terms": [{"c": "1", "m": "x"}]})),
        (parse_json, json.dumps({"vars": "X", "terms": {}})),
        (parse_json, "["),
    ],
    ids=["empty-text", "sign-only", "pair-of-3", "pair-of-1", "m-not-array",
         "terms-not-array", "not-json"],
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


def test_generator_matrix_masked_entry():
    mask = frozenset({XVar(1, 1, 1)})
    matrix = generator_matrix(CTX, mask)
    assert matrix[0][0] == Polynomial.variable(XVar(1, 1, 0))


def test_order_multiplicative_property():
    rng = random.Random(3)
    xvars = [XVar(i, j, l) for i in (1, 2, 3) for j in (1, 2, 3) for l in (0, 1)]
    for _ in range(100):
        a = mono(*rng.sample(xvars, 2))
        b = mono(*rng.sample(xvars, 2))
        c = mono(*rng.sample(xvars, 2))
        cmp_ab = X_ORDER.compare(a, b)
        assert X_ORDER.compare(mono_mul(a, c), mono_mul(b, c)) == cmp_ab
