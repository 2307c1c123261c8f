import io
import itertools

import pytest

from qgrass.errors import InternalInconsistencyError, InvalidInputError
from qgrass.lattice import Context, PluckerVar, incomparable_pairs, parse_var
from qgrass import cli, lattice, linalg, maps, polyring, straighten
from qgrass.polyring import Polynomial, initial_form, mono_from_pairs
from qgrass.syzygy import (
    coefficient_relation_report,
    coefficient_relations,
    quantum_syzygy_v,
    rank_of_span,
    shift_weight,
    skew_syzygy_w,
    sort_signed,
    weight_initial_r,
)

from conftest import apply_hom, substitute


def pair_mono(u, v):
    return mono_from_pairs([(u, 1), (v, 1)])


def chi_image(f, ctx):
    return substitute(f, lambda u: maps.chi(u, ctx))


def solve_based_lift(t, ctx):
    """Reference for quantum_syzygy_v: straighten every incomparable pair
    at the tableau's weight level and solve for the skew syzygy in the span
    of their initial forms, which are linearly independent."""
    w_target = skew_syzygy_w(t, ctx)
    u, v = t
    level = shift_weight(u) + shift_weight(v)
    pairs = [
        (g, d)
        for g, d in lattice.incomparable_pairs(ctx)
        if shift_weight(g) + shift_weight(d) == level
    ]
    relations = [straighten.straightening_relation(g, d, ctx) for g, d in pairs]
    initial_rows = [
        dict(polyring.initial_form(rel.poly, shift_weight).terms) for rel in relations
    ]
    combo = linalg.solve_in_span(
        dict(w_target.terms), initial_rows, polyring.c_order(ctx).key
    )
    if combo is None:
        raise InternalInconsistencyError("skew syzygy is not a combination of initial forms")
    out = Polynomial.zero()
    for idx, c in combo.items():
        out = out + relations[idx].poly.scale(c)
    if polyring.initial_form(out, shift_weight) != w_target:
        raise InternalInconsistencyError("lift does not have the requested initial form")
    return out


def test_sort_signed():
    assert sort_signed((2, 3, 4), 1) == (1, PluckerVar((2, 3, 4), 1))
    assert sort_signed((3, 2, 4), 1) == (-1, PluckerVar((2, 3, 4), 1))
    assert sort_signed((3, 2, 2), 1) == (0, None)


def test_weight_initial_r_is_first_ten_terms(ctx333):
    g, d = parse_var("156^1"), parse_var("234^2")
    r = weight_initial_r(g, d, ctx333)
    s = straighten.straightening_relation(g, d, ctx333).poly
    assert len(r.terms) == 10
    assert all(
        sum(v.shift for v, _ in m) == 3 and {v.shift for v, _ in m} == {1, 2}
        for m in r.terms
    )
    assert r == initial_form(s, shift_weight)
    assert all(r.terms[m] == s.terms[m] for m in r.terms)


def test_r_equals_s_at_constant_weight():
    ctx = Context(2, 2, 0, 0)
    g, d = incomparable_pairs(ctx)[0]
    assert weight_initial_r(g, d, ctx) == straighten.straightening_relation(g, d, ctx).poly


def test_chi_kills_r_everywhere(ctx333, gb333):
    for quad in gb333:
        r = initial_form(quad.poly, shift_weight)
        assert chi_image(r, ctx333).is_zero()


def test_skew_syzygy_w_ten_terms(ctx333):
    t = (parse_var("156^1"), parse_var("234^2"))
    w = skew_syzygy_w(t, ctx333)
    assert w == weight_initial_r(*t, ctx333)
    assert len(w.terms) == 10


def test_skew_syzygy_classical_plucker():
    ctx = Context(2, 2, 0, 0)
    w = skew_syzygy_w((parse_var("14^0"), parse_var("23^0")), ctx)
    expected = Polynomial(
        {
            pair_mono(parse_var("14^0"), parse_var("23^0")): 1,
            pair_mono(parse_var("13^0"), parse_var("24^0")): -1,
            pair_mono(parse_var("12^0"), parse_var("34^0")): 1,
        }
    )
    assert w == expected


def test_skew_syzygy_rejects_standard(ctx333):
    for rows in [
        ("146^1", "235^2"),
        ("234^2", "156^1"),
        # equal shifts, the lower row below the upper one
        ("124^0", "123^0"),
        ("135^0", "124^0"),
    ]:
        with pytest.raises(InvalidInputError):
            skew_syzygy_w(tuple(map(parse_var, rows)), ctx333)


# each case names the statement of syzygy that it reaches and no command runs
@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(("156^1", "234^2", "456^3"), id="skew_syzygy_w-three-rows"),
        pytest.param(("156^1",), id="skew_syzygy_w-one-row"),
    ],
)
def test_library_paths(ctx333, rows):
    with pytest.raises(InvalidInputError, match="expected a two-row tableau"):
        skew_syzygy_w(tuple(map(parse_var, rows)), ctx333)


def test_skew_syzygy_lead_and_kernel_exhaustive(ctx333):
    # every ordered incomparable pair: exactly the canonical orders are
    # accepted, each leading with its tableau; the reversed ones are refused
    corder = polyring.c_order(ctx333)
    canonical = set(incomparable_pairs(ctx333))
    ordered = [
        t for t in itertools.permutations(lattice.elements(ctx333), 2) if lattice.incomparable(*t)
    ]
    assert (len(canonical), len(ordered)) == (250, 500)
    accepted = []
    for t in ordered:
        try:
            w = skew_syzygy_w(t, ctx333)
        except InvalidInputError:
            assert t not in canonical
            continue
        accepted.append(t)
        assert corder.leading_term(w) == (1, pair_mono(*t))
        assert chi_image(w, ctx333).is_zero()
    assert set(accepted) == canonical


def test_quantum_syzygy_v_matches_straightening(ctx333):
    t = (parse_var("156^1"), parse_var("234^2"))
    v = quantum_syzygy_v(t, ctx333)
    s = straighten.straightening_relation(*t, ctx333).poly
    assert v == s
    assert len(v.terms) == 30


def test_quantum_syzygy_v_properties(ctx333):
    sample = incomparable_pairs(ctx333)[::41]
    for t in sample:
        v = quantum_syzygy_v(t, ctx333)
        assert apply_hom(v, ctx333).is_zero()
        assert initial_form(v, shift_weight) == skew_syzygy_w(t, ctx333)


def test_coefficient_relations_report_3_3_1():
    report = coefficient_relation_report(Context(3, 3, 1, 1))
    assert report == {
        "generators": 105,
        "rank": 105,
        "kernel_dim": 106,
        "deficit": 1,
    }


def test_coefficient_relations_counts():
    ctx = Context(3, 3, 1, 1)
    rels = coefficient_relations(ctx)
    assert len(rels) == 35 * (2 * ctx.q + 1)
    assert len(incomparable_pairs(ctx)) == 35 * (2 * ctx.q + 1) + 2 * ctx.q - 1


def test_relations_vanish_and_lie_in_kernel_span():
    ctx = Context(3, 3, 1, 1)
    rels = coefficient_relations(ctx)
    mask = straighten.interval_mask(ctx, None)
    for f in rels[::10]:
        assert apply_hom(f, ctx, mask).is_zero()
    basis = straighten.kernel_quadrics_oracle(ctx)
    from qgrass import linalg

    ckey = polyring.c_order(ctx).key
    elim = linalg.Eliminator(ckey)
    for b in basis:
        elim.add(dict(b.terms))
    for f in rels:
        assert elim.add(dict(f.terms)) is not None


@pytest.mark.parametrize(
    "params,expect_deficit",
    [((2, 2, 1, 1), 0), ((2, 2, 1, 2), 0), ((2, 3, 1, 1), 0), ((2, 3, 1, 2), 0)],
)
def test_p2_spans_recorded(params, expect_deficit):
    # at p = 2 the inherited relations span the whole quadratic kernel,
    # also for m = 3 where no such statement was assumed
    report = coefficient_relation_report(Context(*params))
    assert report["deficit"] == expect_deficit
    assert report["rank"] == report["generators"]


def test_rank_of_span_duplicates(ctx333):
    u, v = parse_var("156^1"), parse_var("234^2")
    f = Polynomial({pair_mono(u, v): 1})
    assert rank_of_span([f, f, f.scale(3)], ctx333) == 1


@pytest.mark.parametrize("params", [(2, 3, 1, 2), (3, 3, 1, 1)])
def test_lift_matches_solve_based_reference(params):
    ctx = Context(*params)
    tableaux = incomparable_pairs(ctx)
    assert tableaux
    for t in tableaux:
        v = quantum_syzygy_v(t, ctx)
        ref = solve_based_lift(t, ctx)
        assert v == ref, t
        assert {m: type(c) for m, c in v.terms.items()} == {
            m: type(c) for m, c in ref.terms.items()
        }, t


def test_lift_check_fires_on_a_flipped_relation(monkeypatch, ctx333):
    real = straighten.straightening_relation

    def flipped(gamma, delta, ctx, interval=None):
        quad = real(gamma, delta, ctx, interval)
        terms = dict(quad.poly.terms)
        lead = pair_mono(gamma, delta)
        terms[lead] = -terms[lead]
        return quad._replace(poly=Polynomial(terms))

    monkeypatch.setattr(straighten, "straightening_relation", flipped)
    t = (parse_var("156^1"), parse_var("234^2"))
    with pytest.raises(InternalInconsistencyError, match="initial form"):
        quantum_syzygy_v(t, ctx333)
    out = io.StringIO()
    argv = ["--p", "3", "--m", "3", "--n", "1", "syzygy", "v", "156^1", "234^2"]
    assert cli.run(argv, out=out) == 2
    assert out.getvalue() == ""


# -- classical Plücker relations: a reference that uses no image -------------


def plucker_relations(p, m):
    """The quadratic Plücker relations of Gr(p, m+p), built from sign rules
    alone: for I of size p-1 and J of size p+1,
    sum_k (-1)^k [I, j_k] [J - j_k] = 0, where [I, j_k] is the sorted
    column set times the sign of sorting I + (j_k,) (zero if j_k is in I)."""
    cols = range(1, m + p + 1)
    out = []
    for small in itertools.combinations(cols, p - 1):
        for big in itertools.combinations(cols, p + 1):
            terms: dict = {}
            for k, j in enumerate(big):
                if j in small:
                    continue
                x = PluckerVar(tuple(sorted(small + (j,))), 0)
                y = PluckerVar(big[:k] + big[k + 1 :], 0)
                c = (-1) ** k * lattice.sort_sign(small + (j,))
                terms[pair_mono(x, y)] = terms.get(pair_mono(x, y), 0) + c
            f = Polynomial(terms)
            if f:
                out.append(f)
    return out


def lift_through_series(f, ctx):
    """The t-coefficients of a classical quadric f evaluated at the series
    g_alpha(t) = sum_a alpha^a t^a, for a up to q."""
    graded: dict = {}
    for mono, c in f.terms.items():
        x, y = [var for var, e in mono for _ in range(e)]
        for cx, cy in itertools.product(range(ctx.q + 1), repeat=2):
            layer = graded.setdefault(cx + cy, {})
            lifted = pair_mono(PluckerVar(x.cols, cx), PluckerVar(y.cols, cy))
            layer[lifted] = layer.get(lifted, 0) + c
    return [Polynomial(layer) for _, layer in sorted(graded.items())]


@pytest.mark.parametrize(
    "p,m", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 4)]
)
def test_plucker_relations_span_the_classical_quadrics(p, m):
    ctx = Context(p, m, 0, 0)
    plucker = plucker_relations(p, m)
    quadrics = [quad.poly for quad in straighten.reduced_groebner(ctx)]
    pairs = len(incomparable_pairs(ctx))
    assert rank_of_span(plucker, ctx) == pairs
    assert rank_of_span(quadrics, ctx) == pairs
    assert rank_of_span(plucker + quadrics, ctx) == pairs


@pytest.mark.parametrize(
    "params,rank", [((2, 3, 1, 2), 25), ((3, 3, 1, 1), 105), ((3, 3, 1, 2), 175)]
)
def test_lifted_plucker_relations_span_the_coefficient_relations(params, rank):
    ctx = Context(*params)
    lifted = [g for f in plucker_relations(ctx.p, ctx.m) for g in lift_through_series(f, ctx)]
    inherited = coefficient_relations(ctx)
    assert rank_of_span(lifted, ctx) == rank
    assert rank_of_span(inherited, ctx) == rank
    assert rank_of_span(lifted + inherited, ctx) == rank


def coefficient_relations_reference(ctx):
    """coefficient_relations as it lifted before the degree-2 monomials were
    written directly: fresh lifted variables and mono_from_pairs for every
    pair (cx, cy) of shifts."""
    classical = straighten.reduced_groebner(Context(ctx.p, ctx.m, 0, 0))
    out = []
    for quad in classical:
        graded: dict = {}
        for mono, c in quad.poly.terms.items():
            factors = []
            for var, e in mono:
                factors.extend([var] * e)
            x, y = factors
            for cx in range(ctx.q + 1):
                for cy in range(ctx.q + 1):
                    lifted = mono_from_pairs(
                        [(PluckerVar(x.cols, cx), 1), (PluckerVar(y.cols, cy), 1)]
                    )
                    layer = graded.setdefault(cx + cy, {})
                    layer[lifted] = layer.get(lifted, 0) + c
        for r in range(2 * ctx.q + 1):
            f = Polynomial(graded.get(r, {}))
            if f:
                out.append(f)
    return out


@pytest.mark.parametrize("params", [(3, 3, 1, 2), (2, 2, 2, 4), (3, 3, 1, 3), (3, 4, 1, 3)])
def test_coefficient_relations_match_the_mono_from_pairs_lift(params):
    ctx = Context(*params)

    def typed_terms(polys):
        return [[(m, type(c), c) for m, c in f.terms.items()] for f in polys]

    assert typed_terms(coefficient_relations(ctx)) == typed_terms(
        coefficient_relations_reference(ctx)
    )
