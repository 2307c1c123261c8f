import pytest

from qgrass.errors import InvalidInputError
from qgrass.lattice import Context, PluckerVar, incomparable_pairs, parse_var
from qgrass import lattice, maps, polyring, straighten, syzygy
from qgrass.polyring import Polynomial, emit_text, initial_form, mono_from_pairs
from qgrass.syzygy import (
    coefficient_relation_report,
    coefficient_relations,
    non_standard_tableaux,
    quantum_syzygy_v,
    rank_of_span,
    shift_weight,
    skew_syzygy_w,
    sort_signed,
    weight_initial_r,
)


def pair_mono(u, v):
    return mono_from_pairs([(u, 1), (v, 1)])


def chi_image(f, ctx):
    return polyring.substitute(f, lambda u: maps.chi(u, ctx))


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
    with pytest.raises(InvalidInputError):
        skew_syzygy_w((parse_var("146^1"), parse_var("235^2")), ctx333)
    with pytest.raises(InvalidInputError):
        skew_syzygy_w((parse_var("234^2"), parse_var("156^1")), ctx333)


def test_skew_syzygy_lead_and_kernel_exhaustive(ctx333):
    corder = polyring.c_order(ctx333)
    tableaux = non_standard_tableaux(ctx333)
    assert len(tableaux) == len(incomparable_pairs(ctx333))
    leads = set()
    for t in tableaux:
        w = skew_syzygy_w(t, ctx333)
        coeff, m = corder.leading_term(w)
        assert coeff == 1
        assert m == pair_mono(*t)
        leads.add(m)
        assert chi_image(w, ctx333).is_zero()
    assert leads == {pair_mono(u, v) for u, v in incomparable_pairs(ctx333)}


def test_quantum_syzygy_v_matches_straightening(ctx333):
    t = (parse_var("156^1"), parse_var("234^2"))
    v = quantum_syzygy_v(t, ctx333)
    s = straighten.straightening_relation(*t, ctx333).poly
    assert v == s
    assert len(v.terms) == 30


def test_quantum_syzygy_v_properties(ctx333):
    sample = non_standard_tableaux(ctx333)[::41]
    for t in sample:
        v = quantum_syzygy_v(t, ctx333)
        assert maps.apply_hom(v, ctx333).is_zero()
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
        assert maps.apply_hom(f, ctx, mask).is_zero()
    basis = straighten.kernel_quadrics_oracle(ctx)
    from qgrass import linalg

    ckey = polyring.c_order(ctx).key
    elim = linalg.Eliminator(ckey)
    for b in basis:
        elim.add(dict(b.terms))
    for f in rels:
        residual, _ = elim.reduce(dict(f.terms))
        assert not residual


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
