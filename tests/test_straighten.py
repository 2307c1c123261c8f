from fractions import Fraction

import pytest

from qgrass.errors import (
    InternalInconsistencyError,
    InvalidInputError,
    NotInInitialAlgebraError,
    SagbiFailureError,
)
from qgrass.lattice import Context, PluckerVar, elements, incomparable_pairs, meet_join, parse_var
from qgrass import lattice, linalg, maps, polyring, straighten
from qgrass.polyring import Polynomial, emit_text, mono_from_pairs
from qgrass.straighten import (
    factor_initial,
    hibi_binomial,
    is_standard_monomial,
    kernel_quadrics_oracle,
    reduced_groebner,
    sagbi_check,
    standard_monomials,
    straightening_relation,
    subduct,
)

from conftest import golden_text


def pair_mono(u, v):
    return mono_from_pairs([(u, 1), (v, 1)])


def test_hibi_examples(ctx333):
    ctx54 = Context(5, 4, 2, 9)
    q = hibi_binomial(parse_var("45789^1"), parse_var("12356^3"), ctx54)
    assert q.poly == Polynomial(
        {
            pair_mono(parse_var("45789^1"), parse_var("12356^3")): 1,
            pair_mono(parse_var("35689^1"), parse_var("12457^3")): -1,
        }
    )
    q2 = hibi_binomial(parse_var("156^1"), parse_var("234^2"), ctx333)
    assert q2.poly == Polynomial(
        {
            pair_mono(parse_var("156^1"), parse_var("234^2")): 1,
            pair_mono(parse_var("146^1"), parse_var("235^2")): -1,
        }
    )


def test_hibi_rejects_comparable(ctx333):
    with pytest.raises(InvalidInputError):
        hibi_binomial(parse_var("146^1"), parse_var("235^2"), ctx333)


@pytest.mark.parametrize("params", [(2, 3, 1, 2), (3, 3, 1, 3)])
def test_psi_kills_hibi_binomials(params):
    ctx = Context(*params)
    for u, v in incomparable_pairs(ctx):
        quad = hibi_binomial(u, v, ctx)
        image = polyring.substitute(
            quad.poly, lambda w: Polynomial.term(maps.psi(w, ctx))
        )
        assert image.is_zero()


def test_hibi_lead_is_incomparable_product(ctx333):
    corder = polyring.c_order(ctx333)
    for u, v in incomparable_pairs(ctx333)[::11]:
        quad = hibi_binomial(u, v, ctx333)
        coeff, m = corder.leading_term(quad.poly)
        assert coeff == 1 and m == pair_mono(u, v)


def test_standard_monomial_examples():
    ctx = Context(3, 4, 1, 3)
    good = mono_from_pairs(
        [(parse_var("135^0"), 1), (parse_var("123^1"), 1), (parse_var("257^3"), 1)]
    )
    bad = mono_from_pairs(
        [(parse_var("345^0"), 1), (parse_var("123^1"), 1), (parse_var("245^3"), 1)]
    )
    assert is_standard_monomial(good, ctx)
    assert not is_standard_monomial(bad, ctx)


def test_standard_monomial_count_classical():
    ctx = Context(3, 3, 0, 0)
    count = len(standard_monomials(ctx, 2))
    assert count == 190 + 20 - 35  # all pairs minus incomparable ones


def test_degree_two_standard_equals_comparable(ctx333):
    n_all = len(elements(ctx333)) * (len(elements(ctx333)) + 1) // 2
    n_inc = len(incomparable_pairs(ctx333))
    assert len(standard_monomials(ctx333, 2)) == n_all - n_inc


def test_factor_initial(ctx333):
    u, v = parse_var("146^1"), parse_var("235^2")
    m = polyring.mono_mul(maps.psi(u, ctx333), maps.psi(v, ctx333))
    assert factor_initial(m, ctx333) == (u, v)
    # an incomparable product factors as its meet/join pair
    g, d = parse_var("156^1"), parse_var("234^2")
    m2 = polyring.mono_mul(maps.psi(g, ctx333), maps.psi(d, ctx333))
    assert factor_initial(m2, ctx333) == (u, v)


def test_factor_initial_not_in_algebra(ctx333):
    m = mono_from_pairs([(polyring.XVar(1, 1, 0), 6)])
    with pytest.raises(NotInInitialAlgebraError):
        factor_initial(m, ctx333)


def test_factor_initial_level_budget(ctx333):
    # level sum 7 cannot split into two shifts bounded by q=3
    m = mono_from_pairs(
        [
            (polyring.XVar(1, 6, 1), 1),
            (polyring.XVar(2, 5, 1), 1),
            (polyring.XVar(3, 4, 1), 1),
            (polyring.XVar(1, 3, 2), 1),
            (polyring.XVar(2, 2, 1), 1),
            (polyring.XVar(3, 1, 1), 1),
        ]
    )
    with pytest.raises(NotInInitialAlgebraError):
        factor_initial(m, ctx333)


def test_subduct_comparable_single_step(ctx333):
    u, v = parse_var("146^1"), parse_var("235^2")
    f = maps.phi(u, ctx333) * maps.phi(v, ctx333)
    trace = subduct(f, ctx333)
    assert trace.remainder.is_zero()
    assert trace.steps == [((u, v), 1)]


def test_subduct_thirty_term_relation_steps(ctx333):
    g, d = parse_var("156^1"), parse_var("234^2")
    f = maps.phi(g, ctx333) * maps.phi(d, ctx333)
    trace = subduct(f, ctx333)
    assert trace.remainder.is_zero()
    assert len(trace.steps) == 29
    assert trace.steps[0] == ((parse_var("146^1"), parse_var("235^2")), 1)
    assert {abs(c) for _, c in trace.steps} <= {1, 2}


def test_subduct_replay(ctx333):
    g, d = parse_var("145^1"), parse_var("236^3")
    f = maps.phi(g, ctx333) * maps.phi(d, ctx333)
    trace = subduct(f, ctx333)
    replay = f
    for (u, v), c in trace.steps:
        replay = replay - c * (maps.phi(u, ctx333) * maps.phi(v, ctx333))
    assert replay == trace.remainder


def test_subduct_rejects_wrong_degree(ctx333):
    with pytest.raises(InvalidInputError):
        subduct(maps.phi(parse_var("123^0"), ctx333), ctx333)


def test_subduct_witness(ctx333):
    f = Polynomial.term(mono_from_pairs([(polyring.XVar(1, 1, 0), 6)]), 1)
    trace = subduct(f, ctx333)
    assert not trace.remainder.is_zero()
    assert trace.witness is not None


def test_straightening_golden(ctx333):
    quad = straightening_relation(parse_var("156^1"), parse_var("234^2"), ctx333)
    assert emit_text(quad.poly, "C", ctx333, compact=True) == golden_text(
        "straighten_156_1_234_2.txt"
    )
    assert len(quad.poly.terms) == 30
    assert sorted(c for c in quad.poly.terms.values() if abs(c) == 2) == [-2, -2, -2, -2, 2, 2, 2, 2, 2, 2]
    assert maps.apply_hom(quad.poly, ctx333).is_zero()


def test_straightening_shape(ctx333):
    corder = polyring.c_order(ctx333)
    for g, d in incomparable_pairs(ctx333)[::17]:
        quad = straightening_relation(g, d, ctx333)
        meet, join = meet_join(g, d)
        terms = corder.sorted_terms(quad.poly)
        assert terms[0] == (pair_mono(g, d), 1)
        assert terms[1] == (pair_mono(meet, join), -1)
        assert maps.apply_hom(quad.poly, ctx333).is_zero()


def test_erasing_tail_gives_hibi(ctx333):
    corder = polyring.c_order(ctx333)
    for g, d in incomparable_pairs(ctx333)[::23]:
        quad = straightening_relation(g, d, ctx333)
        top_two = Polynomial(dict(corder.sorted_terms(quad.poly)[:2]))
        assert top_two == hibi_binomial(g, d, ctx333).poly


def test_classical_p2_is_plucker():
    ctx = Context(2, 2, 0, 0)
    pairs = incomparable_pairs(ctx)
    assert len(pairs) == 1
    quad = straightening_relation(*pairs[0], ctx)
    expected = Polynomial(
        {
            pair_mono(parse_var("14^0"), parse_var("23^0")): 1,
            pair_mono(parse_var("13^0"), parse_var("24^0")): -1,
            pair_mono(parse_var("12^0"), parse_var("34^0")): 1,
        }
    )
    assert quad.poly == expected


def test_classical_p2_matches_oracle():
    ctx = Context(2, 2, 0, 0)
    basis = kernel_quadrics_oracle(ctx)
    assert len(basis) == 1
    quad = straightening_relation(*incomparable_pairs(ctx)[0], ctx)
    ckey = polyring.c_order(ctx).key
    elim = linalg.Eliminator(ckey)
    for b in basis:
        elim.add(dict(b.terms))
    residual, _ = elim.reduce(dict(quad.poly.terms))
    assert not residual


def test_skew_groebner_14_4(ctx333):
    interval = (parse_var("146^1"), parse_var("235^2"))
    basis = reduced_groebner(ctx333, interval)
    assert len(basis) == 18
    sizes = sorted(len(q.poly.terms) for q in basis)
    assert sizes.count(2) == 14 and sizes.count(3) == 4
    tri = straightening_relation(
        parse_var("346^1"), parse_var("125^2"), ctx333, interval
    )
    expected = Polynomial(
        {
            pair_mono(parse_var("346^1"), parse_var("125^2")): 1,
            pair_mono(parse_var("246^1"), parse_var("135^2")): -1,
            pair_mono(parse_var("146^1"), parse_var("235^2")): 1,
        }
    )
    assert tri.poly == expected


def test_groebner_q0_p2m2():
    basis = reduced_groebner(Context(2, 2, 0, 0))
    assert len(basis) == 1
    assert len(basis[0].poly.terms) == 3


def test_sagbi_check_contexts():
    for params in [(2, 2, 1, 2), (2, 3, 1, 2)]:
        report = sagbi_check(Context(*params))
        assert report["failures"] == []
        assert report["pairs_total"] == len(incomparable_pairs(Context(*params)))


def test_sagbi_check_truncation_masked():
    # below the maximal shift bound the masked generators still pass
    report = sagbi_check(Context(3, 3, 1, 1))
    assert report["pairs_total"] == 106
    assert report["failures"] == []


def test_oracle_dimensions(ctx333):
    interval = (parse_var("146^1"), parse_var("235^2"))
    assert len(kernel_quadrics_oracle(ctx333, interval)) == 18
    assert len(kernel_quadrics_oracle(Context(3, 3, 1, 1))) == 106
    assert len(kernel_quadrics_oracle(Context(1, 3, 1, 1))) == 0


def test_oracle_cross_check_random_relations():
    ctx = Context(2, 3, 1, 2)
    basis = kernel_quadrics_oracle(ctx)
    assert len(basis) == len(incomparable_pairs(ctx))
    ckey = polyring.c_order(ctx).key
    elim = linalg.Eliminator(ckey)
    for b in basis:
        elim.add(dict(b.terms))
    for g, d in incomparable_pairs(ctx)[::5]:
        quad = straightening_relation(g, d, ctx)
        residual, _ = elim.reduce(dict(quad.poly.terms))
        assert not residual


def test_straightening_rejects_comparable(ctx333):
    with pytest.raises(InvalidInputError):
        straightening_relation(parse_var("146^1"), parse_var("235^2"), ctx333)


def test_sagbi_check_3413():
    ctx = Context(3, 4, 1, 3)
    report = sagbi_check(ctx)
    assert report["failures"] == []
    assert report["pairs_total"] == len(incomparable_pairs(ctx))


def test_oracle_dimension_3413():
    ctx = Context(3, 4, 1, 3)
    assert len(kernel_quadrics_oracle(ctx)) == len(incomparable_pairs(ctx)) == 1015


@pytest.mark.rung
def test_sagbi_check_4414():
    # 6935 incomparable pairs; minutes in one process, so opt-in
    report = sagbi_check(Context(4, 4, 1, 4))
    assert report["failures"] == []
    assert report["pairs_total"] == len(incomparable_pairs(Context(4, 4, 1, 4))) == 6935
