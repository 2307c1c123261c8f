"""Acceptance suite: one test per criterion, each printing a PASS line.

Run standalone with `pytest tests/test_acceptance.py -v -s`.
"""

import math

from qgrass.lattice import (
    Context,
    count_maximal_chains,
    elements,
    incomparable_pairs,
    leq,
    parse_var,
    rank,
    to_young,
)
from qgrass import lattice, linalg, maps, polyring
from qgrass.polyring import Polynomial, X_ORDER, XVar, emit_text, initial_form, mono_from_pairs
from qgrass.straighten import (
    hibi_binomial,
    kernel_quadrics_oracle,
    reduced_groebner,
    sagbi_check,
    straightening_relation,
)
from qgrass.syzygy import (
    coefficient_relation_report,
    quantum_syzygy_v,
    shift_weight,
    skew_syzygy_w,
    weight_initial_r,
)

from conftest import apply_hom, golden_text, substitute, variable, young_image
from test_lattice import rrw_degree


def pair_mono(u, v):
    return mono_from_pairs([(u, 1), (v, 1)])


def test_criterion_01_golden_phi_expansion(ctx333):
    f = maps.phi(parse_var("456^2"), ctx333)
    assert emit_text(f, "X") == golden_text("phi_456_2.txt")
    assert len(f.terms) == 18
    assert set(f.terms.values()) == {1, -1}
    lead = X_ORDER.leading_term(f)
    assert lead == (
        -1,
        mono_from_pairs([(XVar(3, 6, 0), 1), (XVar(1, 5, 1), 1), (XVar(2, 4, 1), 1)]),
    )
    print("PASS criterion 1: golden 18-term expansion of phi(456^2)")


def test_criterion_02_initial_monomials():
    for p, m, n in [(2, 2, 1), (2, 3, 1), (3, 3, 1)]:
        ctx = Context(p, m, n, n * p)
        for u in elements(ctx):
            lead_phi = X_ORDER.leading_term(maps.phi(u, ctx))[1]
            lead_chi = X_ORDER.leading_term(maps.chi(u, ctx))[1]
            closed = maps.psi(u, ctx)
            assert lead_phi == closed == lead_chi, u
    print("PASS criterion 2: leading monomials match the closed form in all contexts")


def test_criterion_03_degree_formula(ctx333):
    # the Ravi-Rosenthal-Wang degree of the quantum Grassmannian
    assert rrw_degree(2, 3, 1) == count_maximal_chains(Context(2, 3, 1, 1)) == 55
    # hook-length oracle for the classical rectangle
    hooks = 1
    for i in range(2):
        for j in range(3):
            hooks *= (2 - i) + (3 - j) - 1
    assert count_maximal_chains(Context(2, 3, 0, 0)) == math.factorial(6) // hooks == 5
    # interval chains: enumerate saturated chains explicitly and compare
    bot, top = parse_var("146^1"), parse_var("235^2")
    members = elements(ctx333, (bot, top))
    length = rank(top, ctx333) - rank(bot, ctx333)

    def chains(u):
        if u == top:
            return [[u]]
        out = []
        for v in members:
            if rank(v, ctx333) == rank(u, ctx333) + 1 and leq(u, v):
                out.extend([u] + tail for tail in chains(v))
        return out

    explicit = chains(bot)
    assert len(explicit) == count_maximal_chains(ctx333, (bot, top))
    assert all(len(c) == length + 1 for c in explicit)
    print(
        "PASS criterion 3: 55 chains = RRW degree, 5 chains = hook length,"
        " interval chains match rank lengths"
    )


def test_criterion_04_hibi_layer():
    ctx54 = Context(5, 4, 2, 9)
    quad = hibi_binomial(parse_var("45789^1"), parse_var("12356^3"), ctx54)
    assert quad.poly == Polynomial(
        {
            pair_mono(parse_var("45789^1"), parse_var("12356^3")): 1,
            pair_mono(parse_var("35689^1"), parse_var("12457^3")): -1,
        }
    )
    for params in [(2, 3, 1, 2), (3, 3, 1, 3)]:
        ctx = Context(*params)
        for u, v in incomparable_pairs(ctx):
            image = substitute(
                hibi_binomial(u, v, ctx).poly,
                lambda w: Polynomial.term(maps.psi(w, ctx)),
            )
            assert image.is_zero()
    print("PASS criterion 4: verbatim p=5 binomial; leading monomials kill all binomials")


def test_criterion_05_straightening(ctx333):
    quad = straightening_relation(parse_var("156^1"), parse_var("234^2"), ctx333)
    assert emit_text(quad.poly, "C", ctx333, compact=True) == golden_text(
        "straighten_156_1_234_2.txt"
    )
    assert len(quad.poly.terms) == 30
    coeffs = sorted(quad.poly.terms.values())
    assert coeffs.count(2) == 6 and coeffs.count(-2) == 4
    assert apply_hom(quad.poly, ctx333).is_zero()
    print("PASS criterion 5: 30-term straightening relation, image zero")


def test_criterion_06_skew_groebner(ctx333):
    bot, top = parse_var("146^1"), parse_var("235^2")
    basis = reduced_groebner(ctx333, (bot, top))
    assert len(basis) == 18
    sizes = [len(q.poly.terms) for q in basis]
    assert sizes.count(2) == 14 and sizes.count(3) == 4
    tri = Polynomial(
        {
            pair_mono(parse_var("346^1"), parse_var("125^2")): 1,
            pair_mono(parse_var("246^1"), parse_var("135^2")): -1,
            pair_mono(parse_var("146^1"), parse_var("235^2")): 1,
        }
    )
    assert any(q.poly == tri for q in basis)
    mask = maps.schubert_mask(ctx333, top, bot)
    lines = [
        f"{lattice.format_var(u, compact=True)} -> "
        f"{emit_text(apply_hom(variable(u), ctx333, mask), 'X')}"
        for u in elements(ctx333, (bot, top))
    ]
    assert "\n".join(lines) == golden_text("schubert_images_235_2_146_1.txt")
    print("PASS criterion 6: 18 = 14 + 4 skew quadrics, golden trinomial and images")


def test_criterion_07_sagbi_verification():
    for params in [(2, 2, 1, 2), (2, 3, 1, 2), (3, 3, 1, 3)]:
        ctx = Context(*params)
        report = sagbi_check(ctx)
        assert report["failures"] == [], params
        pairs = incomparable_pairs(ctx)
        basis = kernel_quadrics_oracle(ctx)
        assert len(basis) == len(pairs), params
        ckey = polyring.c_order(ctx).key
        elim = linalg.Eliminator(ckey)
        for b in basis:
            elim.add(dict(b.terms))
        for g, d in pairs:
            relation = dict(straightening_relation(g, d, ctx).poly.terms)
            assert elim.add(relation) is not None, (params, g, d)
    print("PASS criterion 7: zero remainders; relation span equals the kernel oracle")


def test_criterion_08_pi_and_identities(ctx333):
    ctx34 = Context(3, 4, 2, 2)
    assert emit_text(maps.pi(parse_var("235^2"), ctx34), "J") == golden_text(
        "pi_235_2_m4.txt"
    )
    for u in elements(ctx333):
        assert young_image(maps.pi(u, ctx333), ctx333) == maps.phi(u, ctx333)
    gens = elements(ctx333)
    for alpha in gens:
        mask = maps.schubert_mask(ctx333, alpha)
        ymask = maps.young_mask(ctx333, to_young(alpha, ctx333))
        for gamma in gens:
            lhs = apply_hom(variable(gamma), ctx333, mask)
            rhs = young_image(maps.pi(gamma, ctx333), ctx333, ymask)
            assert lhs == rhs, (alpha, gamma)
    print("PASS criterion 8: 6-term expansion; both stacked-minor identities exact")


def test_criterion_09_syzygy_layer(ctx333):
    corder = polyring.c_order(ctx333)
    for t in incomparable_pairs(ctx333):
        w = skew_syzygy_w(t, ctx333)
        assert corder.leading_term(w) == (1, pair_mono(*t)), t
        image = substitute(w, lambda u: maps.chi(u, ctx333))
        assert image.is_zero(), t
    t = (parse_var("156^1"), parse_var("234^2"))
    golden = golden_text("straighten_156_1_234_2.txt")
    assert emit_text(quantum_syzygy_v(t, ctx333), "C", ctx333, compact=True) == golden
    r = weight_initial_r(*t, ctx333)
    s = straightening_relation(*t, ctx333).poly
    assert r == initial_form(s, shift_weight)
    assert len(r.terms) == 10
    assert all(r.terms[m] == s.terms[m] for m in r.terms)
    print("PASS criterion 9: skew syzygies lead/vanish; lifted syzygy equals the relation")


def test_criterion_10_obvious_relations():
    report = coefficient_relation_report(Context(3, 3, 1, 1))
    assert report["generators"] == 105 == 35 * 3
    assert report["rank"] == 105
    assert report["kernel_dim"] == 106 == 35 * 3 + 2 * 1 - 1
    assert report["deficit"] == 1
    assert len(incomparable_pairs(Context(3, 3, 0, 0))) == 35
    print("PASS criterion 10: rank 105, kernel 106, deficit 1")


def test_criterion_11_property_suites():
    import test_properties

    suites = [
        name
        for name in dir(test_properties)
        if name.startswith("test_")
    ]
    assert len(suites) >= 5
    for name in suites:
        fn = getattr(test_properties, name)
        assert fn._hypothesis_internal_use_settings.max_examples >= 1000, name
    print(
        "PASS criterion 11: property suites (%d) run >= 1000 cases each "
        "(executed by tests/test_properties.py)" % len(suites)
    )
