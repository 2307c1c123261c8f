"""Differential tests: each fast path of subduction against the slow path it
replaced, kept here as the reference.

- factor_initial looks the packed leading monomial up in the table's
  lead_pairs, the map from the packed psi(u)*psi(v) to each standard
  pair (u, v); the reference scans every element u and pattern-matches
  psi(u)'s quotient.
- The step cap reads the table's count of standard pairs per multidegree;
  the reference enumerates them with standard_monomials.
- TermOrder.key ranks monomials; the references are TermOrder.compare and
  the dense degrevlex key over a fixed variable list that exact
  elimination used before it took TermOrder.key.
- subduct runs on int-packed monomials (x_packer) and packed image
  products; the reference is the same loop on Polynomial and Mono,
  ranking every term by X_ORDER.leading_term at each step and dividing
  by the image leads in Fractions.
- Packer: integer order against TermOrder.compare, and integer addition
  against mono_mul.
- kernel_quadrics_oracle builds its rows from the same packed image
  products; the reference multiplies the generator images as Polynomials.
- reduced_groebner reads its quadrics off one subduction pass over the
  incomparable pairs; the reference calls straightening_relation on each
  pair, which validates and subducts it on its own.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qgrass import lattice, linalg, maps, polyring
from qgrass.errors import (
    InternalInconsistencyError,
    InvalidInputError,
    NotInInitialAlgebraError,
)
from qgrass.lattice import Context, YoungSeq, elements, incomparable_pairs, parse_var
from qgrass.polyring import Polynomial, X_ORDER, XVar, c_order, mono_from_pairs
from qgrass.straighten import (
    SubductionTrace,
    _add_product,
    factor_initial,
    interval_mask,
    kernel_quadrics_oracle,
    packed_image,
    reduced_groebner,
    sagbi_check,
    standard_monomials,
    straightening_relation,
    subduct,
    subduction_table,
    x_packer,
)


def factor_initial_scan(mono, ctx, elems=None):
    """Reference: scan every element u for psi(u) dividing mono."""
    if elems is None:
        elems = lattice.elements(ctx)
    allowed = set(elems)
    budget = polyring.level_sum(mono)
    found = []
    for u in elems:
        if u.shift > budget or budget - u.shift > ctx.q:
            continue
        quotient = polyring.mono_div(mono, maps.psi(u, ctx))
        if quotient is None:
            continue
        v = maps.psi_invert(quotient, ctx)
        if v is None or v.shift > ctx.q or not lattice.leq(u, v):
            continue
        if v not in allowed:
            continue
        found.append((u, v))
    if not found:
        raise NotInInitialAlgebraError(mono)
    if len(found) > 1:
        raise InternalInconsistencyError(f"{len(found)} standard factorizations")
    return found[0]


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotInInitialAlgebraError:
        return "not in initial algebra"


def psi_product(u, v, ctx):
    return polyring.mono_mul(maps.psi(u, ctx), maps.psi(v, ctx))


CTX3312 = Context(3, 3, 1, 2)

INTERVALS_3313 = [
    ("146^1", "235^2"),
    ("124^0", "356^2"),
    ("135^1", "146^3"),
]


def test_factor_initial_agrees_with_scan_on_all_products():
    elems = elements(CTX3312)
    for i, u in enumerate(elems):
        for v in elems[i:]:
            m = psi_product(u, v, CTX3312)
            fast = factor_initial(m, CTX3312)
            assert fast == factor_initial_scan(m, CTX3312)
            assert fast == tuple(lattice.meet_join(u, v))


@pytest.mark.parametrize("bot,top", INTERVALS_3313)
def test_factor_initial_agrees_with_scan_in_intervals(ctx333, bot, top):
    interval = (parse_var(bot), parse_var(top))
    inside = elements(ctx333, interval)
    # one factor inside the interval, the other anywhere: products leaving
    # the interval must fail on both paths
    for u in inside:
        for v in elements(ctx333):
            m = psi_product(u, v, ctx333)
            assert outcome(factor_initial, m, ctx333, interval) == outcome(
                factor_initial_scan, m, ctx333, inside
            )


NON_FACTORABLE_3313 = [
    mono_from_pairs([(XVar(1, 1, 0), 6)]),
    mono_from_pairs(
        [
            (XVar(1, 6, 1), 1),
            (XVar(2, 5, 1), 1),
            (XVar(3, 4, 1), 1),
            (XVar(1, 3, 2), 1),
            (XVar(2, 2, 1), 1),
            (XVar(3, 1, 1), 1),
        ]
    ),
    # every row twice, but psi of no element on either side
    mono_from_pairs([(XVar(i, 1, 0), 2) for i in (1, 2, 3)]),
]


@pytest.mark.parametrize("mono", NON_FACTORABLE_3313)
def test_factor_initial_non_factorable_raises_on_both_paths(ctx333, mono):
    with pytest.raises(NotInInitialAlgebraError):
        factor_initial(mono, ctx333)
    with pytest.raises(NotInInitialAlgebraError):
        factor_initial_scan(mono, ctx333)


def all_multidegrees(elems):
    return {
        (tuple(sorted(u.cols + v.cols)), u.shift + v.shift)
        for i, u in enumerate(elems)
        for v in elems[i:]
    }


@pytest.mark.parametrize(
    "ctx,interval",
    [(CTX3312, None)]
    + [(Context(3, 3, 1, 3), (parse_var(b), parse_var(t))) for b, t in INTERVALS_3313],
)
def test_step_cap_counts_match_standard_monomials(ctx, interval):
    table = subduction_table(ctx, interval)
    counts = table.counts
    mds = all_multidegrees(elements(ctx, interval))
    assert set(counts) <= mds
    for md in mds:
        assert counts.get(md, 0) == len(standard_monomials(ctx, 2, md, interval))
    assert len(table.lead_pairs) == sum(counts.values())
    for w, (u, v) in table.lead_pairs.items():
        assert lattice.leq(u, v)
        assert w == x_packer(ctx).pack(psi_product(u, v, ctx))


# -- the degrevlex sort key ---------------------------------------------------

KEY_CTX = Context(3, 3, 1, 3)
MANY = settings(max_examples=1000, deadline=None, derandomize=True)


def monomials(var):
    return st.lists(var, min_size=0, max_size=6).map(
        lambda vs: mono_from_pairs((v, 1) for v in vs)
    )


x_monomial = monomials(
    st.builds(XVar, st.integers(1, 3), st.integers(1, 6), st.integers(0, 1))
)
c_monomial = monomials(st.sampled_from(elements(KEY_CTX)))
j_monomial = monomials(
    st.lists(st.integers(1, KEY_CTX.stacked_width), min_size=3, max_size=3, unique=True)
    .map(lambda xs: YoungSeq(tuple(sorted(xs))))
)


def key_sign(order, a, b):
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


@pytest.mark.parametrize(
    "order,strategy",
    [
        (X_ORDER, x_monomial),
        (c_order(KEY_CTX), c_monomial),
        (polyring.YOUNG_ORDER, j_monomial),
    ],
    ids=["X", "C", "J"],
)
def test_key_sign_matches_compare(order, strategy):
    @MANY
    @given(strategy, strategy)
    def check(a, b):
        assert key_sign(order, a, b) == order.compare(a, b)

    check()


# -- the dense degrevlex key ----------------------------------------------------


def _dense_key(order_vars):
    """Reference: degrevlex key over a fixed ascending variable list, as a
    full exponent vector."""
    index = {v: i for i, v in enumerate(order_vars)}
    width = len(order_vars)

    def key(m):
        vec = [0] * width
        for v, e in m:
            vec[index[v]] = e
        return (sum(vec), tuple(-x for x in vec))

    return key


def all_xvars(ctx):
    return sorted(
        (
            XVar(i, j, l)
            for i in range(1, ctx.p + 1)
            for j in range(1, ctx.width + 1)
            for l in range(ctx.n + 1)
        ),
        key=X_ORDER.var_key,
    )


DENSE_INTERVAL_3313 = (parse_var("124^0"), parse_var("356^2"))
DENSE_CASES = [
    (X_ORDER, all_xvars(CTX3312)),
    (c_order(CTX3312), elements(CTX3312)),
    (c_order(KEY_CTX), elements(KEY_CTX, DENSE_INTERVAL_3313)),
]


@pytest.mark.parametrize("order,variables", DENSE_CASES, ids=["X", "C", "C-interval"])
def test_key_sorts_like_dense_key(order, variables):
    dense = _dense_key(variables)
    monomial = monomials(st.sampled_from(variables))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(monomial, min_size=2, max_size=8))
    def check(monos):
        assert sorted(monos, key=order.key) == sorted(monos, key=dense)

    check()


# -- subduction on packed monomials ----------------------------------------------


def column_multiset(mono):
    """Sorted multiset of matrix columns used by an X-monomial."""
    return tuple(sorted(v.col for v, e in mono for _ in range(e)))


def subduct_polynomial(f, ctx, interval=None):
    """Reference: the subduction loop on Polynomial and Mono, as it was
    before it ran on packed monomials."""
    two_p = 2 * ctx.p
    if any(polyring.mono_deg(m) != two_p for m in f.terms):
        raise InvalidInputError("subduction input must be homogeneous of degree 2p")
    table = subduction_table(ctx, interval)
    lead_coeff = {}

    def image(u):
        return maps.generator_image(u, ctx, table.mask)

    def lc(u):
        if u not in lead_coeff:
            lt = X_ORDER.leading_term(image(u))
            if lt is None:
                raise InternalInconsistencyError(f"zero image for {u!r}")
            lead_coeff[u] = lt[0]
        return lead_coeff[u]

    cap = None
    steps = []
    while f:
        coeff, mono = X_ORDER.leading_term(f)
        try:
            u, v = factor_initial(mono, ctx, interval)
        except NotInInitialAlgebraError:
            return SubductionTrace(steps, f, witness=mono)
        if cap is None:
            md = (column_multiset(mono), polyring.level_sum(mono))
            cap = table.counts.get(md, 0) + 1
        if len(steps) >= cap:
            raise InternalInconsistencyError("subduction exceeded its step budget")
        step = Fraction(coeff) / (lc(u) * lc(v))
        if step.denominator == 1:
            step = int(step)
        f = f - step * (image(u) * image(v))
        steps.append(((u, v), step))
    return SubductionTrace(steps, Polynomial.zero())


def assert_same_trace(fast, ref):
    assert fast.steps == ref.steps
    assert [type(c) for _, c in fast.steps] == [type(c) for _, c in ref.steps]
    assert fast.remainder == ref.remainder
    assert fast.witness == ref.witness


def assert_subducts_like_reference(u, v, ctx, interval=None):
    mask = subduction_table(ctx, interval).mask
    f = maps.generator_image(u, ctx, mask) * maps.generator_image(v, ctx, mask)
    ref = subduct_polynomial(f, ctx, interval)
    assert_same_trace(subduct((u, v), ctx, interval), ref)
    assert_same_trace(subduct(f, ctx, interval), ref)


def test_subduct_matches_reference_on_all_pairs_3312():
    elems = elements(CTX3312)
    for i, u in enumerate(elems):
        for v in elems[i:]:
            assert_subducts_like_reference(u, v, CTX3312)


@pytest.mark.parametrize("bot,top", INTERVALS_3313)
def test_subduct_matches_reference_in_intervals(ctx333, bot, top):
    interval = (parse_var(bot), parse_var(top))
    for u, v in incomparable_pairs(ctx333, interval):
        assert_subducts_like_reference(u, v, ctx333, interval)


@pytest.mark.parametrize("mono", NON_FACTORABLE_3313)
def test_subduct_matches_reference_on_non_factorable(ctx333, mono):
    # the second monomial holds x[1,3,2], a level outside the grid at n = 1
    f = Polynomial.term(mono)
    fast, ref = subduct(f, ctx333), subduct_polynomial(f, ctx333)
    assert_same_trace(fast, ref)
    assert fast.witness == mono


def test_subduct_rejects_non_homogeneous_like_reference(ctx333):
    f = Polynomial.term(NON_FACTORABLE_3313[0]) + Polynomial.variable(XVar(1, 1, 0))
    for fn in (subduct, subduct_polynomial):
        with pytest.raises(InvalidInputError):
            fn(f, ctx333)


def equal_degree_pairs(var):
    def pair(degree):
        mono = st.lists(var, min_size=degree, max_size=degree).map(
            lambda vs: mono_from_pairs((v, 1) for v in vs)
        )
        return st.tuples(mono, mono)

    return st.integers(0, 6).flatmap(pair)


X_UNIVERSE = [XVar(i, j, l) for i in range(1, 4) for j in range(1, 7) for l in range(3)]
J_UNIVERSE = [
    YoungSeq(tuple(c)) for c in itertools.combinations(range(1, KEY_CTX.stacked_width + 1), 3)
]
PACKER_CASES = [
    (X_ORDER, X_UNIVERSE),
    (c_order(KEY_CTX), elements(KEY_CTX)),
    (polyring.YOUNG_ORDER, J_UNIVERSE),
]


@pytest.mark.parametrize("order,universe", PACKER_CASES, ids=["X", "C", "J"])
def test_packed_order_reverses_compare_at_equal_degree(order, universe):
    packer = order.packer(universe, 6)

    @MANY
    @given(equal_degree_pairs(st.sampled_from(universe)))
    def check(pair):
        a, b = pair
        pa, pb = packer.pack(a), packer.pack(b)
        assert ((pb > pa) - (pb < pa)) == order.compare(a, b)
        assert packer.unpack(pa) == a and packer.unpack(pb) == b

    check()


@pytest.mark.parametrize("order,universe", PACKER_CASES, ids=["X", "C", "J"])
def test_packed_sum_is_mono_mul(order, universe):
    packer = order.packer(universe, 12)
    monomial = monomials(st.sampled_from(universe))

    @MANY
    @given(monomial, monomial)
    def check(a, b):
        assert packer.unpack(packer.pack(a) + packer.pack(b)) == polyring.mono_mul(a, b)

    check()


def test_packer_refuses_an_exponent_beyond_its_digit():
    # 2p = 6 fits in 3 bits; an exponent of 8 would carry into the next digit
    packer = x_packer(KEY_CTX)
    assert packer.bits == 3
    full = mono_from_pairs([(XVar(1, 1, 0), 7)])
    assert packer.unpack(packer.pack(full)) == full
    with pytest.raises(InternalInconsistencyError, match="does not fit"):
        packer.pack(mono_from_pairs([(XVar(1, 1, 0), 8)]))


def test_packed_image_refuses_a_lead_other_than_one(monkeypatch):
    # an image leading with 2 would make the step a Fraction
    ctx = Context(2, 2, 1, 2)
    u, v = incomparable_pairs(ctx)[0]
    real = maps.generator_image
    monkeypatch.setattr(maps, "generator_image", lambda w, c, m: real(w, c, m).scale(2))
    packed_image.cache_clear()
    try:
        with pytest.raises(InternalInconsistencyError, match=r"leads with coefficient -?2,"):
            subduct((u, v), ctx)
    finally:
        packed_image.cache_clear()


def test_subduct_keeps_foreign_terms_aside_like_reference(ctx333):
    # a product that subducts to zero, plus terms in x[1,3,2], a level
    # outside the grid at n = 1: one above the product's lead, one below it
    u, v = parse_var("156^1"), parse_var("234^2")
    product = maps.phi(u, ctx333) * maps.phi(v, ctx333)
    lead = X_ORDER.leading_term(product)[1]
    high = NON_FACTORABLE_3313[1]
    low = mono_from_pairs([(XVar(1, 3, 2), 1), (XVar(1, 1, 0), 5)])
    assert X_ORDER.key(high) > X_ORDER.key(lead) > X_ORDER.key(low)
    for extra in (Polynomial.term(low, 3), Polynomial.term(high, -1) + Polynomial.term(low)):
        f = product + extra
        fast, ref = subduct(f, ctx333), subduct_polynomial(f, ctx333)
        assert_same_trace(fast, ref)
        assert fast.witness == X_ORDER.leading_term(extra)[1]


# -- the kernel oracle on packed image products -------------------------------


def kernel_quadrics_oracle_polynomial(ctx, interval=None):
    """Reference: the oracle multiplying generator images as Polynomials,
    as it was before it read the subduction table's packed images."""
    elems = elements(ctx, interval)
    mask = interval_mask(ctx, interval)
    images = {u: maps.generator_image(u, ctx, mask) for u in elems}
    groups = {}
    for i, u in enumerate(elems):
        for v in elems[i:]:
            md = (tuple(sorted(u.cols + v.cols)), u.shift + v.shift)
            groups.setdefault(md, []).append(mono_from_pairs([(u, 1), (v, 1)]))
    relations = []
    for md in sorted(groups):
        monos = groups[md]
        rows = []
        for m in monos:
            prod = Polynomial.constant(1)
            for var, e in m:
                prod = prod * images[var] ** e
            rows.append(dict(prod.terms))
        for combo in linalg.nullspace(rows, X_ORDER.key):
            relations.append(Polynomial({monos[i]: c for i, c in combo.items()}))
    basis_elim = linalg.Eliminator(c_order(ctx).key)
    for rel in relations:
        basis_elim.add(dict(rel.terms))
    return [Polynomial(row) for row in basis_elim.rows()]


def typed_terms(poly, order):
    return [(m, type(c), c) for m, c in order.sorted_terms(poly)]


@pytest.mark.parametrize(
    "params,interval",
    [
        ((2, 2, 1, 2), None),
        ((2, 3, 1, 2), None),
        ((3, 3, 1, 1), None),
        ((3, 3, 1, 2), None),
        ((2, 2, 2, 4), None),
        ((1, 3, 1, 1), None),
        ((3, 3, 1, 3), ("146^1", "235^2")),
    ],
)
def test_kernel_oracle_matches_polynomial_reference(params, interval):
    ctx = Context(*params)
    if interval is not None:
        interval = tuple(parse_var(x) for x in interval)
    fast = kernel_quadrics_oracle(ctx, interval)
    ref = kernel_quadrics_oracle_polynomial(ctx, interval)
    assert fast == ref
    order = c_order(ctx)
    assert [typed_terms(f, order) for f in fast] == [typed_terms(f, order) for f in ref]


def test_add_product_matches_polynomial_product():
    ctx = Context(2, 3, 1, 2)
    table = subduction_table(ctx)
    elems = elements(ctx)
    for i, u in enumerate(elems):
        for v in elems[i:]:
            g = {}
            _add_product(g, packed_image(u, ctx, table.mask), packed_image(v, ctx, table.mask), 1)
            unpacked = Polynomial({x_packer(ctx).unpack(w): c for w, c in g.items()})
            product = maps.generator_image(u, ctx, table.mask) * maps.generator_image(
                v, ctx, table.mask
            )
            assert len(unpacked.terms) == len(g)
            assert unpacked == product


def test_subduction_reuses_the_kernel_oracles_images():
    # no interval: the oracle and the subduction table share one mask
    ctx = CTX3312
    packed_image.cache_clear()
    kernel_quadrics_oracle(ctx)
    assert packed_image.cache_info().misses == len(elements(ctx)) == 60
    assert sagbi_check(ctx)["failures"] == []
    assert packed_image.cache_info().misses == 60


def test_subduction_table_is_one_object_however_the_interval_is_passed():
    ctx = Context(2, 2, 1, 2)
    table = subduction_table(ctx)
    assert subduction_table(ctx, None) is table
    assert subduction_table(ctx, interval=None) is table
    interval = (parse_var("12^0"), parse_var("34^1"))
    assert subduction_table(ctx, interval) is subduction_table(ctx, interval=interval)


@pytest.mark.parametrize(
    "ctx,interval",
    [(CTX3312, None)]
    + [(Context(3, 3, 1, 3), (parse_var(b), parse_var(t))) for b, t in INTERVALS_3313],
)
def test_reduced_groebner_matches_straightening_loop(ctx, interval):
    reference = [
        straightening_relation(u, v, ctx, interval)
        for u, v in incomparable_pairs(ctx, interval)
    ]
    basis = reduced_groebner(ctx, interval)
    assert [q.lead_pair for q in basis] == [q.lead_pair for q in reference]
    assert [q.poly for q in basis] == [q.poly for q in reference]
