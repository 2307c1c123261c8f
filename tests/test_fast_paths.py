"""Differential tests: each fast path of subduction against the slow path it
replaced, kept here as the reference.

- factor_initial looks the leading monomial up in the psi table; the
  reference scans every element u and pattern-matches psi(u)'s quotient.
- The step cap reads the table's count of standard pairs per multidegree;
  the reference enumerates them with standard_monomials.
- TermOrder.key ranks monomials; the references are TermOrder.compare and
  the dense degrevlex key over a fixed variable list that exact
  elimination used before it took TermOrder.key.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qgrass import lattice, maps, polyring
from qgrass.errors import InternalInconsistencyError, NotInInitialAlgebraError
from qgrass.lattice import Context, YoungSeq, elements, parse_var
from qgrass.polyring import X_ORDER, XVar, c_order, mono_from_pairs
from qgrass.straighten import factor_initial, standard_monomials, subduction_table


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
    counts = subduction_table(ctx, interval).counts
    mds = all_multidegrees(elements(ctx, interval))
    assert set(counts) <= mds
    for md in mds:
        assert counts.get(md, 0) == len(standard_monomials(ctx, 2, md, interval))


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
