"""Differential tests: each fast path of subduction against one reference,
the slow path it replaced, kept here.

- factor_initial looks the packed leading monomial up in the table's
  lead_pairs, the map from the packed psi(u)*psi(v) to each standard
  pair (u, v); the reference scans every element u and pattern-matches
  psi(u)'s quotient (factor_initial_scan).
- The table's leads hold one candidate lead per standard pair of each
  multidegree; the reference counts the pairs from standard_monomials,
  filtered by each multidegree on two skew cells and grouped by
  multidegree from one unfiltered call elsewhere.
- _multidegree keys a pair's multidegree by one int, the sum of two
  per-element ints; the reference is the (sorted columns, shift sum)
  tuple, mapped to the same int layout by md_key where a test needs the
  table's key.
- TermOrder.key ranks monomials; the reference is TermOrder.compare.
- subduct walks the candidate leads of a pair's multidegree on two counts
  of int-packed terms (x_packer); the reference is the running-minimum
  loop it replaced (subduct_running_minimum), on one dict of packed terms,
  taking min(g) at each step, with the sorted (int, coefficient) images of
  packed_image and the Python product loop add_product.  It keeps the step
  budget the walk no longer needs.  On the unmasked images below q = n*p
  real runs fail, and both give the same witness and remainder.
  packed_image re-packs maps.generator_image: the images themselves are
  checked against the cofactor expansion in tests/test_polyring.py and
  sympy's Berkowitz expansion in tests/test_sympy_reference.py, the two
  image references that share no code with src/.
- Packer: integer order against TermOrder.compare, and integer addition
  against mono_mul.
- _count_product, the one product kernel, counts a product of two
  signed_image into positive and negative counts; the reference is the
  Polynomial product of the two generator_image.
- kernel_quadrics_oracle eliminates only the groups whose product leads
  collide, on rows read at the group's product-lead columns, and counts
  each relation found to zero, adding a column where one does not; the
  reference is the full-row elimination it replaced
  (kernel_oracle_full_rows), whose rows are the whole counted image
  products.  The oracle also meets a check with no elimination:
  reduced_basis_leads checks what pins the reduced basis down (every
  relation vanishes under apply_hom, each has coefficient 1 at its own
  lead pair, its largest monomial, which no other relation holds, and the
  lead pairs descend in canonical position), and the test asks for one
  relation per incomparable pair.
- reduced_groebner reads its quadrics off one subduction pass over the
  incomparable pairs; the reference calls straightening_relation on each
  pair, which validates and subducts it on its own.
- The table lists those incomparable pairs from the walk over the pairs
  that builds its lead_pairs; the reference is lattice.incomparable_pairs.
- That walk compares packed Young codes (lattice.young_codes); the
  reference is lattice.leq on each pair, on seeded intervals.
"""

import collections
import copy
import io
import itertools
import operator
import random

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests skip; the differential tests still run
    given = settings = st = None

needs_hypothesis = pytest.mark.skipif(st is None, reason="hypothesis is not installed")

from qgrass import cli, lattice, linalg, maps, polyring, straighten
from qgrass.errors import (
    DomainError,
    InternalInconsistencyError,
    InvalidInputError,
    NotInInitialAlgebraError,
)
from qgrass.lattice import Context, YoungSeq, elements, incomparable_pairs, parse_var
from qgrass.maps import signed_image
from qgrass.polyring import Polynomial, X_ORDER, XVar, c_order, mono_from_pairs, x_packer
from qgrass.straighten import (
    SubductionTrace,
    _count_product,
    _lead,
    _multidegree,
    factor_initial,
    interval_mask,
    kernel_quadrics_oracle,
    reduced_groebner,
    sagbi_check,
    standard_monomials,
    straightening_relation,
    subduct,
    subduction_table,
)

from conftest import apply_hom, clear_image_caches
from test_lattice import LADDER
from test_polyring import level_sum, mono_div


def factor_initial_scan(mono, ctx, elems=None):
    """Reference: scan every element u for psi(u) dividing mono."""
    if elems is None:
        elems = lattice.elements(ctx)
    allowed = set(elems)
    budget = level_sum(mono)
    found = []
    for u in elems:
        if u.shift > budget or budget - u.shift > ctx.q:
            continue
        quotient = mono_div(mono, maps.psi(u, ctx))
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


def md_key(md, ctx):
    """The int key of a (sorted columns, shift sum) multidegree: a 2-bit
    count per column, column c at bit 2*(c-1), and the shift sum above the
    ctx.width column digits."""
    cols, shift = md
    return sum(1 << 2 * (c - 1) for c in cols) + (shift << 2 * ctx.width)


@pytest.mark.parametrize("params", LADDER, ids=str)
def test_multidegree_key_is_the_tuple_multidegree(params):
    # the reference is the tuple; the int must agree with it and tell
    # distinct tuples apart on every pair
    ctx = Context(*params)
    keys = {}
    for u, v in itertools.combinations_with_replacement(elements(ctx), 2):
        md = (tuple(sorted(u.cols + v.cols)), u.shift + v.shift)
        key = straighten._multidegree(u, v, ctx)
        assert key == md_key(md, ctx) == straighten._multidegree(v, u, ctx)
        assert keys.setdefault(md, key) == key
    assert len(set(keys.values())) == len(keys)


# the skew cells on which standard_monomials filters by each multidegree in
# turn; elsewhere one unfiltered call is grouped by multidegree
FILTERED_3313 = [(parse_var(b), parse_var(t)) for b, t in [("146^1", "235^2"), ("135^1", "146^3")]]


def standard_pair_counts(ctx, interval, mds):
    """The number of degree-2 standard monomials of each tuple multidegree."""
    if interval in FILTERED_3313:
        return {md: len(standard_monomials(ctx, 2, md, interval)) for md in mds}
    counts = collections.Counter(
        (tuple(sorted(c for u, e in m for c in u.cols * e)), sum(u.shift * e for u, e in m))
        for m in standard_monomials(ctx, 2, interval=interval)
    )
    assert set(counts) <= mds
    return counts


@pytest.mark.parametrize(
    "ctx,interval",
    [(CTX3312, None)]
    + [(Context(3, 3, 1, 3), (parse_var(b), parse_var(t))) for b, t in INTERVALS_3313],
)
def test_table_leads_match_standard_monomials(ctx, interval):
    table = subduction_table(ctx, interval)
    leads = table.leads
    mds = all_multidegrees(elements(ctx, interval))
    assert set(leads) <= {md_key(md, ctx) for md in mds}
    counts = standard_pair_counts(ctx, interval, mds)
    for md in mds:
        assert len(leads.get(md_key(md, ctx), ())) == counts.get(md, 0)
    assert sorted(table.lead_pairs) == sorted(w for md_leads in leads.values() for w in md_leads)
    for md, md_leads in leads.items():
        assert md_leads == sorted(md_leads)
        assert all(straighten._multidegree(*table.lead_pairs[w], ctx) == md for w in md_leads)
    for w, (u, v) in table.lead_pairs.items():
        assert lattice.leq(u, v)
        assert w == x_packer(ctx).pack(psi_product(u, v, ctx))


# -- the degrevlex sort key ---------------------------------------------------

KEY_CTX = Context(3, 3, 1, 3)
MANY = dict(max_examples=1000, deadline=None, derandomize=True)


def monomials(var):
    return st.lists(var, min_size=0, max_size=6).map(
        lambda vs: mono_from_pairs((v, 1) for v in vs)
    )


def key_variable(kind):
    """Strategy for one X, C or J variable of KEY_CTX."""
    if kind == "X":
        return st.builds(XVar, st.integers(1, 3), st.integers(1, 6), st.integers(0, 1))
    if kind == "C":
        return st.sampled_from(elements(KEY_CTX))
    return st.lists(
        st.integers(1, KEY_CTX.stacked_width), min_size=3, max_size=3, unique=True
    ).map(lambda xs: YoungSeq(tuple(sorted(xs))))


def key_sign(order, a, b):
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


@needs_hypothesis
@pytest.mark.parametrize(
    "order,kind",
    [(X_ORDER, "X"), (c_order(KEY_CTX), "C"), (polyring.YOUNG_ORDER, "J")],
    ids=["X", "C", "J"],
)
def test_key_sign_matches_compare(order, kind):
    strategy = monomials(key_variable(kind))

    @settings(**MANY)
    @given(strategy, strategy)
    def check(a, b):
        assert key_sign(order, a, b) == order.compare(a, b)

    check()


# -- packed monomials -----------------------------------------------------------


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


@needs_hypothesis
@pytest.mark.parametrize("order,universe", PACKER_CASES, ids=["X", "C", "J"])
def test_packed_order_reverses_compare_at_equal_degree(order, universe):
    packer = polyring.Packer(order, universe, 6)

    @settings(**MANY)
    @given(equal_degree_pairs(st.sampled_from(universe)))
    def check(pair):
        a, b = pair
        pa, pb = packer.pack(a), packer.pack(b)
        assert ((pb > pa) - (pb < pa)) == order.compare(a, b)
        assert packer.unpack(pa) == a and packer.unpack(pb) == b

    check()


@needs_hypothesis
@pytest.mark.parametrize("order,universe", PACKER_CASES, ids=["X", "C", "J"])
def test_packed_sum_is_mono_mul(order, universe):
    packer = polyring.Packer(order, universe, 12)
    monomial = monomials(st.sampled_from(universe))

    @settings(**MANY)
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


def with_a_term_repeated(blocks, ctx, term):
    """blocks and one more block that holds only the entries of the
    permutation giving the image's term-th smallest int: that term counted
    twice, with its own sign."""
    pack = x_packer(ctx).pack
    found = []
    for block in blocks:
        for perm, _ in polyring.signed_permutations(ctx.p):
            entries = [(i, j, block[i][j]) for i, j in enumerate(perm)]
            if all(x is not None for _, _, x in entries):
                found.append((pack(mono_from_pairs((x, 1) for _, _, x in entries)), entries))
    found.sort(key=lambda t: t[0])
    lone = [[None] * ctx.p for _ in range(ctx.p)]
    for i, j, x in found[term][1]:
        lone[i][j] = x
    return blocks + [lone]


@pytest.mark.parametrize("term", [0, -1], ids=["lead", "trailing"])
def test_signed_image_refuses_a_coefficient_other_than_one(
    monkeypatch, fresh_images, capsys, term
):
    # a lead of 2 would make a step a Fraction; the guard covers every term,
    # and reaches phi, which unpacks signed_image: the CLI fails with exit 2
    ctx = Context(2, 2, 1, 2)
    u, v = incomparable_pairs(ctx)[0]
    mask = interval_mask(ctx, None)
    real = maps.image_blocks
    target = sorted(itertools.chain(*signed_image(u, ctx, mask)))[term]

    def doubled(w, c, m=maps.EMPTY_MASK):
        return with_a_term_repeated(real(w, c, m), c, term)

    monkeypatch.setattr(maps, "image_blocks", doubled)
    clear_image_caches()
    # the extra block holds one permutation's entries: the term-th term
    lone = [x for row in maps.image_blocks(u, ctx, mask)[-1] for x in row if x is not None]
    assert len(lone) == ctx.p
    assert x_packer(ctx).pack(mono_from_pairs((x, 1) for x in lone)) == target
    with pytest.raises(InternalInconsistencyError, match=r"has a coefficient -?2,"):
        signed_image(u, ctx, mask)
    with pytest.raises(InternalInconsistencyError, match=r"has a coefficient -?2,"):
        subduct((u, v), ctx)
    with pytest.raises(InternalInconsistencyError, match=r"has a coefficient -?2,"):
        maps.generator_image(u, ctx)
    with pytest.raises(InternalInconsistencyError, match=r"has a coefficient -?2,"):
        maps.phi(u, ctx)
    out = io.StringIO()
    assert cli.run(["--p", "2", "--m", "2", "--n", "1", "phi", "12^1"], out=out) == 2
    assert out.getvalue() == ""
    assert "at a repeated term" in capsys.readouterr().err


def test_signed_image_refuses_a_repeated_term(monkeypatch, fresh_images):
    # a packer blind to levels: x[i,j,0] and x[i,j,1] share an offset, so
    # the compositions (0,1) and (1,0) of a shift-1 image give equal ints
    ctx = Context(2, 2, 1, 2)
    packer = x_packer(ctx)
    blind = copy.copy(packer)
    blind.offsets = {v: packer.offsets[v._replace(level=0)] for v in packer.offsets}
    monkeypatch.setattr(polyring, "x_packer", lambda c: blind)
    with pytest.raises(
        InternalInconsistencyError, match=r"has a coefficient -?2, not 1 or -1, at a repeated term"
    ):
        signed_image(parse_var("12^1"), ctx, maps.EMPTY_MASK)


@pytest.mark.parametrize(
    "u,error",
    [
        (lattice.PluckerVar((1, 2), 5), DomainError),
        (lattice.PluckerVar((2, 1), 1), InvalidInputError),
        (lattice.PluckerVar((1, 3), -1), InvalidInputError),
    ],
    ids=["shift-above-n*p", "columns-not-increasing", "negative-shift"],
)
def test_signed_image_refuses_what_generator_image_refuses(u, error):
    ctx = Context(2, 2, 1, 2)
    with pytest.raises(error):
        maps.generator_image(u, ctx)
    with pytest.raises(error):
        signed_image(u, ctx, maps.EMPTY_MASK)


def packed_image(u, ctx, mask):
    """The masked generator image of u as sorted (x_packer int, coefficient)
    terms, leading term (the smallest int) first, read off
    maps.generator_image."""
    pack = x_packer(ctx).pack
    return sorted((pack(m), c) for m, c in maps.generator_image(u, ctx, mask).terms.items())


# -- the walk against the running-minimum loop ---------------------------------


def add_product(g, a, b, factor):
    """Reference: g += factor * a * b on packed terms, one Python loop,
    dropping cancelled monomials."""
    for wa, ca in a:
        fa = factor * ca
        for wb, cb in b:
            w = wa + wb
            s = g.get(w, 0) + fa * cb
            if s:
                g[w] = s
            else:
                del g[w]


def subduct_running_minimum(pair, ctx, interval=None):
    """Reference: packed subduction as the running-minimum loop it was
    before the walk.  The running polynomial is one dict int -> coefficient;
    each step takes its smallest int (min(g)) as the leading term, looks it
    up in lead_pairs and subtracts the step times the image product with
    add_product, within a budget of one step per standard pair of the
    multidegree, plus one."""
    table = straighten.subduction_table(ctx, interval)
    packer = x_packer(ctx)
    u, v = pair
    g = {}
    add_product(g, packed_image(u, ctx, table.mask), packed_image(v, ctx, table.mask), 1)
    cap = None
    steps = []
    while g:
        lead = min(g)
        pair = table.lead_pairs.get(lead)
        if pair is None:
            remainder = Polynomial({packer.unpack(w): c for w, c in g.items()})
            return SubductionTrace(steps, remainder, witness=packer.unpack(lead))
        u, v = pair
        if cap is None:
            cap = len(table.leads.get(straighten._multidegree(u, v, ctx), ())) + 1
        if len(steps) >= cap:
            raise InternalInconsistencyError("subduction exceeded its step budget")
        image_u, image_v = packed_image(u, ctx, table.mask), packed_image(v, ctx, table.mask)
        for w, img in ((u, image_u), (v, image_v)):
            if not img:
                raise InternalInconsistencyError(f"zero image for {w!r}")
        step = polyring.norm_coeff(g[lead] * image_u[0][1] * image_v[0][1])
        add_product(g, image_u, image_v, -step)
        steps.append(((u, v), step))
    return SubductionTrace(steps, Polynomial.zero())


def assert_same_trace(fast, ref):
    assert fast.steps == ref.steps
    assert [type(c) for _, c in fast.steps] == [type(c) for _, c in ref.steps]
    assert fast.remainder == ref.remainder
    assert fast.witness == ref.witness


def trace_or_error(fn, *args):
    try:
        return fn(*args), None
    except InternalInconsistencyError as e:
        return None, str(e)


def assert_walks_like_running_minimum(pair, ctx, interval=None):
    """The walk and the running-minimum loop give the same trace (steps,
    their coefficient types, remainder, witness) or the same internal
    error; returns the reference's (trace, error)."""
    fast, fast_error = trace_or_error(subduct, pair, ctx, interval)
    ref, ref_error = trace_or_error(subduct_running_minimum, pair, ctx, interval)
    assert fast_error == ref_error
    if ref is not None:
        assert_same_trace(fast, ref)
    return ref, ref_error


@pytest.mark.parametrize("ctx", [CTX3312, Context(2, 2, 2, 4)], ids=str)
def test_walk_matches_running_minimum_on_every_pair(ctx):
    for u, v in itertools.combinations_with_replacement(elements(ctx), 2):
        assert_walks_like_running_minimum((u, v), ctx)


@pytest.mark.parametrize("bot,top", INTERVALS_3313)
def test_walk_matches_running_minimum_in_intervals(ctx333, bot, top):
    interval = (parse_var(bot), parse_var(top))
    for u, v in itertools.combinations_with_replacement(elements(ctx333, interval), 2):
        assert_walks_like_running_minimum((u, v), ctx333, interval)


def test_walk_matches_running_minimum_on_a_seeded_sample_3326():
    ctx = Context(3, 3, 2, 6)
    rng = random.Random(19)
    comparable = [
        (u, v)
        for u, v in itertools.combinations_with_replacement(elements(ctx), 2)
        if lattice.leq(u, v)
    ]
    for pair in rng.sample(incomparable_pairs(ctx), 60) + rng.sample(comparable, 30):
        assert_walks_like_running_minimum(pair, ctx)


def test_walk_matches_running_minimum_on_failed_runs(raw_images, fresh_images):
    # the unmasked images at q < n*p generate a larger ring, so some runs
    # end at a witness outside the initial algebra with a remainder
    ctx = Context(3, 3, 1, 1)
    failed = []
    for u, v in itertools.combinations_with_replacement(elements(ctx), 2):
        ref, error = assert_walks_like_running_minimum((u, v), ctx)
        assert error is None and (ref.witness is None) == (not ref.remainder)
        if ref.remainder:
            # the run stops at the remainder's leading monomial in X_ORDER
            assert ref.witness == X_ORDER.leading_term(ref.remainder)[1]
            failed.append((u, v))
    pairs = incomparable_pairs(ctx)
    assert (len(failed), len(pairs)) == (35, 106) and set(failed) <= set(pairs)


RELATION_29 = (parse_var("156^1"), parse_var("234^2"))  # 29 steps at (3,3,1,3)


def step_leads(trace, ctx):
    pack = x_packer(ctx).pack
    return [pack(maps.psi(u, ctx)) + pack(maps.psi(v, ctx)) for (u, v), _ in trace.steps]


def drop_lead(table, lead, ctx):
    """table without the standard pair whose lead is lead."""
    md = straighten._multidegree(*table.lead_pairs[lead], ctx)
    return table._replace(
        lead_pairs={w: pair for w, pair in table.lead_pairs.items() if w != lead},
        leads={**table.leads, md: [w for w in table.leads[md] if w != lead]},
    )


def use_table(monkeypatch, table):
    monkeypatch.setattr(straighten, "subduction_table", lambda ctx, interval=None: table)


def test_walk_matches_running_minimum_with_a_lead_dropped(ctx333, monkeypatch):
    # each step's lead in turn dropped from the table: the run stops there
    table = subduction_table(ctx333)
    leads = step_leads(subduct(RELATION_29, ctx333), ctx333)
    for k, lead in enumerate(leads):
        use_table(monkeypatch, drop_lead(table, lead, ctx333))
        ref, error = assert_walks_like_running_minimum(RELATION_29, ctx333)
        assert error is None and len(ref.steps) == k
        assert ref.witness == x_packer(ctx333).unpack(lead)


def test_walk_matches_running_minimum_with_a_zero_image(ctx333, monkeypatch, fresh_images):
    trace = subduct(RELATION_29, ctx333)
    leads = step_leads(trace, ctx333)
    table = subduction_table(ctx333)
    zeroed = set()
    real = maps.image_blocks
    monkeypatch.setattr(
        maps,
        "image_blocks",
        lambda w, c, m=maps.EMPTY_MASK: [] if w in zeroed else real(w, c, m),
    )
    for k in (1, 5, 17, 28):
        zeroed.clear()
        zeroed.add(trace.steps[k][0][1])
        first = min(j for j, ((u, v), _) in enumerate(trace.steps) if zeroed & {u, v})
        clear_image_caches()
        use_table(monkeypatch, table)
        _, error = assert_walks_like_running_minimum(RELATION_29, ctx333)
        assert error == f"zero image for {trace.steps[first][0][1]!r}"
        # a lead dropped before the zero image stops the run first
        if first:
            use_table(monkeypatch, drop_lead(table, leads[first - 1], ctx333))
            ref, error = assert_walks_like_running_minimum(RELATION_29, ctx333)
            assert error is None and len(ref.steps) == first - 1


# -- the kernel oracle on counted image products ------------------------------


def reduced_basis_leads(relations, ctx, interval=None):
    """The lead pairs of relations, checked with no elimination to be the
    reduced basis of a subspace of the quadratic kernel: each relation
    vanishes under apply_hom at the interval_mask; its largest
    monomial in c_order, its lead pair, has coefficient 1 and lies in no
    other relation; and the lead pairs descend in canonical position
    (i, j), i <= j.  Distinct leads make the relations independent."""
    mask = interval_mask(ctx, interval)
    key = c_order(ctx).key
    at = {u: i for i, u in enumerate(elements(ctx, interval))}
    holding = collections.Counter(m for f in relations for m in f.terms)
    pairs = []
    for f in relations:
        assert not apply_hom(f, ctx, mask)
        lead = max(f.terms, key=key)
        assert f.terms[lead] == 1 and holding[lead] == 1
        pairs.append(tuple(sorted((u for u, e in lead for _ in range(e)), key=at.__getitem__)))
    positions = [(at[u], at[v]) for u, v in pairs]
    assert positions == sorted(set(positions), reverse=True)
    return pairs


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
def test_kernel_oracle_is_the_reduced_kernel_basis(params, interval):
    # one relation per incomparable pair, led by it
    ctx = Context(*params)
    if interval is not None:
        interval = tuple(parse_var(x) for x in interval)
    relations = kernel_quadrics_oracle(ctx, interval)
    assert reduced_basis_leads(relations, ctx, interval) == incomparable_pairs(ctx, interval)[::-1]


def kernel_oracle_full_rows(ctx, interval=None):
    """Reference: the kernel oracle on full rows.  Each pair of a group
    whose product leads collide gets the whole product of its two images,
    counted by _count_product and folded into one dict int -> coefficient
    over the keys where the two counts differ, and one nullspace per
    such group gives the relations; no column is left out, so nothing is
    certified."""
    elems = elements(ctx, interval)
    mask = interval_mask(ctx, interval)
    groups = {}
    for u, v in itertools.combinations_with_replacement(elems, 2):
        groups.setdefault(_multidegree(u, v, ctx), []).append((u, v))
    leads = {u: lead[0] for u in elems if (lead := _lead(signed_image(u, ctx, mask)))}
    at = {u: i for i, u in enumerate(elems)}
    relations = {}
    for pairs in groups.values():
        if len({leads[u] + leads[v] for u, v in pairs if u in leads and v in leads}) == len(pairs):
            continue
        rows = []
        for u, v in pairs:
            pos, neg = {}, {}
            _count_product(pos, neg, signed_image(u, ctx, mask), signed_image(v, ctx, mask), 1)
            rows.append({w: pos.get(w, 0) - neg.get(w, 0) for w, _ in pos.items() ^ neg.items()})
        for combo in linalg.nullspace(rows, operator.neg):
            u, v = pairs[max(combo)]
            relations[at[u], at[v]] = Polynomial(
                {polyring.pair_mono(*pairs[i]): c for i, c in combo.items()}
            )
    return [relations[ij] for ij in sorted(relations, reverse=True)]


def assert_same_relations(fast, ref):
    """Term by term: the same monomials in the same order, with equal
    coefficients of the same type, in the same list order."""
    def typed(relations):
        return [[(m, type(c), c) for m, c in f.terms.items()] for f in relations]

    assert typed(fast) == typed(ref)


@pytest.mark.parametrize(
    "params,interval",
    [
        ((2, 2, 1, 2), None),
        ((2, 3, 1, 2), None),
        ((3, 3, 1, 1), None),
        ((3, 3, 1, 2), None),
        ((2, 2, 2, 4), None),
        ((1, 3, 1, 1), None),
        ((3, 3, 1, 3), None),
        ((3, 3, 1, 3), ("146^1", "235^2")),
        ((3, 3, 1, 3), ("124^0", "356^2")),
    ],
)
def test_kernel_oracle_matches_full_row_elimination(params, interval):
    ctx = Context(*params)
    if interval is not None:
        interval = tuple(parse_var(x) for x in interval)
    assert_same_relations(kernel_quadrics_oracle(ctx, interval), kernel_oracle_full_rows(ctx, interval))


def spy_nullspace(monkeypatch):
    """The rows of each linalg.nullspace call, one list entry per call."""
    real = linalg.nullspace
    calls = []

    def spy(rows, key):
        calls.append(rows)
        return real(rows, key)

    monkeypatch.setattr(linalg, "nullspace", spy)
    return calls


def product_lead_groups(ctx):
    """The multidegree groups of ctx's pairs (canonical order within each),
    keyed by the tuple of their product leads, read off packed_image."""
    mask = interval_mask(ctx, None)
    groups = {}
    elems = elements(ctx)
    for i, u in enumerate(elems):
        for v in elems[i:]:
            md = (tuple(sorted(u.cols + v.cols)), u.shift + v.shift)
            groups.setdefault(md, []).append((u, v))
    return {
        tuple(packed_image(u, ctx, mask)[0][0] + packed_image(v, ctx, mask)[0][0] for u, v in pairs):
        pairs
        for pairs in groups.values()
    }


def test_kernel_oracle_eliminates_only_groups_whose_leads_collide(monkeypatch):
    # each group is eliminated once, on its product-lead columns: a row's
    # smallest column is its own product's lead, which names the group
    ctx = CTX3312
    eliminated = spy_nullspace(monkeypatch)
    kernel_quadrics_oracle(ctx)
    assert (len(eliminated), sum(map(len, eliminated))) == (155, 900)
    groups = product_lead_groups(ctx)
    assert len(groups) == 705
    done = set()
    for rows in eliminated:
        leads = tuple(min(r) for r in rows)
        assert leads in groups and leads not in done
        done.add(leads)
        for row in rows:
            assert set(row) <= set(leads)
    skipped = [leads for leads in groups if leads not in done]
    assert len(skipped) == 550
    for leads in skipped:
        assert len(set(leads)) == len(leads)


def test_kernel_oracle_never_skips_a_group_with_a_zero_image(monkeypatch, fresh_images):
    # a zero image makes zero rows, each a kernel vector of its own: the
    # monomial u*zeroed alone is a relation, for every element u
    ctx = Context(2, 3, 1, 2)
    zeroed = elements(ctx)[7]
    real = maps.image_blocks
    monkeypatch.setattr(
        maps,
        "image_blocks",
        lambda w, c, m=maps.EMPTY_MASK: [] if w == zeroed else real(w, c, m),
    )
    assert signed_image(zeroed, ctx, interval_mask(ctx, None)) == ((), ())
    relations = kernel_quadrics_oracle(ctx)
    reduced_basis_leads(relations, ctx)
    for u in elements(ctx):
        assert Polynomial.term(polyring.pair_mono(u, zeroed)) in relations
    assert len(relations) > len(incomparable_pairs(ctx))
    assert_same_relations(relations, kernel_oracle_full_rows(ctx))


def test_kernel_oracle_adds_columns_where_the_leads_fall_short(monkeypatch):
    # with one image's lead hidden, every group holding that element is
    # solved, on the other pairs' leads only, so some basis vector fails its
    # count; the smallest int where it fails joins the columns, and the
    # group is solved again until every vector counts to zero
    ctx = Context(2, 3, 1, 2)
    reference = kernel_oracle_full_rows(ctx)
    u = elements(ctx)[4]
    hidden = signed_image(u, ctx, interval_mask(ctx, None))
    real = straighten._lead
    monkeypatch.setattr(straighten, "_lead", lambda image: None if image is hidden else real(image))
    calls = spy_nullspace(monkeypatch)
    relations = kernel_quadrics_oracle(ctx)
    solved = [
        leads
        for leads, pairs in product_lead_groups(ctx).items()
        if len(set(leads)) < len(leads) or any(u in pair for pair in pairs)
    ]
    assert len(calls) > len(solved)
    assert_same_relations(relations, reference)


def test_kernel_oracle_refuses_rows_that_disagree_with_the_counted_products(monkeypatch):
    # the counting kernel sees one term of one image with its sign flipped,
    # the lead-column reader does not: the first vector that fails its
    # count fails at a column it was solved on, which is refused at once
    ctx = Context(2, 3, 1, 2)
    image = signed_image(elements(ctx)[4], ctx, interval_mask(ctx, None))
    pos, neg = image
    flipped = pos[1:], tuple(sorted(neg + pos[:1]))
    real = straighten._count_product

    def count(pos, neg, a, b, c):
        real(pos, neg, flipped if a is image else a, flipped if b is image else b, c)

    monkeypatch.setattr(straighten, "_count_product", count)
    with pytest.raises(InternalInconsistencyError, match="differ at"):
        kernel_quadrics_oracle(ctx)


def test_count_product_matches_polynomial_product():
    # |c| = 1 is counted in C and any other c term by term; at (3,3,1,3)
    # 108 subduction steps have |c| = 2 and 2 have |c| = 3
    ctx = Context(2, 3, 1, 2)
    mask = interval_mask(ctx, None)
    unpack = x_packer(ctx).unpack
    for u, v in itertools.combinations_with_replacement(elements(ctx), 2):
        product = maps.generator_image(u, ctx, mask) * maps.generator_image(v, ctx, mask)
        a, b = signed_image(u, ctx, mask), signed_image(v, ctx, mask)
        for c in (1, -1, 2, -3):
            pos, neg = {}, {}
            _count_product(pos, neg, a, b, c)
            assert all(n > 0 for n in itertools.chain(pos.values(), neg.values()))
            g = {w: pos.get(w, 0) - neg.get(w, 0) for w, _ in pos.items() ^ neg.items()}
            assert all(g.values())
            assert Polynomial({unpack(w): k for w, k in g.items()}) == product.scale(c)
            # a product counted back out cancels every monomial
            pos, neg = {}, {}
            _count_product(pos, neg, a, b, c)
            _count_product(pos, neg, a, b, -c)
            assert pos == neg


def test_subduction_reuses_the_kernel_oracles_images():
    # no interval: the oracle and the subduction table share one mask
    ctx = CTX3312
    signed_image.cache_clear()
    kernel_quadrics_oracle(ctx)
    assert signed_image.cache_info().misses == len(elements(ctx)) == 60
    assert sagbi_check(ctx)["failures"] == []
    assert signed_image.cache_info().misses == 60


def test_subduction_table_is_one_object_however_the_interval_is_passed():
    ctx = Context(2, 2, 1, 2)
    table = subduction_table(ctx)
    assert subduction_table(ctx, None) is table
    assert subduction_table(ctx, interval=None) is table
    interval = (parse_var("12^0"), parse_var("34^1"))
    assert subduction_table(ctx, interval) is subduction_table(ctx, interval=interval)


@pytest.mark.parametrize(
    "ctx,interval",
    [(Context(*params), None) for params in LADDER + [(2, 2, 2, 4), (1, 4, 2, 2)]]
    + [(Context(3, 3, 1, 3), (parse_var(b), parse_var(t))) for b, t in INTERVALS_3313],
)
def test_table_lists_the_incomparable_pairs(ctx, interval):
    # (1,4,2,2) has no incomparable pair
    assert subduction_table(ctx, interval).incomparable == incomparable_pairs(ctx, interval)


def seeded_intervals(ctx, count, seed):
    """count random intervals [bot, top] of ctx, bot <= top, bot != top."""
    rng = random.Random(seed)
    elems = elements(ctx)
    out = []
    while len(out) < count:
        i, j = sorted(rng.sample(range(len(elems)), 2))
        if lattice.leq(elems[i], elems[j]):
            out.append((elems[i], elems[j]))
    return out


@pytest.mark.parametrize("params", [(3, 3, 1, 3), (2, 2, 2, 4), (1, 4, 2, 2)], ids=str)
def test_table_walk_splits_pairs_like_leq_on_seeded_intervals(params):
    ctx = Context(*params)
    for interval in seeded_intervals(ctx, 40, seed=30):
        pairs = list(itertools.combinations_with_replacement(elements(ctx, interval), 2))
        table = subduction_table(ctx, interval)
        assert list(table.lead_pairs.values()) == [(u, v) for u, v in pairs if lattice.leq(u, v)]
        assert table.incomparable == [(u, v) for u, v in pairs if not lattice.leq(u, v)]


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
