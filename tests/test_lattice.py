import itertools
import random

import pytest

from qgrass.errors import InvalidInputError, NotInImageError
from qgrass.lattice import (
    Context,
    PluckerVar,
    YoungSeq,
    bottom,
    column_multisets,
    count_maximal_chains,
    elements,
    from_young,
    incomparable,
    incomparable_pairs,
    is_standard,
    leq,
    linear_key,
    meet_join,
    parse_var,
    format_var,
    rank,
    standardize,
    to_young,
    top,
    validate_var,
    young_codes,
)


def young_rank(j):
    return sum(x - i for i, x in enumerate(j.entries, start=1))


C331 = Context(3, 3, 1, 3)


def test_context_validation():
    with pytest.raises(InvalidInputError):
        Context(0, 1)
    with pytest.raises(InvalidInputError):
        Context(2, 2, 1, 3)  # q > n*p
    assert Context(2, 3, 1, 2).width == 5
    assert Context(2, 3, 1, 2).stacked_width == 10


def test_leq_examples():
    assert leq(parse_var("146^1"), parse_var("235^2"))
    u = parse_var("156^1")
    assert leq(u, u)
    assert not leq(parse_var("156^1"), parse_var("234^2"))
    assert not leq(parse_var("234^2"), parse_var("156^1"))


def test_leq_vacuous_when_shift_gap_reaches_p():
    # at shift distance >= p the column condition is empty
    assert leq(parse_var("456^0"), parse_var("123^3"))


def test_meet_join_examples():
    assert meet_join(parse_var("156^1"), parse_var("234^2")) == (
        parse_var("146^1"),
        parse_var("235^2"),
    )
    u = parse_var("235^2")
    assert meet_join(u, u) == (u, u)
    assert meet_join(parse_var("45789^1"), parse_var("12356^3")) == (
        parse_var("35689^1"),
        parse_var("12457^3"),
    )


def test_meet_join_comparable_is_min_max():
    u, v = parse_var("146^1"), parse_var("235^2")
    assert meet_join(u, v) == (u, v)
    assert meet_join(v, u) == (u, v)


def test_standard_tableaux_examples():
    ctx = Context(3, 4, 1, 3)
    bad = tuple(parse_var(s) for s in ("345^0", "123^1", "245^3"))
    good = tuple(parse_var(s) for s in ("135^0", "123^1", "257^3"))
    assert not is_standard(bad, ctx)
    assert is_standard(good, ctx)
    assert standardize(good, ctx) == good


def test_standardize_preserves_column_multisets():
    ctx = Context(3, 4, 1, 3)
    t = tuple(parse_var(s) for s in ("345^0", "123^1", "245^3"))
    fixed = standardize(t, ctx)
    assert is_standard(fixed, ctx)
    assert column_multisets(fixed) == column_multisets(t)
    assert sorted(r.shift for r in fixed) == sorted(r.shift for r in t)


def test_element_counts():
    assert len(elements(Context(2, 3, 1, 1))) == 20
    assert len(elements(Context(3, 3, 0, 0))) == 20
    interval = (parse_var("146^1"), parse_var("235^2"))
    assert len(elements(C331, interval)) == 12


def test_elements_bad_interval():
    # an invalid interval is refused on every call
    for _ in range(3):
        with pytest.raises(InvalidInputError):
            elements(C331, (parse_var("235^2"), parse_var("146^1")))


def test_each_call_gets_a_fresh_list():
    interval = (parse_var("146^1"), parse_var("235^2"))
    first = elements(C331, interval)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    assert elements(C331, interval) == expected
    assert len(incomparable_pairs(C331, interval)) == 18


def test_incomparable_pair_counts():
    assert len(incomparable_pairs(Context(3, 3, 0, 0))) == 35
    assert len(incomparable_pairs(Context(3, 3, 1, 1))) == 106
    assert len(incomparable_pairs(Context(3, 3, 1, 2))) == 35 * 5 + 3
    assert len(incomparable_pairs(Context(1, 4, 2, 2))) == 0


def test_chain_counts():
    assert count_maximal_chains(Context(2, 3, 1, 1)) == 55
    assert count_maximal_chains(Context(2, 3, 0, 0)) == 5
    u = parse_var("235^2")
    assert count_maximal_chains(C331, (u, u)) == 1


def hook_length_rectangle(p, m):
    # independent oracle: standard fillings of a p x m rectangle
    import math

    num = math.factorial(p * m)
    den = 1
    for i in range(p):
        for j in range(m):
            den *= (p - i) + (m - j) - 1
    return num // den


def test_chain_count_against_hook_length_oracle():
    for p, m in [(2, 3), (2, 2), (3, 3), (1, 5)]:
        assert count_maximal_chains(Context(p, m, 0, 0)) == hook_length_rectangle(p, m)


def rrw_degree(p, m, q):
    # independent oracle: the Ravi-Rosenthal-Wang degree of the quantum
    # Grassmannian, a sum over nu = (nu_1..nu_p) >= 0 with sum q; at q = 0
    # it is the hook-length count
    import itertools
    import math
    from fractions import Fraction

    w = m + p
    total = Fraction(0)
    for nu in itertools.product(range(q + 1), repeat=p):
        if sum(nu) != q:
            continue
        num = 1
        for j, k in itertools.combinations(range(p), 2):
            num *= k - j + (nu[k] - nu[j]) * w
        den = 1
        for j in range(p):
            den *= math.factorial(m + j + nu[j] * w)
        total += Fraction(num, den)
    deg = (-1) ** (q * (p + 1)) * math.factorial(m * p + q * w) * total
    assert deg.denominator == 1
    return deg.numerator


RRW_CONTEXTS = [
    (p, m, -(-q // p), q)  # n = ceil(q / p)
    for p in range(1, 5)
    for m in range(1, 6)
    for q in range(6)
    if q <= 3 or p + m <= 8
]


def test_rrw_degree_examples():
    assert len(RRW_CONTEXTS) == 118
    assert rrw_degree(2, 3, 1) == 55
    assert rrw_degree(3, 3, 3) == 11184810
    for p, m in [(2, 3), (2, 2), (3, 3), (1, 5)]:
        assert rrw_degree(p, m, 0) == hook_length_rectangle(p, m)


@pytest.mark.parametrize("params", RRW_CONTEXTS, ids=lambda c: "-".join(map(str, c)))
def test_chain_count_against_rrw_degree(params):
    p, m, _, q = params
    assert count_maximal_chains(Context(*params)) == rrw_degree(p, m, q)


def test_interval_chain_count_matches_rank_length():
    bot, topv = parse_var("146^1"), parse_var("235^2")
    # every maximal chain of the interval has rank(top)-rank(bot)+1 elements;
    # count a couple of tiny intervals by hand
    assert count_maximal_chains(C331, (bot, topv)) > 0
    u, v = parse_var("146^1"), parse_var("147^1")  # not valid column 7
    with pytest.raises(InvalidInputError):
        count_maximal_chains(C331, (u, v))


def test_chain_count_refuses_a_reversed_interval():
    with pytest.raises(InvalidInputError, match="invalid interval"):
        count_maximal_chains(C331, (parse_var("356^2"), parse_var("124^0")))


def test_rank():
    assert rank(bottom(C331), C331) == 0
    assert rank(PluckerVar((2, 3, 5), 2), Context(3, 4, 1, 2)) == 18
    u, v = parse_var("156^1"), parse_var("234^2")
    meet, join = meet_join(u, v)
    assert rank(meet, C331) + rank(join, C331) == rank(u, C331) + rank(v, C331)


def test_top_bottom():
    assert bottom(C331) == parse_var("123^0")
    assert top(C331) == parse_var("456^3")


def test_young_bijection_examples():
    assert to_young(PluckerVar((2, 3, 5), 2), Context(3, 4, 1, 2)) == YoungSeq((5, 9, 10))
    assert to_young(parse_var("235^2"), C331) == YoungSeq((5, 8, 9))
    assert young_rank(YoungSeq((5, 9, 10))) == 18


def test_young_round_trip():
    ctx = Context(2, 2, 1, 2)
    for u in elements(ctx):
        assert from_young(to_young(u, ctx), ctx) == u


def test_from_young_rejects_wide_spans():
    with pytest.raises(NotInImageError):
        from_young(YoungSeq((1, 8)), Context(2, 2, 1, 2))  # span 7 >= m+p=4


# each case names the statement of lattice that it reaches and no command runs
@pytest.mark.parametrize(
    "entries",
    [
        pytest.param((1, 2, 3, 4), id="from_young-length-refusal-p+1"),
        pytest.param((1, 2), id="from_young-length-refusal-p-1"),
    ],
)
def test_library_paths(entries):
    with pytest.raises(InvalidInputError, match="expected 3 entries"):
        from_young(YoungSeq(entries), C331)


def test_young_is_order_isomorphism():
    ctx = Context(2, 3, 1, 2)
    elems = elements(ctx)
    for u in elems[::3]:
        for v in elems[::3]:
            ju, jv = to_young(u, ctx).entries, to_young(v, ctx).entries
            assert leq(u, v) == all(a <= b for a, b in zip(ju, jv))


def test_parse_format_round_trip():
    assert parse_var("2,3,5^2") == PluckerVar((2, 3, 5), 2)
    assert parse_var("235^2") == PluckerVar((2, 3, 5), 2)
    assert parse_var("12^0", p=1) == PluckerVar((12,), 0)
    assert format_var(PluckerVar((2, 3, 5), 2)) == "2,3,5^2"
    assert format_var(PluckerVar((2, 3, 5), 2), compact=True) == "235^2"
    assert format_var(PluckerVar((2, 10), 1)) == "2,10^1"
    with pytest.raises(InvalidInputError):
        parse_var("235")
    with pytest.raises(InvalidInputError):
        parse_var("253^2")  # parses but not increasing
        validate_var(parse_var("253^2"), C331)


# outside the grammar: ASCII digits, no sign, space or separator inside a variable
BAD_VARS = [
    "1,2,3^0_1", "+1,2,3^0", "1, 2,3^1", "123^+1", "123^-1", "１２３^0", "12²^0", "^1", "1^2^3"
]


@pytest.mark.parametrize("text", BAD_VARS)
def test_parse_var_refuses_text_outside_the_grammar(text):
    with pytest.raises(InvalidInputError):
        parse_var(text)


def test_validate_var():
    with pytest.raises(InvalidInputError):
        validate_var(PluckerVar((1, 2), 0), C331)  # wrong p
    with pytest.raises(InvalidInputError):
        validate_var(PluckerVar((1, 2, 7), 0), C331)  # column out of range
    with pytest.raises(InvalidInputError):
        validate_var(PluckerVar((1, 2, 3), 4), C331)  # shift above q


def test_canonical_order_is_linear_extension():
    elems = elements(C331)
    keys = [linear_key(u, C331) for u in elems]
    assert keys == sorted(keys)
    for u in elems[::7]:
        for v in elems[::7]:
            if leq(u, v) and u != v:
                assert linear_key(u, C331) < linear_key(v, C331)


LADDER = [(2, 2, 1, 2), (2, 3, 1, 2), (3, 3, 1, 1), (3, 3, 1, 3), (3, 4, 1, 3), (3, 3, 2, 6)]


def leq_reference(u, v):
    """Reference: leq's column test as an index generator, as it was before
    it mapped operator.le over the columns."""
    if len(u.cols) != len(v.cols):
        raise InvalidInputError("mismatched column counts: %r vs %r" % (u, v))
    d = v.shift - u.shift
    if d < 0:
        return False
    return all(u.cols[i] <= v.cols[i + d] for i in range(len(u.cols) - d))


@pytest.mark.parametrize("params", LADDER)
def test_leq_matches_reference_on_every_pair(params):
    elems = elements(Context(*params))
    for u in elems:
        for v in elems:
            assert leq(u, v) is leq_reference(u, v)


# the ladder, plus a context with n = 2 at q = n*p, one with p = 1 and one with p = 4
CODE_CONTEXTS = LADDER + [(2, 2, 2, 4), (1, 4, 2, 2), (4, 2, 1, 3)]


@pytest.mark.parametrize("params", CODE_CONTEXTS, ids=str)
def test_the_whole_lattice_is_the_interval_from_bottom_to_top(params):
    # so count_maximal_chains without an interval needs no filter
    ctx = Context(*params)
    whole = (bottom(ctx), top(ctx))
    assert elements(ctx) == elements(ctx, whole)
    assert count_maximal_chains(ctx) == count_maximal_chains(ctx, whole)


@pytest.mark.parametrize("params", CODE_CONTEXTS, ids=str)
def test_young_codes_compare_like_leq_on_every_pair(params):
    ctx = Context(*params)
    elems = elements(ctx)
    codes, guard = young_codes(elems, ctx)
    for u, code_u in zip(elems, codes):
        for v, code_v in zip(elems, codes):
            assert (((code_v | guard) - code_u) & guard == guard) is leq(u, v)


def test_leq_refuses_mismatched_column_counts_like_reference():
    for fn in (leq, leq_reference):
        with pytest.raises(InvalidInputError, match="mismatched column counts"):
            fn(PluckerVar((1, 2), 0), PluckerVar((1, 2, 3), 0))


def _incomparable_pairs_two_sided(ctx, interval=None):
    elems = elements(ctx, interval)
    return [
        (u, v)
        for i, u in enumerate(elems)
        for v in elems[i + 1 :]
        if incomparable(u, v)
    ]


@pytest.mark.parametrize("params", LADDER)
def test_incomparable_pairs_match_two_sided_definition(params):
    ctx = Context(*params)
    assert incomparable_pairs(ctx) == _incomparable_pairs_two_sided(ctx)
    elems = elements(ctx)
    for bot in elems[::11]:
        for topv in elems[::13]:
            if leq(bot, topv):
                interval = (bot, topv)
                assert incomparable_pairs(ctx, interval) == (
                    _incomparable_pairs_two_sided(ctx, interval)
                )


def test_p1_degenerate_chain():
    ctx = Context(1, 1, 0, 0)
    assert elements(ctx) == [PluckerVar((1,), 0), PluckerVar((2,), 0)]
    assert incomparable_pairs(ctx) == []
    ctx2 = Context(1, 3, 2, 2)
    assert count_maximal_chains(ctx2) == 1


# -- quantum Monk: the covers against quantum Schubert calculus ---------------


def partition(u, ctx):
    """The partition lambda_i = alpha_{p+1-i} - (p+1-i) of u's columns, in a
    p x m box."""
    p = ctx.p
    return tuple(u.cols[p - i] - (p + 1 - i) for i in range(1, p + 1))


def from_partition(lam, a):
    """The element alpha^a with alpha_j = lambda_{p+1-j} + j."""
    p = len(lam)
    return PluckerVar(tuple(lam[p - j] + j for j in range(1, p + 1)), a)


def quantum_monk(u, ctx):
    """The terms of sigma_1 * q^a sigma_lambda by Bertram's quantum Monk rule:
    lambda with one box added in every legal way, and q^(a+1)
    sigma_(lambda_2 - 1, ..., lambda_p - 1, 0) when lambda_1 = m,
    lambda_p >= 1 and a < q."""
    lam, a = partition(u, ctx), u.shift
    terms = [
        from_partition(lam[:i] + (lam[i] + 1,) + lam[i + 1 :], a)
        for i in range(ctx.p)
        if lam[i] < (ctx.m if i == 0 else lam[i - 1])
    ]
    if lam[0] == ctx.m and lam[-1] >= 1 and a < ctx.q:
        terms.append(from_partition(tuple(x - 1 for x in lam[1:]) + (0,), a + 1))
    return terms


def monk_degree(u, ctx):
    """a(m+p) + |lambda|, which every quantum Monk term raises by one."""
    return u.shift * ctx.width + sum(partition(u, ctx))


@pytest.mark.parametrize("params", LADDER + [(4, 4, 1, 4)])
def test_elements_are_the_partitions_in_the_box(params):
    ctx = Context(*params)
    boxed = {
        (lam[::-1], a)
        for lam in itertools.combinations_with_replacement(range(ctx.m + 1), ctx.p)
        for a in range(ctx.q + 1)
    }
    elems = elements(ctx)
    assert {(partition(u, ctx), u.shift) for u in elems} == boxed
    assert len(elems) == len(boxed)
    assert all(from_partition(partition(u, ctx), u.shift) == u for u in elems)


@pytest.mark.parametrize("params", LADDER + [(4, 4, 1, 4)])
def test_covers_are_the_quantum_monk_graph(params):
    ctx = Context(*params)
    by_rank = {}
    for u in elements(ctx):
        by_rank.setdefault(rank(u, ctx), []).append(u)
    covers = {
        (u, v) for r in by_rank for u in by_rank[r] for v in by_rank.get(r + 1, ()) if leq(u, v)
    }
    assert covers == {(u, v) for u in elements(ctx) for v in quantum_monk(u, ctx)}


@pytest.mark.parametrize("params,intervals", [((2, 2, 1, 2), 166), ((2, 3, 1, 2), 440)])
def test_monk_paths_count_the_maximal_chains_of_every_interval(params, intervals):
    ctx = Context(*params)
    elems = elements(ctx)
    ascending = sorted(elems, key=lambda u: monk_degree(u, ctx))
    seen = 0
    for u in elems:
        paths = dict.fromkeys(elems, 0)
        paths[u] = 1
        for v in ascending:
            for w in quantum_monk(v, ctx):
                paths[w] += paths[v]
        for v in elems:
            if leq(u, v):
                seen += 1
                assert paths[v] == count_maximal_chains(ctx, (u, v))
            else:
                assert paths[v] == 0
    assert seen == intervals


def monk_order(ctx):
    """The order that the quantum Monk terms generate, as bitsets over the
    canonical positions: up[u] holds every element above u or equal to it,
    down[u] every element below u or equal to it."""
    elems = elements(ctx)
    bit = {u: 1 << i for i, u in enumerate(elems)}
    ascending = sorted(elems, key=lambda u: monk_degree(u, ctx))
    up = dict(bit)
    for u in reversed(ascending):
        for w in quantum_monk(u, ctx):
            up[u] |= up[w]
    down = dict(bit)
    for u in ascending:
        for w in quantum_monk(u, ctx):
            down[w] |= down[u]
    return up, down


@pytest.mark.parametrize("params", LADDER)
def test_meet_join_are_the_bounds_in_the_monk_order(params):
    # the greatest common lower bound g has down[g] == down[u] & down[v],
    # since an intersection of down-sets is one; dually for the join
    ctx = Context(*params)
    elems = elements(ctx)
    up, down = monk_order(ctx)
    by_down = {d: u for u, d in down.items()}
    by_up = {s: u for u, s in up.items()}
    rng = random.Random(16)
    for _ in range(300):
        u, v = rng.choice(elems), rng.choice(elems)
        meet, join = meet_join(u, v)
        assert by_down.get(down[u] & down[v]) == meet, (u, v)
        assert by_up.get(up[u] & up[v]) == join, (u, v)
