import pytest

from qgrass import lattice
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
    young_rank,
)

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
    # an invalid interval is refused on every call, never cached
    for _ in range(3):
        with pytest.raises(InvalidInputError):
            elements(C331, (parse_var("235^2"), parse_var("146^1")))


def test_interval_is_filtered_once_and_each_call_gets_a_fresh_list():
    interval = (parse_var("146^1"), parse_var("235^2"))
    lattice._interval_elements.cache_clear()
    first = elements(C331, interval)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    assert elements(C331, interval) == expected
    assert len(incomparable_pairs(C331, interval)) == 18
    info = lattice._interval_elements.cache_info()
    assert (info.misses, info.hits) == (1, 2)


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


def test_interval_chain_count_matches_rank_length():
    bot, topv = parse_var("146^1"), parse_var("235^2")
    # every maximal chain of the interval has rank(top)-rank(bot)+1 elements;
    # count a couple of tiny intervals by hand
    assert count_maximal_chains(C331, (bot, topv)) > 0
    u, v = parse_var("146^1"), parse_var("147^1")  # not valid column 7
    with pytest.raises(InvalidInputError):
        count_maximal_chains(C331, (u, v))


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
