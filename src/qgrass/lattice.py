"""The distributive lattice of shifted column sets and its chain combinatorics.

Elements are pairs (alpha, a) of a strictly increasing p-subset of columns
and a nonnegative shift.  The partial order, meets and joins, the rank
function, the order isomorphism onto an interval of Young's poset, and
exact maximal-chain counting all live here.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import NamedTuple, Optional

from .errors import InvalidInputError, NotInImageError


class _ContextFields(NamedTuple):
    p: int
    m: int
    n: int = 0
    q: int = 0


class Context(_ContextFields):
    """Problem size: a p x (m+p) matrix with entries of degree n, shifts up to q.

    Invariant: 0 <= q <= n*p, checked on construction.  The stacked width
    N = (n+1)*(m+p) is derived.
    """

    __slots__ = ()

    def __new__(cls, p: int, m: int, n: int = 0, q: int = 0):
        if p < 1:
            raise InvalidInputError(f"p must be >= 1, got {p}")
        if m < 1:
            raise InvalidInputError(f"m must be >= 1, got {m}")
        if n < 0:
            raise InvalidInputError(f"n must be >= 0, got {n}")
        if not 0 <= q <= n * p:
            raise InvalidInputError(f"q must satisfy 0 <= q <= n*p = {n * p}, got {q}")
        return super().__new__(cls, p, m, n, q)

    @property
    def width(self) -> int:
        """Number of matrix columns, m + p."""
        return self.m + self.p

    @property
    def stacked_width(self) -> int:
        """Total column count N = (n+1)*(m+p) of the level-stacked matrix."""
        return (self.n + 1) * self.width


class PluckerVar(NamedTuple):
    """A lattice element: strictly increasing column set plus a shift."""

    cols: tuple[int, ...]
    shift: int


class YoungSeq(NamedTuple):
    """A strictly increasing sequence of positive integers."""

    entries: tuple[int, ...]


def validate_var(u: PluckerVar, ctx: Context, bound_shift: bool = True) -> None:
    """Raise InvalidInputError unless u is a well-formed element for ctx."""
    cols = u.cols
    if len(cols) != ctx.p:
        raise InvalidInputError(f"expected {ctx.p} columns, got {format_var(u)}")
    if any(cols[i] >= cols[i + 1] for i in range(len(cols) - 1)):
        raise InvalidInputError(f"columns must be strictly increasing: {format_var(u)}")
    if cols[0] < 1 or cols[-1] > ctx.width:
        raise InvalidInputError(f"columns must lie in [1, {ctx.width}]: {format_var(u)}")
    if u.shift < 0:
        raise InvalidInputError(f"shift must be >= 0: {format_var(u)}")
    if bound_shift and u.shift > ctx.q:
        raise InvalidInputError(f"shift exceeds q={ctx.q}: {format_var(u)}")


def format_var(u: PluckerVar, compact: bool = False) -> str:
    """Render a lattice element; compact digit form only when every column <= 9."""
    if compact and all(c <= 9 for c in u.cols):
        return "%s^%d" % ("".join(str(c) for c in u.cols), u.shift)
    return "%s^%d" % (",".join(str(c) for c in u.cols), u.shift)


# columns, comma-separated or one digit each, then "^" and the shift: ASCII digits only
_VAR_RE = re.compile(r"([0-9]+(?:,[0-9]+)*)\^([0-9]+)")


def parse_var(text: str, p: Optional[int] = None) -> PluckerVar:
    """Parse "2,3,5^2" (general) or "235^2" (compact digit form).

    Without commas the string is read digit by digit, unless p is given and
    equals 1, in which case the whole column part is a single number.
    """
    text = text.strip()
    match = _VAR_RE.fullmatch(text)
    if not match:
        raise InvalidInputError(f"bad lattice variable {text!r}")
    colpart, shift = match.group(1), int(match.group(2))
    if "," in colpart or p == 1:
        cols = tuple(int(c) for c in colpart.split(","))
    else:
        cols = tuple(int(c) for c in colpart)
    if p is not None and len(cols) != p:
        raise InvalidInputError(f"expected {p} columns in {text!r}")
    return PluckerVar(cols, shift)


def leq(u: PluckerVar, v: PluckerVar) -> bool:
    """Partial order: shifts weakly increase and columns interlace.

    u <= v iff shift(u) <= shift(v) and u.cols[i] <= v.cols[i+d] for all i,
    with d the shift difference; vacuously true on the columns when d >= p.
    """
    if len(u.cols) != len(v.cols):
        raise InvalidInputError("mismatched column counts: %r vs %r" % (u, v))
    d = v.shift - u.shift
    return d >= 0 and all(map(operator.le, u.cols, v.cols[d:]))


def incomparable(u: PluckerVar, v: PluckerVar) -> bool:
    return not leq(u, v) and not leq(v, u)


def meet_join(u: PluckerVar, v: PluckerVar) -> tuple[PluckerVar, PluckerVar]:
    """Meet and join, realized by swapping entries in violating columns.

    The two rows are aligned with the larger shift pushed further left; in
    every aligned column whose lower entry is smaller than its upper entry
    the two are swapped.  The resulting rows are the meet and the join.
    Their aligned runs are the componentwise min and max of two strictly
    increasing runs, and each run's end only moves away from the entry
    that it faces, so on elements both rows stay strictly increasing.
    """
    if u.shift > v.shift:
        u, v = v, u
    d = v.shift - u.shift
    lo = list(u.cols)
    hi = list(v.cols)
    for k in range(d, len(v.cols)):
        if hi[k] < lo[k - d]:
            lo[k - d], hi[k] = hi[k], lo[k - d]
    meet = PluckerVar(tuple(lo), u.shift)
    join = PluckerVar(tuple(hi), v.shift)
    return meet, join


def rank(u: PluckerVar, ctx: Context) -> int:
    """Rank in the graded lattice: a*(m+p) + sum_j (alpha_j - j)."""
    return u.shift * ctx.width + sum(c - j for j, c in enumerate(u.cols, start=1))


def to_young(u: PluckerVar, ctx: Context) -> YoungSeq:
    """Order isomorphism onto sequences J with max(J) - min(J) < m + p.

    Writing the shift as p*l + r with 0 <= r < p, the top p-r columns are
    placed in level l and the bottom r columns in level l+1 of the stacked
    column range.
    """
    p, w = ctx.p, ctx.width
    l, r = divmod(u.shift, p)
    entries = [l * w + c for c in u.cols[r:]] + [(l + 1) * w + c for c in u.cols[:r]]
    return YoungSeq(tuple(entries))


def young_codes(elems, ctx: Context) -> tuple[list[int], int]:
    """The packed Young codes of elems, elements of ctx, and the guard that
    compares them.

    Entry k of to_young(u), at most ctx.stacked_width, fills bit field k of
    the code of u.  A field is one bit wider than the stacked width needs,
    and the guard has only those top bits set.  So u <= v iff
    ((code_v | guard) - code_u) & guard == guard: each field of
    code_v | guard minus that of code_u stays nonnegative, so no borrow
    crosses a field, and keeps its guard bit iff the entry of v is at least
    that of u.  That is the componentwise order of Young's poset, and
    to_young is an order isomorphism onto its image: leq itself stays the
    definition.
    """
    bits = ctx.stacked_width.bit_length() + 1
    guard = sum(1 << k * bits for k in range(ctx.p)) << bits - 1
    codes = []
    for u in elems:
        code = 0
        for x in reversed(to_young(u, ctx).entries):
            code = code << bits | x
        codes.append(code)
    return codes, guard


def from_young(j: YoungSeq, ctx: Context) -> PluckerVar:
    """Inverse of to_young; rejects sequences outside the embedding's image."""
    seq = j.entries
    if len(seq) != ctx.p:
        raise InvalidInputError(f"expected {ctx.p} entries, got {j!r}")
    if any(seq[i] >= seq[i + 1] for i in range(len(seq) - 1)) or seq[0] < 1:
        raise InvalidInputError(f"entries must be strictly increasing and positive: {j!r}")
    w = ctx.width
    if seq[-1] - seq[0] >= w:
        raise NotInImageError(f"span of {j!r} reaches {w}, not in the image")
    # the span check leaves every entry in levels l and l + 1
    l = (seq[0] - 1) // w
    low = [x - l * w for x in seq if (x - 1) // w == l]
    high = [x - (l + 1) * w for x in seq if (x - 1) // w == l + 1]
    return PluckerVar(tuple(high + low), ctx.p * l + len(high))


def sort_sign(seq) -> int:
    """Sign of the permutation sorting seq (entries assumed distinct)."""
    inv = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inv % 2 else 1


def linear_key(u: PluckerVar, ctx: Context):
    """Canonical linear extension: ascending (shift, rank, columns).

    Shift is the primary key, mirroring the level-first variable order on
    the matrix side; rank and column lexicography break ties.
    """
    return (u.shift, rank(u, ctx), u.cols)


def elements(
    ctx: Context,
    interval: Optional[tuple[PluckerVar, PluckerVar]] = None,
) -> list[PluckerVar]:
    """All lattice elements (optionally within a closed interval), canonically
    ordered, as a fresh list.

    Within one shift, linear_key order is (sum of the columns, columns),
    since the rank is shift*(m+p) + sum(cols) - p(p+1)/2.  So the column
    sets are sorted once and listed under each shift in turn.  Shifts
    weakly increase along the order, so an interval's elements have shifts
    from its bottom's through its top's, and only that band is filtered.

    The interval filter calls leq: comparing young_codes would first code
    every element of the band, which costs more than the filter's own
    leq calls (measured on the skew benchmark's intervals; ROADMAP item
    12)."""
    shifts = range(ctx.q + 1)
    if interval is not None:
        bot, top = interval
        validate_var(bot, ctx)
        validate_var(top, ctx)
        if not leq(bot, top):
            below = f"{format_var(bot)} is not below {format_var(top)}"
            raise InvalidInputError(f"invalid interval: {below}")
        shifts = range(bot.shift, top.shift + 1)
    # combinations come in lexicographic order, which the stable sort keeps
    # among column sets of equal sum
    column_sets = sorted(itertools.combinations(range(1, ctx.width + 1), ctx.p), key=sum)
    out = [PluckerVar(cols, shift) for shift in shifts for cols in column_sets]
    if interval is None:
        return out
    return [u for u in out if leq(bot, u) and leq(u, top)]


def incomparable_pairs(
    ctx: Context,
    interval: Optional[tuple[PluckerVar, PluckerVar]] = None,
) -> list[tuple[PluckerVar, PluckerVar]]:
    """All unordered incomparable pairs, in canonical order."""
    # elements are a linear extension, so v <= u cannot hold for a later v
    return [
        (u, v) for u, v in itertools.combinations(elements(ctx, interval), 2) if not leq(u, v)
    ]


def bottom(ctx: Context) -> PluckerVar:
    return PluckerVar(tuple(range(1, ctx.p + 1)), 0)


def top(ctx: Context) -> PluckerVar:
    return PluckerVar(tuple(range(ctx.m + 1, ctx.width + 1)), ctx.q)


def count_maximal_chains(
    ctx: Context,
    interval: Optional[tuple[PluckerVar, PluckerVar]] = None,
) -> int:
    """Exact number of saturated chains from the bottom to the top.

    Dynamic programming over the rank grading; covers are pairs below each
    other at rank distance one.  Counts grow fast, so everything stays in
    arbitrary-precision integers.  elements refuses an invalid interval.
    """
    # without an interval every element u = alpha^a lies in [bottom, top]:
    # with 0-based i, alpha[i + a] >= i + a + 1 >= i + 1, and
    # alpha[i] <= m + 1 + i <= top.cols[i + q - a]
    elems = elements(ctx, interval)
    bot, topv = (bottom(ctx), top(ctx)) if interval is None else interval
    by_rank: dict[int, list[PluckerVar]] = {}
    for u in elems:
        by_rank.setdefault(rank(u, ctx), []).append(u)
    counts = {bot: 1}
    for r in sorted(by_rank)[1:]:
        below = by_rank.get(r - 1, ())
        for u in by_rank[r]:
            counts[u] = sum(counts[v] for v in below if leq(v, u))
    return counts.get(topv, 0)


# -- tableaux ---------------------------------------------------------------

Tableau = tuple[PluckerVar, ...]


def is_standard(t: Tableau, ctx: Optional[Context] = None) -> bool:
    """Rows form a weakly increasing chain in the lattice."""
    if ctx is not None:
        for row in t:
            validate_var(row, ctx)
    return all(leq(t[i], t[i + 1]) for i in range(len(t) - 1))


def standardize(t: Tableau, ctx: Optional[Context] = None) -> Tableau:
    """Repair a tableau by bubbling meet/join swaps until the rows chain.

    Each pass replaces an adjacent offending pair by its meet and join,
    which preserves the multiset of entries in every skew column and the
    multiset of row shifts.  Terminates: a swap replaces rows (a, b) at
    positions (i, i+1), with a not below b, by (meet, join), where
    rank(meet) + rank(join) = rank(a) + rank(b) and meet < a.  So the
    position-weighted rank sum sum_i i*rank(row_i) strictly increases with
    every swap, and it is bounded.
    """
    if ctx is not None:
        for row in t:
            validate_var(row, ctx)
    rows = list(t)
    changed = True
    while changed:
        changed = False
        for i in range(len(rows) - 1):
            pair = meet_join(rows[i], rows[i + 1])
            if pair != (rows[i], rows[i + 1]):
                rows[i], rows[i + 1] = pair
                changed = True
    return tuple(rows)


def column_multisets(t: Tableau) -> dict[int, tuple[int, ...]]:
    """Multiset of entries in each skew column (entry index minus row shift)."""
    cols: dict[int, list[int]] = {}
    for row in t:
        for i, c in enumerate(row.cols, start=1):
            cols.setdefault(i - row.shift, []).append(c)
    return {k: tuple(sorted(v)) for k, v in cols.items()}
