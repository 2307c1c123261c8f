"""Generator homomorphisms and cell-specialization masks.

phi sends a lattice variable to a coefficient of a maximal minor of the
level-graded matrix; psi is its leading monomial in closed form; chi is the
corresponding row-consecutive minor of the level-stacked matrix; pi expands
a variable over Young-sequence variables.  Masks zero out matrix entries to
parameterize (skew) cells, and apply_hom / minor_map evaluate the induced
ring maps.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from . import lattice, polyring
from .errors import DomainError, InvalidInputError
from .lattice import Context, PluckerVar, YoungSeq
from .polyring import Mono, Polynomial, XVar

SpecMask = frozenset  # specialization mask: the XVar triples forced to zero

EMPTY_MASK: SpecMask = frozenset()


def residue(c: int, width: int) -> int:
    """Column residue of a stacked column index, represented in [1, width]."""
    return (c - 1) % width + 1


def stacked_level(c: int, width: int) -> int:
    return (c - 1) // width


# -- the four generator maps --------------------------------------------------


def phi(u: PluckerVar, ctx: Context) -> Polynomial:
    """Coefficient of t^a in the maximal minor on columns alpha: the unmasked
    generator_image."""
    return generator_image(u, ctx)


def psi(u: PluckerVar, ctx: Context) -> Mono:
    """Closed form of the leading monomial of phi(u).

    Writing the shift as p*l + r with 0 <= r < p: rows r+1..p pick the top
    p-r columns in reverse at level l, rows 1..r pick the bottom r columns
    in reverse at level l+1.
    """
    lattice.validate_var(u, ctx, bound_shift=False)
    p = ctx.p
    l, r = divmod(u.shift, p)
    pairs = []
    for k, i in enumerate(range(r + 1, p + 1)):
        pairs.append((XVar(i, u.cols[p - 1 - k], l), 1))
    for k, i in enumerate(range(1, r + 1)):
        pairs.append((XVar(i, u.cols[r - 1 - k], l + 1), 1))
    return polyring.mono_from_pairs(pairs)


def psi_invert(mono: Mono, ctx: Context) -> Optional[PluckerVar]:
    """Recover u with psi(u) == mono, or None when mono is not of that shape."""
    if polyring.mono_deg(mono) != ctx.p or any(e != 1 for _, e in mono):
        return None
    rows = sorted(v.row for v, _ in mono)
    if rows != list(range(1, ctx.p + 1)):
        return None
    levels = sorted({v.level for v, _ in mono})
    if len(levels) == 1:
        l, r = levels[0], 0
    elif len(levels) == 2 and levels[1] == levels[0] + 1:
        l = levels[0]
        r = sum(1 for v, _ in mono if v.level == l + 1)
    else:
        return None
    cols = [0] * ctx.p
    for v, _ in mono:
        if v.level == l:
            if v.row <= r:
                return None
            cols[ctx.p + r - v.row] = v.col
        else:
            if v.row > r:
                return None
            cols[r - v.row] = v.col
    if any(cols[i] >= cols[i + 1] for i in range(ctx.p - 1)):
        return None
    u = PluckerVar(tuple(cols), ctx.p * l + r)
    if u.cols[0] < 1 or u.cols[-1] > ctx.width:
        return None
    return u if psi(u, ctx) == mono else None


@functools.lru_cache(maxsize=None)
def _stacked_rows_matrix(ctx: Context) -> tuple[tuple[XVar, ...], ...]:
    """The p(n+1) x (m+p) matrix stacking the level blocks on top of each other."""
    rows = []
    for stacked_row in range(1, ctx.p * (ctx.n + 1) + 1):
        l, r = divmod(stacked_row - 1, ctx.p)
        rows.append(tuple(XVar(r + 1, j, l) for j in range(1, ctx.width + 1)))
    return tuple(rows)


def chi(u: PluckerVar, ctx: Context) -> Polynomial:
    """Row-consecutive maximal minor: rows a+1..a+p, columns alpha."""
    lattice.validate_var(u, ctx, bound_shift=False)
    if u.shift + ctx.p > ctx.p * (ctx.n + 1):
        raise DomainError(
            f"rows {u.shift + 1}..{u.shift + ctx.p} exceed the stacked matrix"
        )
    matrix = _stacked_rows_matrix(ctx)
    block = [
        [Polynomial.variable(matrix[u.shift + i][j - 1]) for j in u.cols]
        for i in range(ctx.p)
    ]
    return polyring.det(block)


def epsilon(j: YoungSeq, ctx: Context) -> int:
    """Sign of the permutation sorting the column residues of the sequence."""
    return lattice.sort_sign([residue(x, ctx.width) for x in j.entries])


def pi(u: PluckerVar, ctx: Context) -> Polynomial:
    """Signed expansion of a lattice variable over Young-sequence variables.

    Sums over all sequences in the stacked column range whose residue set is
    exactly the column set and whose rank matches; each residue is lifted to
    some level, so the enumeration runs over level assignments with the
    correct total.
    """
    lattice.validate_var(u, ctx, bound_shift=False)
    acc: dict = {}
    for levels in itertools.product(range(ctx.n + 1), repeat=ctx.p):
        if sum(levels) != u.shift:
            continue
        entries = tuple(sorted(l * ctx.width + c for l, c in zip(levels, u.cols)))
        j = YoungSeq(entries)
        acc[((j, 1),)] = epsilon(j, ctx)
    return Polynomial(acc)


# -- masks --------------------------------------------------------------------


def _col_at(cols: tuple[int, ...], nu: int, hi: int) -> int:
    """Column sequence with the usual sentinels: 0 below, +infinity above."""
    if nu <= 0:
        return 0
    if nu > len(cols):
        return hi
    return cols[nu - 1]


def schubert_mask(
    ctx: Context,
    top: PluckerVar,
    bottom: Optional[PluckerVar] = None,
) -> SpecMask:
    """Zero pattern specializing the matrix onto a cell or skew cell.

    The top element caps each row's surviving entries from the right, the
    optional bottom element caps them from the left; together every row
    keeps one contiguous window of stacked columns.
    """
    lattice.validate_var(top, ctx, bound_shift=False)
    if bottom is not None:
        lattice.validate_var(bottom, ctx, bound_shift=False)
        if not lattice.leq(bottom, top):
            raise InvalidInputError(f"{bottom!r} is not below {top!r}")
    inf = ctx.width + 1
    p = ctx.p
    zeroed = set()
    s, r = divmod(top.shift, p)
    for i in range(1, p + 1):
        for j in range(1, ctx.width + 1):
            for l in range(ctx.n + 1):
                if (
                    (l > s + 1 and i <= r)
                    or (l == s + 1 and j > _col_at(top.cols, r + 1 - i, inf))
                    or (l > s and i > r)
                    or (l == s and j > _col_at(top.cols, p + r + 1 - i, inf))
                ):
                    zeroed.add(XVar(i, j, l))
    if bottom is not None:
        s, r = divmod(bottom.shift, p)
        for i in range(1, p + 1):
            for j in range(1, ctx.width + 1):
                for l in range(ctx.n + 1):
                    if (
                        (l < s + 1 and i <= r)
                        or (l == s + 1 and j < _col_at(bottom.cols, r + 1 - i, inf))
                        or (l < s and i > r)
                        or (l == s and j < _col_at(bottom.cols, p + r + 1 - i, inf))
                    ):
                        zeroed.add(XVar(i, j, l))
    return frozenset(zeroed)


def young_mask(
    ctx: Context,
    top: Optional[YoungSeq] = None,
    bottom: Optional[YoungSeq] = None,
) -> SpecMask:
    """Mask keeping, in row i, the stacked columns between the sequence bounds.

    Row i keeps columns from bottom[p+1-i] through top[p+1-i]; the window
    bounds are attached to the rows in reverse order so that the mask of a
    lattice element's image sequence coincides with its cell mask.
    """
    p, w = ctx.p, ctx.width
    zeroed = set()
    for i in range(1, p + 1):
        hi = top.entries[p - i] if top is not None else ctx.stacked_width
        lo = bottom.entries[p - i] if bottom is not None else 1
        for c in range(1, ctx.stacked_width + 1):
            if c > hi or c < lo:
                zeroed.add(XVar(i, residue(c, w), stacked_level(c, w)))
    return frozenset(zeroed)


@functools.lru_cache(maxsize=None)
def minor_map(
    sel: YoungSeq, ctx: Context, mask: SpecMask = EMPTY_MASK
) -> Polynomial:
    """Maximal minor of the masked level-stacked p x N matrix on columns sel."""
    entries = sel.entries
    if len(entries) != ctx.p:
        raise InvalidInputError(f"expected {ctx.p} columns, got {sel!r}")
    if entries[0] < 1 or entries[-1] > ctx.stacked_width:
        raise InvalidInputError(f"columns out of range: {sel!r}")
    w = ctx.width
    block = []
    for i in range(1, ctx.p + 1):
        row = []
        for c in entries:
            v = XVar(i, residue(c, w), stacked_level(c, w))
            row.append(Polynomial.zero() if v in mask else Polynomial.variable(v))
        block.append(row)
    return polyring.det(block)


# -- masked generator images and the induced homomorphism ----------------------


@functools.lru_cache(maxsize=None)
def generator_image(u: PluckerVar, ctx: Context, mask: SpecMask = EMPTY_MASK) -> Polynomial:
    """Image of a lattice variable under the (possibly masked) minor map."""
    lattice.validate_var(u, ctx, bound_shift=False)
    if u.shift > ctx.n * ctx.p:
        raise DomainError(f"shift {u.shift} exceeds the maximal degree {ctx.n * ctx.p}")
    return polyring.det_coeff(ctx, u.cols, u.shift, mask)


def apply_hom(f: Polynomial, ctx: Context, mask: SpecMask = EMPTY_MASK) -> Polynomial:
    """Evaluate a polynomial in lattice variables through the generator map."""
    return polyring.substitute(f, lambda u: generator_image(u, ctx, mask))


def young_image(f: Polynomial, ctx: Context, mask: SpecMask = EMPTY_MASK) -> Polynomial:
    """Evaluate a polynomial in sequence variables through the minor map."""
    return polyring.substitute(f, lambda j: minor_map(j, ctx, mask))
