"""Generator homomorphisms and cell-specialization masks.

phi sends a lattice variable to a coefficient of a maximal minor of the
level-graded matrix; psi is its leading monomial; chi is the corresponding
row-consecutive minor of the level-stacked matrix; pi expands a variable
over Young-sequence variables.  Masks zero out matrix entries to
parameterize (skew) cells.  Every minor is a Leibniz expansion of a block
of distinct variables, so its terms never cancel.  A generator image sums
one block per composition of its shift, and image_blocks is the one place
that lays those blocks out.  signed_image is the one expansion of an image: it walks
each block with polyring.leibniz on packed ints, and generator_image is
that packed image unpacked, so phi and schubert print exactly what
subduction and the kernel oracle multiply.  The term-by-term ring maps
that check these images (the induced homomorphism on lattice variables,
the stacked minor of a Young sequence) are test references, in
tests/conftest.py.

Only lattice.to_young / from_young split a shift into matrix levels: psi,
psi_invert and the cell masks are all read off that embedding.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Optional

from . import lattice, polyring
from .errors import DomainError, InternalInconsistencyError, InvalidInputError, NotInImageError
from .lattice import Context, PluckerVar, YoungSeq, format_var
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
    generator_image, cached under the key that the masked callers use."""
    return generator_image(u, ctx, EMPTY_MASK)


def psi(u: PluckerVar, ctx: Context) -> Mono:
    """Leading monomial of phi(u): the antidiagonal of the stacked minor on
    the Young sequence of u.

    Row i takes the (p+1-i)-th entry of to_young(u), so that a shift
    p*l + r puts rows r+1..p at level l and rows 1..r at level l+1.
    Its p variables lie in distinct rows, so sorting its pairs gives the Mono.
    """
    lattice.validate_var(u, ctx, bound_shift=False)
    w = ctx.width
    entries = lattice.to_young(u, ctx).entries
    return tuple(
        sorted(
            (XVar(i, residue(c, w), stacked_level(c, w)), 1)
            for i, c in enumerate(reversed(entries), start=1)
        )
    )


def psi_invert(mono: Mono, ctx: Context) -> Optional[PluckerVar]:
    """Recover u with psi(u) == mono, or None when mono is not of that shape."""
    if polyring.mono_deg(mono) != ctx.p or any(e != 1 for _, e in mono):
        return None
    rows = sorted(v.row for v, _ in mono)
    if rows != list(range(1, ctx.p + 1)):
        return None
    seq = YoungSeq(tuple(sorted(v.level * ctx.width + v.col for v, _ in mono)))
    try:
        u = lattice.from_young(seq, ctx)
    except (InvalidInputError, NotInImageError):
        return None
    return u if psi(u, ctx) == mono else None


def chi(u: PluckerVar, ctx: Context) -> Polynomial:
    """Row-consecutive maximal minor: rows a+1..a+p, columns alpha."""
    lattice.validate_var(u, ctx, bound_shift=False)
    if u.shift + ctx.p > ctx.p * (ctx.n + 1):
        raise DomainError(
            f"rows {u.shift + 1}..{u.shift + ctx.p} exceed the stacked matrix"
        )
    # stacked row u.shift + i (from 0) is row r + 1 of level l
    block = [
        [XVar(r + 1, j, l) for j in u.cols]
        for l, r in (divmod(u.shift + i, ctx.p) for i in range(ctx.p))
    ]
    return polyring.det(block)


def epsilon(j: YoungSeq, ctx: Context) -> int:
    """Sign of the permutation sorting the column residues of the sequence."""
    return lattice.sort_sign([residue(x, ctx.width) for x in j.entries])


@functools.lru_cache(maxsize=None)
def _compositions(a: int, ctx: Context) -> tuple[tuple[int, ...], ...]:
    """The level assignments (l_1, ..., l_p), each in 0..n, that sum to a."""
    return tuple(ls for ls in itertools.product(range(ctx.n + 1), repeat=ctx.p) if sum(ls) == a)


def pi(u: PluckerVar, ctx: Context) -> Polynomial:
    """Signed expansion of a lattice variable over Young-sequence variables.

    Sums over all sequences in the stacked column range whose residue set is
    exactly the column set and whose rank matches; each residue is lifted to
    some level, so the enumeration runs over level assignments with the
    correct total.
    """
    lattice.validate_var(u, ctx, bound_shift=False)
    acc: dict = {}
    for levels in _compositions(u.shift, ctx):
        entries = tuple(sorted(l * ctx.width + c for l, c in zip(levels, u.cols)))
        j = YoungSeq(entries)
        acc[((j, 1),)] = epsilon(j, ctx)
    return Polynomial(acc)


# -- masks --------------------------------------------------------------------


def schubert_mask(
    ctx: Context,
    top: PluckerVar,
    bottom: Optional[PluckerVar] = None,
) -> SpecMask:
    """Zero pattern specializing the matrix onto a cell or skew cell: the
    young_mask of the Young sequences of top and (optionally) bottom.

    The top element caps each row's surviving entries from the right, the
    optional bottom element caps them from the left; together every row
    keeps one contiguous window of stacked columns.
    """
    lattice.validate_var(top, ctx, bound_shift=False)
    if bottom is not None:
        lattice.validate_var(bottom, ctx, bound_shift=False)
        if not lattice.leq(bottom, top):
            raise InvalidInputError(f"{format_var(bottom)} is not below {format_var(top)}")
    return young_mask(
        ctx,
        lattice.to_young(top, ctx),
        lattice.to_young(bottom, ctx) if bottom is not None else None,
    )


def young_mask(
    ctx: Context,
    top: YoungSeq,
    bottom: Optional[YoungSeq] = None,
) -> SpecMask:
    """Mask keeping, in row i, the stacked columns between the sequence bounds.

    Row i keeps columns from bottom[p+1-i], or 1 with no bottom, through
    top[p+1-i]; the bounds are attached to the rows in reverse order, as in
    psi.  On the Young sequences of lattice elements this is the definition
    of the cell and skew-cell masks (schubert_mask).
    """
    p, w = ctx.p, ctx.width
    zeroed = set()
    for i in range(1, p + 1):
        hi = top.entries[p - i]
        lo = bottom.entries[p - i] if bottom is not None else 1
        for c in range(1, ctx.stacked_width + 1):
            if c > hi or c < lo:
                zeroed.add(XVar(i, residue(c, w), stacked_level(c, w)))
    return frozenset(zeroed)


@functools.lru_cache(maxsize=None)
def _variable_grid(
    ctx: Context, mask: SpecMask
) -> tuple[tuple[tuple[Optional[XVar], ...], ...], ...]:
    """The masked matrix by row and level, built once per (ctx, mask):
    grid[i - 1][l][j] is x[i,j,l], or None, a zero entry, where the mask
    holds it; each level of a row is indexed by column from 1 (entry 0 is
    None).  Every block of image_blocks is read off it."""
    return tuple(
        tuple(
            (None,)
            + tuple(None if (v := XVar(i, j, l)) in mask else v for j in range(1, ctx.width + 1))
            for l in range(ctx.n + 1)
        )
        for i in range(1, ctx.p + 1)
    )


# -- masked generator images ---------------------------------------------------


def image_blocks(
    u: PluckerVar, ctx: Context, mask: SpecMask = EMPTY_MASK
) -> list[list[list[Optional[XVar]]]]:
    """The blocks whose determinants sum to the masked image of u: one per
    composition (l_1, ..., l_p) of the shift into parts at most n, row i
    holding the level-l_i variables of the columns of u, each masked
    variable replaced by None.  The entries are indexed in the cached
    _variable_grid of (ctx, mask), and the compositions are cached per
    shift, so no variable is built and no mask is tested here.

    A monomial of a block's determinant fixes the block's composition, so
    the blocks share no monomial.
    """
    lattice.validate_var(u, ctx, bound_shift=False)
    if u.shift > ctx.n * ctx.p:
        raise DomainError(f"shift {u.shift} exceeds the maximal degree {ctx.n * ctx.p}")
    grid, cols = _variable_grid(ctx, mask), u.cols
    return [
        [[row[j] for j in cols] for row in map(operator.getitem, grid, levels)]
        for levels in _compositions(u.shift, ctx)
    ]


SignedImage = tuple[tuple[int, ...], tuple[int, ...]]


@functools.lru_cache(maxsize=None)
def signed_image(u: PluckerVar, ctx: Context, mask: SpecMask) -> SignedImage:
    """The masked generator image of u on polyring.x_packer ints: the
    ascending ints of its positive terms and those of its negative terms.

    Each image_blocks block becomes a block of single-variable ints (None
    stays a zero entry), and each term of its polyring.leibniz walk adds
    the sum of its entries, its packed monomial, to the side of its sign.
    A monomial fixes its composition and its permutation, so an int that
    appears twice can only come from a faulty packer or block: it is an
    internal error, and every coefficient is 1 or -1.
    """
    offsets = polyring.x_packer(ctx).offsets
    pos: list[int] = []
    neg: list[int] = []
    for block in image_blocks(u, ctx, mask):
        ints = [[None if v is None else 1 << offsets[v] for v in row] for row in block]
        for entries, sign in polyring.leibniz(ints):
            (pos if sign > 0 else neg).append(sum(entries))
    terms = pos + neg
    if len(set(terms)) < len(terms):
        w = min(w for w in terms if terms.count(w) > 1)
        raise InternalInconsistencyError(
            f"image of {u!r} has a coefficient {pos.count(w) - neg.count(w)}, "
            f"not 1 or -1, at a repeated term"
        )
    return tuple(sorted(pos)), tuple(sorted(neg))


@functools.lru_cache(maxsize=None)
def generator_image(u: PluckerVar, ctx: Context, mask: SpecMask = EMPTY_MASK) -> Polynomial:
    """Image of a lattice variable under the (possibly masked) minor map: the
    coefficient of t^a in the maximal minor on columns alpha, as the
    Polynomial of its signed_image, each int unpacked with coefficient 1
    on the positive side and -1 on the negative side.
    """
    unpack = polyring.x_packer(ctx).unpack
    pos, neg = signed_image(u, ctx, mask)
    return Polynomial({unpack(w): c for side, c in ((pos, 1), (neg, -1)) for w in side})
