"""Standard monomials, subduction, and the quadratic straightening basis.

The incomparable products are straightened by subduction: the leading
monomial of a product of generator images is repeatedly cancelled by the
image of a standard (comparable) pair, and the recorded steps assemble the
quadratic relation with that incomparable product as leading term.  A
brute-force linear-algebra kernel over the quadratic part serves as an
independent oracle.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import lattice, linalg, maps, polyring
from .errors import (
    InternalInconsistencyError,
    InvalidInputError,
    NotInInitialAlgebraError,
    SagbiFailureError,
)
from .lattice import Context, PluckerVar
from .maps import EMPTY_MASK, SpecMask
from .polyring import Mono, Polynomial, X_ORDER

Interval = tuple[PluckerVar, PluckerVar]


@dataclass(frozen=True)
class Quadric:
    """A quadratic relation with its designated incomparable leading pair."""

    poly: Polynomial
    lead_pair: tuple[PluckerVar, PluckerVar]


@dataclass
class SubductionTrace:
    """Audit record of one subduction run.

    Replaying the steps against the input reproduces the remainder:
    input - sum(coeff * image(u) * image(v)) == remainder.
    """

    steps: list[tuple[tuple[PluckerVar, PluckerVar], object]]
    remainder: Polynomial
    witness: Optional[Mono] = None


def _pair_mono(u: PluckerVar, v: PluckerVar) -> Mono:
    return polyring.mono_from_pairs([(u, 1), (v, 1)])


def interval_mask(ctx: Context, interval: Optional[Interval]) -> SpecMask:
    """Zero pattern for the generator images used by the straightening layer.

    With an interval, the skew-cell mask of its endpoints.  Without one,
    the full truncation is still the cell of its own top element: when
    q < n*p the matrix must be specialized so that its minors have degree
    at most q (otherwise the images generate the coordinate ring of a
    larger space and the quadratic kernel comes out too small).  At
    q = n*p that specialization is not needed and the raw images are used.
    """
    if interval is None:
        if ctx.q == ctx.n * ctx.p:
            return EMPTY_MASK
        return maps.schubert_mask(ctx, lattice.top(ctx))
    bot, top = interval
    return maps.schubert_mask(ctx, top, bot)


def hibi_binomial(u: PluckerVar, v: PluckerVar, ctx: Context) -> Quadric:
    """u*v - (u v join)*(u v meet), the toric relation of an incomparable pair."""
    lattice.validate_var(u, ctx)
    lattice.validate_var(v, ctx)
    if not lattice.incomparable(u, v):
        raise InvalidInputError(f"{u!r} and {v!r} are comparable")
    meet, join = lattice.meet_join(u, v)
    poly = Polynomial({_pair_mono(u, v): 1, _pair_mono(meet, join): -1})
    return Quadric(poly, (u, v))


def is_standard_monomial(mono: Mono, ctx: Context) -> bool:
    """True when the variables of the monomial form a multichain."""
    rows: list[PluckerVar] = []
    for v, e in mono:
        rows.extend([v] * e)
    rows.sort(key=lambda u: lattice.linear_key(u, ctx))
    return all(lattice.leq(rows[i], rows[i + 1]) for i in range(len(rows) - 1))


def standard_monomials(
    ctx: Context,
    degree: int,
    multidegree: Optional[tuple[tuple[int, ...], int]] = None,
    interval: Optional[Interval] = None,
) -> list[Mono]:
    """All standard monomials of the given degree, optionally filtered by the
    (column multiset, shift sum) multidegree."""
    elems = lattice.elements(ctx, interval)
    out: list[Mono] = []

    def extend(chain: list[PluckerVar], start: int):
        if len(chain) == degree:
            if multidegree is not None:
                cols = tuple(sorted(c for u in chain for c in u.cols))
                if cols != multidegree[0] or sum(u.shift for u in chain) != multidegree[1]:
                    return
            out.append(polyring.mono_from_pairs((u, 1) for u in chain))
            return
        for k in range(start, len(elems)):
            if not chain or lattice.leq(chain[-1], elems[k]):
                extend(chain + [elems[k]], k)

    extend([], 0)
    return out


Word = tuple
PackedPoly = list[tuple[Word, polyring.Coeff]]


@dataclass(frozen=True)
class SubductionTable:
    """What subduction needs of one (context, interval), built once.

    mask: the interval_mask;
    by_psi: psi(u) -> u over the elements of the interval (all of them
    without one);
    counts: the number of standard pairs u <= v (u == v included) per
    multidegree, keyed by (sorted columns of u and v, shift sum);
    images: u -> the masked generator image of u as (X_ORDER word,
    coefficient) terms, leading term first, filled lazily by packed_image.
    """

    mask: SpecMask
    by_psi: dict[Mono, PluckerVar]
    counts: dict[tuple[tuple[int, ...], int], int]
    images: dict[PluckerVar, PackedPoly] = field(default_factory=dict)


@functools.lru_cache(maxsize=None)
def subduction_table(ctx: Context, interval: Optional[Interval] = None) -> SubductionTable:
    """The cached SubductionTable of a context and optional interval."""
    elems = tuple(lattice.elements(ctx, interval))
    by_psi = {maps.psi(u, ctx): u for u in elems}
    counts: dict[tuple[tuple[int, ...], int], int] = {}
    for i, u in enumerate(elems):
        for v in elems[i:]:
            if lattice.leq(u, v):
                md = (tuple(sorted(u.cols + v.cols)), u.shift + v.shift)
                counts[md] = counts.get(md, 0) + 1
    return SubductionTable(interval_mask(ctx, interval), by_psi, counts)


def packed_image(u: PluckerVar, ctx: Context, table: SubductionTable) -> PackedPoly:
    """The table's packed image of u, built on first use."""
    img = table.images.get(u)
    if img is None:
        poly = maps.generator_image(u, ctx, table.mask)
        img = sorted(
            ((X_ORDER.word(m), c) for m, c in poly.terms.items()), reverse=True
        )
        table.images[u] = img
    return img


def _add_product(g: dict, a: PackedPoly, b: PackedPoly, factor) -> None:
    """g += factor * a * b on packed terms, dropping cancelled words."""
    for wa, ca in a:
        fa = factor * ca
        for wb, cb in b:
            w = tuple(sorted(wa + wb))
            s = g.get(w, 0) + fa * cb
            if s:
                g[w] = s
            else:
                del g[w]


def factor_initial(
    mono: Mono,
    ctx: Context,
    interval: Optional[Interval] = None,
) -> tuple[PluckerVar, PluckerVar]:
    """The unique standard pair (u, v), u <= v, with psi(u)*psi(v) == mono.

    u and v range over the elements of the interval (all elements without
    one).  psi(u) uses every matrix row exactly once, so a product
    psi(u)*psi(v) holds exactly two variables (with multiplicity) in each
    row, and psi(u) is one choice of one of them per row, psi(v) the rest.
    The at most 2^p choices are looked up in the table psi(u) -> u of
    subduction_table.  No factorization means the monomial lies outside
    the initial algebra; two factorizations cannot happen if the standard
    monomials are linearly independent, so that case is an internal error.
    """
    by_psi = subduction_table(ctx, interval).by_psi
    rows: dict[int, list] = {}
    for x, e in mono:
        rows.setdefault(x.row, []).extend([x] * e)
    if len(rows) != ctx.p or any(len(xs) != 2 for xs in rows.values()):
        raise NotInInitialAlgebraError(mono)
    # XVar sorts row first, so one variable per row taken in row order is
    # already a monomial in canonical storage order.
    per_row = [rows[i] for i in sorted(rows)]
    found = []
    for picks in itertools.product((0, 1), repeat=ctx.p):
        if any(pick and xs[0] == xs[1] for pick, xs in zip(picks, per_row)):
            continue
        u = by_psi.get(tuple((xs[k], 1) for k, xs in zip(picks, per_row)))
        if u is None:
            continue
        v = by_psi.get(tuple((xs[1 - k], 1) for k, xs in zip(picks, per_row)))
        if v is None or not lattice.leq(u, v):
            continue
        found.append((u, v))
    if not found:
        raise NotInInitialAlgebraError(mono)
    if len(found) > 1:
        raise InternalInconsistencyError(
            f"monomial admits {len(found)} standard factorizations: {found!r}"
        )
    return found[0]


def subduct(
    f: Union[Polynomial, tuple[PluckerVar, PluckerVar]],
    ctx: Context,
    interval: Optional[Interval] = None,
) -> SubductionTrace:
    """Cancel leading monomials by images of standard pairs until exhausted.

    f is a polynomial homogeneous of matrix-degree 2p, or a pair (u, v)
    standing for the product of their generator images.  The loop runs on
    X_ORDER words (see TermOrder.word): all terms have degree 2p, so the
    leading term is the largest word.  Each step factors the leading
    monomial through the psi table (factor_initial) and cancels it with
    the image of that standard pair.  A leading monomial with no standard
    factorization stops the run and is reported as the witness.  Every
    step stays in the multidegree of the input, whose standard pairs are
    counted in the table, so more steps than that count plus one is an
    internal error.
    """
    table = subduction_table(ctx, interval)
    if isinstance(f, Polynomial):
        two_p = 2 * ctx.p
        if any(polyring.mono_deg(m) != two_p for m in f.terms):
            raise InvalidInputError("subduction input must be homogeneous of degree 2p")
        g = {X_ORDER.word(m): c for m, c in f.terms.items()}
    else:
        u, v = f
        g = {}
        _add_product(g, packed_image(u, ctx, table), packed_image(v, ctx, table), 1)

    cap = None
    steps: list[tuple[tuple[PluckerVar, PluckerVar], object]] = []
    while g:
        word = max(g)
        mono = X_ORDER.mono(word)
        try:
            u, v = factor_initial(mono, ctx, interval)
        except NotInInitialAlgebraError:
            remainder = Polynomial({X_ORDER.mono(w): c for w, c in g.items()})
            return SubductionTrace(steps, remainder, witness=mono)
        if cap is None:
            md = (polyring.column_multiset(mono), polyring.level_sum(mono))
            cap = table.counts.get(md, 0) + 1
        if len(steps) >= cap:
            raise InternalInconsistencyError("subduction exceeded its step budget")
        image_u, image_v = packed_image(u, ctx, table), packed_image(v, ctx, table)
        for w, img in ((u, image_u), (v, image_v)):
            if not img:
                raise InternalInconsistencyError(f"zero image for {w!r}")
        step = Fraction(g[word]) / (image_u[0][1] * image_v[0][1])
        if step.denominator == 1:
            step = int(step)
        _add_product(g, image_u, image_v, -step)
        steps.append(((u, v), step))
    return SubductionTrace(steps, Polynomial.zero())


def straightening_relation(
    gamma: PluckerVar,
    delta: PluckerVar,
    ctx: Context,
    interval: Optional[Interval] = None,
) -> Quadric:
    """The reduced-basis quadric with leading term gamma*delta.

    Subduction of the product of the two generator images supplies the
    trailing standard terms; the shape conditions (second term is the
    join-meet product with coefficient -1, all later pairs strictly
    straddle) are asserted rather than assumed.
    """
    lattice.validate_var(gamma, ctx)
    lattice.validate_var(delta, ctx)
    if not lattice.incomparable(gamma, delta):
        raise InvalidInputError(f"{gamma!r} and {delta!r} are comparable")
    trace = subduct((gamma, delta), ctx, interval)
    if trace.remainder:
        raise SagbiFailureError((gamma, delta), trace.witness)
    meet, join = lattice.meet_join(gamma, delta)
    if not trace.steps or trace.steps[0] != ((meet, join), 1):
        raise InternalInconsistencyError(
            f"first subduction step is not the meet/join pair for ({gamma!r}, {delta!r})"
        )
    terms = {_pair_mono(gamma, delta): 1}
    for (u, v), c in trace.steps:
        m = _pair_mono(u, v)
        terms[m] = terms.get(m, 0) - c
    poly = Polynomial(terms)
    for (u, v), _ in trace.steps[1:]:
        if not (
            lattice.leq(u, meet) and u != meet and lattice.leq(join, v) and v != join
        ):
            raise InternalInconsistencyError(
                f"trailing pair ({u!r}, {v!r}) does not straddle the meet/join"
            )
    for (u, v), _ in trace.steps:
        if lattice.incomparable(u, v):
            raise InternalInconsistencyError("trailing term is divisible by a lead pair")
    return Quadric(poly, (gamma, delta))


def reduced_groebner(
    ctx: Context, interval: Optional[Interval] = None
) -> list[Quadric]:
    """One straightening quadric per incomparable pair, canonically ordered."""
    return [
        straightening_relation(u, v, ctx, interval)
        for u, v in lattice.incomparable_pairs(ctx, interval)
    ]


def _check_pairs_worker(args):
    (p, m, n, q), pairs = args
    ctx = Context(p, m, n, q)
    out = []
    for ucols, ushift, vcols, vshift in pairs:
        u = PluckerVar(tuple(ucols), ushift)
        v = PluckerVar(tuple(vcols), vshift)
        trace = subduct((u, v), ctx)
        witness = None
        if trace.remainder:
            witness = polyring.emit_text(Polynomial.term(trace.witness), "X")
        out.append((ucols, ushift, vcols, vshift, witness))
    return out


def sagbi_check(ctx: Context, jobs: int = 1) -> dict:
    """Subduct every incomparable product; report the nonzero remainders.

    The generators pass exactly when the failure list is empty.  Pairs are
    independent, so they may be distributed over worker processes: at most
    jobs of them, and never more than the CPU count or the number of pairs.
    The report order is fixed by the canonical pair order regardless.
    """
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    pairs = lattice.incomparable_pairs(ctx)
    payload = [(u.cols, u.shift, v.cols, v.shift) for u, v in pairs]
    key = (ctx.p, ctx.m, ctx.n, ctx.q)
    workers = min(jobs, os.cpu_count() or 1, len(payload))
    if workers > 1:
        chunks = [payload[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_check_pairs_worker, [(key, c) for c in chunks]))
        merged = {}
        for chunk in results:
            for ucols, ushift, vcols, vshift, witness in chunk:
                merged[(ucols, ushift, vcols, vshift)] = witness
        outcomes = [merged[p] for p in payload]
    else:
        outcomes = [r[4] for r in _check_pairs_worker((key, payload))]
    failures = []
    for (u, v), witness in zip(pairs, outcomes):
        if witness is not None:
            failures.append(
                {
                    "pair": [lattice.format_var(u), lattice.format_var(v)],
                    "witness_monomial": witness,
                }
            )
    return {
        "context": {"p": ctx.p, "m": ctx.m, "n": ctx.n, "q": ctx.q},
        "pairs_total": len(pairs),
        "failures": failures,
    }


def kernel_quadrics_oracle(
    ctx: Context, interval: Optional[Interval] = None
) -> list[Polynomial]:
    """Independent basis of the quadratic kernel by exact linear algebra.

    All products of two generator images are expanded and the relations
    among them solved exactly, grouped by the (column multiset, shift sum)
    multidegree under which the kernel splits.  The result is a reduced
    row-echelon basis in the canonical monomial coordinates.
    """
    elems = lattice.elements(ctx, interval)
    mask = interval_mask(ctx, interval)
    images = {u: maps.generator_image(u, ctx, mask) for u in elems}
    groups: dict[tuple, list[Mono]] = {}
    for i, u in enumerate(elems):
        for v in elems[i:]:
            md = (
                tuple(sorted(u.cols + v.cols)),
                u.shift + v.shift,
            )
            groups.setdefault(md, []).append(_pair_mono(u, v))
    relations: list[Polynomial] = []
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
    basis_elim = linalg.Eliminator(polyring.c_order(ctx).key)
    for rel in relations:
        basis_elim.add(dict(rel.terms))
    return [Polynomial(row) for row in basis_elim.rows()]
