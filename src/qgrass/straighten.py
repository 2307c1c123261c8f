"""Standard monomials, subduction, and the quadratic straightening basis.

The incomparable products are straightened by subduction: the leading
monomial of a product of generator images is repeatedly cancelled by the
image of a standard (comparable) pair, and the recorded steps assemble the
quadratic relation with that incomparable product as leading term.  A
brute-force linear-algebra kernel over the quadratic part serves as an
independent oracle: it builds its rows from the same packed image products,
but never subducts.
"""

from __future__ import annotations

import functools
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
from .polyring import Mono, Packer, Polynomial, X_ORDER, XVar

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


PackedPoly = list[tuple[int, polyring.Coeff]]


@functools.lru_cache(maxsize=None)
def x_packer(ctx: Context) -> Packer:
    """The X_ORDER packer of a context's matrix variables x[i,j,l].

    Exponents go up to 2p: every image has degree p, so a product of two
    packed images is an integer sum with no carry.
    """
    variables = (
        XVar(i, j, l)
        for i in range(1, ctx.p + 1)
        for j in range(1, ctx.width + 1)
        for l in range(ctx.n + 1)
    )
    return X_ORDER.packer(variables, 2 * ctx.p)


@dataclass(frozen=True)
class SubductionTable:
    """What subduction needs of one (context, interval), built once.

    mask: the interval_mask;
    lead_pairs: pack(psi(u)) + pack(psi(v)) under x_packer -> (u, v), over
    the standard pairs u <= v of the interval's elements (all elements
    without one), u == v included.  By the sagbi theorem these are the
    monomials of the initial algebra, one standard pair each (the Hibi
    toric ring), so the map is the whole factoring step of subduction;
    counts: the number of standard pairs u <= v (u == v included) per
    multidegree, keyed by _multidegree.
    """

    mask: SpecMask
    lead_pairs: dict[int, tuple[PluckerVar, PluckerVar]]
    counts: dict[tuple[tuple[int, ...], int], int]


def _multidegree(u: PluckerVar, v: PluckerVar) -> tuple[tuple[int, ...], int]:
    """(sorted columns of u and v, shift sum): the grading of the pair u*v."""
    return tuple(sorted(u.cols + v.cols)), u.shift + v.shift


def subduction_table(ctx: Context, interval: Optional[Interval] = None) -> SubductionTable:
    """The cached SubductionTable of a context and optional interval.

    One table per (ctx, interval), however the interval is passed (or left
    out), so all callers share its lead_pairs.
    """
    return _subduction_table(ctx, interval)


@functools.lru_cache(maxsize=None)
def _subduction_table(ctx: Context, interval: Optional[Interval]) -> SubductionTable:
    elems = lattice.elements(ctx, interval)
    pack = x_packer(ctx).pack
    leads = [pack(maps.psi(u, ctx)) for u in elems]
    lead_pairs: dict[int, tuple[PluckerVar, PluckerVar]] = {}
    counts: dict[tuple[tuple[int, ...], int], int] = {}
    for i, (u, lu) in enumerate(zip(elems, leads)):
        for v, lv in zip(elems[i:], leads[i:]):
            if lattice.leq(u, v):
                lead = lu + lv
                if lead in lead_pairs:
                    raise InternalInconsistencyError(
                        f"monomial admits two standard factorizations: "
                        f"{lead_pairs[lead]!r} and {(u, v)!r}"
                    )
                lead_pairs[lead] = (u, v)
                md = _multidegree(u, v)
                counts[md] = counts.get(md, 0) + 1
    return SubductionTable(interval_mask(ctx, interval), lead_pairs, counts)


@functools.lru_cache(maxsize=None)
def packed_image(u: PluckerVar, ctx: Context, mask: SpecMask) -> PackedPoly:
    """The masked generator image of u as (x_packer int, coefficient) terms,
    leading term (the smallest int) first; a subduction table and the
    oracle with equal masks share it.

    A nonzero image must lead with coefficient 1 or -1, so that every
    subduction step is the product of integers; any other lead is an
    internal error.
    """
    pack = x_packer(ctx).pack
    poly = maps.generator_image(u, ctx, mask)
    image = sorted((pack(m), c) for m, c in poly.terms.items())
    if image and image[0][1] not in (1, -1):
        raise InternalInconsistencyError(
            f"image of {u!r} leads with coefficient {image[0][1]}, not 1 or -1"
        )
    return image


def _add_product(g: dict, a: PackedPoly, b: PackedPoly, factor) -> None:
    """g += factor * a * b on packed terms, dropping cancelled monomials."""
    for wa, ca in a:
        fa = factor * ca
        for wb, cb in b:
            w = wa + wb
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
    one).  The pair is looked up by the packed mono in the table's
    lead_pairs.  No factorization means the monomial lies outside the
    initial algebra (so does any monomial not of degree 2p over the
    context's variables); two factorizations cannot happen if the standard
    monomials are linearly independent, so building the table raises an
    internal error on the first monomial seen twice.
    """
    packer = x_packer(ctx)
    pair = None
    if polyring.mono_deg(mono) == 2 * ctx.p and packer.covers(mono):
        pair = subduction_table(ctx, interval).lead_pairs.get(packer.pack(mono))
    if pair is None:
        raise NotInInitialAlgebraError(mono)
    return pair


def subduct(
    f: Union[Polynomial, tuple[PluckerVar, PluckerVar]],
    ctx: Context,
    interval: Optional[Interval] = None,
) -> SubductionTrace:
    """Cancel leading monomials by images of standard pairs until exhausted.

    f is a polynomial homogeneous of matrix-degree 2p, or a pair (u, v)
    standing for the product of their generator images.  The loop runs on
    x_packer ints (see Packer): all terms have degree 2p, so the leading
    term is the smallest int.  Each step looks the leading int up in the
    table's lead_pairs and cancels it with the image of that standard
    pair; the images lead with 1 or -1, so the step coefficient is the
    leading coefficient times both leads.  A leading monomial with no
    standard pair stops the run and is reported as the witness.  Terms of
    a polynomial input with a variable outside the context are never
    cancelled, so they stay aside and stop the run once they lead.  Every
    step stays in the multidegree of the input, whose standard pairs are
    counted in the table, so more steps than that count plus one is an
    internal error.  The input's multidegree is that of the first pair:
    psi(u) uses each column of u once, at levels summing to u.shift.
    """
    table = subduction_table(ctx, interval)
    packer = x_packer(ctx)
    rest = Polynomial.zero()
    if isinstance(f, Polynomial):
        two_p = 2 * ctx.p
        if any(polyring.mono_deg(m) != two_p for m in f.terms):
            raise InvalidInputError("subduction input must be homogeneous of degree 2p")
        g = {packer.pack(m): c for m, c in f.terms.items() if packer.covers(m)}
        rest = Polynomial({m: c for m, c in f.terms.items() if not packer.covers(m)})
    else:
        u, v = f
        g = {}
        _add_product(g, packed_image(u, ctx, table.mask), packed_image(v, ctx, table.mask), 1)

    # no step touches rest, so its leading monomial stops the run once it leads
    stop = max(rest.terms, key=X_ORDER.key, default=None)
    cap = None
    steps: list[tuple[tuple[PluckerVar, PluckerVar], object]] = []
    while g or stop:
        lead = min(g, default=None)
        pair = table.lead_pairs.get(lead)
        if stop and (lead is None or X_ORDER.key(stop) > X_ORDER.key(packer.unpack(lead))):
            pair, witness = None, stop
        elif pair is None:
            witness = packer.unpack(lead)
        if pair is None:
            remainder = Polynomial({packer.unpack(w): c for w, c in g.items()}) + rest
            return SubductionTrace(steps, remainder, witness=witness)
        u, v = pair
        if cap is None:
            cap = table.counts[_multidegree(u, v)] + 1
        if len(steps) >= cap:
            raise InternalInconsistencyError("subduction exceeded its step budget")
        image_u, image_v = packed_image(u, ctx, table.mask), packed_image(v, ctx, table.mask)
        for w, img in ((u, image_u), (v, image_v)):
            if not img:
                raise InternalInconsistencyError(f"zero image for {w!r}")
        step = polyring.norm_coeff(g[lead] * image_u[0][1] * image_v[0][1])
        _add_product(g, image_u, image_v, -step)
        steps.append(((u, v), step))
    return SubductionTrace(steps, Polynomial.zero())


def _quadric(gamma: PluckerVar, delta: PluckerVar, trace: SubductionTrace) -> Quadric:
    """The quadric with leading term gamma*delta, read off its subduction.

    A remainder is a sagbi failure.  The shape conditions (second term is
    the join-meet product with coefficient -1, all later pairs strictly
    straddle) are asserted rather than assumed.
    """
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


def _subduct_run(args) -> list[SubductionTrace]:
    ctx, interval, pairs = args
    return [subduct(pair, ctx, interval) for pair in pairs]


def _subduct_incomparable(
    ctx: Context, interval: Optional[Interval], jobs: int = 1
) -> list[tuple[tuple[PluckerVar, PluckerVar], SubductionTrace]]:
    """Subduct every incomparable pair once: (pair, trace) in canonical order.

    With more than one worker (at most jobs, the CPU count and the number
    of pairs), each worker process subducts one contiguous run of the
    canonical pair order, and the runs are concatenated in order.
    """
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    pairs = lattice.incomparable_pairs(ctx, interval)
    workers = min(jobs, os.cpu_count() or 1, len(pairs))
    if workers > 1:
        cuts = [len(pairs) * k // workers for k in range(workers + 1)]
        runs = [(ctx, interval, pairs[a:b]) for a, b in zip(cuts, cuts[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = [t for run in pool.map(_subduct_run, runs) for t in run]
    else:
        traces = _subduct_run((ctx, interval, pairs))
    return list(zip(pairs, traces))


def straightening_relation(
    gamma: PluckerVar,
    delta: PluckerVar,
    ctx: Context,
    interval: Optional[Interval] = None,
) -> Quadric:
    """The reduced-basis quadric with leading term gamma*delta.

    gamma and delta must be incomparable and, given an interval, lie in
    it; anything else is refused before the product of their generator
    images is subducted.  _quadric checks the shape of the result.
    """
    for w in (gamma, delta):
        lattice.validate_var(w, ctx)
        if interval and not (lattice.leq(interval[0], w) and lattice.leq(w, interval[1])):
            raise InvalidInputError(f"{w!r} is not in the interval {interval!r}")
    if not lattice.incomparable(gamma, delta):
        raise InvalidInputError(f"{gamma!r} and {delta!r} are comparable")
    return _quadric(gamma, delta, subduct((gamma, delta), ctx, interval))


def reduced_groebner(
    ctx: Context, interval: Optional[Interval] = None
) -> list[Quadric]:
    """One straightening quadric per incomparable pair, canonically ordered."""
    return [_quadric(u, v, t) for (u, v), t in _subduct_incomparable(ctx, interval)]


def sagbi_check(ctx: Context, jobs: int = 1) -> dict:
    """Subduct every incomparable product; report the nonzero remainders.

    The generators pass exactly when the failure list is empty.  The pairs
    go through the same single pass as reduced_groebner, over at most jobs
    worker processes; each failure reports its pair and the witness
    monomial, in canonical pair order.
    """
    items = _subduct_incomparable(ctx, None, jobs)
    failures = [
        {
            "pair": [lattice.format_var(u), lattice.format_var(v)],
            "witness_monomial": polyring.emit_text(Polynomial.term(t.witness), "X"),
        }
        for (u, v), t in items
        if t.remainder
    ]
    return {
        "context": {"p": ctx.p, "m": ctx.m, "n": ctx.n, "q": ctx.q},
        "pairs_total": len(items),
        "failures": failures,
    }


def kernel_quadrics_oracle(
    ctx: Context, interval: Optional[Interval] = None
) -> list[Polynomial]:
    """Independent basis of the quadratic kernel by exact linear algebra.

    All products of two generator images are expanded and the relations
    among them solved exactly, grouped by the (column multiset, shift sum)
    multidegree under which the kernel splits (the diagonal blocks of a
    Macaulay matrix).  The images are packed_image under the interval_mask,
    and each product is a dict x_packer int -> coefficient built by
    _add_product; all products in a group have degree 2p, where int order
    is the reverse of degrevlex, so -w is the column key of int w.  No
    subduction table is built (so psi is never called) and subduct is never
    called, so the oracle stays independent of subduction.  The result is a
    reduced row-echelon basis in the canonical monomial coordinates.
    """
    elems = lattice.elements(ctx, interval)
    mask = interval_mask(ctx, interval)
    groups: dict[tuple, list[tuple[PluckerVar, PluckerVar]]] = {}
    for i, u in enumerate(elems):
        for v in elems[i:]:
            groups.setdefault(_multidegree(u, v), []).append((u, v))
    relations: list[Polynomial] = []
    for md in sorted(groups):
        pairs = groups[md]
        rows = []
        for u, v in pairs:
            row: dict = {}
            _add_product(row, packed_image(u, ctx, mask), packed_image(v, ctx, mask), 1)
            rows.append(row)
        for combo in linalg.nullspace(rows, operator.neg):
            relations.append(
                Polynomial({_pair_mono(*pairs[i]): c for i, c in combo.items()})
            )
    basis_elim = linalg.Eliminator(polyring.c_order(ctx).key)
    for rel in relations:
        basis_elim.add(dict(rel.terms))
    return [Polynomial(row) for row in basis_elim.rows()]
