"""Weight-initial relations, van der Waerden style syzygies, and the
t-coefficient relations inherited from the classical straightening basis.

The fixed weights make the squared stacked-row index of a matrix variable
and the squared shift of a lattice variable maximally negative, so initial
forms keep the terms whose shifts are as balanced as possible.
"""

from __future__ import annotations

import itertools
from typing import Optional

from . import lattice, linalg, polyring, straighten
from .errors import InternalInconsistencyError, InvalidInputError
from .lattice import Context, PluckerVar
from .polyring import Polynomial


def shift_weight(u: PluckerVar) -> int:
    """Weight on lattice variables: shift a gets -a^2."""
    return -(u.shift**2)


def weight_initial_r(gamma: PluckerVar, delta: PluckerVar, ctx: Context) -> Polynomial:
    """Initial form of the straightening relation under the shift weight.

    Over all incomparable pairs these give the reduced basis of the
    relations among the row-consecutive minors.
    """
    relation = straighten.straightening_relation(gamma, delta, ctx)
    return polyring.initial_form(relation.poly, shift_weight)


def sort_signed(cols: tuple[int, ...], shift: int) -> tuple[int, Optional[PluckerVar]]:
    """Reorder a column sequence into a variable, tracking the sorting sign.

    A repeated column yields the zero element, reported as (0, None).
    """
    if len(set(cols)) != len(cols):
        return 0, None
    return lattice.sort_sign(cols), PluckerVar(tuple(sorted(cols)), shift)


def _violation_index(u: PluckerVar, v: PluckerVar) -> int:
    """Smallest 1-based i with v.cols[i] below its upper neighbor u.cols[i-d].

    u must not lie below v in the order, and v's shift must be at least
    u's: then d < p and some column breaks the interlacing, so i exists.
    """
    d = v.shift - u.shift
    return next(
        i for i in range(d + 1, len(v.cols) + 1) if v.cols[i - 1] < u.cols[i - d - 1]
    )


def skew_syzygy_w(t: lattice.Tableau, ctx: Context) -> Polynomial:
    """Quadratic syzygy of the row-consecutive minors attached to a
    non-standard two-row tableau.

    The rows must be incomparable and in canonical order, the order that
    incomparable_pairs lists: the upper row first in linear_key, so its
    shift is weakly smaller.  That one check refuses the other order of two
    equal shifts and an upper row above the lower one: a strictly lower
    element has a weakly smaller shift and a strictly smaller rank, so a
    smaller linear_key.  An upper row below the lower one (a standard
    tableau) is refused too.

    With the first violating column at index i, the head of the upper row
    and the tail of the lower row are frozen and the remaining p+b-a+1
    entries, an increasing pool, are redistributed over both rows in all
    ways, each summand signed by its block shuffle and by the reordering
    signs of its rows.  The tableau itself is the leading term, with
    coefficient +1: only the identity split gives it.
    """
    if len(t) != 2:
        raise InvalidInputError("expected a two-row tableau")
    u, v = t
    lattice.validate_var(u, ctx)
    lattice.validate_var(v, ctx)
    if not lattice.linear_key(u, ctx) < lattice.linear_key(v, ctx):
        raise InvalidInputError("rows must be in canonical order")
    if lattice.leq(u, v):
        raise InvalidInputError("tableau is standard")
    a, b = u.shift, v.shift
    d = b - a
    i = _violation_index(u, v)
    head = u.cols[: i - d - 1]
    tail = v.cols[i:]
    pool = v.cols[:i] + u.cols[i - d - 1 :]
    acc: dict = {}
    for picked in itertools.combinations(range(len(pool)), i):
        rest = tuple(k for k in range(len(pool)) if k not in picked)
        sign = lattice.sort_sign(picked + rest)
        s1, lower = sort_signed(tuple(pool[k] for k in picked) + tail, b)
        if lower is None:
            continue
        s2, upper = sort_signed(head + tuple(pool[k] for k in rest), a)
        if upper is None:
            continue
        mono = polyring.pair_mono(upper, lower)
        acc[mono] = acc.get(mono, 0) + sign * s1 * s2
    return Polynomial(acc)


def quantum_syzygy_v(t: lattice.Tableau, ctx: Context) -> Polynomial:
    """Unique lift of the skew syzygy whose shift-weight initial form it is.

    Read off the reduced quadrics: each incomparable monomial g*d of the
    skew syzygy w contributes its coefficient times the straightening
    relation Q(g, d).  This is exact because the basis is reduced: g*d is
    the only non-standard monomial of Q(g, d) and appears in no other
    quadric, so any combination of quadrics with initial form w carries
    w's coefficient of g*d on Q(g, d).  That combination is the only one:
    every later term of Q(g, d) has shifts no more balanced than g*d, so
    its initial form holds g*d, which no other initial form holds.
    """
    w = skew_syzygy_w(t, ctx)
    out = Polynomial.zero()
    for mono, c in w.terms.items():
        pair = tuple(var for var, _ in mono)  # one factor for a square
        if len(pair) == 2 and lattice.incomparable(*pair):
            out = out + straighten.straightening_relation(*pair, ctx).poly.scale(c)
    if polyring.initial_form(out, shift_weight) != w:
        raise InternalInconsistencyError("lift does not have the requested initial form")
    return out


def coefficient_relations(ctx: Context) -> list[Polynomial]:
    """The t-coefficient relations inherited from the classical quadrics.

    Every classical straightening relation, evaluated at the shift-graded
    generating polynomials g_alpha(t) = sum_a alpha^(a) t^a, vanishes
    identically in t; the coefficient of each power of t is a quadratic
    relation of the truncated ring.  Ordered by classical relation, then by
    t-degree.  No layer is zero: a term c*x*y puts c on x^(a)*y^(r-a) for
    each split a of r with both parts in [0, q], of which there is one at
    least; distinct terms lift to distinct monomials, and the splits of one
    term add only c, so nothing cancels in any of the 2q+1 layers.
    """
    classical_ctx = Context(ctx.p, ctx.m, 0, 0)
    classical = straighten.reduced_groebner(classical_ctx)
    out = []
    for quad in classical:
        graded: dict[int, dict] = {}
        for mono, c in quad.poly.terms.items():
            x, y = [var for var, e in mono for _ in range(e)]
            lifted_x = [PluckerVar(x.cols, a) for a in range(ctx.q + 1)]
            lifted_y = [PluckerVar(y.cols, a) for a in range(ctx.q + 1)]
            for cx, lx in enumerate(lifted_x):
                for cy, ly in enumerate(lifted_y):
                    lifted = polyring.pair_mono(lx, ly)
                    layer = graded.setdefault(cx + cy, {})
                    layer[lifted] = layer.get(lifted, 0) + c
        out.extend(Polynomial(graded[r]) for r in range(2 * ctx.q + 1))
    return out


def rank_of_span(polys: list[Polynomial], ctx: Context) -> int:
    """Rank of a list of lattice-variable polynomials by exact elimination."""
    return linalg.rank_of([dict(f.terms) for f in polys], polyring.c_order(ctx).key)


def coefficient_relation_report(ctx: Context) -> dict:
    """Counts comparing the inherited relations with the quadratic kernel."""
    relations = coefficient_relations(ctx)
    rank = rank_of_span(relations, ctx)
    kernel_dim = len(straighten.kernel_quadrics_oracle(ctx))
    return {
        "generators": len(relations),
        "rank": rank,
        "kernel_dim": kernel_dim,
        "deficit": kernel_dim - rank,
    }
