"""Standard monomials, subduction, and the quadratic straightening basis.

The incomparable products are straightened by subduction: the leading
monomial of a product of generator images is repeatedly cancelled by the
image of a standard (comparable) pair, and the recorded steps assemble the
quadratic relation with that incomparable product as leading term.  An
exact linear-algebra kernel over the quadratic part serves as an
independent oracle: it eliminates only the multidegree groups whose product
leads collide, reads each row of maps.signed_image products at the group's
product-lead columns, counts each relation it finds to zero with the same
product kernel as subduction (adding a column where one does not), and
never subducts.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import os
from collections import _count_elements  # the C counting loop of Counter.update
from typing import NamedTuple, Optional

from . import lattice, linalg, maps, polyring
from .errors import (
    InternalInconsistencyError,
    InvalidInputError,
    NotInInitialAlgebraError,
    SagbiFailureError,
)
from .lattice import Context, PluckerVar, format_var
from .maps import EMPTY_MASK, SignedImage, SpecMask
from .polyring import Mono, Polynomial

Interval = tuple[PluckerVar, PluckerVar]


class Quadric(NamedTuple):
    """A quadratic relation with its designated incomparable leading pair."""

    poly: Polynomial
    lead_pair: tuple[PluckerVar, PluckerVar]


class SubductionTrace(NamedTuple):
    """Audit record of one subduction run.

    Replaying the steps against the pair's image product reproduces the
    remainder: image(gamma) * image(delta) - sum(coeff * image(u) *
    image(v)) == remainder.
    """

    steps: list[tuple[tuple[PluckerVar, PluckerVar], int]]
    remainder: Polynomial
    witness: Optional[Mono] = None


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
    poly = Polynomial({polyring.pair_mono(u, v): 1, polyring.pair_mono(meet, join): -1})
    return Quadric(poly, (u, v))


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


class SubductionTable(NamedTuple):
    """What subduction needs of one (context, interval), built once.

    mask: the interval_mask;
    lead_pairs: pack(psi(u)) + pack(psi(v)) under x_packer -> (u, v), over
    the standard pairs u <= v of the interval's elements (all elements
    without one), u == v included.  By the sagbi theorem these are the
    monomials of the initial algebra, one standard pair each (the Hibi
    toric ring), so the map is the whole factoring step of subduction;
    leads: per multidegree (keyed by the _multidegree int), the keys of
    lead_pairs whose pairs lie in it, in ascending order: the candidate
    leading terms that subduct walks, one per standard pair of the
    multidegree;
    incomparable: the other pairs of the same walk, those with u not <= v,
    in canonical order: lattice.incomparable_pairs, without a second pass
    over the pairs.
    """

    mask: SpecMask
    lead_pairs: dict[int, tuple[PluckerVar, PluckerVar]]
    leads: dict[int, list[int]]
    incomparable: list[tuple[PluckerVar, PluckerVar]]


@functools.lru_cache(maxsize=None)
def _degree_key(u: PluckerVar, ctx: Context) -> int:
    """u's share of _multidegree: 1 in the 2-bit digit of each of its
    columns (column c at bit 2*(c-1)), and its shift above the ctx.width
    column digits."""
    return sum(1 << 2 * (c - 1) for c in u.cols) + (u.shift << 2 * ctx.width)


def _multidegree(u: PluckerVar, v: PluckerVar, ctx: Context) -> int:
    """The grading of the pair u*v, (sorted columns of u and v, shift sum),
    as one int: the sum of their _degree_key.  A pair holds a column at
    most twice, so each 2-bit digit counts its column with no carry, and
    the shift sum sits above them: distinct multidegrees get distinct ints.
    """
    return _degree_key(u, ctx) + _degree_key(v, ctx)


def subduction_table(ctx: Context, interval: Optional[Interval] = None) -> SubductionTable:
    """The cached SubductionTable of a context and optional interval.

    One table per (ctx, interval), however the interval is passed (or left
    out), so all callers share its lead_pairs.
    """
    return _subduction_table(ctx, interval)


@functools.lru_cache(maxsize=None)
def _subduction_table(ctx: Context, interval: Optional[Interval]) -> SubductionTable:
    """One walk over the pairs u, v of the elements, v at or after u in
    canonical order, that sorts each into lead_pairs or incomparable.

    Each element is coded once, with the table's own elements only: its
    packed Young code (lattice.young_codes), its packed psi and its
    _degree_key.  A pair compares codes instead of calling lattice.leq,
    and its multidegree is the sum of the two degree keys, _multidegree.
    """
    elems = lattice.elements(ctx, interval)
    pack = polyring.x_packer(ctx).pack
    codes, guard = lattice.young_codes(elems, ctx)
    coded = [
        (u, code, pack(maps.psi(u, ctx)), _degree_key(u, ctx)) for u, code in zip(elems, codes)
    ]
    lead_pairs: dict[int, tuple[PluckerVar, PluckerVar]] = {}
    by_md: dict[int, list[int]] = {}
    incomparable: list[tuple[PluckerVar, PluckerVar]] = []
    for (u, code_u, lead_u, key_u), (v, code_v, lead_v, key_v) in (
        itertools.combinations_with_replacement(coded, 2)
    ):
        if (code_v | guard) - code_u & guard == guard:  # lattice.leq(u, v)
            lead = lead_u + lead_v
            if lead in lead_pairs:
                raise InternalInconsistencyError(
                    f"monomial admits two standard factorizations: "
                    f"{lead_pairs[lead]!r} and {(u, v)!r}"
                )
            lead_pairs[lead] = (u, v)
            by_md.setdefault(key_u + key_v, []).append(lead)
        else:
            incomparable.append((u, v))
    for md_leads in by_md.values():
        md_leads.sort()
    return SubductionTable(interval_mask(ctx, interval), lead_pairs, by_md, incomparable)


def _lead(image: SignedImage) -> Optional[tuple[int, int]]:
    """The leading term (smallest int, coefficient 1 or -1) of a signed
    image, or None for the zero image."""
    pos, neg = image
    if pos and not (neg and neg[0] < pos[0]):
        return pos[0], 1
    if neg:
        return neg[0], -1
    return None


def _count_product(pos: dict, neg: dict, a: SignedImage, b: SignedImage, c) -> None:
    """pos - neg += c * a * b, where pos and neg count the positive and the
    negative terms of a packed polynomial, its coefficient at w being
    pos[w] - neg[w] (a count is never stored at zero: counts only grow).

    The product's positive terms are the sums of same-sign terms of a and
    b, its negative terms those of opposite signs.  With |c| == 1 each
    sign is counted in one pass of collections._count_elements, the C loop
    behind Counter.update, on the plain dicts, over the chain of its two
    factor products: the two passes are made directly, since an image has
    a handful of terms and most calls are unit steps.  Any other c (an
    integer step of 2 or more) is added term by term, which is already
    faster than two C passes.
    """
    if c < 0:
        c, pos, neg = -c, neg, pos
    (a_pos, a_neg), (b_pos, b_neg) = a, b
    product, chain, starmap = itertools.product, itertools.chain, itertools.starmap
    same = chain(product(a_pos, b_pos), product(a_neg, b_neg))
    mixed = chain(product(a_pos, b_neg), product(a_neg, b_pos))
    if c == 1:
        _count_elements(pos, starmap(operator.add, same))
        _count_elements(neg, starmap(operator.add, mixed))
        return
    for counts, pairs in ((pos, same), (neg, mixed)):
        for w in starmap(operator.add, pairs):
            counts[w] = counts.get(w, 0) + c


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
    packer = polyring.x_packer(ctx)
    pair = None
    if polyring.mono_deg(mono) == 2 * ctx.p and packer.covers(mono):
        pair = subduction_table(ctx, interval).lead_pairs.get(packer.pack(mono))
    if pair is None:
        raise NotInInitialAlgebraError(mono)
    return pair


def subduct(
    pair: tuple[PluckerVar, PluckerVar],
    ctx: Context,
    interval: Optional[Interval] = None,
) -> SubductionTrace:
    """Cancel leading monomials by images of standard pairs until exhausted.

    The pair (u, v) stands for the product of their generator images.  The
    trace is that of the running-minimum loop: take the leading term of the
    running polynomial g, look it up in the table's lead_pairs, subtract
    that pair's image product times the step coefficient (the leading
    coefficient times both image leads, which are 1 or -1, so an integer),
    and stop at a leading term with no standard pair, reported as the
    witness.  The walk below computes it without ranking g.

    g is kept on x_packer ints (see Packer): all its terms have degree 2p,
    so the leading term is the smallest int.  It is two counts, pos and
    neg, of its positive and negative terms, and each product of signed
    images is counted into them in C (_count_product).  The candidates are
    the table's leads of the pair's multidegree, which every term of g
    stays in.  The walk visits them in ascending order, from the first at
    or above the product's lead, and takes one step at each whose net count
    pos - neg is nonzero.  A step's image product must lead at its
    candidate (checked on the images' _lead), so the step cancels it.

    Why the steps are the loop's: a step's product has no term below its
    candidate, so a key the walk has passed never changes again.  If g ends
    at zero (pos == neg), each passed key was zero when passed, so each
    nonzero candidate was the smallest term of g when visited.  Otherwise
    the loop stops at the smallest key whose final counts differ, which is
    no candidate (a visited candidate ends at zero): the trace is the
    walk's steps before it, and the remainder is g at that point, the
    final g plus the products of the later steps, counted back in.  A zero
    image at a candidate ends the walk; it is an internal error only when
    that candidate is the stop, where the loop would meet it.

    There is no step budget: the walk visits each of the len(leads[md])
    candidates at most once, so it cannot take more steps than that.
    """
    table = subduction_table(ctx, interval)
    mask = table.mask
    image = maps.signed_image
    pos: dict = {}
    neg: dict = {}
    u, v = pair
    _count_product(pos, neg, image(u, ctx, mask), image(v, ctx, mask), 1)
    candidates = table.leads.get(_multidegree(u, v, ctx), [])

    steps: list[tuple[tuple[PluckerVar, PluckerVar], int]] = []
    taken: list[int] = []  # the lead of each step
    halt = None  # (candidate, generator) where a zero image ended the walk
    start = min(itertools.chain(pos, neg), default=0)
    for lead in candidates[bisect.bisect_left(candidates, start):]:
        net = pos.get(lead, 0) - neg.get(lead, 0)
        if not net:
            continue
        u, v = table.lead_pairs[lead]
        image_u, image_v = image(u, ctx, mask), image(v, ctx, mask)
        lead_u, lead_v = _lead(image_u), _lead(image_v)
        if not (lead_u and lead_v):
            halt = lead, v if lead_u else u
            break
        if lead_u[0] + lead_v[0] != lead:
            raise InternalInconsistencyError(
                f"the images of {u!r} and {v!r} do not lead at their standard monomial"
            )
        step = net * lead_u[1] * lead_v[1]
        _count_product(pos, neg, image_u, image_v, -step)
        steps.append(((u, v), step))
        taken.append(lead)

    if pos == neg:  # a zero image halts only at a nonzero count
        return SubductionTrace(steps, Polynomial.zero())
    first = min(pos.items() ^ neg.items())[0]
    if halt is not None and halt[0] == first:
        raise InternalInconsistencyError(f"zero image for {halt[1]!r}")
    done = bisect.bisect_left(taken, first)
    for (u, v), step in steps[done:]:
        _count_product(pos, neg, image(u, ctx, mask), image(v, ctx, mask), step)
    unpack = polyring.x_packer(ctx).unpack
    # g over the keys where its two counts differ, the set that first reads
    remainder = Polynomial(
        {unpack(w): pos.get(w, 0) - neg.get(w, 0) for w, _ in pos.items() ^ neg.items()}
    )
    return SubductionTrace(steps[:done], remainder, witness=unpack(first))


def _quadric(gamma: PluckerVar, delta: PluckerVar, trace: SubductionTrace) -> Quadric:
    """The quadric with leading term gamma*delta, read off its subduction.

    A remainder is a sagbi failure.  The shape conditions (second term is
    the join-meet product with coefficient -1, all later pairs strictly
    straddle) are asserted rather than assumed.  They make every step pair
    comparable, so no trailing term is an incomparable product: the first
    is meet <= join, and each later (u, v) has u <= meet <= join <= v.

    The terms are filled in directly: the lead is an incomparable pair and
    each step a standard pair at its own lead (lead_pairs holds one pair
    per lead), so no two share a monomial, and every coefficient is a
    nonzero int, which the Polynomial constructor would only re-check.
    """
    if trace.remainder:
        raise SagbiFailureError((gamma, delta), trace.witness)
    meet, join = lattice.meet_join(gamma, delta)
    if not trace.steps or trace.steps[0] != ((meet, join), 1):
        raise InternalInconsistencyError(
            f"first subduction step is not the meet/join pair for ({gamma!r}, {delta!r})"
        )
    poly = Polynomial()
    poly.terms[polyring.pair_mono(gamma, delta)] = 1
    for (u, v), c in trace.steps:
        poly.terms[polyring.pair_mono(u, v)] = -c
    for (u, v), _ in trace.steps[1:]:
        if not (
            lattice.leq(u, meet) and u != meet and lattice.leq(join, v) and v != join
        ):
            raise InternalInconsistencyError(
                f"trailing pair ({u!r}, {v!r}) does not straddle the meet/join"
            )
    return Quadric(poly, (gamma, delta))


def _subduct_incomparable(
    ctx: Context, interval: Optional[Interval], jobs: int = 1
) -> list[tuple[tuple[PluckerVar, PluckerVar], SubductionTrace]]:
    """Subduct every incomparable pair once: (pair, trace) in canonical order.

    With more than one worker (at most jobs, the CPU count and the number
    of pairs), Executor.map cuts the canonical pair order into at most that
    many contiguous chunks and returns the traces in that order.
    """
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    pairs = subduction_table(ctx, interval).incomparable
    workers = min(jobs, os.cpu_count() or 1, len(pairs))
    run = functools.partial(subduct, ctx=ctx, interval=interval)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: keeps start-up light

        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(run, pairs, chunksize=-(-len(pairs) // workers)))
    else:
        traces = list(map(run, pairs))
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
            bot, top = map(format_var, interval)
            raise InvalidInputError(f"{format_var(w)} is not in the interval from {bot} to {top}")
    if not lattice.incomparable(gamma, delta):
        raise InvalidInputError(f"{format_var(gamma)} and {format_var(delta)} are comparable")
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


def _product_row(a: dict, b: dict, cols: list[int]) -> dict:
    """The nonzero coefficients of a*b at the ascending ints cols, where a
    and b are images as ascending dicts int -> coefficient.

    The coefficient at w is the sum of a[t]*b[w - t] over the terms t of
    a, one lookup each (ints add with no carry).  No term of a*b lies
    below its lead, the sum of the two first keys, so the columns below it
    are skipped, and no term t of a above w - lead(b) has a partner in b.
    """
    row: dict = {}
    if not (a and b):
        return row
    lead_b = next(iter(b))
    lead = next(iter(a)) + lead_b
    for w in cols[bisect.bisect_left(cols, lead):]:
        top = w - lead_b
        c = 0
        for t, x in a.items():
            if t > top:
                break
            y = b.get(w - t)
            if y:
                c += x * y
        if c:
            row[w] = c
    return row


def kernel_quadrics_oracle(
    ctx: Context, interval: Optional[Interval] = None
) -> list[Polynomial]:
    """Independent basis of the quadratic kernel by exact linear algebra.

    The relations among all products of two generator images are solved
    exactly, grouped by the (column multiset, shift sum) multidegree under
    which the kernel splits (the diagonal blocks of a Macaulay matrix).
    The images are maps.signed_image under the interval_mask, on x_packer
    ints; all products in a group have degree 2p, where int order is the
    reverse of degrevlex, so -w is the column key of int w.  No subduction
    table is built (so psi is never called) and subduct is never called,
    so the oracle stays independent of subduction.  A group's nullspace
    is already the reduced row-echelon basis: its pairs come in canonical
    i <= j order, which ascends in c_order (on degree-2 words degrevlex is
    lexicographic on linear keys), each vector has 1 at its own pair, its
    largest, which no other vector holds, and groups have disjoint
    supports.

    Only groups whose product leads collide are eliminated.  An image's
    lead is its smallest int (_lead), and products add ints with no
    carry: the lead of a product of nonzero images is the sum of their
    leads, reached by the two leading terms alone, with coefficient
    (+-1)(+-1) != 0.  If those leads are pairwise distinct in a group, take
    any nonzero combination of its rows and, among the rows in it, the one
    with the smallest lead: every other row has a larger lead and no word
    below it, so that smallest lead keeps a nonzero coefficient, and the
    nullspace is empty (distinct pivots, as in a Macaulay matrix).  A zero
    image gives a zero row, itself a kernel vector, so a group holding one
    is always eliminated.

    A group is eliminated on its product-lead columns only: each row holds
    the coefficients of its product at those ints, read by _product_row.
    Each basis vector c is then certified by counting sum c_i * image(u_i)
    * image(v_i) with _count_product, the product kernel of subduction:
    it is a relation exactly when the two counts agree.  If a vector
    fails, the smallest int where its counts differ joins the columns and
    the group is solved again.  The result is the full-row basis:
    - dropping columns can only enlarge a kernel, so the kernel on the
      columns contains the full kernel;
    - every returned vector is certified to lie in the full kernel, so
      once all of a basis certify, the two kernels are equal;
    - nullspace returns the reduced basis keyed by row index, which is
      unique for a given subspace, so the vectors are those of the full
      rows.
    So the oracle never assumes that the lead columns suffice, which would
    lean on the sagbi claim that it checks: where they fall short, columns
    are added until the kernel is exact.  A failing vector vanishes on the
    columns it was solved on, so its witness is a new column, unless the
    reader and the counting kernel disagree, which is an internal error
    (and keeps the loop finite: each pass adds a column from the group's
    finite support).

    The relations are ordered by position: each is keyed by the canonical
    positions (i, j), i <= j, of its lead pair, and the keys descend.  That
    is descending c_order, since linear keys ascend with position and
    degrevlex on degree-2 words is lexicographic.
    """
    elems = lattice.elements(ctx, interval)
    mask = interval_mask(ctx, interval)
    groups: dict[int, list[tuple[PluckerVar, PluckerVar]]] = {}
    for u, v in itertools.combinations_with_replacement(elems, 2):
        groups.setdefault(_multidegree(u, v, ctx), []).append((u, v))
    images = {u: maps.signed_image(u, ctx, mask) for u in elems}
    # each image once more as one ascending dict int -> +-1, for the reader
    terms = {
        u: dict(sorted([(w, 1) for w in pos] + [(w, -1) for w in neg]))
        for u, (pos, neg) in images.items()
    }
    leads = {u: lead[0] for u in elems if (lead := _lead(images[u]))}
    at = {u: i for i, u in enumerate(elems)}
    relations: dict[tuple[int, int], Polynomial] = {}
    for pairs in groups.values():
        # a pair with a zero image has no lead, so its group is never skipped
        cols = {leads[u] + leads[v] for u, v in pairs if u in leads and v in leads}
        if len(cols) == len(pairs):
            continue
        while True:
            ascending = sorted(cols)
            rows = [_product_row(terms[u], terms[v], ascending) for u, v in pairs]
            basis = linalg.nullspace(rows, operator.neg)
            for combo in basis:
                pos: dict = {}
                neg: dict = {}
                for i, c in combo.items():
                    u, v = pairs[i]
                    _count_product(pos, neg, images[u], images[v], c)
                if pos != neg:
                    witness = min(pos.items() ^ neg.items())[0]
                    if witness in cols:
                        raise InternalInconsistencyError(
                            f"the lead-column rows and the counted products differ at {witness}"
                        )
                    cols.add(witness)
                    break
            else:
                break
        for combo in basis:
            u, v = pairs[max(combo)]
            relations[at[u], at[v]] = Polynomial(
                {polyring.pair_mono(*pairs[i]): c for i, c in combo.items()}
            )
    return [relations[ij] for ij in sorted(relations, reverse=True)]
