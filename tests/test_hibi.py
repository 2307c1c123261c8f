"""The Hibi structure of the leads in every degree, and the h-vector two ways
(ROADMAP item 26).

- Lemma (A): on Young sequences meet and join are the entrywise min and
  max, so the lattice is a sublattice of Young's poset.
- Lemma (B): row i of psi(u) holds the one variable of stacked column
  to_young(u)[p+1-i].  So a product of leads records, row by row, the
  multiset of its factors' Young entries, and psi(u)psi(v) =
  psi(u meet v)psi(u join v): each hibi_binomial has two monomials with one
  packed psi-product.  On skew cells, the masked image of each element of
  the cell still leads at psi(u).
- h by descents: the lattice is J(P), P its join-irreducibles, and its
  maximal chains are the linear extensions of P.  With P labelled by the
  canonical order, h_i counts the maximal chains whose added
  join-irreducibles descend i times (Stanley), counted by a dynamic program
  over (element, last join-irreducible added).  The reference is
  (1-t)^D * sum_d H(d) t^d, with H(d) the number of multichains of d
  elements and D = rank(top) + 1.
"""

import collections
import math

import pytest

from qgrass import lattice, maps, polyring, straighten
from qgrass.lattice import Context, elements, incomparable_pairs, leq, to_young
from qgrass.maps import signed_image
from qgrass.straighten import hibi_binomial, interval_mask

from test_fast_paths import seeded_intervals
from test_lattice import LADDER, rrw_degree

CONTEXTS = LADDER + [(2, 3, 1, 1)]


@pytest.mark.parametrize("params", CONTEXTS, ids=str)
def test_meet_and_join_are_entrywise_min_and_max_of_young_sequences(params):
    ctx = Context(*params)
    for u, v in incomparable_pairs(ctx):
        meet, join = lattice.meet_join(u, v)
        yu, yv = to_young(u, ctx).entries, to_young(v, ctx).entries
        assert to_young(meet, ctx).entries == tuple(map(min, yu, yv))
        assert to_young(join, ctx).entries == tuple(map(max, yu, yv))


@pytest.mark.parametrize("params", CONTEXTS, ids=str)
def test_psi_row_i_holds_young_entry_p_plus_1_minus_i(params):
    ctx = Context(*params)
    p, w = ctx.p, ctx.width
    for u in elements(ctx):
        entries = to_young(u, ctx).entries
        psi = maps.psi(u, ctx)
        assert all(e == 1 for _, e in psi)
        rows = {x.row: x.level * w + x.col for x, _ in psi}
        assert rows == {i: entries[p - i] for i in range(1, p + 1)}


def test_masked_images_lead_at_psi_on_seeded_skew_cells():
    ctx = Context(3, 3, 1, 3)
    pack = polyring.x_packer(ctx).pack
    for interval in seeded_intervals(ctx, 20, seed=26):
        mask = interval_mask(ctx, interval)
        for u in elements(ctx, interval):
            lead = straighten._lead(signed_image(u, ctx, mask))
            assert lead is not None and lead[0] == pack(maps.psi(u, ctx)), (interval, u)


@pytest.mark.parametrize("params", CONTEXTS, ids=str)
def test_hibi_binomial_monomials_have_one_psi_product(params):
    ctx = Context(*params)
    pack = polyring.x_packer(ctx).pack
    leads = {u: pack(maps.psi(u, ctx)) for u in elements(ctx)}
    for u, v in incomparable_pairs(ctx):
        monomials = hibi_binomial(u, v, ctx).poly.terms
        products = {sum(e * leads[x] for x, e in m) for m in monomials}
        assert len(monomials) == 2 and len(products) == 1


def h_by_descents(ctx):
    """h of the Hibi ring of the lattice, as the descent counts of its
    maximal chains: each cover x < y adds the one join-irreducible below y
    and not below x, labelled by its canonical position."""
    elems = elements(ctx)
    rank = {u: lattice.rank(u, ctx) for u in elems}
    lower = {y: [x for x in elems if rank[x] == rank[y] - 1 and leq(x, y)] for y in elems}
    irreducible = [j for j in elems if len(lower[j]) == 1]
    label = {j: i for i, j in enumerate(elems)}
    # chains from the bottom to y, by last join-irreducible added, each a
    # Counter of descents -> number of chains
    chains = {elems[0]: {None: collections.Counter({0: 1})}}
    for y in elems[1:]:
        by_last = chains[y] = {}
        for x in lower[y]:
            (j,) = [j for j in irreducible if leq(j, y) and not leq(j, x)]
            acc = by_last.setdefault(j, collections.Counter())
            for last, counts in chains[x].items():
                descent = last is not None and label[last] > label[j]
                for i, n in counts.items():
                    acc[i + descent] += n
    total = collections.Counter()
    for counts in chains[elems[-1]].values():
        total.update(counts)
    return tuple(total[i] for i in range(max(total) + 1))


def h_by_hilbert_series(ctx):
    """h from (1-t)^D * sum_d H(d) t^d, D = rank(top) + 1, H(d) the
    multichains of d elements (f_d(v) = sum over u <= v of f_{d-1}(u)),
    with its coefficients up to t^D, trailing zeros dropped."""
    elems = elements(ctx)
    dim = lattice.rank(lattice.top(ctx), ctx) + 1
    below = {v: [u for u in elems if leq(u, v)] for v in elems}
    f = dict.fromkeys(elems, 1)
    hilbert = [1, len(elems)]
    for _ in range(dim - 1):
        f = {v: sum(f[u] for u in below[v]) for v in elems}
        hilbert.append(sum(f.values()))
    h = [
        sum((-1) ** k * math.comb(dim, k) * hilbert[i - k] for k in range(i + 1))
        for i in range(dim + 1)
    ]
    while h[-1] == 0:
        h.pop()
    return tuple(h)


# ROADMAP item 6's table: palindromic exactly when m = p
H_VECTORS = {
    (2, 3, 0, 0): (1, 3, 1),
    (2, 2, 1, 2): (1, 5, 10, 10, 5, 1),
    (2, 3, 1, 1): (1, 8, 21, 20, 5),
    (2, 3, 1, 2): (1, 13, 66, 165, 210, 126, 28, 1),
    (3, 3, 1, 1): (1, 24, 194, 656, 980, 656, 194, 24, 1),
    (3, 2, 1, 3): (1, 18, 136, 560, 1365, 2002, 1716, 792, 165, 10),
}


@pytest.mark.parametrize("params", H_VECTORS, ids=str)
def test_h_vector_by_descents_matches_the_hilbert_series(params):
    ctx = Context(*params)
    h = h_by_descents(ctx)
    assert h == h_by_hilbert_series(ctx) == H_VECTORS[params]
    assert sum(h) == lattice.count_maximal_chains(ctx) == rrw_degree(ctx.p, ctx.m, ctx.q)
