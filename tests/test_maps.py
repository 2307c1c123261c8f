import itertools
from typing import Optional

import pytest

from qgrass.errors import DomainError, InvalidInputError
from qgrass.lattice import Context, PluckerVar, YoungSeq, elements, leq, parse_var, to_young
from qgrass import lattice, polyring
from qgrass.maps import (
    EMPTY_MASK,
    chi,
    epsilon,
    generator_image,
    phi,
    pi,
    psi,
    psi_invert,
    schubert_mask,
    young_mask,
)
from qgrass.polyring import Mono, Polynomial, X_ORDER, XVar, emit_text, initial_form

from conftest import apply_hom, golden_text, minor_map, variable, young_image
from test_polyring import level_sum


def test_phi_golden_expansion(ctx333):
    f = phi(parse_var("456^2"), ctx333)
    assert emit_text(f, "X") == golden_text("phi_456_2.txt")
    assert len(f.terms) == 18
    assert set(f.terms.values()) == {1, -1}


def test_phi_bottom_is_level_zero_minor(ctx333):
    f = phi(parse_var("123^0"), ctx333)
    assert len(f.terms) == 6  # p! Leibniz terms
    assert all(level_sum(m) == 0 for m in f.terms)


def test_phi_shift_above_np():
    with pytest.raises(DomainError):
        phi(PluckerVar((1, 2, 3), 4), Context(3, 3, 1, 3))


def test_phi_and_the_masked_callers_share_one_cache_entry(ctx333, fresh_images):
    # apply_hom and schubert pass the mask positionally; phi must key its
    # image the same way, or lru_cache stores the one image twice
    u = parse_var("456^2")
    phi(u, ctx333)
    generator_image(u, ctx333, EMPTY_MASK)
    info = generator_image.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_psi_closed_form_examples(ctx333):
    assert psi(parse_var("456^2"), ctx333) == polyring.mono_from_pairs(
        [(XVar(3, 6, 0), 1), (XVar(1, 5, 1), 1), (XVar(2, 4, 1), 1)]
    )
    assert psi(parse_var("235^2"), ctx333) == polyring.mono_from_pairs(
        [(XVar(3, 5, 0), 1), (XVar(1, 3, 1), 1), (XVar(2, 2, 1), 1)]
    )
    ctx4 = Context(4, 3, 2, 5)
    assert psi(PluckerVar((2, 4, 5, 7), 5), ctx4) == polyring.mono_from_pairs(
        [
            (XVar(2, 7, 1), 1),
            (XVar(3, 5, 1), 1),
            (XVar(4, 4, 1), 1),
            (XVar(1, 2, 2), 1),
        ]
    )


def test_phi_2457_leading_term():
    ctx4 = Context(4, 3, 2, 5)
    _, m = X_ORDER.leading_term(phi(PluckerVar((2, 4, 5, 7), 5), ctx4))
    assert m == psi(PluckerVar((2, 4, 5, 7), 5), ctx4)


@pytest.mark.parametrize("params", [(2, 2, 1, 2), (3, 3, 1, 3)])
def test_psi_is_leading_monomial_exhaustive(params):
    ctx = Context(*params)
    for u in elements(ctx):
        assert X_ORDER.leading_term(phi(u, ctx))[1] == psi(u, ctx)


def test_psi_injective(ctx333):
    images = {psi(u, ctx333) for u in elements(ctx333)}
    assert len(images) == len(elements(ctx333))


def test_psi_invert(ctx333):
    for u in elements(ctx333):
        assert psi_invert(psi(u, ctx333), ctx333) == u
    bad = polyring.mono_from_pairs([(XVar(1, 1, 0), 3)])
    assert psi_invert(bad, ctx333) is None


# each case names the statement of maps that it reaches and no command runs
@pytest.mark.parametrize(
    "rows",
    [
        pytest.param((1, 1, 2), id="psi_invert-rows-not-1..p-repeated"),
        pytest.param((2, 3, 4), id="psi_invert-rows-not-1..p-shifted"),
    ],
)
def test_library_paths(ctx333, rows):
    # degree p and squarefree, so only the row check refuses it
    mono = polyring.mono_from_pairs((XVar(i, j, 0), 1) for j, i in enumerate(rows, start=1))
    assert psi_invert(mono, ctx333) is None


def test_chi_equals_weight_initial_form(ctx333):
    w = lambda v: -((ctx333.p * v.level + v.row) ** 2)
    for u in elements(ctx333):
        assert chi(u, ctx333) == initial_form(phi(u, ctx333), w)


def test_chi_single_level_block():
    ctx = Context(2, 2, 2, 4)
    f = chi(PluckerVar((1, 2), 2), ctx)  # shift divisible by p: one level block
    assert len(f.terms) == 2
    assert all(
        len({v.level for v, _ in m}) == 1 for m in f.terms
    )


def test_chi_leading_term_is_psi(ctx333):
    for u in elements(ctx333):
        assert X_ORDER.leading_term(chi(u, ctx333))[1] == psi(u, ctx333)


def test_chi_row_range_error():
    with pytest.raises(DomainError):
        chi(PluckerVar((1, 2), 5), Context(2, 2, 2, 4))


def test_pi_golden_m4():
    ctx = Context(3, 4, 2, 2)
    f = pi(parse_var("235^2"), ctx)
    assert emit_text(f, "J") == golden_text("pi_235_2_m4.txt")
    # a larger stacked range adds no terms: the rank bound caps the entries
    ctx_wide = Context(3, 4, 3, 2)
    assert pi(parse_var("235^2"), ctx_wide) == f


def test_pi_classical_single_term():
    ctx = Context(3, 3, 0, 0)
    for u in elements(ctx):
        f = pi(u, ctx)
        assert len(f.terms) == 1
        ((j, _),) = list(f.terms)[0]
        assert j == to_young(u, ctx)
        assert f.terms[list(f.terms)[0]] == 1


def test_pi_nonleading_terms_shape(ctx333):
    for u in elements(ctx333):
        f = pi(u, ctx333)
        lead = to_young(u, ctx333)
        for m, _ in f.terms.items():
            ((j, _),) = m
            if j == lead:
                continue
            assert j.entries[-1] - j.entries[0] > ctx333.width
            assert j.entries[0] < lead.entries[0]


def test_pi_leading_sign(ctx333):
    corder = polyring.YOUNG_ORDER
    for u in elements(ctx333):
        coeff, m = corder.leading_term(pi(u, ctx333))
        ((j, _),) = m
        assert j == to_young(u, ctx333)
        assert coeff == 1


def test_epsilon_examples():
    ctx = Context(3, 4, 2, 2)
    assert epsilon(YoungSeq((5, 9, 10)), ctx) == 1
    assert epsilon(YoungSeq((3, 9, 12)), ctx) == -1
    assert epsilon(YoungSeq((2, 3, 19)), ctx) == 1


def test_schubert_mask_worked_example(ctx333):
    mask = schubert_mask(ctx333, parse_var("235^2"))
    expected = (
        {XVar(1, j, 1) for j in (4, 5, 6)}
        | {XVar(2, j, 1) for j in (3, 4, 5, 6)}
        | {XVar(3, j, 1) for j in range(1, 7)}
        | {XVar(3, 6, 0)}
    )
    assert mask == frozenset(expected)


def test_skew_mask_worked_example(ctx333):
    mask = schubert_mask(ctx333, parse_var("235^2"), parse_var("146^1"))
    surviving = {
        XVar(i, j, l)
        for i in (1, 2, 3)
        for j in range(1, 7)
        for l in (0, 1)
    } - set(mask)
    assert surviving == {
        XVar(1, 1, 1),
        XVar(1, 2, 1),
        XVar(1, 3, 1),
        XVar(2, 1, 1),
        XVar(2, 2, 1),
        XVar(2, 6, 0),
        XVar(3, 4, 0),
        XVar(3, 5, 0),
    }


def test_schubert_mask_requires_comparable():
    with pytest.raises(InvalidInputError):
        schubert_mask(Context(3, 3, 1, 3), parse_var("146^1"), parse_var("235^2"))


def test_young_mask_matches_schubert_mask(ctx333):
    for topv in [parse_var("235^2"), parse_var("456^3"), parse_var("123^0")]:
        assert young_mask(ctx333, to_young(topv, ctx333)) == schubert_mask(ctx333, topv)
    topv, botv = parse_var("235^2"), parse_var("146^1")
    assert young_mask(
        ctx333, to_young(topv, ctx333), to_young(botv, ctx333)
    ) == schubert_mask(ctx333, topv, botv)


def test_skew_generator_images_golden(ctx333):
    bot, top = parse_var("146^1"), parse_var("235^2")
    mask = schubert_mask(ctx333, top, bot)
    lines = []
    for u in elements(ctx333, (bot, top)):
        img = apply_hom(variable(u), ctx333, mask)
        lines.append(f"{lattice.format_var(u, compact=True)} -> {emit_text(img, 'X')}")
    assert "\n".join(lines) == golden_text("schubert_images_235_2_146_1.txt")


def test_apply_hom_kills_outside_interval(ctx333):
    bot, top = parse_var("146^1"), parse_var("235^2")
    mask = schubert_mask(ctx333, top, bot)
    for u in elements(ctx333):
        inside = leq(bot, u) and leq(u, top)
        img = apply_hom(variable(u), ctx333, mask)
        assert img.is_zero() == (not inside)


def test_apply_hom_unmasked_is_phi(ctx333):
    for u in elements(ctx333)[::9]:
        assert apply_hom(variable(u), ctx333) == phi(u, ctx333)


def test_apply_hom_multiplicative(ctx333):
    u, v = parse_var("156^1"), parse_var("234^2")
    f = variable(u)
    g = variable(v)
    assert apply_hom(f * g, ctx333) == apply_hom(f, ctx333) * apply_hom(g, ctx333)


def test_masked_self_image_is_signed_lead(ctx333):
    for alpha in elements(ctx333):
        img = apply_hom(
            variable(alpha), ctx333, schubert_mask(ctx333, alpha)
        )
        coeff, m = X_ORDER.leading_term(phi(alpha, ctx333))
        assert img == Polynomial.term(m, coeff)
        assert m == psi(alpha, ctx333)


def test_minor_map_self_is_last_entries_product(ctx333):
    j = to_young(parse_var("235^2"), ctx333)
    f = minor_map(j, ctx333, young_mask(ctx333, j))
    assert len(f.terms) == 1
    ((m, c),) = f.terms.items()
    assert m == psi(parse_var("235^2"), ctx333)


def test_minor_map_vanishes_above(ctx333):
    j = to_young(parse_var("235^2"), ctx333)
    mask = young_mask(ctx333, j)
    bigger = YoungSeq((6, 8, 9))  # not componentwise below j=(5,8,9)
    assert minor_map(bigger, ctx333, mask).is_zero()


def test_phi_reconstruction_from_stacked_minors(ctx333):
    for u in elements(ctx333):
        assert young_image(pi(u, ctx333), ctx333) == phi(u, ctx333)


def test_composition_identity(ctx333):
    # masked generator map factors through the sequence expansion
    gens = elements(ctx333)
    for alpha in gens[::7]:
        mask = schubert_mask(ctx333, alpha)
        ymask = young_mask(ctx333, to_young(alpha, ctx333))
        for gamma in gens[::5]:
            lhs = apply_hom(variable(gamma), ctx333, mask)
            rhs = young_image(pi(gamma, ctx333), ctx333, ymask)
            assert lhs == rhs


# -- references: the closed forms that split the shift by hand ----------------


def psi_reference(u: PluckerVar, ctx: Context) -> Mono:
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


def psi_invert_reference(mono: Mono, ctx: Context) -> Optional[PluckerVar]:
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
    return u if psi_reference(u, ctx) == mono else None


def _col_at(cols: tuple[int, ...], nu: int, hi: int) -> int:
    """Column sequence with the usual sentinels: 0 below, +infinity above."""
    if nu <= 0:
        return 0
    if nu > len(cols):
        return hi
    return cols[nu - 1]


def schubert_mask_reference(
    ctx: Context,
    top: PluckerVar,
    bottom: Optional[PluckerVar] = None,
):
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


DIFFERENTIAL_CONTEXTS = [
    (1, 3, 1, 1),
    (2, 2, 1, 2),
    (2, 3, 1, 2),
    (2, 2, 2, 4),
    (3, 2, 1, 3),
    (3, 3, 1, 2),
    (3, 3, 1, 3),
    (4, 2, 1, 4),
]


@pytest.mark.parametrize("params", DIFFERENTIAL_CONTEXTS)
def test_psi_matches_closed_form(params):
    ctx = Context(*params)
    for u in elements(ctx):
        assert psi(u, ctx) == psi_reference(u, ctx)


@pytest.mark.parametrize("params", DIFFERENTIAL_CONTEXTS)
def test_schubert_mask_matches_reference(params):
    ctx = Context(*params)
    elems = elements(ctx)
    for i, top in enumerate(elems):
        assert schubert_mask(ctx, top) == schubert_mask_reference(ctx, top)
        # a linear extension: every element below top comes no later
        for bot in elems[: i + 1]:
            if leq(bot, top):
                assert schubert_mask(ctx, top, bot) == schubert_mask_reference(
                    ctx, top, bot
                )


@pytest.mark.parametrize("params", DIFFERENTIAL_CONTEXTS)
def test_psi_invert_matches_reference(params):
    ctx = Context(*params)
    for u in elements(ctx):
        mono = psi(u, ctx)
        assert psi_invert(mono, ctx) == psi_invert_reference(mono, ctx) == u
    cols, levels = range(1, ctx.width + 2), range(ctx.n + 2)
    if len(cols) * len(levels) > 18:
        return
    cells = list(itertools.product(cols, levels))
    for choice in itertools.product(cells, repeat=ctx.p):
        mono = polyring.mono_from_pairs(
            (XVar(i, j, l), 1) for i, (j, l) in enumerate(choice, start=1)
        )
        assert psi_invert(mono, ctx) == psi_invert_reference(mono, ctx)
