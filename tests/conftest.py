import functools
import pathlib
from typing import Callable

import pytest

from qgrass.errors import InvalidInputError
from qgrass.lattice import Context, YoungSeq
from qgrass import maps, polyring, straighten
from qgrass.maps import EMPTY_MASK, SpecMask
from qgrass.polyring import Polynomial, XVar

GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text().rstrip("\n")


# -- the term-by-term ring maps: references for the generator images ----------


def variable(v) -> Polynomial:
    """The polynomial v."""
    return Polynomial({((v, 1),): 1})


def substitute(poly: Polynomial, image: Callable[[object], Polynomial]) -> Polynomial:
    """Apply the ring homomorphism sending each variable v to image(v)."""
    cache: dict = {}

    def img(v):
        if v not in cache:
            cache[v] = image(v)
        return cache[v]

    acc = Polynomial.zero()
    for m, c in poly.terms.items():
        prod = Polynomial.constant(c)
        for v, e in m:
            prod = prod * img(v) ** e
        acc = acc + prod
    return acc


@functools.lru_cache(maxsize=None)
def minor_map(sel: YoungSeq, ctx: Context, mask: SpecMask = EMPTY_MASK) -> Polynomial:
    """Maximal minor of the masked level-stacked p x N matrix on columns sel.

    Row i, stacked column c holds x[i, residue(c), stacked_level(c)], or a
    zero entry where the mask holds it.  The block is built here from the
    variables, not read off maps._variable_grid, so it shares no layout with
    maps.image_blocks.
    """
    entries = sel.entries
    if len(entries) != ctx.p:
        raise InvalidInputError(f"expected {ctx.p} columns, got {sel!r}")
    if entries[0] < 1 or entries[-1] > ctx.stacked_width:
        raise InvalidInputError(f"columns out of range: {sel!r}")
    if any(a >= b for a, b in zip(entries, entries[1:])):
        raise InvalidInputError(f"columns must be strictly increasing: {sel!r}")
    w = ctx.width
    block = [
        [
            None if v in mask else v
            for v in (XVar(i, maps.residue(c, w), maps.stacked_level(c, w)) for c in entries)
        ]
        for i in range(1, ctx.p + 1)
    ]
    return polyring.det(block)


def apply_hom(f: Polynomial, ctx: Context, mask: SpecMask = EMPTY_MASK) -> Polynomial:
    """Evaluate a polynomial in lattice variables through the generator map."""
    return substitute(f, lambda u: maps.generator_image(u, ctx, mask))


def young_image(f: Polynomial, ctx: Context, mask: SpecMask = EMPTY_MASK) -> Polynomial:
    """Evaluate a polynomial in sequence variables through the minor map."""
    return substitute(f, lambda j: minor_map(j, ctx, mask))


@pytest.fixture(scope="session")
def ctx333() -> Context:
    return Context(3, 3, 1, 3)


@pytest.fixture(scope="session")
def gb333(ctx333):
    """The full straightening basis at (3,3,1,3); expensive, shared."""
    return straighten.reduced_groebner(ctx333)


def clear_image_caches():
    """Empty the caches of maps.signed_image and of generator_image, the
    signed image unpacked, so that the next image of any element is built
    from maps.image_blocks as it stands (patched or not)."""
    maps.signed_image.cache_clear()
    maps.generator_image.cache_clear()


@pytest.fixture
def fresh_images():
    """Clear both image caches before and after the test, so an image built
    under a patch neither meets a cached one nor outlives it."""
    clear_image_caches()
    yield
    clear_image_caches()


@pytest.fixture
def raw_images(monkeypatch):
    """Subduct on the unmasked generator images.

    Below q = n*p the raw images generate a larger ring, so some
    incomparable products leave a remainder (see interval_mask).  The
    table cache is cleared on both sides so no masked table leaks in or out.
    """
    monkeypatch.setattr(straighten, "interval_mask", lambda ctx, interval: maps.EMPTY_MASK)
    straighten._subduction_table.cache_clear()
    yield
    straighten._subduction_table.cache_clear()
