import pathlib

import pytest

from qgrass.lattice import Context
from qgrass import maps, polyring, straighten

GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text().rstrip("\n")


@pytest.fixture(scope="session")
def ctx333() -> Context:
    return Context(3, 3, 1, 3)


@pytest.fixture(scope="session")
def gb333(ctx333):
    """The full straightening basis at (3,3,1,3); expensive, shared."""
    return straighten.reduced_groebner(ctx333)


def reference_image(u, ctx, mask=maps.EMPTY_MASK):
    """Reference: the masked generator image of u as the sum of polyring.det
    over maps.image_blocks, the expansion generator_image made before it
    unpacked maps.signed_image.  Uncached, so a patch of image_blocks
    reaches it.

    Its callers are in tests/test_fast_paths.py: packed_image (and through
    it signed_image_reference and subduct_running_minimum),
    test_signed_image_matches_packed_generator_image,
    test_count_product_matches_polynomial_product and
    kernel_quadrics_oracle_polynomial."""
    image = polyring.Polynomial.zero()
    for block in maps.image_blocks(u, ctx, mask):
        image = image + polyring.det(block)
    return image


def clear_image_caches():
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
