import pathlib

import pytest

from qgrass.lattice import Context
from qgrass import maps, straighten

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
