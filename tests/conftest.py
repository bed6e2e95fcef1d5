import pytest
from hypothesis import settings

from pslgaug import build
from tests_support import make_fig3

# Property tests draw the same examples on every run and write no example
# database, so a failure reproduces and the suite leaves nothing behind.  No
# per-example deadline: a loaded machine slows an example without changing
# its outcome.
settings.register_profile("pslgaug", derandomize=True, database=None, deadline=None)
settings.load_profile("pslgaug")


@pytest.fixture
def fig3():
    """Four near-collinear points joined into a path: the tight lower-bound
    family at eps = 1/10."""
    return make_fig3("0.1")


@pytest.fixture
def triangle():
    return build([(0, "0", "0"), (1, "4", "0"), (2, "1", "3")], [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def path3():
    return build([(0, "0", "0"), (1, "2", "1"), (2, "4", "0")], [(0, 1), (1, 2)])


@pytest.fixture
def star3():
    """Center at the origin with three leaves, no two opposite."""
    return build(
        [(0, "0", "0"), (1, "4", "0"), (2, "0", "4"), (3, "-4", "-0.4")],
        [(0, 1), (0, 2), (0, 3)],
    )


@pytest.fixture
def two_triangles():
    """Two triangles sharing one vertex: 2-edge-connected, not 2-connected."""
    return build(
        [
            (0, "0", "0"),
            (1, "-3", "1"),
            (2, "-3", "-1"),
            (3, "3", "1.5"),
            (4, "3", "-1.5"),
        ],
        [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
    )


@pytest.fixture
def square_diag():
    return build(
        [(0, "0", "0"), (1, "4", "0.2"), (2, "4.1", "4"), (3, "-0.2", "4.2")],
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
    )


@pytest.fixture
def square():
    return build(
        [(0, "0", "0"), (1, "4", "0.2"), (2, "4.1", "4"), (3, "-0.2", "4.2")],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )


@pytest.fixture
def pendant_in_polygon():
    """Convex quadrilateral with an extra vertex inside joined to one
    corner: the closed-convex-walk case of the 2-connectivity augmentation."""
    return build(
        [
            (0, "0", "0"),
            (1, "6", "0.3"),
            (2, "6.2", "6"),
            (3, "-0.3", "6.2"),
            (4, "2", "2"),
        ],
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)],
    )


@pytest.fixture
def double_pendant():
    """Triangle with two pendant vertices inside, both attached at the same
    corner: exercises convex walks that revisit a vertex."""
    return build(
        [
            (0, "0", "0"),
            (1, "8", "0"),
            (2, "4", "8"),
            (3, "3.6", "3"),
            (4, "4.4", "3.1"),
        ],
        [(0, 1), (1, 2), (2, 0), (0, 3), (0, 4)],
    )
