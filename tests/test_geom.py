import math
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

import pytest
from hypothesis import assume, given, strategies as st

from pslgaug import DegenerateInput, Point, build, convex_hull
from pslgaug import geom
from pslgaug.geom import (
    _collinear_pair_exact,
    angle_less,
    collinear_pair,
    dist,
    incircle_xy,
    orient_xy,
    polar_before,
    polar_index,
    segments_properly_cross,
    to_rational,
)
from pslgaug.pslg import _corner_convex

from tests_support import in_ccw_sector, polar_sort

P = Point.make
@pytest.mark.parametrize(
    "value, expected",
    [("12", 12), ("-3", -3), ("1e3", 1000), ("4.0", 4), ("-0", 0), (7, 7), (Fraction(8, 2), 4)],
)
def test_to_rational_gives_int_for_integral_values(value, expected):
    got = to_rational(value)
    assert type(got) is int and got == expected


def test_to_rational_keeps_fraction_for_non_integral_values():
    for value, expected in (("0.5", Fraction(1, 2)), ("-1.25", Fraction(-5, 4)),
                            (Fraction(7, 3), Fraction(7, 3))):
        got = to_rational(value)
        assert type(got) is Fraction and got == expected


@pytest.mark.parametrize("value", [0.5, 2.0, True, False, None])
def test_to_rational_rejects_floats_and_bools(value):
    with pytest.raises(TypeError, match=f"got {type(value).__name__}$"):
        to_rational(value)


@pytest.mark.parametrize("coord", [True, 1.0])
def test_build_rejects_bool_like_float(coord):
    with pytest.raises(TypeError, match="expected int, Fraction or decimal string"):
        build([(0, coord, 0), (1, 5, 1), (2, 3, 7)], [(0, 1), (1, 2)])


def xy(lo=-(10**15), hi=10**15):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi))


def orient(a, b, c):
    return orient_xy(*a, *b, *c)


def test_orient_examples():
    assert orient((0, 0), (1, 0), (0, 1)) == 1
    assert orient((0, 0), (1, 1), (2, 2)) == 0
    assert orient((0, 0), (0, 1), (1, 0)) == -1
    # exact on rationals too, where a float cross product rounds to zero
    e = Fraction(1, 10**20)
    assert orient((0, 0), (1, 1), (2, 2 + e)) == 1


@given(xy(), xy(), xy())
def test_orient_antisymmetric_random(a, b, c):
    s = orient(a, b, c)
    assert orient(b, c, a) == orient(c, a, b) == s
    assert orient(b, a, c) == orient(a, c, b) == orient(c, b, a) == -s


def cross(s, t):
    return segments_properly_cross(*s[0], *s[1], *t[0], *t[1])


def test_properly_cross_examples():
    assert cross(((0, 0), (2, 2)), ((0, 2), (2, 0)))
    assert not cross(((0, 0), (1, 0)), ((1, 0), (2, 1)))
    assert not cross(((0, 0), (2, 1)), ((3, 0), (1, 3)))


def lines_meet_inside(a, b, c, d):
    """Whether the lines through a-b and c-d meet in one point strictly
    inside both segments: a + s (b - a) = c + t (d - c) solved for s and t
    in exact Fractions."""
    rx, ry, qx, qy = b[0] - a[0], b[1] - a[1], d[0] - c[0], d[1] - c[1]
    wx, wy = c[0] - a[0], c[1] - a[1]
    den = rx * qy - ry * qx
    if den == 0:
        return False
    s, t = Fraction(wx * qy - wy * qx, den), Fraction(wx * ry - wy * rx, den)
    return 0 < s < 1 and 0 < t < 1


# a small grid makes shared endpoints, collinear overlaps and endpoints on
# the other segment common
SMALL_POINT = xy(-5, 5)
SMALL_SEGMENT = st.tuples(SMALL_POINT, SMALL_POINT).filter(lambda s: s[0] != s[1])


@given(st.lists(SMALL_POINT, min_size=4, max_size=4, unique=True))
def test_properly_cross_is_an_interior_meeting_in_general_position(pts):
    assume(all(orient(*t) != 0 for t in combinations(pts, 3)))
    a, b, c, d = pts
    assert cross((a, b), (c, d)) == lines_meet_inside(a, b, c, d)


@given(st.lists(SMALL_POINT, min_size=3, max_size=3, unique=True))
def test_segments_sharing_an_endpoint_never_cross(pts):
    a, b, c = pts
    for s, t in (((a, b), (a, c)), ((b, a), (a, c)), ((a, b), (c, a)), ((b, a), (c, a))):
        assert not cross(s, t)


@given(SMALL_SEGMENT, SMALL_SEGMENT)
def test_properly_cross_symmetric_random(s, t):
    assert cross(s, t) == cross(t, s) == cross(s[::-1], t) == cross(s, t[::-1])


def test_corner_convex_examples():
    # the corner (prev, apex, next) spans the CCW angle from ray apex->prev
    # to ray apex->next
    g = build([(0, 1, 0), (1, 0, 0), (2, 0, 1), (3, -1, -2)], [])
    assert _corner_convex(g, 0, 1, 2)
    assert not _corner_convex(g, 0, 1, 3)
    assert not _corner_convex(g, 2, 1, 0)
    # a leaf corner is the full angle
    assert not _corner_convex(g, 0, 1, 0)


def test_corner_convex_fig3_corner(fig3):
    # At p3 = (1, 0) the facial walk of the lower-bound path passes
    # (p4, p3, p2); that corner is convex, its reversal reflex.
    assert _corner_convex(fig3, 4, 3, 2)
    assert not _corner_convex(fig3, 2, 3, 4)


def test_convex_hull_square_and_interior():
    corners = [(0, 0), (100, 0), (100, 100), (0, 100)]
    assert convex_hull(corners) == corners
    assert convex_hull(corners + [(50, 49), (100, 0)]) == corners
    assert convex_hull(corners[::-1]) == corners


def brute_hull_points(pts):
    """Independent hull oracle: a point is on the hull iff it is not inside
    any triangle of the others (O(n^4), exact)."""
    out = set()
    for p in pts:
        others = [q for q in pts if q != p]
        if not any(
            orient(a, b, c) != 0 and orient(a, b, p) == orient(b, c, p) == orient(c, a, p)
            == orient(a, b, c)
            for a, b, c in combinations(others, 3)
        ):
            out.add(p)
    return out


def test_convex_hull_fig3():
    eps = Fraction(1, 10)
    pts = [(0, 0), (0, eps), (1, 0), (1, eps)]
    assert convex_hull(pts) == [(0, 0), (1, 0), (1, eps), (0, eps)]
    assert brute_hull_points(pts) == set(pts)


@given(st.lists(xy(0, 40), min_size=3, max_size=12))
def test_convex_hull_properties_random(pts):
    assume(any(orient(pts[0], b, c) for b in pts for c in pts))
    hull = convex_hull(pts)
    n = len(hull)
    assert hull[0] == min(pts)
    assert set(hull) <= brute_hull_points(list(set(pts)))
    for i in range(n):
        assert orient(hull[i - 2], hull[i - 1], hull[i]) == 1
        assert all(orient(hull[i - 1], hull[i], p) >= 0 for p in pts)


def test_convex_hull_collinear_rejected():
    with pytest.raises(DegenerateInput, match="collinear"):
        convex_hull([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(DegenerateInput, match="3 distinct"):
        convex_hull([(0, 0), (1, 1), (0, 0)])


def test_length():
    assert dist(P(0, 0, 0), P(1, 3, 4)) == pytest.approx(5.0, abs=1e-12)
    eps = Fraction(1, 10)
    assert dist(P(2, 0, eps), P(3, 1, 0)) == pytest.approx(math.sqrt(1.01), abs=1e-9)


@given(st.lists(xy(-20, 20), min_size=4, max_size=4),
       st.fractions(min_value=Fraction(1, 1000), max_value=1000), xy())
def test_scaling_invariance(pts, lam, shift):
    moved = [(x * lam + shift[0], y * lam + shift[1]) for x, y in pts]
    a, b, c, d = pts
    a2, b2, c2, d2 = moved
    assert orient(a, b, c) == orient(a2, b2, c2)
    if len(set(pts)) == 4:
        assert cross((a, b), (c, d)) == cross((a2, b2), (c2, d2))
    assert incircle_xy(*a, *b, *c, *d) == incircle_xy(*a2, *b2, *c2, *d2)


def test_incircle():
    a, b, c = (0, 0), (2, 0), (0, 2)  # CCW
    assert incircle_xy(*a, *b, *c, 1, 1) == 1  # inside
    assert incircle_xy(*a, *b, *c, 5, 5) == -1  # outside
    assert incircle_xy(*a, *b, *c, 2, 2) == 0  # cocircular
    # the sign is for a CCW triangle: a CW one flips it
    assert incircle_xy(*b, *a, *c, 1, 1) == -1


@given(xy(-1000, 1000), xy(-1000, 1000), xy(-1000, 1000), xy(-1000, 1000))
def test_incircle_sign_matches_circumcircle(a, b, c, d):
    s = orient(a, b, c)
    assume(s != 0)
    # circumcenter by Cramer's rule, in exact rationals
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    den = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    sa, sb, sc = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = Fraction(sa * (by - cy) + sb * (cy - ay) + sc * (ay - by), den)
    uy = Fraction(sa * (cx - bx) + sb * (ax - cx) + sc * (bx - ax), den)
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    d2 = (d[0] - ux) ** 2 + (d[1] - uy) ** 2
    expected = (d2 < r2) - (d2 > r2)
    assert s * incircle_xy(*a, *b, *c, *d) == expected


def test_in_ccw_sector():
    # quarter-circle sector from +x to +y
    assert in_ccw_sector(1, 0, 0, 1, 1, 1)
    assert not in_ccw_sector(1, 0, 0, 1, 1, -1)
    # reflex sector from +y to +x (270 degrees)
    assert in_ccw_sector(0, 1, 1, 0, -1, 0)
    assert in_ccw_sector(0, 1, 1, 0, 1, -1)
    assert not in_ccw_sector(0, 1, 1, 0, 1, 1)
    # full sector at a leaf corner
    assert in_ccw_sector(1, 0, 1, 0, 0, 1)
    assert not in_ccw_sector(1, 0, 1, 0, 1, 0)


def test_angle_less():
    # 45 deg < 90 deg
    assert angle_less((1, 0), (1, 1), (1, 0), (0, 1))
    assert not angle_less((1, 0), (0, 1), (1, 0), (1, 1))
    # 90 < 135
    assert angle_less((1, 0), (0, 1), (1, 0), (-1, 1))
    # equal angles are not less
    assert not angle_less((1, 0), (1, 1), (2, 0), (2, 2))
    # obtuse comparison
    assert angle_less((1, 0), (-1, 2), (1, 0), (-2, 1))


def collinear_by_triple_scan(c, pts):
    return any(
        orient_xy(*pts[i], *pts[j], *c) == 0
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    ) or c in pts


@pytest.mark.parametrize(
    "offset, scale",
    [(0, 1), (10**15, 1), (-(10**15), 7), (10**15 - 3, 10**15 // 9)],
)
def test_collinear_pair_matches_triple_scan(offset, scale):
    # a 5x5 grid is dense in collinear triples
    rng = random.Random(offset % 1000 + scale % 1000)
    grid = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    hits = 0
    for _ in range(400):
        pts = [(offset + scale * x, offset + scale * y)
               for x, y in rng.sample(grid, rng.randrange(0, 8))]
        x, y = rng.choice(grid)
        c = (offset + scale * x, offset + scale * y)
        pair = collinear_pair(c, pts)
        assert (pair is not None) == collinear_by_triple_scan(c, pts), (c, pts)
        if pair is not None:
            i, j = pair
            hits += 1
            if i == j:
                assert pts[i] == c
            else:
                assert i < j and orient_xy(*pts[i], *pts[j], *c) == 0
    assert 50 < hits < 350


def assert_collinear_pair_exact(c, pts):
    """collinear_pair decides as the triple scan does and names the pair
    the exact gcd scan names."""
    pair = collinear_pair(c, pts)
    assert (pair is not None) == collinear_by_triple_scan(c, pts), (c, pts)
    assert pair == _collinear_pair_exact(c, pts)
    return pair


@pytest.fixture
def exact_runs(monkeypatch):
    """The number of times collinear_pair falls back to the exact scan."""
    runs = []
    exact = geom._collinear_pair_exact
    monkeypatch.setattr(geom, "_collinear_pair_exact", lambda *a: runs.append(a) or exact(*a))
    return runs


# a 5 x 5 grid (dense in collinear triples) stretched by 10^300 or 10^400 on
# one axis, each point nudged by at most 2: slopes from about 10^-400, which
# round to 0.0, to 10^400, past the float range
HUGE = st.sampled_from([10**300, 10**400])
NUDGED = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-1, 1), st.integers(-1, 1))


@given(HUGE, st.booleans(), NUDGED, st.lists(NUDGED, max_size=7))
def test_collinear_pair_matches_triple_scan_on_huge_and_tiny_slopes(scale, tall, c, pts):
    def point(gx, gy, ex, ey):
        return (gx + ex, gy * scale + ey) if tall else (gx * scale + ex, gy + ey)

    assert_collinear_pair_exact(point(*c), [point(*p) for p in pts])


def test_collinear_pair_float_tie_that_is_not_collinear(exact_runs):
    # both slopes round to one float, yet the cross product is -1
    a, b = (2**30 - 1, 2**30 - 2), (2**30 - 2, 2**30 - 3)
    assert a[1] / a[0] == b[1] / b[0] and orient_xy(0, 0, *a, *b) != 0
    assert assert_collinear_pair_exact((0, 0), [(5, -3), a, b]) is None
    assert exact_runs


def test_collinear_pair_exact_parallels_beyond_2_53(exact_runs):
    pts = [(7, 1), (3 * 10**300, 10**300), (-4, 9), (6 * 10**300, 2 * 10**300)]
    assert assert_collinear_pair_exact((0, 0), pts) == (1, 3)
    assert exact_runs


def test_collinear_pair_coincident_point(exact_runs):
    assert assert_collinear_pair_exact((4, 5), [(1, 0), (4, 5), (9, 2)]) == (1, 1)
    assert exact_runs


def test_collinear_pair_slope_past_the_float_range(exact_runs):
    pts = [(1, 10**400), (2, 10**400 + 1), (3, 1)]
    with pytest.raises(OverflowError):
        pts[0][1] / pts[0][0]
    assert assert_collinear_pair_exact((0, 0), pts) is None
    assert exact_runs


def test_collinear_pair_distinct_slopes_decide_without_the_exact_scan(exact_runs):
    # vertical, horizontal, negative and positive slopes
    pts = [(0, 5), (3, 0), (2, -7), (-4, 1), (-6, -5)]
    assert assert_collinear_pair_exact((0, 0), pts) is None
    assert not exact_runs


@given(st.lists(xy(-100, 100), max_size=12), st.integers(0, 12))
def test_polar_sort_orders_by_angle_and_merges(pts, cut):
    # distinct directions of small ints lie at least 10^-5 rad apart, so
    # their float angles order them exactly
    dirs = list({(x // math.gcd(x, y), y // math.gcd(x, y)) for x, y in pts if x or y})
    want = sorted(dirs, key=lambda d: math.atan2(d[1], d[0]) % (2 * math.pi))
    center, key = (7, -3), lambda d: (d[0] + 7, d[1] - 3)
    assert polar_sort(center, dirs, key) == want
    assert polar_sort(center, dirs[cut:], key, into=polar_sort(center, dirs[:cut], key)) == want


# the axes, and directions just above, at and just below +x, where the order
# wraps from the last angle before 2 pi to 0
AXIS_AND_WRAP = [(1, 0), (0, 1), (-1, 0), (0, -1), (10**6, 1), (10**6, -1), (-(10**6), 1),
                 (-(10**6), -1), (1, 10**6), (-1, 10**6), (1, -(10**6)), (-1, -(10**6))]


def _by_polar_before(dirs):
    """Indices of ``dirs`` sorted by a comparison sort on ``polar_before``."""
    def cmp(a, b):
        return -1 if polar_before(*dirs[a], *dirs[b]) else (1 if polar_before(*dirs[b], *dirs[a]) else 0)
    return sorted(range(len(dirs)), key=cmp_to_key(cmp))


@given(
    st.lists(st.one_of(xy(-50, 50), st.sampled_from(AXIS_AND_WRAP)), max_size=14),
    st.sampled_from([0, 10**15, -(10**15)]),
    st.sampled_from([1, 3, 10**9 + 7]),
    st.randoms(use_true_random=False),
)
def test_polar_index_one_at_a_time_equals_a_polar_before_sort(pts, offset, den, rnd):
    # directions in all four quadrants and on both axes, around a centre
    # moved by +-10^15, on int or Fraction coordinates, inserted in a random
    # order: after each insert the rotation is the comparison sort's
    dirs = list({(x // math.gcd(x, y), y // math.gcd(x, y)) for x, y in pts if x or y})
    rnd.shuffle(dirs)
    c = len(dirs)
    ix = {c: Fraction(offset, den)}
    iy = {c: Fraction(-offset, den)}
    for k, (dx, dy) in enumerate(dirs):
        ix[k], iy[k] = Fraction(offset + dx, den), Fraction(-offset + dy, den)
    if den == 1:
        ix, iy = ({k: int(x) for k, x in m.items()} for m in (ix, iy))
    rot = ()
    for k in range(c):
        i = polar_index(rot, c, k, ix, iy)
        rot = rot[:i] + (k,) + rot[i:]
        assert rot == tuple(_by_polar_before(dirs[: k + 1]))
    assert list(rot) == polar_sort((ix[c], iy[c]), range(c), lambda k: (ix[k], iy[k]))
