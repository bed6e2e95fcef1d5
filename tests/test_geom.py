import math
import random
from fractions import Fraction

import pytest

from pslgaug import (
    CCW,
    COLLINEAR,
    CONVEX,
    CW,
    REFLEX,
    DegenerateInput,
    Point,
    Segment,
    build,
    ccw_angle_class,
    convex_hull,
    incircle,
    length,
    orient,
    properly_cross,
)
from pslgaug.geom import angle_less, collinear_pair, dist2, in_ccw_sector, orient_xy, to_rational

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


def test_orient_examples():
    assert orient(P(0, 0, 0), P(1, 1, 0), P(2, 0, 1)) == CCW
    assert orient(P(0, 0, 0), P(1, 1, 1), P(2, 2, 2)) == COLLINEAR
    assert orient(P(0, 0, 0), P(1, 0, 1), P(2, 1, 0)) == CW


def test_orient_antisymmetric_random():
    rng = random.Random(7)
    for _ in range(200):
        pts = [
            P(i, Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)),
              Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)))
            for i in range(3)
        ]
        a, b, c = pts
        s = orient(a, b, c)
        assert orient(b, a, c) == -s
        assert orient(a, c, b) == -s
        assert orient(c, b, a) == -s


def seg(ax, ay, bx, by):
    return Segment(P(0, ax, ay), P(1, bx, by))


def test_properly_cross_examples():
    assert properly_cross(seg(0, 0, 2, 2), seg(0, 2, 2, 0))
    assert not properly_cross(seg(0, 0, 1, 0), seg(1, 0, 2, 1))
    # endpoint of one in the interior of the other counts
    assert properly_cross(seg(0, 0, 2, 0), seg(1, 0, 1, 1))


def test_properly_cross_collinear_overlap():
    assert properly_cross(seg(0, 0, 2, 0), seg(1, 0, 3, 0))
    assert properly_cross(seg(0, 0, 3, 0), seg(1, 0, 2, 0))
    assert properly_cross(seg(0, 0, 1, 0), seg(0, 0, 1, 0))
    assert not properly_cross(seg(0, 0, 1, 0), seg(1, 0, 2, 0))
    # vertical collinear
    assert properly_cross(seg(0, 0, 0, 2), seg(0, 1, 0, 3))


def test_properly_cross_symmetric_random():
    rng = random.Random(11)
    for _ in range(300):
        vals = [rng.randrange(-5, 6) for _ in range(8)]
        try:
            s = seg(*vals[:4])
            t = seg(*vals[4:])
        except DegenerateInput:
            continue
        assert properly_cross(s, t) == properly_cross(t, s)


def test_ccw_angle_class_examples():
    assert ccw_angle_class(P(0, 1, 0), P(1, 0, 0), P(2, 0, 1)) == CONVEX
    assert ccw_angle_class(P(0, 1, 0), P(1, 0, 0), P(2, 0, -1)) == REFLEX
    with pytest.raises(DegenerateInput):
        ccw_angle_class(P(0, 0, 0), P(1, 1, 1), P(2, 2, 2))


def test_ccw_angle_class_fig3_corner():
    # At p3 = (1, 0) the facial walk of the lower-bound path passes
    # (p4, p3, p2); that corner is convex, its reversal reflex.
    p2 = P(2, 0, Fraction(1, 10))
    p3 = P(3, 1, 0)
    p4 = P(4, 1, Fraction(1, 10))
    assert ccw_angle_class(p4, p3, p2) == CONVEX
    assert ccw_angle_class(p2, p3, p4) == REFLEX


def test_convex_hull_square_and_interior():
    corners = [P(0, 0, 0), P(1, 1, 0), P(2, 1, 1), P(3, 0, 1)]
    hull = convex_hull(corners)
    assert [p.id for p in hull] == [0, 1, 2, 3]
    withc = corners + [P(4, Fraction(1, 2), Fraction(49, 100))]
    hull2 = convex_hull(withc)
    assert [p.id for p in hull2] == [0, 1, 2, 3]


def brute_hull_points(pts):
    """Independent hull oracle: a point is on the hull iff it is not inside
    any triangle of the others (O(n^4), exact)."""
    out = []
    for p in pts:
        others = [q for q in pts if q.id != p.id]
        inside = False
        from itertools import combinations

        for a, b, c in combinations(others, 3):
            if orient(a, b, c) == COLLINEAR:
                continue
            s1, s2, s3 = orient(a, b, p), orient(b, c, p), orient(c, a, p)
            ref = orient(a, b, c)
            if s1 == s2 == s3 == ref:
                inside = True
                break
        if not inside:
            out.append(p.id)
    return set(out)


def test_convex_hull_fig3():
    eps = Fraction(1, 10)
    pts = [P(1, 0, 0), P(2, 0, eps), P(3, 1, 0), P(4, 1, eps)]
    hull = convex_hull(pts)
    assert [p.id for p in hull] == [1, 3, 4, 2]
    assert brute_hull_points(pts) == {1, 2, 3, 4}


def test_convex_hull_properties_random():
    rng = random.Random(3)
    for trial in range(50):
        pts = []
        seen = set()
        while len(pts) < 8:
            x, y = rng.randrange(0, 40), rng.randrange(0, 40)
            if (x, y) in seen:
                continue
            seen.add((x, y))
            pts.append(P(len(pts), x, y))
        try:
            hull = convex_hull(pts)
        except DegenerateInput:
            continue
        n = len(hull)
        collinear_present = any(
            orient(hull[i], hull[(i + 1) % n], hull[(i + 2) % n]) == COLLINEAR
            for i in range(n)
        )
        if collinear_present:
            continue  # random grids may be degenerate; hull drops those
        for i in range(n):
            assert orient(hull[i], hull[(i + 1) % n], hull[(i + 2) % n]) == CCW
        for p in pts:
            for i in range(n):
                assert orient(hull[i], hull[(i + 1) % n], p) in (CCW, COLLINEAR)


def test_convex_hull_collinear_rejected():
    with pytest.raises(DegenerateInput):
        convex_hull([P(0, 0, 0), P(1, 1, 1), P(2, 2, 2)])


def test_length():
    assert length(Segment(P(0, 0, 0), P(1, 3, 4))) == pytest.approx(5.0, abs=1e-12)
    eps = Fraction(1, 10)
    l = length(Segment(P(2, 0, eps), P(3, 1, 0)))
    assert l == pytest.approx(math.sqrt(1.01), abs=1e-9)
    with pytest.raises(DegenerateInput):
        Segment(P(0, 1, 2), P(1, 1, 2))


def test_scaling_invariance():
    rng = random.Random(19)
    for _ in range(100):
        pts = [P(i, rng.randrange(-20, 20), rng.randrange(-20, 20)) for i in range(4)]
        lam = Fraction(rng.randrange(1, 30), rng.randrange(1, 30))
        scaled = [P(p.id, p.x * lam, p.y * lam) for p in pts]
        a, b, c, d = pts
        a2, b2, c2, d2 = scaled
        assert orient(a, b, c) == orient(a2, b2, c2)
        if len({p.coords() for p in pts}) == 4:
            assert properly_cross(
                Segment(a, b), Segment(c, d)
            ) == properly_cross(Segment(a2, b2), Segment(c2, d2))
        if orient(a, b, c) != COLLINEAR:
            assert incircle(a, b, c, d) == incircle(a2, b2, c2, d2)


def test_incircle():
    a, b, c = P(0, 0, 0), P(1, 2, 0), P(2, 0, 2)
    assert incircle(a, b, c, P(3, 1, 1)) == 1  # inside
    assert incircle(a, b, c, P(3, 5, 5)) == -1  # outside
    assert incircle(a, b, c, P(3, 2, 2)) == 0  # cocircular
    # orientation-normalized: swapping two triangle vertices keeps the sign
    assert incircle(b, a, c, P(3, 1, 1)) == 1


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


def test_dist2_exact():
    assert dist2(P(0, 0, 0), P(1, 3, 4)) == 25
    assert dist2(P(0, Fraction(1, 3), 0), P(1, 0, 0)) == Fraction(1, 9)


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
