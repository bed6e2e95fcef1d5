"""Exact geometric predicates and metric helpers.

All combinatorial decisions (orientation, crossing, convexity, in-circle)
are made in exact arithmetic by one kernel each, on raw (x, y) coordinates:
in practice a graph's scaled integer coordinates (``Pslg.ipt``).  A parsed
coordinate is an int when it is integral and a fractions.Fraction otherwise,
never a float.  Euclidean lengths are reported as double-precision floats;
exact comparisons of lengths go through squared distances.

One whole-graph scan, ``collinear_pair``, lets floats propose an answer
that exact arithmetic then certifies (the floating-point filter of Fortune
& Van Wyk 1996 and Shewchuk 1997).  It compares the float slopes dy / dx of
the directions from one point: int / int true division is correctly
rounded for ints of any size, so it is a function of the rational dy / dx
alone, and two directions on one line through the point give equal floats.
Distinct floats prove that no two points are collinear with it (for every
point at once, ``pslg._tied_rows`` runs this filter in float64); a tie, a
coincident point, or an OverflowError sends the question to the exact scan.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction


class DegenerateInput(ValueError):
    """Raised when a predicate precondition (general position) is violated."""


# The decimal-string grammar of coordinates: an optional sign, ASCII digits,
# an optional fraction part and an optional exponent of at most
# MAX_EXPONENT in magnitude, the digit limit int() puts on integer literals,
# so that no literal stands for a number much longer than itself.  A literal
# with neither optional part is a plain integer.
_DECIMAL = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?(?:[eE]([+-]?0*[0-9]{1,4}))?")
MAX_EXPONENT = 4300


def to_rational(value):
    """Convert a decimal string, int or Fraction to an exact rational: an
    int when the value is integral ("12", "1e3", "4.0", Fraction(8, 2)),
    else a Fraction.  Int arithmetic is many times faster than Fraction
    arithmetic in every predicate and length.

    A string outside the _DECIMAL grammar raises ValueError, before any
    value is computed.  Floats and bools raise TypeError: binary floats do
    not round-trip through the exact predicates, and a bool is no
    coordinate.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        digits = value[1:] if value[:1] in "+-" else value
        if digits.isascii() and digits.isdigit():  # a plain integer, the common case
            return int(value)
        m = _DECIMAL.fullmatch(value)
        if m is None or (m.group(2) and abs(int(m.group(2))) > MAX_EXPONENT):
            raise ValueError(
                f"{value!r} is no decimal literal (sign, ASCII digits, optional "
                f"fraction, exponent at most {MAX_EXPONENT} in magnitude)"
            )
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        raise TypeError(f"expected int, Fraction or decimal string, got {type(value).__name__}")
    return value.numerator if value.denominator == 1 else value


@dataclass(frozen=True)
class Point:
    id: int
    x: int | Fraction  # int when integral; see to_rational
    y: int | Fraction

    @staticmethod
    def make(pid, x, y) -> "Point":
        return Point(pid, to_rational(x), to_rational(y))

    def coords(self):
        return (self.x, self.y)


def orient_xy(ax, ay, bx, by, cx, cy) -> int:
    """Sign of the cross product (b-a) x (c-a): +1 if a, b, c turn
    counterclockwise, -1 if clockwise, 0 if collinear."""
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def collinear_pair(c, pts):
    """Indices (i, j), i < j, of two points of ``pts`` collinear with the
    point ``c``, or None; (i, i) when c coincides with pts[i].

    Integer coordinates only.  O(len(pts)): distinct float slopes from c
    prove the answer None (module docstring); otherwise
    ``_collinear_pair_exact`` decides.
    """
    cx, cy = c
    try:
        # a vertical direction has slope inf; None marks a coincident point
        slopes = {
            (y - cy) / (x - cx) if x != cx else (math.inf if y != cy else None)
            for x, y in pts
        }
        if len(slopes) == len(pts) and None not in slopes:
            return None
    except OverflowError:
        pass
    return _collinear_pair_exact(c, pts)


def _collinear_pair_exact(c, pts):
    """``collinear_pair`` in exact arithmetic: the direction from c to each
    point is reduced by its gcd and sign to a canonical form, and two
    points collinear with c share that form."""
    cx, cy = c
    seen = {}
    for j, (x, y) in enumerate(pts):
        dx, dy = x - cx, y - cy
        if dx == 0 and dy == 0:
            return (j, j)
        k = math.gcd(dx, dy)
        if dx < 0 or (dx == 0 and dy < 0):
            k = -k
        i = seen.setdefault((dx // k, dy // k), j)
        if i != j:
            return (i, j)
    return None


def polar_before(ax, ay, bx, by) -> bool:
    """True iff the direction (ax, ay) comes strictly before (bx, by) in
    counterclockwise order from the +x axis: angles in [0, pi) before those
    in [pi, 2 pi), then by the sign of the cross product.  Exact; the one
    definition of the angular order of every rotation (``polar_index``)."""
    lower_a = ay < 0 or (ay == 0 and ax < 0)
    if lower_a != (by < 0 or (by == 0 and bx < 0)):
        return not lower_a
    return ax * by - ay * bx > 0


def polar_index(rot, v, w, ix, iy) -> int:
    """The position at which neighbour w joins ``rot``, the rotation at v
    (its neighbours in CCW order from the +x axis): the number of them that
    ``polar_before`` does not put after w, found by binary search on the
    coordinates ``ix``, ``iy``.  Exact; assumes no two directions from v
    coincide.  With w inserted there at position i, rot[i - 1] and
    rot[(i + 1) % len(rot)] are its CCW predecessor and successor at v."""
    cx, cy = ix[v], iy[v]
    dx, dy = ix[w] - cx, iy[w] - cy
    lo, hi = 0, len(rot)
    while lo < hi:
        mid = (lo + hi) // 2
        x = rot[mid]
        if polar_before(dx, dy, ix[x] - cx, iy[x] - cy):
            hi = mid
        else:
            lo = mid + 1
    return lo


def segments_properly_cross(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    """True iff the segments a-b and c-d properly cross: each segment's
    endpoints lie strictly on opposite sides of the other's line.

    Segments that share an endpoint never cross.  The rule is complete for
    points in general position, the only ones its callers pass (the points
    of a built graph: ``build`` rejects any collinear triple before it tests
    an edge), where no endpoint can lie on the other segment and no two
    segments overlap.
    """
    return (
        orient_xy(cx, cy, dx, dy, ax, ay) * orient_xy(cx, cy, dx, dy, bx, by) < 0
        and orient_xy(ax, ay, bx, by, cx, cy) * orient_xy(ax, ay, bx, by, dx, dy) < 0
    )


def convex_hull(pts) -> list:
    """Convex hull of exact (x, y) pairs in CCW order (monotone chain).

    Output starts at the lexicographically smallest point and contains no
    collinear triples.  Duplicated points are collapsed first.
    """
    uniq = sorted(set(pts))
    if len(uniq) < 3:
        raise DegenerateInput("hull needs at least 3 distinct points")

    def half(points):
        chain = []
        for p in points:
            while len(chain) >= 2 and orient_xy(*chain[-2], *chain[-1], *p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(uniq)
    upper = half(uniq[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateInput("all points collinear")
    return hull


# absolute tolerance when a float length is checked against a proven bound
LENGTH_TOL = 1e-9


def dist(a: Point, b: Point) -> float:
    return math.hypot(float(a.x - b.x), float(a.y - b.y))


def walk_length(points) -> float:
    return sum(map(dist, points, points[1:]))


def ekey(u: int, v: int) -> tuple:
    """Canonical undirected edge key."""
    return (u, v) if u < v else (v, u)


def incircle_xy(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    """In-circle kernel on raw exact coordinates: +1 iff d lies strictly
    inside the circumcircle of the CCW triangle (a, b, c), -1 strictly
    outside, 0 cocircular."""
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return 1 if det > 0 else (-1 if det < 0 else 0)


def angle_less(u1, v1, u2, v2) -> bool:
    """Exact comparison of unsigned angles between vector pairs.

    Returns True iff angle(u1, v1) < angle(u2, v2), angles taken in [0, pi].
    Vectors are (dx, dy) exact pairs.
    """
    d1 = u1[0] * v1[0] + u1[1] * v1[1]
    d2 = u2[0] * v2[0] + u2[1] * v2[1]
    n1 = (u1[0] ** 2 + u1[1] ** 2) * (v1[0] ** 2 + v1[1] ** 2)
    n2 = (u2[0] ** 2 + u2[1] ** 2) * (v2[0] ** 2 + v2[1] ** 2)
    # compare d1/sqrt(n1) > d2/sqrt(n2)  (cos is decreasing on [0, pi])
    if d1 >= 0 and d2 < 0:
        return True
    if d1 < 0 and d2 >= 0:
        return False
    if d1 >= 0:
        return d1 * d1 * n2 > d2 * d2 * n1
    return d1 * d1 * n2 < d2 * d2 * n1
