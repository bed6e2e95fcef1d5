"""Shortest homotopic paths (geodesics) for convex subwalks of facial walks.

Every walk the heuristics and the morph close is convex: each corner turns
into its face by less than pi.  Its geodesic has a closed form, found by
shortcutting corners (``convex_geodesic``): the path starts as the walk,
and each slack corner (a, y, b) is replaced by the chain of the convex
hull of a, b and the vertices strictly inside triangle ayb, until the path
is taut.  Every walk vertex is slack and every vertex that a shortcut puts
in stays taut, so one pass from the walk's start does it.  It reads only
the graph's rotations and scaled integer coordinates, so it builds no
triangulation and caches nothing on the graph, only the points' x order
on the point set; the morph asks it on its live graph.

``geodesic(g, walk)`` checks once per graph that g is augmentable
(``_FaceEnv``), refuses a walk that repeats a directed edge, and returns
``convex_geodesic``, whose corner checks put the walk on a face.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .geom import convex_hull, orient_xy, walk_length
from .pslg import (
    LemmaViolation,
    Pslg,
    PslgError,
    _corner_convex,
    require_augmentable,
)


class WalkNotInFace(PslgError):
    pass


@dataclass
class GeodesicPath:
    seq: list  # Points from p_0 to p_t
    length: float

    def ids(self):
        return [p.id for p in self.seq]


class _FaceEnv:
    """The check that a graph is connected with at least 3 vertices, made
    once per graph: ``geodesic`` caches it on the graph."""

    def __init__(self, g: Pslg):
        require_augmentable(g)


def geodesic(g: Pslg, walk_ids) -> GeodesicPath:
    """Shortest path homotopic to the given convex facial subwalk inside its
    face (``convex_geodesic``).

    ``walk_ids`` must trace a contiguous subwalk (>= 2 edges) of one facial
    walk, in walk direction, else WalkNotInFace: no directed edge repeats,
    as in a walk longer than its face, and each corner follows the rotation
    (``convex_geodesic``).  Every corner must be convex, else LemmaViolation.
    """
    walk_ids = list(walk_ids)
    if len(walk_ids) < 3:
        raise WalkNotInFace("geodesic needs a walk of at least 2 edges")
    if walk_ids[0] == walk_ids[-1]:
        raise WalkNotInFace("geodesic of a closed walk is degenerate")
    darts = list(zip(walk_ids, walk_ids[1:]))
    if any(a == b for a, b in darts):
        raise WalkNotInFace("repeated consecutive vertex in walk")
    if g._face_env is None:
        g._face_env = _FaceEnv(g)
    if len(set(darts)) < len(darts):
        raise WalkNotInFace("walk longer than its facial walk")
    return convex_geodesic(g, walk_ids)


def convex_geodesic(g: Pslg, walk) -> GeodesicPath:
    """The geodesic of ``walk``, a convex facial subwalk of g with distinct
    ends, by shortcutting corners until the path is taut (Hershberger &
    Snoeyink 1994).  Each corner (a, y, b) must have b follow a in the
    rotation at y, else WalkNotInFace: the face then fills the sector from
    ray y->a counterclockwise to ray y->b, on the walk's right.  Each must
    be convex, a right turn, else LemmaViolation; every corner's rotation is
    tested before any corner's turn.

    The path is built left to right: the walk's start, then bends (vertices
    that shortcuts put in), then the last walk vertex y so far.  When the
    next walk vertex v comes, y leaves the path, and the chain of
    conv({a, v} + S) on y's side, where a is y's predecessor on the path
    and S is the set of vertices strictly inside triangle ayv, goes in,
    then v.  For a walk of one corner this is the hull chain alone.

    - y is slack, the path turns right into y's face sector: a is the
      walk's start, or a vertex of the triangle of the shortcut that
      replaced y's walk predecessor x (its corner, or its chain's last
      vertex, y's neighbour on the hull), and that triangle's angle at y
      starts at ray y->x.  If the angle passes ray y->v, the edge yv
      enters the triangle and cannot leave it, so v is in its S, and y's
      neighbour on the hull is no further from ray y->x than v.  So ray
      y->a lies in y's face sector.
    - The chain is the geodesic of a-y-v.  ay and yv are path segments,
      which lie in the face and cross no edge, and no edge at y enters the
      triangle, whose angle at y lies in y's face sector.  An edge that
      enters the triangle at a or v, or across av, cannot leave it except
      across av, and in general position meets no vertex on its way, so
      it ends in S or crosses av.  So conv({a, v} + S) holds every part of
      the graph inside the triangle, the region between the chain and
      a-y-v meets no vertex and no edge, and the chain, convex towards y,
      is homotopic to a-y-v in the face and strictly shorter.
    - Every bend is taut: it turns right, around the hull, with its
      obstacle inside the turn.  A shortcut at y swings the direction from
      a to its successor across the triangle, which holds no edge at a,
      towards a's predecessor, so a still turns right, or, exactly when a
      is a leaf joined to its predecessor, the path now wraps that edge: a
      spike (p, a, p), which is taut.
    - If a is v, a spike at y, the excursion a-y-a bounds no obstacle: y
      leaves the path without a chain, and a stands for v.  Then a is a
      chain vertex, so v lies inside the last triangle, and v is the
      walk's end: a successor of v would lie inside that triangle beyond
      the chain.

    At the end every vertex of the path between its ends is a taut bend,
    so the path is the shortest in its homotopy class, which is unique.
    Every interior vertex is a reflex vertex of g, which
    ``_geodesic_path`` checks.
    """
    rot, ix, iy = g.rotation, g._ix, g._iy
    corners = list(zip(walk, walk[1:], walk[2:]))
    for x, y, v in corners:
        r = rot.get(y, ())
        if x not in r or r[(r.index(x) + 1) % len(r)] != v:
            raise WalkNotInFace(f"({x}, {y}, {v}) is not a corner of a facial walk")
    path = [walk[0], walk[1]]
    for x, y, v in corners:
        if orient_xy(ix[y], iy[y], ix[x], iy[x], ix[v], iy[v]) <= 0:
            raise LemmaViolation(f"corner ({x}, {y}, {v}) is not convex")
        path.pop()  # y, which is slack
        if path[-1] != v:  # else a spike at y, contracted
            path += _chain(path[-1], y, v, g.points)
            path.append(v)
    return _geodesic_path(g, path)


def _chain(a, y, b, pts):
    """The vertices of conv({a, b} + S) strictly between a and b on y's
    side, in order from a, where S is the set of vertices strictly inside
    triangle yab, counterclockwise: the slab of the points ``pts`` strictly
    inside the triangle's x-range, found by bisection in their x order
    (``_by_x``), a y filter, then three exact orientations."""
    ix, iy = pts.ix, pts.iy
    xs, ids = _by_x(pts)
    ax, ay, yx, yy, bx, by = ix[a], iy[a], ix[y], iy[y], ix[b], iy[b]
    xlo, xhi = min(ax, yx, bx), max(ax, yx, bx)
    ylo, yhi = min(ay, yy, by), max(ay, yy, by)
    inside = [
        v for v in ids[bisect_right(xs, xlo) : bisect_left(xs, xhi)]
        if ylo < iy[v] < yhi
        and orient_xy(yx, yy, ax, ay, ix[v], iy[v]) > 0
        and orient_xy(ax, ay, bx, by, ix[v], iy[v]) > 0
        and orient_xy(bx, by, yx, yy, ix[v], iy[v]) > 0
    ]
    if not inside:
        return []
    at = {(ix[v], iy[v]): v for v in inside + [a, b]}
    hull = [at[xy] for xy in convex_hull(list(at))]
    k = hull.index(a)
    return (hull[k:] + hull[:k])[:1:-1]  # counterclockwise a, b, then S


def _by_x(pts):
    """The ids of the points ``pts`` sorted by scaled x, and their xs:
    sorted once per point set and kept on it, for every graph on them."""
    if pts.by_x is None:
        ids = sorted(pts.ix, key=pts.ix.__getitem__)
        pts.by_x = [pts.ix[v] for v in ids], ids
    return pts.by_x


def _geodesic_path(g: Pslg, ids) -> GeodesicPath:
    """The path on vertex ids ``ids``, whose interior vertices must be
    reflex vertices of the graph."""
    points = [g.by_id[v] for v in ids]
    for p in points[1:-1]:
        if not _is_reflex_vertex(g, p.id):
            raise LemmaViolation(f"geodesic interior vertex {p.id} is not reflex")
    return GeodesicPath(seq=points, length=walk_length(points))


def _is_reflex_vertex(g: Pslg, v) -> bool:
    """A vertex is reflex iff some angle between CCW-consecutive incident
    edges is >= pi (degree-1 vertices count as reflex)."""
    rot = g.rotation[v]
    return any(
        not _corner_convex(g, u, v, rot[(i + 1) % len(rot)])
        for i, u in enumerate(rot)
    )
