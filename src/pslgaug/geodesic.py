"""Shortest homotopic paths (geodesics) for subwalks of facial walks.

The plane is triangulated over all vertices plus four far-away box corners,
with every graph edge as a constraint.  Each triangle is assigned to the
face it lies in.  A query walk is pushed slightly into its face; the portals
it crosses are exactly the triangle fans around its interior corners, and
pulling the string taut through those portals (funnel algorithm) yields the
geodesic.  Which triangulation it is does not matter: the reduced portal
sequence of a homotopy class, and so the geodesic, is the same in any.

The triangulation names each vertex by the graph's own id and the box
corners by the four ids just above the largest, so nothing translates an id.
Each queried graph gets one environment, built on first use from a
triangulation of its points alone and cached on it; it reads the faces
cached on the graph (``Pslg.faces``), floods the face of every triangle and
checks the triangulation against the graph.

The cycle morph asks only for the geodesic of a convex two-edge corner,
which has a closed form (``corner_geodesic``): the hull chain of the
vertices inside the corner's triangle.  It needs no triangulation, and it
equals the funnel's answer.

The clip box turns the unbounded face into a bounded region; geodesics never
bend at box corners (they are convex corners of the region), which is
asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import collinear_pair, convex_hull, orient_xy, walk_length
from .pslg import (
    LemmaViolation,
    Pslg,
    PslgError,
    _corner_convex,
    require_augmentable,
)
from .triangulate import add_outside_points, insert_constraint, triangulate_points


class WalkNotInFace(PslgError):
    pass


@dataclass
class GeodesicPath:
    seq: list  # Points from p_0 to p_t
    length: float

    def ids(self):
        return [p.id for p in self.seq]


class _FaceEnv:
    """The geodesic environment of one graph: a triangulation of its
    vertices and the clip-box corners (``box``, keyed by the four ids just
    above the largest vertex id) with exactly the graph's edges
    constrained, and the faces of the graph (``faces``, the ``pslg.Faces``
    cached on ``g``).

    The triangulation starts from ``triangulate_points`` over ``g``'s
    points; ``add_outside_points`` joins the box corners and every edge of
    ``g`` is constrained.  The triangle right of dart (u, v) is ``T.side``
    at (v, u), read when a query asks for it; the face of every triangle is
    flooded from those triangles, and the flood fill and then
    ``T.validate()`` check the triangulation against ``g``.
    """

    def __init__(self, g: Pslg):
        require_augmentable(g)
        self.g = g
        pts = {p.id: g.ipt(p.id) for p in g.points}
        self.T, self.box = triangulate_points(pts), _make_box(pts)
        add_outside_points(self.T, self.box)
        for (u, v) in sorted(g.edges):
            insert_constraint(self.T, u, v)
        self.faces = g.faces()
        # the triangle right of graph dart (u, v) is the CCW triangle on side
        # (v, u), the one across side (a, b) of a triangle is on (b, a), and
        # only clip-box sides have none.  Seed each triangle's face from the
        # darts, then flood across unconstrained sides; every triangle and
        # every dart's side must get a face
        side, box, constrained = self.T.side, self.box, self.T.constrained
        face_of, unseeded = {}, False
        for (u, v), face in self.faces.face.items():
            t = side.get((v, u))
            if t is None:
                unseeded = True
            elif face_of.setdefault(t, face) != face:
                raise LemmaViolation("conflicting face assignment for triangle")
        frontier = list(face_of)
        while frontier:
            t = frontier.pop()
            f = face_of[t]
            for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                s = side.get((b, a))
                if s is None:
                    if min(a, b) not in box:  # a triangle is missing
                        raise LemmaViolation("face assignment incomplete")
                elif ((a, b) if a < b else (b, a)) not in constrained:
                    if s not in face_of:
                        face_of[s] = f
                        frontier.append(s)
                    elif face_of[s] != f:
                        raise LemmaViolation("face flood fill conflict")
        if len(face_of) != len(side) // 3 or unseeded:
            raise LemmaViolation("face assignment incomplete")
        self.T.validate()

    def fan_portals(self, prev, apex, nxt):
        """Portals crossed while swinging around ``apex`` from the triangle
        right of (prev, apex) to the triangle right of (apex, nxt).

        Vertex-id pairs (left, right); left is always the pivot.
        """
        side, other = self.T.side, prev
        cur, t_out = side[apex, prev], side[nxt, apex]
        portals = []
        guard = 0
        while cur != t_out:
            z = self.T.apex(cur, apex, other)
            portals.append((apex, z))
            cur = side.get((apex, z))
            if cur is None:
                raise LemmaViolation("fan walked off the triangulation")
            other = z
            guard += 1
            if guard > len(side) // 3:
                raise LemmaViolation("fan did not close")
        return portals


def _make_box(pts):
    """Four far corners whose hull strictly contains the points (a mapping
    from vertex id to (x, y)) with margin at least the point-set diameter,
    nudged so no corner is collinear with any two other points.  They are
    keyed by the four ids just above the largest vertex id."""
    xs = [p[0] for p in pts.values()]
    ys = [p[1] for p in pts.values()]
    span = (max(xs) - min(xs)) + (max(ys) - min(ys)) + 1
    base = [
        (min(xs) - span, min(ys) - span),
        (max(xs) + span, min(ys) - span),
        (max(xs) + span, max(ys) + span),
        (min(xs) - span, max(ys) + span),
    ]
    out_dir = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    placed = list(pts.values())
    for (bx, by), (dx, dy) in zip(base, out_dir):
        k = 0
        while collinear_pair((bx + k * dx, by + 2 * k * dy), placed) is not None:
            k += 1
        placed.append((bx + k * dx, by + 2 * k * dy))
    top = max(pts)
    return {top + 1 + k: c for k, c in enumerate(placed[len(pts) :])}


def face_env(g: Pslg) -> _FaceEnv:
    """The environment cached on ``g``, built on first use."""
    if g._face_env is None:
        g._face_env = _FaceEnv(g)
    return g._face_env


def locate_subwalk(g: Pslg, walk_ids):
    """The face label (in ``face_env(g).faces``) of the unique occurrence of
    the directed subwalk, or raise WalkNotInFace."""
    if len(walk_ids) < 2:
        raise WalkNotInFace("walk needs at least one edge")
    key = (walk_ids[0], walk_ids[1])
    faces = face_env(g).faces
    if key not in faces.face:
        raise WalkNotInFace(f"directed edge {key} not on any facial walk")
    seq = faces.walk(key, len(walk_ids) - 1)
    if len(seq) < len(walk_ids):
        raise WalkNotInFace("walk longer than its facial walk")
    for k, v in enumerate(walk_ids):
        if seq[k] != v:
            raise WalkNotInFace(f"walk diverges from facial walk at step {k}")
    return faces.face[key]


def _funnel(T, portals, s, t):
    """Pull the string taut through a portal sequence: exact arithmetic,
    restart variant.  Points are vertex ids of the triangulation T."""
    o = T.orient
    path = [s]
    apex, ai = s, -1
    left, li = s, -1
    right, ri = s, -1
    seq = list(portals) + [(t, t)]
    i = 0
    guard = (len(seq) + 2) * (len(seq) + 2)
    steps = 0
    while i < len(seq):
        steps += 1
        if steps > guard:
            raise LemmaViolation("funnel did not converge")
        nl, nr = seq[i]
        restart = False
        if nr != right:
            if nr == apex or right == apex or o(apex, right, nr) >= 0:
                if nr == apex or left == apex or o(apex, left, nr) < 0:
                    right, ri = nr, i
                else:
                    path.append(left)
                    apex, ai = left, li
                    left = right = apex
                    li = ri = ai
                    i = ai + 1
                    restart = True
        if restart:
            continue
        if nl != left:
            if nl == apex or left == apex or o(apex, left, nl) <= 0:
                if nl == apex or right == apex or o(apex, right, nl) > 0:
                    left, li = nl, i
                else:
                    path.append(right)
                    apex, ai = right, ri
                    left = right = apex
                    li = ri = ai
                    i = ai + 1
                    restart = True
        if restart:
            continue
        i += 1
    path.append(t)
    out = [path[0]]
    for v in path[1:]:
        if v != out[-1]:
            out.append(v)
    return out


def geodesic(g: Pslg, walk_ids) -> GeodesicPath:
    """Shortest path homotopic to the given facial subwalk inside its face.

    ``walk_ids`` must trace a contiguous subwalk (>= 2 edges) of one facial
    walk, in walk direction.
    """
    walk_ids = list(walk_ids)
    if len(walk_ids) < 3:
        raise WalkNotInFace("geodesic needs a walk of at least 2 edges")
    if walk_ids[0] == walk_ids[-1]:
        raise WalkNotInFace("geodesic of a closed walk is degenerate")
    for a, b in zip(walk_ids, walk_ids[1:]):
        if a == b:
            raise WalkNotInFace("repeated consecutive vertex in walk")
    locate_subwalk(g, walk_ids)
    env = face_env(g)

    portals = []
    for k in range(1, len(walk_ids) - 1):
        for p in env.fan_portals(walk_ids[k - 1], walk_ids[k], walk_ids[k + 1]):
            # reduce the crossing word: re-crossing the last portal is a
            # contractible excursion into a single (obstacle-free) triangle
            if portals and {*portals[-1]} == {*p}:
                portals.pop()
            else:
                portals.append(p)
    path = _funnel(env.T, portals, walk_ids[0], walk_ids[-1])
    if any(v in env.box for v in path):
        raise LemmaViolation("geodesic bent at a clip-box corner")
    return _geodesic_path(g, path)


def corner_geodesic(g: Pslg, a, y, b) -> GeodesicPath:
    """``geodesic(g, [a, y, b])`` for a convex corner, in closed form: the
    chain of conv({a, b} + S) on y's side, where S is the set of vertices
    strictly inside triangle ayb.  It is the taut string that the funnel
    pulls through the triangulated face (Hershberger & Snoeyink 1994), found
    by one pass over the points: a bounding-box filter, then three exact
    orientations.

    ``b`` must follow ``a`` in the rotation at ``y``, else WalkNotInFace: the
    walk a, y, b is then a facial subwalk, and its face fills the corner's
    sector from ray y->a counterclockwise to ray y->b.  The corner must be
    convex, else LemmaViolation.  Then the chain is the geodesic:

    - no edge enters the triangle except from a vertex in S or across ab.
      No edge at y lies between its consecutive edges ya and yb, and no edge
      crosses them.  An edge at a or b that enters the triangle cannot leave
      it (not across ya, yb or ab, and in general position not through a
      vertex), so it ends in S;
    - so conv({a, b} + S) contains every part of the graph inside the
      triangle: each such part is a vertex of S, a segment between two of
      S + {a, b}, or a segment from S to a point of ab;
    - so the region between the chain and a-y-b holds no vertex and meets
      no edge; it borders y's corner, so it lies in y's face, and the chain,
      which is convex towards y and bends only at vertices of S, is the
      shortest path homotopic to a-y-b there;
    - every chain vertex is reflex: y's face covers the hull's outside
      there, an angle above pi between two consecutive edges (or the whole
      turn at a leaf).
    """
    rot = g.rotation.get(y, ())
    if a not in rot or rot[(rot.index(a) + 1) % len(rot)] != b:
        raise WalkNotInFace(f"({a}, {y}, {b}) is not a corner of a facial walk")
    ix, iy = g._ix, g._iy
    ax, ay, yx, yy, bx, by = ix[a], iy[a], ix[y], iy[y], ix[b], iy[b]
    if orient_xy(yx, yy, ax, ay, bx, by) <= 0:
        raise LemmaViolation(f"corner ({a}, {y}, {b}) is not convex")
    xlo, xhi = min(ax, yx, bx), max(ax, yx, bx)
    ylo, yhi = min(ay, yy, by), max(ay, yy, by)
    inside = [
        v for v, x in ix.items()
        if xlo < x < xhi and ylo < iy[v] < yhi
        and orient_xy(yx, yy, ax, ay, x, iy[v]) > 0
        and orient_xy(ax, ay, bx, by, x, iy[v]) > 0
        and orient_xy(bx, by, yx, yy, x, iy[v]) > 0
    ]
    ids = [a, b]
    if inside:
        at = {(ix[v], iy[v]): v for v in inside + ids}
        hull = [at[xy] for xy in convex_hull(list(at))]
        k = hull.index(b)
        ids = (hull[k:] + hull[:k])[::-1]  # counterclockwise: a, b, then S
    return _geodesic_path(g, ids)


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
