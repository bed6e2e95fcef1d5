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
Every environment starts from a triangulation of the graph's points alone.
A graph queried on its own gets one built for it and reads the faces cached
on it (``Pslg.faces``).  The cycle morph instead keeps phase 2's Delaunay
triangulation alive across its certified edits: an inserted edge is forced
in as a constraint, a deleted edge only loses its constraint mark (the
triangulation stays valid), and each query compares the marks with the
graph's edges.  The faces come from the morph's certified editor, which
keeps them per edit.  The directed-side map and hull-side count are kept
per triangle edit, so the triangle right of each directed edge is a lookup
and the triangle count check is O(1).  The face of every triangle is still
flooded for each queried graph, and checked.

The clip box turns the unbounded face into a bounded region; geodesics never
bend at box corners (they are convex corners of the region), which is
asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import collinear_pair, walk_length
from .pslg import (
    Faces,
    LemmaViolation,
    Pslg,
    PslgError,
    _corner_convex,
    require_augmentable,
)
from .triangulate import Triangulation, add_outside_points, insert_constraint, triangulate_points


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
    constrained, and the faces of the graph read from it.

    Without ``live`` the triangulation is built for ``g`` on one path: from
    ``tri``, an unconstrained triangulation of ``g``'s points alone, which
    the environment then owns (the morph passes phase 2's), or else from
    ``triangulate_points`` over those points; ``add_outside_points`` joins
    the box corners and every edge of ``g`` is constrained.  With ``live``,
    the environment of an earlier graph on the same points, ``g`` takes
    over its triangulation, which the caller has since edited to constrain
    exactly the edges of ``g``; ``live`` is then stale.

    ``faces`` are the faces of ``g`` (a ``pslg.Faces``), by default the
    ones cached on ``g`` (``Pslg.faces``).  The morph's certified editor
    passes its own, which it keeps per edit; the environment reads them as
    they stand, so it goes stale with the editor's next edit, as the live
    triangulation does.

    Either way the triangle right of dart (u, v) is ``T.side`` at (v, u),
    read when a query asks for it; the face of every triangle is flooded
    from those triangles for ``g``, and the flood fill and then
    ``T.validate()`` check the triangulation against ``g``, after a live
    environment has compared ``T.constrained`` with ``g.edges``.
    """

    def __init__(self, g: Pslg, live: _FaceEnv | None = None, faces: Faces | None = None,
                 tri: Triangulation | None = None):
        require_augmentable(g)
        self.g = g
        if live is None:
            pts = {p.id: g.ipt(p.id) for p in g.points}
            if tri is None:
                tri = triangulate_points(pts)
            elif tri.pts != pts or tri.constrained:
                raise LemmaViolation("seed triangulation is not on the graph's points alone")
            self.T, self.box = tri, _make_box(pts)
            add_outside_points(tri, self.box)
            for (u, v) in sorted(g.edges):
                insert_constraint(tri, u, v)
        else:
            self.box, self.T = live.box, live.T
            if self.T.constrained != g.edges:
                raise LemmaViolation("live triangulation constrains other edges than the graph")
        self.faces = faces if faces is not None else g.faces()
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
    """The environment cached on ``g``, built on first use.  The morph's
    editor caches on the graph it queries an environment read from its live
    triangulation, and clears that cache at its next edit, so a graph is
    never served a triangulation that has moved on from it."""
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
    points = [g.by_id[v] for v in path]

    # interior vertices must be reflex vertices of the graph
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
