"""The funnel through a triangulated face: the equality oracle of
``geodesic.convex_geodesic``, for any facial subwalk, convex or not.

The plane is triangulated over all vertices plus four far-away box corners,
with every graph edge as a constraint.  Each triangle is assigned to the
face it lies in.  A query walk is pushed slightly into its face; the portals
it crosses are exactly the triangle fans around its interior corners, and
pulling the string taut through those portals (funnel algorithm) yields the
geodesic.  Which triangulation it is does not matter: the reduced portal
sequence of a homotopy class, and so the geodesic, is the same in any.
Before that, the walk is looked up on the graph's faces
(``locate_subwalk``), independently of the library's corner checks.

The triangulation names each vertex by the graph's own id and the box
corners by the four ids just above the largest.  Each queried graph gets one
environment (``funnel_env``), built on first use from a triangulation of its
points alone and kept while the graph lives; it reads the faces cached on
the graph (``Pslg.faces``), floods the face of every triangle and checks the
triangulation against the graph.

The clip box turns the unbounded face into a bounded region; geodesics never
bend at box corners (they are convex corners of the region), which is
asserted.
"""

import weakref

from pslgaug.geodesic import GeodesicPath, WalkNotInFace
from pslgaug.geom import DegenerateInput, collinear_pair, convex_hull, walk_length
from pslgaug.pslg import LemmaViolation, require_augmentable
from pslgaug.triangulate import Triangulation, insert_constraint, triangulate_points


def join_outside(T, hull, q):
    """The scan's step on the whole hull: join point q of T, outside the
    convex polygon ``hull`` (the CCW cycle of T's hull vertices), to every
    hull edge it sees.  Returns the new hull cycle, starting at q.  A point
    inside the hull raises LemmaViolation; one on the line of any hull edge,
    DegenerateInput.  ``triangulate_points`` walks only the visible arc; this
    tests every edge, for points that are not the scan's next one, and is
    the reference of that walk (``full_hull_scan``)."""
    h = len(hull)
    vis = []
    for i in range(h):
        u, v = hull[i], hull[(i + 1) % h]
        s = T.orient(u, v, q)
        if s == 0:
            raise DegenerateInput(f"point {q} collinear with hull edge ({u},{v})")
        vis.append(s < 0)
    if not any(vis):
        raise LemmaViolation(f"point {q} inside current hull during scan")
    # visible edges form one contiguous cyclic arc
    start = next(i for i in range(h) if vis[i] and not vis[i - 1])
    arc = []
    i = start
    while vis[i % h]:
        arc.append(i % h)
        i += 1
    for i in arc:
        u, v = hull[i], hull[(i + 1) % h]
        T.add_ccw(u, q, v)  # q is right of u->v
    keep_from = (arc[-1] + 1) % h
    keep_to = start  # hull[start] stays (first endpoint of first visible edge)
    newhull = [q]
    i = keep_from
    while True:
        newhull.append(hull[i])
        if i == keep_to:
            break
        i = (i + 1) % h
    return newhull


def full_hull_scan(pts):
    """The scan triangulation as it was built before the scan walked only
    the visible arc: each point, in lexicographic order, joined to every
    hull edge it sees by ``join_outside``."""
    T = Triangulation(pts)
    order = sorted(T.pts, key=T.pts.__getitem__)
    a, b, c = order[0], order[1], order[2]
    s = T.orient(a, b, c)
    if s == 0:
        raise DegenerateInput(f"collinear points {a},{b},{c}")
    if s < 0:
        b, c = c, b
    T.add_ccw(a, b, c)
    hull = [a, b, c]  # CCW
    for q in order[3:]:
        hull = join_outside(T, hull, q)
    return T


def add_outside_points(T, pts):
    """Add ``pts``, a mapping from new vertex id to (x, y), to T's points
    and join each, in order, by the scan's step; each must lie outside the
    hull of T so far, as the clip-box corners do.  The hull cycle is read
    off ``T.side`` once."""
    side = T.side
    nxt = {i: j for i, j in side if (j, i) not in side}
    hull = [min(nxt)]
    for _ in range(len(nxt) - 1):
        hull.append(nxt[hull[-1]])
    for q, p in pts.items():
        T.pts[q] = p
        hull = join_outside(T, hull, q)


def validate(T):
    """Structural sanity of a triangulation of its points' convex hull
    (``add_ccw`` already refuses a third triangle on an edge): the triangle
    count is 2V - h - 2 for the V points, h of them on the hull.  A removed
    triangle breaks the count, and so does one dropped from ``side`` behind
    its back."""
    h, tris = len(convex_hull(list(T.pts.values()))), len(T.side) // 3
    if tris != 2 * len(T.pts) - h - 2:
        raise LemmaViolation(
            f"{tris} triangles, not 2V - h - 2 for V={len(T.pts)}, h={h}"
        )


class FunnelEnv:
    """The funnel's environment of one graph: a triangulation of its
    vertices and the clip-box corners (``box``, keyed by the four ids just
    above the largest vertex id) with exactly the graph's edges
    constrained.

    The triangle right of dart (u, v) is ``T.side`` at (v, u); the face of
    every triangle (by the labels of the ``pslg.Faces`` cached on ``g``) is
    flooded from those triangles, and the flood fill and then ``validate``
    check the triangulation against ``g``.
    """

    def __init__(self, g):
        require_augmentable(g)
        pts = {p.id: g.ipt(p.id) for p in g.points}
        self.T, self.box = triangulate_points(pts), make_box(pts)
        add_outside_points(self.T, self.box)
        for (u, v) in sorted(g.edges):
            insert_constraint(self.T, u, v)
        faces = g.faces()
        # the triangle right of graph dart (u, v) is the CCW triangle on side
        # (v, u), the one across side (a, b) of a triangle is on (b, a), and
        # only clip-box sides have none.  Seed each triangle's face from the
        # darts, then flood across unconstrained sides; every triangle and
        # every dart's side must get a face
        side, box, constrained = self.T.side, self.box, self.T.constrained
        face_of, unseeded = {}, False
        for (u, v), face in faces.face.items():
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
        validate(self.T)

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


def make_box(pts):
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


_ENVS = weakref.WeakKeyDictionary()


def funnel_env(g):
    """The environment of ``g``, built on first use and kept while g lives
    (it holds no reference to g)."""
    env = _ENVS.get(g)
    if env is None:
        env = _ENVS[g] = FunnelEnv(g)
    return env


def funnel(T, portals, s, t):
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


def locate_subwalk(g, walk_ids):
    """The face label (in ``g.faces()``) of the unique occurrence of the
    directed subwalk, or raise WalkNotInFace: the lookup on the faces that
    ``geodesic.geodesic`` leaves to its corner checks."""
    if len(walk_ids) < 2:
        raise WalkNotInFace("walk needs at least one edge")
    key = (walk_ids[0], walk_ids[1])
    faces = g.faces()
    if key not in faces.face:
        raise WalkNotInFace(f"directed edge {key} not on any facial walk")
    walk = faces.walks[faces.face[key]]
    at = walk.index(key)
    seq = [x for x, _ in walk[at:] + walk[:at]] + [key[0]]
    if len(seq) < len(walk_ids):
        raise WalkNotInFace("walk longer than its facial walk")
    for k, v in enumerate(walk_ids):
        if seq[k] != v:
            raise WalkNotInFace(f"walk diverges from facial walk at step {k}")
    return faces.face[key]


def funnel_geodesic(g, walk_ids) -> GeodesicPath:
    """Shortest path homotopic to the given facial subwalk (>= 2 edges, any
    corners) inside its face, through the funnel."""
    walk_ids = list(walk_ids)
    locate_subwalk(g, walk_ids)
    env = funnel_env(g)
    portals = []
    for k in range(1, len(walk_ids) - 1):
        for p in env.fan_portals(walk_ids[k - 1], walk_ids[k], walk_ids[k + 1]):
            # reduce the crossing word: re-crossing the last portal is a
            # contractible excursion into a single (obstacle-free) triangle
            if portals and {*portals[-1]} == {*p}:
                portals.pop()
            else:
                portals.append(p)
    path = funnel(env.T, portals, walk_ids[0], walk_ids[-1])
    if any(v in env.box for v in path):
        raise LemmaViolation("geodesic bent at a clip-box corner")
    points = [g.by_id[v] for v in path]
    return GeodesicPath(seq=points, length=walk_length(points))
