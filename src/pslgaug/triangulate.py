"""Point-set triangulation with constraint insertion and Lawson flips.

Works on exact integer (or rational) coordinates keyed by vertex id: a
triangulation's points are a mapping from id to (x, y), and every triangle,
side and constraint key is in those ids.  The same machinery backs the
geodesic face environment (constrained, no Delaunay requirement) and the
dynamic-transform phase 2 (unconstrained Lawson flips to the Delaunay
triangulation).  Every environment starts from a triangulation of the
graph's points alone, which ``add_outside_points`` (the scan's step) extends
to the clip-box corners; the cycle morph's is phase 2's, kept alive across
its edits.  Every triangle edit keeps the directed-side map and the
hull-side count, so ``validate`` reads a counter.
"""

from __future__ import annotations

from collections import deque

from .geom import DegenerateInput, ekey, incircle_xy, orient_xy
from .pslg import LemmaViolation


class Triangulation:
    """Triangle soup over id-keyed points with side and vertex adjacency.

    Triangles are stored as CCW tuples canonically rotated to start at the
    smallest id.  ``side`` maps each directed side (i, j) to the one CCW
    triangle that has it, so the triangle across side (i, j) is
    ``side.get((j, i))``, which only sides on the hull lack.  It is the one
    triangle store: each triangle owns exactly three sides, so there are
    ``len(side) // 3`` triangles.
    """

    def __init__(self, pts):
        self.pts = {**pts}  # vertex id -> (x, y) exact; a sequence is refused
        self.side = {}  # directed side (i, j) -> CCW triangle with that side
        self.vertex_tris = {}  # i -> list of triangles with corner i
        self.constrained = set()
        self.hull_sides = 0  # directed sides with no triangle across

    # -- predicates on vertex ids ----------------------------------------

    def orient(self, a, b, c):
        pa, pb, pc = self.pts[a], self.pts[b], self.pts[c]
        return orient_xy(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1])

    def in_circle(self, a, b, c, d):
        """+1 iff d strictly inside the circumcircle of CCW triangle abc."""
        return incircle_xy(*self.pts[a], *self.pts[b], *self.pts[c], *self.pts[d])

    # -- structure edits ------------------------------------------------

    def add_tri(self, a, b, c):
        """Add the triangle on corners a, b, c, stored CCW from its smallest
        id; returns the stored tuple."""
        s = self.orient(a, b, c)
        if s < 0:
            b, c = c, b
        if b < a and b < c:
            a, b, c = b, c, a
        elif c < a and c < b:
            a, b, c = c, a, b
        t = (a, b, c)
        if s == 0:
            raise DegenerateInput(f"degenerate triangle {t}")
        side = self.side
        sides = ((a, b), (b, c), (c, a))
        for e in sides:
            if e in side:  # another triangle lies on this side of the edge
                raise LemmaViolation(f"edge {ekey(*e)} borders 3 triangles")
        # each new side either closes a hull side (its reverse) or is one
        self.hull_sides += 3 - 2 * (((b, a) in side) + ((c, b) in side) + ((a, c) in side))
        for e in sides:
            side[e] = t
        for v in t:
            self.vertex_tris.setdefault(v, []).append(t)
        return t

    def remove_tri(self, t):
        a, b, c = t
        side = self.side
        for e in ((a, b), (b, c), (c, a)):
            del side[e]
        # each side's reverse becomes a hull side, or the side was one
        self.hull_sides += 2 * (((b, a) in side) + ((c, b) in side) + ((a, c) in side)) - 3
        for v in t:
            ts = self.vertex_tris[v]
            ts.remove(t)
            if not ts:
                del self.vertex_tris[v]

    def edges(self):
        return {ekey(i, j) for i, j in self.side}

    def has_edge(self, i, j):
        return (i, j) in self.side or (j, i) in self.side

    def apex(self, t, i, j):
        for v in t:
            if v != i and v != j:
                return v
        raise KeyError((t, i, j))

    def validate(self):
        """Structural sanity (``add_tri`` already refuses a third triangle on
        an edge): the triangle count is 2V - h - 2 for the V points and the h
        sides with no triangle across, as in a triangulation of the points'
        convex hull.  h is ``hull_sides``, kept by ``add_tri`` and
        ``remove_tri``, so the check is O(1).  A removed triangle with no
        hull side breaks the count, and so does one dropped from ``side``
        behind its back (h does not move)."""
        h, tris = self.hull_sides, len(self.side) // 3
        if tris != 2 * len(self.pts) - h - 2:
            raise LemmaViolation(
                f"{tris} triangles, not 2V - h - 2 for V={len(self.pts)}, h={h}"
            )


def triangulate_points(pts) -> Triangulation:
    """Scan triangulation of a point set in general position, given as a
    mapping from vertex id to (x, y).

    Points are added in lexicographic order; each new point is joined to all
    hull edges it sees (``join_outside``).  O(n^2), exact.
    """
    T = Triangulation(pts)
    pts = T.pts
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 points")
    order = sorted(pts, key=pts.__getitem__)
    a, b, c = order[0], order[1], order[2]
    s = T.orient(a, b, c)
    if s == 0:
        raise DegenerateInput(f"collinear points {a},{b},{c}")
    if s < 0:
        b, c = c, b
    T.add_tri(a, b, c)
    hull = [a, b, c]  # CCW
    for q in order[3:]:
        hull = join_outside(T, hull, q)
    return T


def join_outside(T: Triangulation, hull, q):
    """One step of the scan: join point q of T, outside the convex polygon
    ``hull`` (the CCW cycle of T's hull vertices), to every hull edge it
    sees.  Returns the new hull cycle.  A point inside the hull raises
    LemmaViolation; one on the line of a hull edge, DegenerateInput."""
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
        T.add_tri(u, q, v)
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


def add_outside_points(T: Triangulation, pts):
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


def insert_constraint(T: Triangulation, u, w):
    """Force edge (u, w) into the triangulation by channel retriangulation.

    The open segment must not pass through any point and must not cross a
    constrained edge.
    """
    k = ekey(u, w)
    if T.has_edge(u, w):
        T.constrained.add(k)
        return
    # find the triangle at u whose wedge contains the direction to w
    ux, uy = T.pts[u]
    wx, wy = T.pts[w]
    start = None
    for t in sorted(T.vertex_tris.get(u, ())):
        a, b, c = t
        # order so the triangle reads (u, p, q) CCW: wedge from ray u->p to u->q
        if a == u:
            p, q = b, c
        elif b == u:
            p, q = c, a
        else:
            p, q = a, b
        # the wedge of a CCW triangle is convex
        if T.orient(u, p, w) > 0 and T.orient(u, w, q) > 0:
            start = (t, p, q)
            break
    if start is None:
        raise LemmaViolation(f"no wedge at {u} contains direction to {w}")

    t, p, q = start
    # the wedge test puts q strictly left of the line u->w and p strictly
    # right; the crossed edge is kept as (left, right), so the triangle
    # ahead of it is the one on its directed side
    left_chain, right_chain = [q], [p]
    channel = [t]
    cross_edge = (q, p)

    def side(v):
        vx, vy = T.pts[v]
        s = orient_xy(ux, uy, wx, wy, vx, vy)
        if s == 0:
            raise LemmaViolation(f"constraint ({u},{w}) passes through point {v}")
        return s

    while True:
        i, j = cross_edge
        if ekey(i, j) in T.constrained:
            raise LemmaViolation(f"constraint ({u},{w}) crosses constrained edge ({i},{j})")
        nxt = T.side.get(cross_edge)
        if nxt is None:
            raise LemmaViolation(f"constraint ({u},{w}) exits the triangulation")
        channel.append(nxt)
        z = T.apex(nxt, i, j)
        if z == w:
            break
        if side(z) > 0:
            left_chain.append(z)
            cross_edge = (z, cross_edge[1])
        else:
            right_chain.append(z)
            cross_edge = (cross_edge[0], z)

    for t in channel:
        T.remove_tri(t)
    # left polygon: u -> left chain -> w, closed by segment w->u
    for tri in ear_clip(T, [u] + left_chain + [w]):
        T.add_tri(*tri)
    for tri in ear_clip(T, [u] + right_chain + [w]):
        T.add_tri(*tri)
    T.constrained.add(k)


def ear_clip(T: Triangulation, poly):
    """Triangulate a simple polygon (list of vertex ids of T's points) by
    ear clipping.

    Exact; assumes distinct vertices and no three collinear.  Returns CCW
    triangles.
    """
    o, pts = T.orient, T.pts
    idx = list(poly)
    if len(idx) < 3:
        raise DegenerateInput("polygon with fewer than 3 vertices")
    area2 = 0
    for i in range(len(idx)):
        a, b = pts[idx[i]], pts[idx[(i + 1) % len(idx)]]
        area2 += a[0] * b[1] - b[0] * a[1]
    if area2 < 0:
        idx.reverse()

    out = []
    while len(idx) > 3:
        n = len(idx)
        for k in range(n):
            a, b, c = idx[k - 1], idx[k], idx[(k + 1) % n]
            if o(a, b, c) <= 0:
                continue
            ok = True
            for v in idx:
                if v in (a, b, c):
                    continue
                if o(a, b, v) > 0 and o(b, c, v) > 0 and o(c, a, v) > 0:
                    ok = False
                    break
            if ok:
                out.append((a, b, c))
                del idx[k]
                break
        else:
            raise LemmaViolation("ear clipping found no ear (polygon not simple?)")
    out.append(tuple(idx))
    return out


def lawson_flips(T: Triangulation, on_flip=None):
    """Flip non-Delaunay edges until the empty-circumcircle test passes.
    Constraint marks are not read: callers flip unconstrained triangulations.

    on_flip(old_edge, new_edge, apexes) is called after each flip with vertex
    ids; the flip count is returned and capped at 4V^2 + 64 (a blown cap
    indicates a bug, not bad input).
    """
    flip_cap = 4 * len(T.pts) * len(T.pts) + 64
    queue = deque(sorted(T.edges()))
    queued = set(queue)
    count = 0
    while queue:
        e = queue.popleft()
        queued.discard(e)
        a, b = e
        t1, t2 = T.side.get((a, b)), T.side.get((b, a))
        if t1 is None or t2 is None:
            continue
        # c is the apex left of a->b, so (a, b, c) is CCW as in_circle wants
        c = T.apex(t1, a, b)
        d = T.apex(t2, a, b)
        if T.in_circle(a, b, c, d) <= 0:
            continue
        # quad a-c-b-d must be strictly convex for the flip
        if not (
            T.orient(c, d, a) != T.orient(c, d, b)
            and T.orient(c, d, a) != 0
            and T.orient(c, d, b) != 0
        ):
            raise LemmaViolation(f"illegal edge {e} in non-convex quad")
        T.remove_tri(t1)
        T.remove_tri(t2)
        T.add_tri(a, c, d)
        T.add_tri(b, c, d)
        count += 1
        if count > flip_cap:
            raise LemmaViolation("flip budget exceeded")
        if on_flip is not None:
            on_flip((a, b), ekey(c, d), (c, d))
        for k in (ekey(a, c), ekey(c, b), ekey(b, d), ekey(d, a), ekey(c, d)):
            if k not in queued and T.has_edge(*k):
                queue.append(k)
                queued.add(k)
    return count


def is_delaunay(T: Triangulation) -> bool:
    """Exact empty-circumcircle check over all adjacent triangle pairs."""
    for (a, b), t1 in T.side.items():
        t2 = T.side.get((b, a))
        if t2 is None or a > b:
            continue
        c = T.apex(t1, a, b)
        d = T.apex(t2, a, b)
        if T.in_circle(*t1, d) > 0 or T.in_circle(*t2, c) > 0:
            return False
    return True
