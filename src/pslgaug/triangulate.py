"""Point-set triangulation with constraint insertion and Lawson flips.

Works on exact integer (or rational) coordinates keyed by vertex id: a
triangulation's points are a mapping from id to (x, y), and every triangle,
side and constraint key is in those ids.  It backs the morph's Delaunay
triangulation (``delaunay``): the scan triangulation of the points with
phase 1's tree constrained, then unconstrained Lawson flips, which phase 2
replays and whose edges hold the Euclidean MST.  The directed-side map is the one
triangle store, and each vertex keeps one dart into its fan.
"""

from __future__ import annotations

from collections import deque

from .geom import DegenerateInput, ekey, incircle_xy, orient_xy
from .pslg import LemmaViolation


class Triangulation:
    """Triangle soup over id-keyed points, kept as its directed sides.

    Triangles are stored by ``add_ccw``, as CCW tuples canonically rotated
    to start at the smallest id; every caller has oriented its triangles by
    its own test.  ``side`` maps each directed side (i, j) to the one CCW
    triangle that has it, so the triangle across side (i, j) is
    ``side.get((j, i))``, which only sides on the hull lack.  It is the one
    triangle store: each triangle owns exactly three sides, so there are
    ``len(side) // 3`` triangles.

    ``dart[v]`` names a side (v, dart[v]) of the newest triangle at v, an
    entry to v's fan.  ``remove_tri`` leaves it: every removal is followed,
    in the same edit, by adds over the removed corners (a flip's quad, a
    constraint's channel), so after each flip and constraint it is live.
    """

    def __init__(self, pts):
        self.pts = {**pts}  # vertex id -> (x, y) exact; a sequence is refused
        self.side = {}  # directed side (i, j) -> CCW triangle with that side
        self.dart = {}  # i -> j, (i, j) a side of the newest triangle at i
        self.constrained = set()

    # -- predicates on vertex ids ----------------------------------------

    def orient(self, a, b, c):
        pa, pb, pc = self.pts[a], self.pts[b], self.pts[c]
        return orient_xy(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1])

    # -- structure edits ------------------------------------------------

    def add_ccw(self, a, b, c):
        """Store the triangle a, b, c, whose corners the caller has proved
        counterclockwise, rotated to start at its smallest id; returns the
        stored tuple.  It is not oriented again."""
        if b < a and b < c:
            a, b, c = b, c, a
        elif c < a and c < b:
            a, b, c = c, a, b
        t = (a, b, c)
        side = self.side
        for e in ((a, b), (b, c), (c, a)):
            if e in side:  # another triangle lies on this side of the edge
                raise LemmaViolation(f"edge {ekey(*e)} borders 3 triangles")
        side[a, b] = side[b, c] = side[c, a] = t
        self.dart[a], self.dart[b], self.dart[c] = b, c, a
        return t

    def remove_tri(self, t):
        a, b, c = t
        del self.side[a, b], self.side[b, c], self.side[c, a]

    def edges(self):
        return {ekey(i, j) for i, j in self.side}

    def has_edge(self, i, j):
        return (i, j) in self.side or (j, i) in self.side

    def apex(self, t, i, j):
        for v in t:
            if v != i and v != j:
                return v
        raise KeyError((t, i, j))


def triangulate_points(pts) -> Triangulation:
    """Scan triangulation of a point set given as a mapping from vertex id
    to (x, y), in the general position that ``build`` certifies: no two
    points equal and no three collinear.

    Points are added in lexicographic order.  The point added last is then
    the largest so far, so it is a hull vertex, and the next point, larger
    still, sees a hull edge at it.  The scan keeps the hull as its lower and
    upper chains, both ending at that point, walks each back while its last
    edge is visible and joins the new point to the arc walked: it pays for
    the triangles it makes plus two tests a point, O(n log n) with the sort.
    An edge the walk tests raises DegenerateInput when the new point is on
    its line; a hull edge beyond the visible arc is not tested.  Exact.
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
    if s > 0:
        T.add_ccw(a, b, c)
        lower, upper = [a, b, c], [a, c]
    else:
        T.add_ccw(a, c, b)
        lower, upper = [a, c], [a, b, c]
    for q in order[3:]:
        qx, qy = pts[q]
        # the hull edges visible from q, walked from the last point: the
        # upper chain's CCW edges run right to left, the lower chain's left
        # to right.  The leftmost point is never inside the visible arc, but
        # it can end it
        runs = []
        for chain, ccw in ((upper, False), (lower, True)):
            run = []
            while len(chain) > 1:
                u, v = (chain[-2], chain[-1]) if ccw else (chain[-1], chain[-2])
                (ux, uy), (vx, vy) = pts[u], pts[v]
                s = orient_xy(ux, uy, vx, vy, qx, qy)
                if s > 0:
                    break
                if s == 0:
                    raise DegenerateInput(f"point {q} collinear with hull edge ({u},{v})")
                run.append((u, v))
                chain.pop()
            chain.append(q)
            runs.append(run)
        # the visible arc in CCW order: the lower run up to the last point,
        # then the upper run away from it; q is right of each u->v
        for u, v in runs[1][::-1] + runs[0]:
            T.add_ccw(u, q, v)
    return T


def insert_constraint(T: Triangulation, u, w):
    """Force edge (u, w) into the triangulation by channel retriangulation.

    The open segment must not pass through any point and must not cross a
    constrained edge.
    """
    k = ekey(u, w)
    if T.has_edge(u, w):
        T.constrained.add(k)
        return
    # walk u's fan from its dart to the triangle (u, p, q) whose convex open
    # wedge, ray u->p to u->q, holds w; a hull vertex's fan ends both ways
    ux, uy = T.pts[u]
    wx, wy = T.pts[w]
    p = T.dart.get(u)
    t = T.side.get((u, p))
    while t is not None:
        q = T.apex(t, u, p)
        if (s := T.orient(u, p, w)) < 0:  # the wedge before lies on side (p, u)
            t = T.side.get((p, u))
            p = t and T.apex(t, p, u)
        elif (r := T.orient(u, w, q)) < 0:  # the wedge after lies on side (u, q)
            t, p = T.side.get((u, q)), q
        else:
            break
    # w on ray u->p or u->q lies in no open wedge
    if t is None or s == 0 or r == 0:
        raise LemmaViolation(f"no wedge at {u} contains direction to {w}")

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
    # both polygons CCW: the left chain lies left of u->w, the right chain right
    for tri in ear_clip(T, [w] + left_chain[::-1] + [u]):
        T.add_ccw(*tri)
    for tri in ear_clip(T, [u] + right_chain + [w]):
        T.add_ccw(*tri)
    T.constrained.add(k)


def ear_clip(T: Triangulation, poly):
    """Triangulate a simple polygon (list of vertex ids of T's points) by
    ear clipping.

    Exact; assumes the vertices in CCW order, distinct, no three collinear.
    Returns CCW triangles: each, the last one included, passed the ear
    test, which orients it.
    """
    ring = [(v, *T.pts[v]) for v in poly]  # each vertex's coordinates, read once
    if len(ring) < 3:
        raise DegenerateInput("polygon with fewer than 3 vertices")

    o, out = orient_xy, []
    while len(ring) > 2:
        n = len(ring)
        for k in range(n):
            (a, ax, ay), (b, bx, by), (c, cx, cy) = ring[k - 1], ring[k], ring[(k + 1) % n]
            if o(ax, ay, bx, by, cx, cy) <= 0:
                continue
            for v, vx, vy in ring:
                if v in (a, b, c):
                    continue
                if (
                    o(ax, ay, bx, by, vx, vy) > 0
                    and o(bx, by, cx, cy, vx, vy) > 0
                    and o(cx, cy, ax, ay, vx, vy) > 0
                ):
                    break  # v lies inside: no ear
            else:
                out.append((a, b, c))
                del ring[k]
                break
        else:
            raise LemmaViolation("ear clipping found no ear (polygon not simple?)")
    return out


def lawson_flips(T: Triangulation):
    """Flip non-Delaunay edges until the empty-circumcircle test passes.
    Constraint marks are not read: callers flip unconstrained triangulations.

    Returns the flips in order, each ``(old_edge, apexes)`` in vertex ids;
    the new edge is ekey(*apexes).  Their count is capped at 4V^2 + 64 (a
    blown cap indicates a bug, not bad input).

    The result is Delaunay, so no caller tests it again.  Every side starts
    on the queue, and a flip of (a, b) changes only its two triangles, whose
    sides are the quad's four and the new (c, d): all five are queued again.
    So on return every interior side has passed the in-circle test since
    its two triangles last changed, and the test is symmetric in them (the
    apex of either lies strictly inside the other's circumcircle, or
    neither does).  A triangulation that is locally Delaunay at every side
    is Delaunay, no point strictly inside any triangle's circumcircle
    (Delaunay's lemma), cocircular points included, because the test is
    strict.
    """
    pts, side = T.pts, T.side
    flip_cap = 4 * len(pts) * len(pts) + 64
    queue = deque(sorted(T.edges()))
    queued = set(queue)
    flips = []
    while queue:
        e = queue.popleft()
        queued.discard(e)
        a, b = e
        t1, t2 = side.get(e), side.get((b, a))
        if t1 is None or t2 is None:
            continue
        # t1 is (a, b, c) and t2 is (b, a, d), each rotated: an apex follows
        # the side's head.  c is left of a->b, so (a, b, c) is CCW as
        # incircle_xy wants
        c, d = t1[t1.index(b) - 2], t2[t2.index(a) - 2]
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts[a], pts[b], pts[c], pts[d]
        if incircle_xy(ax, ay, bx, by, cx, cy, dx, dy) <= 0:
            continue
        # quad a-d-b-c must be strictly convex for the flip: a right of c->d
        # and b left of it, which makes (a, d, c) and (b, c, d) CCW
        if orient_xy(cx, cy, dx, dy, ax, ay) >= 0 or orient_xy(cx, cy, dx, dy, bx, by) <= 0:
            raise LemmaViolation(f"illegal edge {e} in non-convex quad")
        T.remove_tri(t1)
        T.remove_tri(t2)
        T.add_ccw(a, d, c)
        T.add_ccw(b, c, d)
        flips.append(((a, b), (c, d)))
        if len(flips) > flip_cap:
            raise LemmaViolation("flip budget exceeded")
        # the quad's four sides and the new (c, d) are edges now
        for k in (ekey(a, c), ekey(c, b), ekey(b, d), ekey(d, a), ekey(c, d)):
            if k not in queued:
                queue.append(k)
                queued.add(k)
    return flips


def delaunay(points, tree=()):
    """The Delaunay triangulation of a built graph's ``points``, on their
    scaled ints ``ix`` and ``iy``, certified by ``lawson_flips``, and the
    Lawson flips ``(old_edge, apexes)`` that reach it, in order, from the
    scan triangulation with the edges of ``tree`` constrained (the marks
    are cleared before the flips)."""
    ix, iy = points.ix, points.iy
    T = triangulate_points({v: (ix[v], iy[v]) for v in ix})
    for (u, v) in sorted(tree):
        insert_constraint(T, u, v)
    T.constrained.clear()
    return T, lawson_flips(T)
