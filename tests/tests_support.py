"""Shared fixture builders and oracles for the test suite."""

import random
from collections import deque
from math import fsum

from pslgaug import DegenerateInput, build, facial_walks
from pslgaug.geom import dist, ekey, incircle_xy, polar_before
from pslgaug.instances import generate
from pslgaug.pslg import LemmaViolation, kruskal, reach
from pslgaug.transform import (
    _Editor,
    phase1_spanning_tree,
    phase2_to_delaunay_tree,
    spanning_subtree,
)
from pslgaug.triangulate import delaunay, triangulate_points


def make_fig3(eps):
    """The four-vertex lower-bound family at a given epsilon (decimal str)."""
    pts = [(1, "0", "0"), (2, "0", eps), (3, "1", "0"), (4, "1", eps)]
    return build(pts, [(1, 2), (2, 3), (3, 4)])


def full_build(g, edges):
    """build on fresh (id, x, y) triples of g's points: every point check,
    and no graph built before to edit or to get back."""
    return build([(p.id, p.x, p.y) for p in g.points], edges)


def scan_graph(n, seed, density):
    """A seeded random connected PSLG on the points of ``generate(n, seed,
    0.0)`` whose edges are a random subgraph of the points' scan
    triangulation, not flipped to Delaunay, repaired to connectivity by
    Kruskal over that triangulation: phase 2 of the morph swaps its edges."""
    g = generate(n, seed, 0.0)
    rng = random.Random(seed)
    edges = sorted(triangulate_points({p.id: g.ipt(p.id) for p in g.points}).edges())
    keep = [e for e in edges if rng.random() < density]
    keep += kruskal(edges, g.points, joined=keep)
    return build([(p.id, p.x, p.y) for p in g.points], sorted(set(keep)))


def all_pairs_mst(g):
    """The canonical Euclidean MST by Kruskal over all point pairs, by exact
    squared length, then key: the oracle of ``transform.euclidean_mst``."""
    ids = sorted(p.id for p in g.points)
    pool = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    return set(kruskal(pool, g.points))


def through_phase2(g):
    """The morph's editor on g after phases 1 and 2, run as ``transform``
    runs them, and phase 2's Delaunay triangulation."""
    tree = spanning_subtree(g)
    T, flips = delaunay(g.points, tree)
    ed = _Editor(g)
    phase1_spanning_tree(ed, tree)
    phase2_to_delaunay_tree(ed, T, flips)
    return ed, T


def polygon_length(g, seq):
    """The fsum of ``dist`` over the cyclic edges of the vertex sequence
    ``seq`` in g: the length of a polygon on g's points."""
    m = len(seq)
    return fsum(dist(g.by_id[seq[i]], g.by_id[seq[(i + 1) % m]]) for i in range(m))


def adjacency(edges):
    """Vertex -> list of neighbours over an iterable of vertex pairs."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def forest_path(adj, u, v):
    """Vertex path from u to v in the forest ``adj`` (vertex -> neighbours),
    or None when v is not reachable from u, by a depth-first search: the
    oracle of the sides and cycles that the morph reads off its faces."""
    prev = reach(adj, u)
    if v not in prev:
        return None
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return path[::-1]


def walk_edges(walk):
    """The edge keys of a facial walk or subwalk, one per edge slot, in
    walk order (an edge met twice is listed twice)."""
    seq = walk.seq
    return [ekey(a, b) for a, b in zip(seq, seq[1:])]


def shoelace(g, walk):
    """Twice the signed area of a closed walk on g's scaled coordinates."""
    ix, iy, seq = g._ix, g._iy, walk.seq
    return sum(ix[a] * iy[b] - ix[b] * iy[a] for a, b in zip(seq, seq[1:]))


def is_outer(g, walk):
    """Whether a facial walk of g is its component's outer walk: bounded
    faces are traversed clockwise, so only the outer walk's shoelace sum is
    non-negative."""
    return shoelace(g, walk) >= 0


def label_partition(faces):
    """The darts of a ``pslg.Faces`` grouped by face label."""
    groups = {}
    for d, label in faces.face.items():
        groups.setdefault(label, set()).add(d)
    return sorted(sorted(darts) for darts in groups.values())


def walk_partition(g):
    """The darts of g grouped by facial walk."""
    return sorted(sorted(zip(w.seq, w.seq[1:])) for w in facial_walks(g))


def polar_sort(center_xy, items, key_xy, into=()):
    """Sort items by CCW polar angle of key_xy(item) around center, starting
    from the +x axis, merged into ``into``, a sequence already in that
    order: binary insertion by ``polar_before``, one item at a time on a
    list.  The reference of ``geom.polar_index``; assumes no two
    directions coincide."""
    cx, cy = center_xy
    out = list(into)
    for item in items:
        x, y = key_xy(item)
        dx, dy = x - cx, y - cy
        lo, hi = 0, len(out)
        while lo < hi:
            mid = (lo + hi) // 2
            x, y = key_xy(out[mid])
            if polar_before(dx, dy, x - cx, y - cy):
                hi = mid
            else:
                lo = mid + 1
        out.insert(lo, item)
    return out


def in_ccw_sector(ux, uy, vx, vy, dx, dy) -> bool:
    """True iff direction d lies strictly inside the sector swept CCW from
    direction u to direction v, on exact scalars: the oracle of the sector
    test that ``optimal.feasibility`` reads off its orientation signs.

    If u and v are the same direction the sector is the full angle (a leaf
    corner); d then only has to avoid the ray u itself.
    """
    cuv = ux * vy - uy * vx
    cud = ux * dy - uy * dx
    cdv = dx * vy - dy * vx
    if cuv == 0:
        duv = ux * vx + uy * vy
        if duv > 0:
            # u and v coincide: full sector minus the ray u
            return not (cud == 0 and ux * dx + uy * dy > 0)
        raise DegenerateInput("opposite boundary rays in sector test")
    if cuv > 0:
        return cud > 0 and cdv > 0
    # reflex sector: complement of the closed sector from v ccw to u
    cvd = -cdv
    cdu = -cud
    return not (cvd >= 0 and cdu >= 0)


def reference_lawson_flips(T):
    """``triangulate.lawson_flips`` as it read before each test read its
    apexes and coordinates locally: apexes by ``T.apex``, the convex-quad
    test on the orientation pair, each new triangle oriented before it is
    stored, and a quad side re-queued only if it is an edge.  The oracle of
    the flip list, in order."""

    def add_oriented(a, b, c):
        T.add_ccw(*((a, b, c) if T.orient(a, b, c) > 0 else (a, c, b)))

    flip_cap = 4 * len(T.pts) * len(T.pts) + 64
    queue = deque(sorted(T.edges()))
    queued = set(queue)
    flips = []
    while queue:
        e = queue.popleft()
        queued.discard(e)
        a, b = e
        t1, t2 = T.side.get((a, b)), T.side.get((b, a))
        if t1 is None or t2 is None:
            continue
        c = T.apex(t1, a, b)
        d = T.apex(t2, a, b)
        if incircle_xy(*T.pts[a], *T.pts[b], *T.pts[c], *T.pts[d]) <= 0:
            continue
        oa, ob = T.orient(c, d, a), T.orient(c, d, b)
        if oa == ob or oa == 0 or ob == 0:
            raise LemmaViolation(f"illegal edge {e} in non-convex quad")
        T.remove_tri(t1)
        T.remove_tri(t2)
        add_oriented(a, c, d)
        add_oriented(b, c, d)
        flips.append(((a, b), (c, d)))
        if len(flips) > flip_cap:
            raise LemmaViolation("flip budget exceeded")
        for k in (ekey(a, c), ekey(c, b), ekey(b, d), ekey(d, a), ekey(c, d)):
            if k not in queued and T.has_edge(*k):
                queue.append(k)
                queued.add(k)
    return flips


def assert_triangulation_current(T, darts=True):
    """Each triangle of ``T.side`` owns exactly its three sides of it and
    the map holds no other, as ``add_ccw`` and ``remove_tri`` keep it; with
    ``darts``, every vertex with a side has a dart naming a live side, as
    every flip and every constraint leaves it."""
    tris = set(T.side.values())
    assert len(T.side) == 3 * len(tris)
    for t in tris:
        assert T.side[t[0], t[1]] == T.side[t[1], t[2]] == T.side[t[2], t[0]] == t
    if darts:
        for v in {i for i, _ in T.side}:
            assert (v, T.dart[v]) in T.side, v


def is_delaunay(T) -> bool:
    """Exact empty-circumcircle check over all adjacent triangle pairs of
    the triangulation T: the oracle of ``triangulate.lawson_flips``."""
    for (a, b), t1 in T.side.items():
        t2 = T.side.get((b, a))
        if t2 is None or a > b:
            continue
        c = T.apex(t1, a, b)
        d = T.apex(t2, a, b)
        p = T.pts
        if incircle_xy(*p[t1[0]], *p[t1[1]], *p[t1[2]], *p[d]) > 0 or \
                incircle_xy(*p[t2[0]], *p[t2[1]], *p[t2[2]], *p[c]) > 0:
            return False
    return True
