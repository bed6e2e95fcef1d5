"""Shared fixture builders and oracles for the test suite."""

import random

from pslgaug import DegenerateInput, build, facial_walks
from pslgaug.instances import generate
from pslgaug.pslg import kruskal, reach
from pslgaug.transform import (
    _Editor,
    delaunay,
    phase1_spanning_tree,
    phase2_to_delaunay_tree,
    spanning_subtree,
)
from pslgaug.triangulate import triangulate_points


def make_fig3(eps):
    """The four-vertex lower-bound family at a given epsilon (decimal str)."""
    pts = [(1, "0", "0"), (2, "0", eps), (3, "1", "0"), (4, "1", eps)]
    return build(pts, [(1, 2), (2, 3), (3, 4)])


def scan_graph(n, seed, density):
    """A seeded random connected PSLG on the points of ``generate(n, seed,
    0.0)`` whose edges are a random subgraph of the points' scan
    triangulation, not flipped to Delaunay, repaired to connectivity by
    Kruskal over that triangulation: phase 2 of the morph swaps its edges."""
    g = generate(n, seed, 0.0)
    rng = random.Random(seed)
    edges = sorted(triangulate_points({p.id: g.ipt(p.id) for p in g.points}).edges())
    keep = [e for e in edges if rng.random() < density]
    keep += kruskal(edges, lambda e: _sq(g, e), joined=keep)
    return build([(p.id, p.x, p.y) for p in g.points], sorted(set(keep)))


def _sq(g, e):
    (ax, ay), (bx, by) = g.ipt(e[0]), g.ipt(e[1])
    return (ax - bx) ** 2 + (ay - by) ** 2


def all_pairs_mst(g):
    """The canonical Euclidean MST by Kruskal over all point pairs, by exact
    squared length, then key: the oracle of ``transform.euclidean_mst``."""
    ids = sorted(p.id for p in g.points)
    pool = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    return set(kruskal(pool, lambda e: _sq(g, e)))


def through_phase2(g):
    """The morph's editor on g after phases 1 and 2, run as ``transform``
    runs them, and phase 2's Delaunay triangulation."""
    tree = spanning_subtree(g)
    T, flips = delaunay(g, tree)
    ed = _Editor(g)
    phase1_spanning_tree(ed, tree)
    return ed, phase2_to_delaunay_tree(ed, T, flips)


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


def label_partition(faces):
    """The darts of a ``pslg.Faces`` grouped by face label."""
    groups = {}
    for d, label in faces.face.items():
        groups.setdefault(label, set()).add(d)
    return sorted(sorted(darts) for darts in groups.values())


def walk_partition(g):
    """The darts of g grouped by facial walk."""
    return sorted(sorted(zip(w.seq, w.seq[1:])) for w in facial_walks(g))


def in_ccw_sector(ux, uy, vx, vy, dx, dy) -> bool:
    """True iff direction d lies strictly inside the sector swept CCW from
    direction u to direction v, on exact scalars: the oracle of the batch
    sector test in ``optimal._in_sector_batch``.

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


def is_delaunay(T) -> bool:
    """Exact empty-circumcircle check over all adjacent triangle pairs of
    the triangulation T: the oracle of ``triangulate.lawson_flips``."""
    for (a, b), t1 in T.side.items():
        t2 = T.side.get((b, a))
        if t2 is None or a > b:
            continue
        c = T.apex(t1, a, b)
        d = T.apex(t2, a, b)
        if T.in_circle(*t1, d) > 0 or T.in_circle(*t2, c) > 0:
            return False
    return True
