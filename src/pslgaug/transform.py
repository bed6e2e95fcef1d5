"""Morphing a connected PSLG into a short Hamiltonian cycle by certified
edge insertions and deletions.

Five phases: (1) strip to a minimum spanning subtree of the existing edges;
(2) flip an arbitrary triangulation of the tree to the Delaunay
triangulation, swapping each flipped tree edge for a strictly shorter quad
side; (3) exchange edges to the Euclidean MST; (4) grow a weakly simple
polygon from a hull edge until it spans every vertex; (5) shortcut repeated
vertices until the polygon is simple.  Phases 4-5 query geodesics in one
live triangulation, phase 2's Delaunay triangulation extended to the clip
box, so the points are triangulated once per morph.

Every step keeps the graph a connected PSLG below the length ceiling
||E|| + ||MST(V)||; the final cycle has length at most 2 ||MST(V)||.  All
steps are recorded in a replayable OpLog.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import fsum

from .geom import (
    LENGTH_TOL,
    angle_less,
    convex_hull,
    dist,
    ekey,
)
from .geodesic import _FaceEnv, geodesic
from .pslg import (
    CrossingEdges,
    Faces,
    LemmaViolation,
    Pslg,
    PslgError,
    _corner_convex,
    forest_path,
    kruskal,
    reach,
    require_augmentable,
)
from .triangulate import insert_constraint, is_delaunay, lawson_flips, triangulate_points

PHASE_TREE = 1
PHASE_DELAUNAY = 2
PHASE_MST = 3
PHASE_GROW = 4
PHASE_SIMPLIFY = 5


class ReplayViolation(PslgError):
    def __init__(self, step, invariant, message=""):
        self.step = step
        self.invariant = invariant
        super().__init__(f"step {step}: {invariant} violated{': ' + message if message else ''}")


@dataclass(frozen=True)
class OpStep:
    op: str  # "insert" | "delete"
    u: int
    v: int
    phase: int
    assert_len_le: float | None = field(default=None, compare=False)  # length ceiling


@dataclass
class OpLog:
    steps: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)


@dataclass
class WeaklySimplePolygon:
    """Closed vertex sequence with edge multiset of multiplicity at most 2."""

    seq: list  # cyclic, no duplicated closing vertex; never edited in place
    _edges: Counter = field(default=None, init=False, repr=False, compare=False)

    def vertices(self):
        return set(self.seq)

    def edge_multiset(self):
        """Edge key -> multiplicity, counted once per polygon."""
        if self._edges is None:
            m = len(self.seq)
            self._edges = Counter(ekey(self.seq[i], self.seq[(i + 1) % m]) for i in range(m))
        return self._edges

    def multiplicity(self):
        return Counter(self.seq)

    def length(self, g):
        m = len(self.seq)
        return fsum(
            dist(g.by_id[self.seq[i]], g.by_id[self.seq[(i + 1) % m]])
            for i in range(m)
        )

    def is_simple(self):
        return max(self.multiplicity().values()) == 1

    def validate(self, g):
        """Check that the polygon is a weakly simple closed walk in the
        certified PSLG ``g``: at least three corners, every edge a graph edge
        used at most twice, and no self-crossing at a repeated vertex.  The
        graph's edges are already pairwise non-crossing."""
        m = len(self.seq)
        if m < 3:
            raise LemmaViolation("polygon too short")
        ems = self.edge_multiset()
        if max(ems.values()) > 2:
            raise LemmaViolation("polygon edge multiplicity exceeds 2")
        for e in ems:
            if e not in g.edges:
                raise LemmaViolation(f"polygon edge {e} is not a graph edge")
        self._check_rotations(g)

    def _check_rotations(self, g):
        """Occurrence ray pairs at a repeated vertex must not strictly
        interleave in the circular order (the curve would cross itself).
        Every ray is a graph edge, so the order is the rotation at v."""
        m = len(self.seq)
        at = {}
        for j, v in enumerate(self.seq):
            prev = self.seq[j - 1]
            nxt = self.seq[(j + 1) % m]
            at.setdefault(v, []).append((prev, nxt))
        for v, occs in at.items():
            if len(occs) < 2:
                continue
            pos = {w: i for i, w in enumerate(g.rotation[v])}
            for a in range(len(occs)):
                for b in range(a + 1, len(occs)):
                    quad = {*occs[a], *occs[b]}
                    if len(quad) < 4:
                        continue  # shared ray direction: skip (not strict)
                    a1, a2 = sorted((pos[occs[a][0]], pos[occs[a][1]]))
                    b1, b2 = sorted((pos[occs[b][0]], pos[occs[b][1]]))
                    if (a1 < b1 < a2 < b2) or (b1 < a1 < b2 < a2):
                        raise LemmaViolation(
                            f"polygon occurrences interleave at vertex {v}"
                        )


class _CertifiedEdges:
    """The current graph ``graph``, a PSLG on the fixed points of the start
    graph, changed only by certified single edge edits through
    ``Pslg._edit``: it stays a connected PSLG whose length is at most
    ``ceiling``, the start graph's ||E|| + ||MST|| + LENGTH_TOL (its MST
    length is ``mst_length``).  transform and replay both edit
    through it, so every op log transform writes replays.  A start graph
    that is not connected raises ReplayViolation at step 0.

    Next to the graph it keeps the graph's faces, ``faces`` (a
    ``pslg.Faces`` of its own, not the one cached on a graph), split by
    each insert and merged by each delete.  In a connected plane graph an
    edge is a bridge iff the same face lies on both of its sides, so a
    delete disconnects iff its two darts share a label.
    """

    def __init__(self, g: Pslg):
        if g.points and len(reach(g.rotation, g.points[0].id)) != g.n:
            raise ReplayViolation(0, "connectivity", "start graph is not connected")
        self.graph = g
        self.length = g.total_length()
        self.mst_length = mst_length(g)
        self.ceiling = self.length + self.mst_length + LENGTH_TOL
        self.faces = Faces(g.rotation)

    def edit(self, op, u, v):
        """Insert or delete edge (u, v).  Returns None when the edit keeps
        every invariant, else the violated invariant's name and a message;
        the graph is then no longer certified."""
        g = self.graph
        e = ekey(u, v)
        if u not in g.by_id or v not in g.by_id:
            return "vertices", f"unknown endpoint in {e}"
        d = dist(g.by_id[u], g.by_id[v])
        if op == "insert":
            if e in g.edges:
                return "planarity", f"edge {e} already present"
            if u == v:
                return "vertices", f"self-loop at point {u}"
            try:
                self.graph = g._edit({e}, set())
            except CrossingEdges as exc:
                return "planarity", str(exc)
            self.faces.split(self.graph.rotation, u, v)
            self.length += d
        elif op == "delete":
            if e not in g.edges:
                return "planarity", f"edge {e} not present"
            face = self.faces.face
            if face[(u, v)] == face[(v, u)]:  # a bridge
                return "connectivity", ""
            self.faces.merge(g.rotation, u, v)
            self.graph = g._edit(set(), {e})
            self.length -= d
        else:
            return "op", op
        if self.length > self.ceiling:
            return "length", f"{self.length:.9g} > ceiling {self.ceiling:.9g}"
        return None


class _Editor(_CertifiedEdges):
    """Certified edge set that records every edit in an OpLog.

    From its first geodesic query on, it also keeps the triangulation of the
    geodesic environment in step with the graph: ``env`` is the environment
    of the last graph queried, and each edit after that query constrains an
    inserted edge in ``env.T`` or drops a deleted edge's constraint mark,
    keyed by the edge's own vertex ids; each new environment compares
    ``env.T``'s marks with the graph's edges.  The first environment starts
    from ``delaunay`` when it is set (``transform`` sets phase 2's
    triangulation), else from a triangulation of the points.

    ``cycle_bound``, 2||MST|| + LENGTH_TOL, bounds the morph's polygon plus
    its leftover edges in phases 4 and 5, and the final cycle.
    """

    def __init__(self, g: Pslg):
        super().__init__(g)
        self.cycle_bound = 2 * self.mst_length + LENGTH_TOL
        self.log = OpLog()
        self.env = None
        self.delaunay = None
        self._lengths = {}

    def _edge_length(self, e):
        """``dist`` between the endpoints of edge key ``e``, computed once."""
        d = self._lengths.get(e)
        if d is None:
            d = self._lengths[e] = dist(self.graph.by_id[e[0]], self.graph.by_id[e[1]])
        return d

    def weighted_length(self, poly: WeaklySimplePolygon):
        """``poly.length(g)`` plus the length of the graph's edges off the
        polygon: two ``fsum``s over the memoised edge lengths, added once.
        Doubling a twice-used edge's length is exact, so the first equals
        ``poly.length(g)`` bit for bit."""
        ems, d = poly.edge_multiset(), self._edge_length
        own = fsum(c * d(e) for e, c in ems.items())
        return own + fsum(d(e) for e in self.graph.edges if e not in ems)

    def geodesic(self, walk):
        """``geodesic(self.graph, walk)``, read from the live triangulation
        and the editor's face labels."""
        g = self.graph
        if self.env is None:
            self.env = g._face_env = _FaceEnv(g, faces=self.faces, tri=self.delaunay)
            self.delaunay = None  # the environment owns and edits it now
        elif self.env.g is not g:
            self.env = g._face_env = _FaceEnv(g, self.env, self.faces)
        return geodesic(g, walk)

    def _follow(self, op, u, v):
        env = self.env
        if env.g._face_env is env:
            env.g._face_env = None  # its triangulation moves on from env.g
        if op == "insert":
            insert_constraint(env.T, u, v)
        else:
            env.T.constrained.discard(ekey(u, v))

    def _record(self, op, u, v, phase):
        bad = self.edit(op, u, v)
        e = ekey(u, v)
        if bad is not None:
            invariant, message = bad
            raise LemmaViolation(
                f"{op} {e}: {invariant} violated{': ' + message if message else ''}"
            )
        if self.env is not None:
            self._follow(op, u, v)
        self.log.steps.append(OpStep(op, e[0], e[1], phase))

    def insert(self, u, v, phase):
        self._record("insert", u, v, phase)

    def delete(self, u, v, phase):
        self._record("delete", u, v, phase)


def _sq(g, u, v):
    ux, uy = g.ipt(u)
    vx, vy = g.ipt(v)
    return (ux - vx) ** 2 + (uy - vy) ** 2


def euclidean_mst(g: Pslg):
    """Canonical Euclidean MST over all point pairs (exact comparisons):
    computed once per graph, and a new set on every call."""
    if g._mst is None:
        ids = sorted(p.id for p in g.points)
        pool = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]
        g._mst = frozenset(kruskal(pool, lambda e: _sq(g, *e)))
    return set(g._mst)


def mst_length(g: Pslg):
    return fsum(dist(g.by_id[u], g.by_id[v]) for u, v in euclidean_mst(g))


# -- phases -------------------------------------------------------------


def phase1_spanning_tree(ed: _Editor):
    """Strip to the minimum spanning subtree of the existing edges."""
    tree = set(kruskal(ed.graph.edges, lambda e: _sq(ed.graph, *e)))
    for e in sorted(ed.graph.edges - tree):
        ed.delete(e[0], e[1], PHASE_TREE)
    return tree


def phase2_to_delaunay_tree(ed: _Editor, tree):
    """Flip to the Delaunay triangulation, swapping flipped tree edges for
    strictly shorter quad sides; the intermediate graph stays connected.
    Returns the tree and the certified, unconstrained Delaunay
    triangulation, which ``transform`` hands to the editor to seed phase
    4's geodesic environment (every Euclidean MST edge is a Gabriel edge,
    so already one of its edges)."""
    g = ed.graph
    T = triangulate_points({p.id: g.ipt(p.id) for p in g.points})
    for (u, v) in sorted(tree):
        insert_constraint(T, u, v)
    T.constrained.clear()

    tree = set(tree)

    def on_flip(old_edge, new_edge, apexes):
        a, b = e = old_edge  # a key: the flip queue holds keys
        if e not in tree:
            return
        c, d = apexes
        # pick the apex with the obtuse angle: both its sides are shorter
        # than the flipped edge
        if _dot_at(g, c, a, b) < 0:
            apex = c
        elif _dot_at(g, d, a, b) < 0:
            apex = d
        else:
            raise LemmaViolation("no obtuse apex on an illegal edge")
        # the graph is the tree here: apex is on b's side of (a, b) iff
        # the tree path from a to apex starts along (a, b)
        other = a if forest_path(ed.graph.rotation, a, apex)[1] == b else b
        new = ekey(apex, other)
        if _sq(g, *new) >= _sq(g, a, b):
            raise LemmaViolation("tree swap did not shorten")
        ed.insert(new[0], new[1], PHASE_DELAUNAY)
        ed.delete(a, b, PHASE_DELAUNAY)
        tree.discard(e)
        tree.add(new)

    flips = lawson_flips(T, on_flip=on_flip)
    if not is_delaunay(T):
        raise LemmaViolation("flip sequence did not reach Delaunay")
    for e in tree:
        if not T.has_edge(*e):
            raise LemmaViolation("tree edge missing from the Delaunay triangulation")
    ed.log.stats["flips"] = flips
    ed.log.stats["delaunay_ok"] = True
    return tree, T


def _dot_at(g, apex, a, b):
    ax, ay = g.ipt(a)
    bx, by = g.ipt(b)
    cx, cy = g.ipt(apex)
    return (ax - cx) * (bx - cx) + (ay - cy) * (by - cy)


def phase3_to_mst(ed: _Editor, tree, target):
    """Exchange tree edges for the canonical Euclidean MST ``target``: insert
    a missing MST edge, delete a longest edge of the unique created cycle."""
    g = ed.graph
    tree = set(tree)
    for e in sorted(target - tree):
        # the graph is the tree here; e closes the cycle through its path
        path = forest_path(ed.graph.rotation, *e)
        if path is None:
            raise LemmaViolation("cycle edge endpoints not connected in tree")
        ed.insert(e[0], e[1], PHASE_MST)
        tree.add(e)
        cyc = [e] + [ekey(a, b) for a, b in zip(path, path[1:])]
        mx = max(_sq(g, *f) for f in cyc)
        cand = [f for f in cyc if _sq(g, *f) == mx]
        outside = [f for f in cand if f not in target]
        if not outside:
            raise LemmaViolation("all longest cycle edges belong to the MST")
        f = min(outside)
        ed.delete(f[0], f[1], PHASE_MST)
        tree.discard(f)
    if tree != target:
        raise LemmaViolation("phase 3 did not reach the MST")
    return tree


def _retrace(ed: _Editor, poly: WeaklySimplePolygon, gone, path, phase):
    """Edit the graph onto the polygon: delete the edges of ``gone`` that
    left it, insert the missing edges of the vertex path ``path``, then
    delete every other edge between polygon vertices that is off the
    polygon.  Returns the validated polygon, whose length plus that of the
    leftover edges must not exceed ``ed.cycle_bound``."""
    support = poly.edge_multiset()
    vc = poly.vertices()
    for e in gone:
        if e not in support:
            ed.delete(*e, phase)
    for a, b in zip(path, path[1:]):
        e = ekey(a, b)
        if e not in ed.graph.edges:
            ed.insert(*e, phase)
    for e in sorted(ed.graph.edges):
        if e[0] in vc and e[1] in vc and e not in support:
            ed.delete(*e, phase)
    poly.validate(ed.graph)
    wl = ed.weighted_length(poly)
    if wl > ed.cycle_bound:
        raise LemmaViolation(
            f"phase {phase} weighted length {wl:.9g} exceeds 2*MST {ed.cycle_bound:.9g}"
        )
    return poly


def phase4_grow_cycle(ed: _Editor, mst):
    """Grow a weakly simple polygon from a hull edge over the whole vertex
    set; the polygon plus leftover edges never exceed twice the MST."""
    g = ed.graph
    id_at = {g.ipt(p.id): p.id for p in g.points}
    hull = [id_at[xy] for xy in convex_hull(list(id_at))]
    hull_edges = [ekey(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
    absent = [e for e in hull_edges if e not in mst]
    if not absent:
        raise LemmaViolation("spanning tree contains the whole hull cycle")
    uv = max(absent, key=lambda e: (_sq(g, *e), [-c for c in e]))
    u, v = uv

    path = forest_path(ed.graph.rotation, u, v)  # the graph is the MST here
    ed.insert(u, v, PHASE_GROW)
    poly = WeaklySimplePolygon(seq=list(path))

    rounds = 0
    while poly.vertices() != {p.id for p in g.points}:
        rounds += 1
        if rounds > g.n:
            raise LemmaViolation("phase 4 exceeded its round budget")
        g_cur = ed.graph
        vc = poly.vertices()
        found = None
        for y in sorted(vc):
            rot = g_cur.rotation[y]
            k = len(rot)
            # a CCW-consecutive mixed pair with a convex corner always
            # exists at some boundary vertex (at most one reflex sector per
            # vertex); the in-polygon endpoint may come first or second
            for i in range(k):
                a, b = rot[i], rot[(i + 1) % k]
                if (a in vc) == (b in vc):
                    continue
                if _corner_convex(g_cur, a, y, b):
                    found = (a, y, b)
                    break
            if found:
                break
        if found is None:
            raise LemmaViolation("no convex boundary pair found in phase 4")
        a_end, y, b_end = found
        xq, zq = (a_end, b_end) if a_end in vc else (b_end, a_end)
        if ekey(xq, y) not in poly.edge_multiset():
            raise LemmaViolation("selected pair edge is not on the polygon")

        geo = ed.geodesic([a_end, y, b_end])
        gids = geo.ids() if a_end == xq else geo.ids()[::-1]  # from xq to zq

        # splice: replace one copy of edge (xq, y) by xq .. geodesic .. zq, y
        m = len(poly.seq)
        at = None
        for j in range(m):
            a, b = poly.seq[j], poly.seq[(j + 1) % m]
            if ekey(a, b) == ekey(xq, y):
                at = j
                break
        a, b = poly.seq[at], poly.seq[(at + 1) % m]
        if a == xq:
            ins = gids[1:]  # ends at zq, then the old y follows
        else:
            ins = [zq] + gids[1:-1][::-1]
        new_seq = poly.seq[: at + 1] + ins + poly.seq[at + 1 :]
        new_poly = WeaklySimplePolygon(seq=new_seq)

        # delete the replaced polygon edge first (the rest of the polygon
        # keeps everything connected); only then insert the geodesic, so the
        # intermediate length never spikes above the ceiling
        poly = _retrace(ed, new_poly, [ekey(xq, y)], gids, PHASE_GROW)
    if poly.length(g) > ed.cycle_bound:
        raise LemmaViolation("final polygon exceeds 2*MST")
    return poly


def phase5_simplify(ed: _Editor, poly: WeaklySimplePolygon):
    """Shortcut the sharpest corner of a repeated vertex until the polygon
    is simple; the total length strictly decreases each step."""
    g = ed.graph
    guard = 0
    while not poly.is_simple():
        guard += 1
        if guard > 4 * g.n * g.n + 16:
            raise LemmaViolation("phase 5 exceeded its step budget")
        mult = poly.multiplicity()
        m = len(poly.seq)
        best = None
        for j in range(m):
            vtx = poly.seq[j]
            if mult[vtx] < 2:
                continue
            prev = poly.seq[j - 1]
            nxt = poly.seq[(j + 1) % m]
            px, py = g.ipt(prev)
            vx, vy = g.ipt(vtx)
            nx, ny = g.ipt(nxt)
            u_vec = (px - vx, py - vy)
            w_vec = (nx - vx, ny - vy)
            key = (vtx, j)
            if best is None or angle_less(u_vec, w_vec, best[1], best[2]):
                best = (key, u_vec, w_vec, j, prev, vtx, nxt)
        _, u_vec, w_vec, j, prev, vtx, nxt = best
        cr = u_vec[0] * w_vec[1] - u_vec[1] * w_vec[0]
        if cr == 0:
            raise LemmaViolation("degenerate corner in phase 5")
        walk = [prev, vtx, nxt] if cr > 0 else [nxt, vtx, prev]
        geo = ed.geodesic(walk)
        gids = geo.ids() if cr > 0 else geo.ids()[::-1]
        # replace (prev, vtx, nxt) at position j by the geodesic
        old_len = poly.length(g)
        new_seq = poly.seq[:j] + gids[1:-1] + poly.seq[j + 1 :]
        if j == 0:
            new_seq = poly.seq[1:] + gids[1:-1]
        new_poly = WeaklySimplePolygon(seq=new_seq)
        new_len = new_poly.length(g)
        if not new_len < old_len + 1e-12:
            raise LemmaViolation("phase 5 step did not shorten the polygon")

        # corner edges that vanish go first (the repeated vertex stays on
        # the polygon elsewhere), keeping the intermediate length monotone
        corner = sorted({ekey(prev, vtx), ekey(vtx, nxt)})
        poly = _retrace(ed, new_poly, corner, gids, PHASE_SIMPLIFY)
    return poly


def transform(g: Pslg):
    """Run phases 1-5; returns (final cycle graph, polygon, OpLog)."""
    require_augmentable(g)
    ed = _Editor(g)
    ed.log.stats.update(base_length=ed.length, mst_length=ed.mst_length, ceiling=ed.ceiling)

    tree = phase1_spanning_tree(ed)
    tree, ed.delaunay = phase2_to_delaunay_tree(ed, tree)
    tree = phase3_to_mst(ed, tree, euclidean_mst(g))
    poly = phase4_grow_cycle(ed, tree)
    poly = phase5_simplify(ed, poly)

    final = ed.graph
    n = g.n
    if len(final.edges) != n or any(final.degree(p.id) != 2 for p in final.points):
        raise LemmaViolation("final graph is not a Hamiltonian cycle")
    if not poly.is_simple() or len(poly.seq) != n:
        raise LemmaViolation("final polygon is not simple Hamiltonian")
    final_len = final.total_length()
    if final_len > ed.cycle_bound:
        raise LemmaViolation("final cycle exceeds 2*MST")
    ed.log.stats["final_length"] = final_len
    return final, poly, ed.log


def replay(g: Pslg, steps):
    """Re-execute an OpLog on a fresh copy of g, asserting planarity,
    connectivity, the length ceiling and each step's own ``assert_len_le``
    after every step."""
    cert = _CertifiedEdges(g)
    max_len = cert.length
    for k, st in enumerate(steps):
        bad = cert.edit(st.op, st.u, st.v)
        if bad is None and st.assert_len_le is not None and cert.length > st.assert_len_le:
            bad = "length", f"{cert.length:.9g} > assert_len_le {st.assert_len_le!r}"
        if bad is not None:
            raise ReplayViolation(k, *bad)
        max_len = max(max_len, cert.length)

    return {
        "ok": True,
        "steps": len(steps),
        "max_intermediate_length": max_len,
        "final_length": cert.length,
        "final_edges": sorted(cert.graph.edges),
    }
