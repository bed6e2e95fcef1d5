"""Morphing a connected PSLG into a short Hamiltonian cycle by certified
edge insertions and deletions.

Five phases: (1) strip to a minimum spanning subtree of the existing edges;
(2) flip an arbitrary triangulation of the tree to the Delaunay
triangulation, swapping each flipped tree edge for a strictly shorter quad
side; (3) exchange edges to the Euclidean MST; (4) grow a weakly simple
polygon from a hull edge until it spans every vertex; (5) shortcut repeated
vertices until the polygon is simple.  Phase 2's flips depend only on the
start graph, so ``transform`` triangulates the points once, before the first
edit, and takes the Euclidean MST that the ceiling needs from that Delaunay
triangulation.  Phases 4-5 only ever ask for the geodesic of a convex
corner, which ``geodesic.convex_geodesic`` reads off a hull in closed form,
so they build no triangulation.

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
    polar_index,
)
from .geodesic import convex_geodesic
from .pslg import (
    LemmaViolation,
    Pslg,
    PslgError,
    _box,
    _corner_convex,
    _crossing,
    _first_crossing,
    kruskal,
    next_darts,
    reach,
    require_augmentable,
)
from .triangulate import insert_constraint, lawson_flips, triangulate_points

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

    def vertices(self):
        return set(self.seq)

    def edge_multiset(self):
        """Edge key -> multiplicity."""
        m = len(self.seq)
        return Counter(ekey(self.seq[i], self.seq[(i + 1) % m]) for i in range(m))

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

    def validate(self, g, ems=None, at=None):
        """Check that the polygon is a weakly simple closed walk in the
        certified PSLG ``g``: at least three corners, every edge a graph edge
        used at most twice, and no self-crossing at a repeated vertex.  The
        graph's edges are already pairwise non-crossing.  Given ``ems``, the
        multiplicities of some edges, and ``at`` (``_check_rotations``), only
        those edges and vertices are checked."""
        if len(self.seq) < 3:
            raise LemmaViolation("polygon too short")
        ems = self.edge_multiset() if ems is None else ems
        if max(ems.values(), default=0) > 2:
            raise LemmaViolation("polygon edge multiplicity exceeds 2")
        for e in ems:
            if e not in g.edges:
                raise LemmaViolation(f"polygon edge {e} is not a graph edge")
        self._check_rotations(g, at)

    def _check_rotations(self, g, at=None):
        """Occurrence ray pairs at a repeated vertex must not strictly
        interleave in the circular order (the curve would cross itself).
        Every ray is a graph edge, so the order is the rotation at v.  Given
        ``at``, every position of some vertices in increasing order, only
        those vertices are checked, in the whole check's order."""
        seq, m = self.seq, len(self.seq)
        occurrences = {}
        for j in range(m) if at is None else at:
            occurrences.setdefault(seq[j], []).append((seq[j - 1], seq[(j + 1) % m]))
        for v, occs in occurrences.items():
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
    graph, changed in place only by certified single edge edits: it starts
    as a copy of the start graph's edge set and rotations, and stays a
    connected PSLG whose length is at most
    ``ceiling``, the start graph's ||E|| + ||MST|| + LENGTH_TOL (its MST
    length is ``mst_length``).  transform and replay both edit
    through it, so every op log transform writes replays.  A start graph
    that is not connected raises ReplayViolation at step 0.

    Next to the graph it keeps ``nxt``, the next dart of every dart on its
    facial walk (``pslg.next_darts``, a map of its own, not the one a graph
    caches), threaded by each insert and unthreaded by each delete at the
    edge's two ends, with no walk: the insert position ``geom.polar_index``
    gives, or the delete's ``index``, names the CCW neighbours there, so a
    rotation changes by one splice.  ``_smaller`` walks an edge's faces in
    lockstep: it finds bridges (one face on both sides) for the deletes, and
    the sides of a tree edge and the cycle an edge closes for the morph.

    The graph's edge set is the key view of ``boxes``, which maps each live
    edge to its bounding box (``pslg._box``).  An insert's planarity check
    is one pass over them (``pslg._first_crossing``), which names the least
    crossing edge: the pair ``_raise_first_crossing`` would report.  Each
    edge's length is ``dist``'s, computed once (``_edge_length``).
    """

    def __init__(self, g: Pslg):
        if g.points and len(reach(g.rotation, g.points[0].id)) != g.n:
            raise ReplayViolation(0, "connectivity", "start graph is not connected")
        self.boxes = {e: _box(*e, g._ix, g._iy) for e in g.edges}
        self.graph = Pslg(g.points, g.by_id, self.boxes.keys(), dict(g.rotation), g._ix, g._iy)
        self.length = g.total_length()
        self.mst_length = mst_length(g)
        self.ceiling = self.length + self.mst_length + LENGTH_TOL
        self.nxt = next_darts(g.rotation)
        self._lengths = {}  # edge key -> dist, filled by _edge_length

    def edit(self, op, u, v):
        """Insert or delete edge (u, v).  Returns None when the edit keeps
        every invariant, else the violated invariant's name and a message;
        the graph is then no longer certified."""
        g = self.graph
        e = ekey(u, v)
        if u not in g.by_id or v not in g.by_id:
            return "vertices", f"unknown endpoint in {e}"
        rotation, nxt = g.rotation, self.nxt
        if op == "insert":
            if e in g.edges:
                return "planarity", f"edge {e} already present"
            if u == v:
                return "vertices", f"self-loop at point {u}"
            box = _box(*e, g._ix, g._iy)
            f = _first_crossing(e, box, self.boxes.items(), g._ix, g._iy)
            if f is not None:
                return "planarity", str(_crossing(e, f))
            self.boxes[e] = box
            ru, rv = rotation[u], rotation[v]
            i, j = polar_index(ru, u, v, g._ix, g._iy), polar_index(rv, v, u, g._ix, g._iy)
            ru = rotation[u] = ru[:i] + (v,) + ru[i:]
            rv = rotation[v] = rv[:j] + (u,) + rv[j:]
            # the walks that reached u before v, and v before u, now turn
            # onto the new edge
            nxt[(ru[i - 1], u)], nxt[(v, u)] = (u, v), (u, ru[(i + 1) % len(ru)])
            nxt[(rv[j - 1], v)], nxt[(u, v)] = (v, u), (v, rv[(j + 1) % len(rv)])
            self.length += self._edge_length(e)
        elif op == "delete":
            if e not in g.edges:
                return "planarity", f"edge {e} not present"
            if self._smaller(u, v)[1]:
                return "connectivity", ""
            # the walks that turned onto the edge now pass it by
            ru, rv = rotation[u], rotation[v]
            i, j = ru.index(v), rv.index(u)
            nxt[(ru[i - 1], u)] = (u, ru[(i + 1) % len(ru)])
            nxt[(rv[j - 1], v)] = (v, rv[(j + 1) % len(rv)])
            del nxt[(u, v)], nxt[(v, u)]
            del self.boxes[e]
            rotation[u], rotation[v] = ru[:i] + ru[i + 1 :], rv[:j] + rv[j + 1 :]
            self.length -= self._edge_length(e)
        else:
            return "op", op
        if self.length > self.ceiling:
            return "length", f"{self.length:.9g} > ceiling {self.ceiling:.9g}"
        return None

    def _edge_length(self, e):
        """``dist`` between the endpoints of edge key ``e``, computed once."""
        d = self._lengths.get(e)
        if d is None:
            d = self._lengths[e] = dist(self.graph.by_id[e[0]], self.graph.by_id[e[1]])
        return d

    def _smaller(self, u, v):
        """``(d, bridge)``: the walks of edge (u, v)'s darts, in lockstep,
        stop at the other dart (a bridge) or their own; d's stopped first.
        d's walk up to its reverse is then the side of d's head, or up to d
        the smaller face (``_part``)."""
        nxt = self.nxt
        a, b = (u, v), (v, u)
        x, y = nxt[a], nxt[b]
        while x != a and y != b:
            if x == b or y == a:
                return (a if x == b else b), True
            x, y = nxt[x], nxt[y]
        return (a if x == a else b), False

    def _part(self, u, v):
        """``_smaller``'s part as d's walk from d, and whether it is a bridge."""
        d, bridge = self._smaller(u, v)
        out, x, stop = [d], self.nxt[d], (d[1], d[0]) if bridge else d
        while x != stop:
            out.append(x)
            x = self.nxt[x]
        return out, bridge

    def frozen(self) -> Pslg:
        """A copy of the current graph that later edits leave as it is."""
        g = self.graph
        return Pslg(g.points, g.by_id, frozenset(g.edges), dict(g.rotation), g._ix, g._iy)


class _Editor(_CertifiedEdges):
    """Certified edge set that records every edit in an OpLog.

    ``cycle_bound``, 2||MST|| + LENGTH_TOL, bounds the morph's polygon plus
    its leftover edges in phases 4 and 5, and the final cycle.  From ``trace``
    on, ``_retrace`` keeps its state by deltas: edge multiset ``support``,
    vertex set ``vc``, and per edge, ``own`` multiplicity times length, or
    ``off`` the length of a graph edge off the polygon."""

    def __init__(self, g: Pslg):
        super().__init__(g)
        self.cycle_bound = 2 * self.mst_length + LENGTH_TOL
        self.log = OpLog()

    def trace(self, seq):
        """The validated polygon on the cycle ``seq``, its state counted once."""
        poly = WeaklySimplePolygon(seq=seq)
        self.support, self.vc = poly.edge_multiset(), poly.vertices()
        self.own = {e: c * self._edge_length(e) for e, c in self.support.items()}
        self.off = {e: self._edge_length(e) for e in self.graph.edges if e not in self.support}
        poly.validate(self.graph)
        return poly

    def geodesic(self, walk):
        """The geodesic of the convex corner ``walk``, a facial subwalk
        (a, y, b) of the current graph (``convex_geodesic``)."""
        return convex_geodesic(self.graph, walk)

    def _cycle(self, u, v):
        """The darts of the smaller face at (u, v) whose reverse it lacks,
        from its first: the cycle that (u, v) closes in a tree."""
        face, bridge = self._part(u, v)
        if bridge:
            raise LemmaViolation("cycle edge endpoints not connected in tree")
        darts = set(face)
        return [x for x in face if (x[1], x[0]) not in darts]

    def _record(self, op, u, v, phase):
        bad = self.edit(op, u, v)
        e = ekey(u, v)
        if bad is not None:
            invariant, message = bad
            raise LemmaViolation(
                f"{op} {e}: {invariant} violated{': ' + message if message else ''}"
            )
        self.log.steps.append(OpStep(op, e[0], e[1], phase))

    def insert(self, u, v, phase):
        self._record("insert", u, v, phase)

    def delete(self, u, v, phase):
        self._record("delete", u, v, phase)


def _sq(g, u, v):
    ux, uy = g.ipt(u)
    vx, vy = g.ipt(v)
    return (ux - vx) ** 2 + (uy - vy) ** 2


def delaunay(g: Pslg, tree=()):
    """The Delaunay triangulation of g's points, certified by ``lawson_flips``,
    and the Lawson flips ``(old_edge, apexes)`` that reach it, in order, from
    the scan triangulation with the edges of ``tree`` constrained (the marks
    are cleared before the flips)."""
    T = triangulate_points({p.id: g.ipt(p.id) for p in g.points})
    for (u, v) in sorted(tree):
        insert_constraint(T, u, v)
    T.constrained.clear()
    return T, lawson_flips(T)


def euclidean_mst(g: Pslg, T=None):
    """Canonical Euclidean MST of g's points (Kruskal by exact squared
    length, then key) over the edges of ``T``, a certified Delaunay
    triangulation of them, ``delaunay(g)``'s when not given.  A point on or
    in the closed disk on an MST edge's diameter would close a cycle of two
    strictly shorter edges, so every MST edge is a Gabriel edge and lies in
    every Delaunay triangulation of the points, cocircular ones included
    (Shamos & Hoey 1975).  Computed once per graph, and a new set on every
    call."""
    if g._mst is None:
        if g.n <= 2:
            pool = [ekey(*(p.id for p in g.points))] if g.n == 2 else []
        else:
            pool = (delaunay(g)[0] if T is None else T).edges()
        g._mst = frozenset(kruskal(pool, lambda e: _sq(g, *e)))
    return set(g._mst)


def mst_length(g: Pslg):
    return fsum(dist(g.by_id[u], g.by_id[v]) for u, v in euclidean_mst(g))


# -- phases -------------------------------------------------------------


def spanning_subtree(g: Pslg):
    """The minimum spanning subtree of g's edges, phase 1's target."""
    return set(kruskal(g.edges, lambda e: _sq(g, *e)))


def phase1_spanning_tree(ed: _Editor, tree):
    """Strip the graph to ``tree``, the minimum spanning subtree of its
    edges."""
    for e in sorted(ed.graph.edges - tree):
        ed.delete(e[0], e[1], PHASE_TREE)


def phase2_to_delaunay_tree(ed: _Editor, T, flips):
    """Pass ``flips``, the Lawson flips that reach the Delaunay triangulation
    ``T`` from the scan triangulation with the graph, a tree here,
    constrained (``delaunay``), through the swap rule in order: each flipped
    edge of the tree is swapped for a strictly shorter quad side, and the
    intermediate graph stays connected.  The rule reads only the flip and
    the current tree.  Returns T, whose edges include the final tree's."""
    g = ed.graph
    for (a, b), (c, d) in flips:
        if (a, b) not in g.edges:  # a key: the flip queue holds keys
            continue
        # pick the apex with the obtuse angle: both its sides are shorter
        # than the flipped edge
        if _dot_at(g, c, a, b) < 0:
            apex = c
        elif _dot_at(g, d, a, b) < 0:
            apex = d
        else:
            raise LemmaViolation("no obtuse apex on an illegal edge")
        # in a tree the heads of the part's darts are the side of its first head
        side, bridge = ed._part(a, b)
        if not bridge:
            raise LemmaViolation(f"tree edge {(a, b)} is not a bridge")
        other = side[0][0] if apex in {x[1] for x in side} else side[0][1]
        new = ekey(apex, other)
        if _sq(g, *new) >= _sq(g, a, b):
            raise LemmaViolation("tree swap did not shorten")
        ed.insert(new[0], new[1], PHASE_DELAUNAY)
        ed.delete(a, b, PHASE_DELAUNAY)
    for e in g.edges:
        if not T.has_edge(*e):
            raise LemmaViolation("tree edge missing from the Delaunay triangulation")
    ed.log.stats["flips"] = len(flips)
    return T


def _dot_at(g, apex, a, b):
    ax, ay = g.ipt(a)
    bx, by = g.ipt(b)
    cx, cy = g.ipt(apex)
    return (ax - cx) * (bx - cx) + (ay - cy) * (by - cy)


def phase3_to_mst(ed: _Editor, target):
    """Exchange the edges of the graph, a tree here, for those of the
    canonical Euclidean MST ``target``: insert a missing MST edge, delete a
    longest edge of the unique created cycle."""
    g = ed.graph
    for e in sorted(target - g.edges):
        ed.insert(e[0], e[1], PHASE_MST)
        cyc = [ekey(*x) for x in ed._cycle(*e)]
        mx = max(_sq(g, *f) for f in cyc)
        cand = [f for f in cyc if _sq(g, *f) == mx]
        outside = [f for f in cand if f not in target]
        if not outside:
            raise LemmaViolation("all longest cycle edges belong to the MST")
        f = min(outside)
        ed.delete(f[0], f[1], PHASE_MST)
    if ed.graph.edges != target:
        raise LemmaViolation("phase 3 did not reach the MST")


def _retrace(ed: _Editor, poly: WeaklySimplePolygon, old, new, phase):
    """Edit the graph onto ``poly``, the traced polygon with its vertex path
    ``old`` replaced by ``new`` (the same ends): update the polygon's state
    by the splice's edges, delete those of ``old`` that left the polygon,
    insert the missing ones of ``new``, then delete every other edge between
    polygon vertices that is off the polygon.  Returns ``poly``, checked
    where it changed; its weighted length must not exceed ``ed.cycle_bound``."""
    support, own, off, vc = ed.support, ed.own, ed.off, ed.vc
    lost = [ekey(a, b) for a, b in zip(old, old[1:])]
    gained = [ekey(a, b) for a, b in zip(new, new[1:])]
    changed = Counter(gained)
    changed.subtract(lost)
    for e, c in changed.items():
        c = support[e] = support[e] + c
        if c:
            own[e] = c * ed._edge_length(e)
            off.pop(e, None)
        else:
            del support[e], own[e]
    vc.update(new)
    for e in sorted(set(lost)):
        if e not in support:
            ed.delete(*e, phase)
    for e in gained:
        if e not in ed.graph.edges:
            ed.insert(*e, phase)
    # Before the splice no off-polygon edge joined two polygon vertices, and
    # the splice keeps every old polygon edge but those of ``old``, so an
    # edge that now joins two of them off the polygon touches ``new``.
    touched = {*old, *new}
    for e in sorted({ekey(v, w) for v in new for w in ed.graph.rotation[v]}):
        if e[0] in vc and e[1] in vc and e not in support:
            ed.delete(*e, phase)
            del off[e]
            touched.update(e)
    # the last polygon passed validate, so only the changed edges and the
    # vertices whose occurrences or rotation changed can fail it now
    at = [j for j, v in enumerate(poly.seq) if v in touched]
    poly.validate(ed.graph, {e: support[e] for e in changed if e in support}, at)
    wl = fsum(own.values()) + fsum(off.values())
    if wl > ed.cycle_bound:
        raise LemmaViolation(
            f"phase {phase} weighted length {wl:.9g} exceeds 2*MST {ed.cycle_bound:.9g}"
        )
    return poly


def phase4_grow_cycle(ed: _Editor):
    """Grow a weakly simple polygon from a hull edge over the whole vertex
    set, starting from the graph, the Euclidean MST here; the polygon plus
    leftover edges never exceed twice the MST."""
    g = ed.graph
    id_at = {g.ipt(p.id): p.id for p in g.points}
    hull = [id_at[xy] for xy in convex_hull(list(id_at))]
    hull_edges = [ekey(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
    absent = [e for e in hull_edges if e not in g.edges]
    if not absent:
        raise LemmaViolation("spanning tree contains the whole hull cycle")
    u, v = max(absent, key=lambda e: (_sq(g, *e), [-c for c in e]))
    ed.insert(u, v, PHASE_GROW)
    # the face of (v, u) runs the cycle from u to v, that of (u, v) back
    cyc = ed._cycle(u, v)
    poly = ed.trace([x[1] for x in cyc[::-1 if cyc[0] == (u, v) else 1]])

    rounds = 0
    while len(ed.vc) < g.n:
        rounds += 1
        if rounds > g.n:
            raise LemmaViolation("phase 4 exceeded its round budget")
        vc = ed.vc
        found = None
        for y in sorted(vc):
            rot = g.rotation[y]
            k = len(rot)
            # a CCW-consecutive mixed pair with a convex corner always
            # exists at some boundary vertex (at most one reflex sector per
            # vertex); the in-polygon endpoint may come first or second
            for i in range(k):
                a, b = rot[i], rot[(i + 1) % k]
                if (a in vc) == (b in vc):
                    continue
                if _corner_convex(g, a, y, b):
                    found = (a, y, b)
                    break
            if found:
                break
        if found is None:
            raise LemmaViolation("no convex boundary pair found in phase 4")
        a_end, y, b_end = found
        xq, zq = (a_end, b_end) if a_end in vc else (b_end, a_end)
        if ekey(xq, y) not in ed.support:
            raise LemmaViolation("selected pair edge is not on the polygon")

        geo = ed.geodesic([a_end, y, b_end])
        gids = geo.ids() if a_end == xq else geo.ids()[::-1]  # from xq to zq

        # splice: replace the first copy of edge (xq, y), seq[at] to seq[at + 1],
        # by xq .. geodesic .. zq, y; it starts at or just before an xq
        seq, m = poly.seq, len(poly.seq)
        at = min(j % m for i, w in enumerate(seq) if w == xq for j in (i, i - 1)
                 if {seq[j], seq[(j + 1) % m]} == {xq, y})
        if seq[at] == xq:
            ins = gids[1:]  # ends at zq, then the old y follows
        else:
            ins = [zq] + gids[1:-1][::-1]
        new_poly = WeaklySimplePolygon(seq=seq[: at + 1] + ins + seq[at + 1 :])

        # delete the replaced polygon edge first (the rest of the polygon
        # keeps everything connected); only then insert the geodesic, so the
        # intermediate length never spikes above the ceiling
        poly = _retrace(ed, new_poly, [xq, y], gids + [y], PHASE_GROW)
    poly.validate(ed.graph)
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
            if best is None or angle_less(u_vec, w_vec, best[0], best[1]):
                best = (u_vec, w_vec, j, prev, vtx, nxt)
        u_vec, w_vec, j, prev, vtx, nxt = best
        if prev == nxt:
            # a spike (angle 0): drop its tip and the copy of prev after it,
            # so the twice-used edge (prev, vtx) leaves the polygon
            drop = (j, (j + 1) % m)
            new_seq = [w for k, w in enumerate(poly.seq) if k not in drop]
            path = [prev]
        else:
            # three distinct points in general position: cr != 0
            cr = u_vec[0] * w_vec[1] - u_vec[1] * w_vec[0]
            walk = [prev, vtx, nxt] if cr > 0 else [nxt, vtx, prev]
            geo = ed.geodesic(walk)
            path = geo.ids() if cr > 0 else geo.ids()[::-1]
            # replace (prev, vtx, nxt) at position j by the geodesic
            new_seq = poly.seq[:j] + path[1:-1] + poly.seq[j + 1 :]
            if j == 0:
                new_seq = poly.seq[1:] + path[1:-1]
        old_len = poly.length(g)
        new_poly = WeaklySimplePolygon(seq=new_seq)
        new_len = new_poly.length(g)
        if not new_len < old_len + 1e-12:
            raise LemmaViolation("phase 5 step did not shorten the polygon")

        # corner edges that vanish go first (the repeated vertex stays on
        # the polygon elsewhere), keeping the intermediate length monotone
        poly = _retrace(ed, new_poly, [prev, vtx, nxt], path, PHASE_SIMPLIFY)
    poly.validate(ed.graph)
    return poly


def transform(g: Pslg):
    """Run phases 1-5; returns (final cycle graph, polygon, OpLog)."""
    require_augmentable(g)
    # phase 2's triangulation depends only on g: build it first, and take
    # the MST that the editor's ceiling needs from it
    tree = spanning_subtree(g)
    T, flips = delaunay(g, tree)
    mst = euclidean_mst(g, T)
    ed = _Editor(g)
    ed.log.stats.update(base_length=ed.length, mst_length=ed.mst_length, ceiling=ed.ceiling)

    phase1_spanning_tree(ed, tree)
    phase2_to_delaunay_tree(ed, T, flips)
    phase3_to_mst(ed, mst)
    poly = phase4_grow_cycle(ed)
    poly = phase5_simplify(ed, poly)

    final = ed.frozen()
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
