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
steps are recorded in an OpLog, the morph's certificate.  ``transform``
checks each edit's presence and the ceiling and each phase's own bounds;
for crossings and connectivity it relies on each phase's argument, stated
in its docstring.  ``replay``, the certificate's independent checker, runs
every edit through the full check ``_CertifiedEdges.edit``, so a broken
argument lets ``transform`` return an op log that ``replay`` rejects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
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
    _sq_len,
    kruskal,
    next_darts,
    reach,
    require_augmentable,
)
from .triangulate import delaunay

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

    def __init__(self, op, u, v, phase, assert_len_le=None):
        # one write in place of the generated init's object.__setattr__ per field
        self.__dict__.update(op=op, u=u, v=v, phase=phase, assert_len_le=assert_len_le)


@dataclass
class OpLog:
    steps: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)


@dataclass
class WeaklySimplePolygon:
    """Closed vertex sequence with edge multiset of multiplicity at most 2."""

    seq: list  # cyclic, no duplicated closing vertex; never edited in place

    def edge_multiset(self):
        """Edge key -> multiplicity."""
        m = len(self.seq)
        return Counter(ekey(self.seq[i], self.seq[(i + 1) % m]) for i in range(m))

    def is_simple(self):
        return len(set(self.seq)) == len(self.seq)

    def splice(self, at, old, new):
        """The polygon with its vertex path ``old`` replaced by ``new``, a
        path with the same ends, or with a spike ``old`` (p, v, p)
        contracted to ``new`` [p].  ``old`` holds the positions from ``at``
        on, read forward, or backward when ``seq[at]`` is not ``old[0]``.
        A path that wraps past the end drops the head positions it covers
        and puts its new middle at the end: phase 4's search for the first
        copy of an edge reads positions."""
        seq, m = self.seq, len(self.seq)
        mid = new[1:-1] if seq[at] == old[0] else new[-2:0:-1]
        stop = at + len(old) - (len(new) > 1)  # first position kept after it; a spike keeps only p
        return WeaklySimplePolygon(seq[max(0, stop - m) : at + 1] + mid + seq[stop:])

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
    length is ``mst_length``).  ``edit`` checks an edit in full, then
    applies it with ``_apply``; replay edits through ``edit``, and the
    morph's ``_Editor`` through ``_apply`` after the O(1) ``_presence``
    check alone.  A start graph that is not
    connected raises ReplayViolation at step 0.

    Next to the graph it keeps ``nxt``, the next dart of every dart on its
    facial walk (``pslg.next_darts``, a map of its own, not the one a graph
    caches), threaded by each insert and unthreaded by each delete at the
    edge's two ends, with no walk: the insert position ``geom.polar_index``
    gives, or the delete's ``index``, names the CCW neighbours there, so a
    rotation changes by one splice.  ``_smaller`` walks an edge's faces in
    lockstep: it finds bridges (one face on both sides) for ``edit``'s
    deletes, and the sides of a tree edge and the cycle an edge closes for
    the morph.

    The graph's edge set is the key view of ``boxes``, which maps each live
    edge to its bounding box (``pslg._box``).  An insert's planarity check
    is one pass over them (``pslg._first_crossing``), which names the least
    crossing edge: the pair ``_raise_first_crossing`` would report.  Each
    edge's length is ``dist``'s (``_edge_length``).
    """

    def __init__(self, g: Pslg):
        if g.points and len(reach(g.rotation, g.points[0].id)) != g.n:
            raise ReplayViolation(0, "connectivity", "start graph is not connected")
        self.boxes = {e: _box(*e, g._ix, g._iy) for e in g.edges}
        self.graph = Pslg(g.points, self.boxes.keys(), dict(g.rotation))
        self.length = g.total_length()
        self.mst_length = mst_length(g)
        self.ceiling = self.length + self.mst_length + LENGTH_TOL
        self.nxt = next_darts(g.rotation)

    def edit(self, op, u, v):
        """Insert or delete edge (u, v), the full check that ``replay`` runs.
        Returns None when the edit keeps every invariant, else the violated
        invariant's name and a message; the graph is then no longer
        certified."""
        g = self.graph
        e = ekey(u, v)
        if u not in g.by_id or v not in g.by_id:
            return "vertices", f"unknown endpoint in {e}"
        if op not in ("insert", "delete"):
            return "op", op
        bad = self._presence(op, e)
        if bad is not None:
            return bad
        if op == "insert":
            if u == v:
                return "vertices", f"self-loop at point {u}"
            f = _first_crossing(e, _box(*e, g._ix, g._iy), self.boxes.items(), g._ix, g._iy)
            if f is not None:
                return "planarity", str(_crossing(e, f))
        elif self._smaller(u, v)[1]:
            return "connectivity", ""
        self._apply(op, e)
        return self._over()

    def _presence(self, op, e):
        """The violation when an insert's edge key ``e`` is already in the
        graph or a delete's is not, else None."""
        if (e in self.graph.edges) != (op == "insert"):
            return None
        return "planarity", f"edge {e} {'already' if op == 'insert' else 'not'} present"

    def _apply(self, op, e):
        """Insert or delete the edge key ``e`` unchecked: splice the
        rotations at its two ends, thread or unthread its darts, and keep
        the box map and the running length."""
        g, (u, v) = self.graph, e
        rotation, nxt = g.rotation, self.nxt
        ru, rv = rotation[u], rotation[v]
        if op == "insert":
            self.boxes[e] = _box(u, v, g._ix, g._iy)
            i, j = polar_index(ru, u, v, g._ix, g._iy), polar_index(rv, v, u, g._ix, g._iy)
            ru = rotation[u] = ru[:i] + (v,) + ru[i:]
            rv = rotation[v] = rv[:j] + (u,) + rv[j:]
            # the walks that reached u before v, and v before u, now turn
            # onto the new edge
            nxt[(ru[i - 1], u)], nxt[(v, u)] = (u, v), (u, ru[(i + 1) % len(ru)])
            nxt[(rv[j - 1], v)], nxt[(u, v)] = (v, u), (v, rv[(j + 1) % len(rv)])
            self.length += self._edge_length(e)
        else:
            # the walks that turned onto the edge now pass it by
            i, j = ru.index(v), rv.index(u)
            nxt[(ru[i - 1], u)] = (u, ru[(i + 1) % len(ru)])
            nxt[(rv[j - 1], v)] = (v, rv[(j + 1) % len(rv)])
            del nxt[(u, v)], nxt[(v, u)]
            del self.boxes[e]
            rotation[u], rotation[v] = ru[:i] + ru[i + 1 :], rv[:j] + rv[j + 1 :]
            self.length -= self._edge_length(e)

    def _over(self):
        """The length violation when the graph is longer than the ceiling."""
        if self.length > self.ceiling:
            return "length", f"{self.length:.9g} > ceiling {self.ceiling:.9g}"
        return None

    def _edge_length(self, e):
        """``dist`` between the endpoints of edge key ``e``."""
        return dist(self.graph.by_id[e[0]], self.graph.by_id[e[1]])

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
        return Pslg(g.points, frozenset(g.edges), dict(g.rotation))


class _Editor(_CertifiedEdges):
    """Certified edge set that records every edit in an OpLog.

    ``cycle_bound``, 2||MST|| + LENGTH_TOL, bounds the morph's polygon plus
    its leftover edges in phases 4 and 5, and the final cycle.  From ``trace``
    on, the editor owns the morph's polygon ``poly``, which only ``splice``
    changes, and keeps its state by deltas: edge multiset ``support``, vertex
    multiset ``mult`` (a dict, faster to test than a Counter), and ``weight``,
    each live graph edge's length times its polygon multiplicity, or once off
    the polygon.  ``poly_len``, its fsum, is what the 2||MST|| bound limits;
    with every vertex on the polygon no edge is off it, so it is the
    polygon's length."""

    def __init__(self, g: Pslg):
        super().__init__(g)
        self.cycle_bound = 2 * self.mst_length + LENGTH_TOL
        self.log = OpLog()

    def trace(self, seq):
        """Take the cycle ``seq`` as the polygon: count its state once, validate it."""
        self.poly = poly = WeaklySimplePolygon(seq=seq)
        self.support, self.mult = poly.edge_multiset(), dict(Counter(seq))
        self.weight = {e: self.support.get(e, 1) * self._edge_length(e) for e in self.graph.edges}
        self.poly_len = fsum(self.weight.values())
        poly.validate(self.graph)

    def splice(self, at, old, new, phase):
        """Replace the polygon's vertex path ``old`` from position ``at`` by
        ``new`` (``WeaklySimplePolygon.splice``) and edit the graph onto it:
        update the polygon's state by the splice's edges and vertices, delete
        the edges of ``old`` that left the polygon, insert the missing ones of
        ``new``, then delete every other edge between polygon vertices that is
        off the polygon.  The polygon is checked where it changed; its
        weighted length must not exceed ``cycle_bound``."""
        self.poly = poly = self.poly.splice(at, old, new)
        support, weight, mult = self.support, self.weight, self.mult
        lost = [ekey(a, b) for a, b in zip(old, old[1:])]
        gained = [ekey(a, b) for a, b in zip(new, new[1:])]
        changed = {}  # edge -> multiplicity delta; the gained edges' keys come first
        for e in gained:
            changed[e] = changed.get(e, 0) + 1
        for e in lost:
            changed[e] = changed.get(e, 0) - 1
        for e, c in changed.items():
            c = support[e] = support[e] + c
            if c:
                weight[e] = c * self._edge_length(e)
            else:
                del support[e], weight[e]
        # phase 4 only adds vertices, and phase 5 drops a repeated one or a
        # spike's tip and one copy of its base: no count reaches 0
        for v in new[:-1]:
            mult[v] = mult.get(v, 0) + 1
        for v in old[:-1]:
            mult[v] -= 1
        for e in sorted(set(lost)):
            if e not in support:
                self.delete(*e, phase)
        for e in gained:
            if e not in self.graph.edges:
                self.insert(*e, phase)
        # Before the splice no off-polygon edge joined two polygon vertices, and
        # the splice keeps every old polygon edge but those of ``old``, so an
        # edge that now joins two of them off the polygon touches ``new``.
        touched = {*old, *new}
        for e in sorted({ekey(v, w) for v in new for w in self.graph.rotation[v]}):
            if e[0] in mult and e[1] in mult and e not in support:
                self.delete(*e, phase)
                del weight[e]
                touched.update(e)
        # the last polygon passed validate, so only the changed edges and the
        # vertices whose occurrences or rotation changed can fail it now
        at = [j for j, v in enumerate(poly.seq) if v in touched]
        poly.validate(self.graph, {e: support[e] for e in changed if e in support}, at)
        self.poly_len = wl = fsum(weight.values())
        if wl > self.cycle_bound:
            raise LemmaViolation(
                f"phase {phase} weighted length {wl:.9g} exceeds 2*MST {self.cycle_bound:.9g}"
            )

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
        """Apply the edit after its O(1) presence check, then check the
        ceiling.  The phase's own argument stands for ``edit``'s crossing
        and connectivity checks; ``replay`` runs them on the op log."""
        e = ekey(u, v)
        bad = self._presence(op, e)
        if bad is None:
            self._apply(op, e)
            bad = self._over()
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


def euclidean_mst(g: Pslg, T=None):
    """Canonical Euclidean MST of g's points (Kruskal by exact squared
    length, then key) over the edges of ``T``, a certified Delaunay
    triangulation of them, ``delaunay``'s when not given.  A point on or
    in the closed disk on an MST edge's diameter would close a cycle of two
    strictly shorter edges, so every MST edge is a Gabriel edge and lies in
    every Delaunay triangulation of the points, cocircular ones included
    (Shamos & Hoey 1975).  Computed once per point set, cached on
    ``g.points`` for every graph on them, and a new set on every call."""
    pts = g.points
    if pts.mst is None:
        if g.n <= 2:
            pool = [ekey(*(p.id for p in pts))] if g.n == 2 else []
        else:
            pool = (delaunay(pts)[0] if T is None else T).edges()
        pts.mst = frozenset(kruskal(pool, pts))
    return set(pts.mst)


def mst_length(g: Pslg):
    return fsum(dist(g.by_id[u], g.by_id[v]) for u, v in euclidean_mst(g))


# -- phases -------------------------------------------------------------


def spanning_subtree(g: Pslg):
    """The minimum spanning subtree of g's edges, phase 1's target."""
    return set(kruskal(g.edges, g.points))


def phase1_spanning_tree(ed: _Editor, tree):
    """Strip the graph to ``tree``, the minimum spanning subtree of its
    edges.  Every delete is of an edge off ``tree``, which spans the
    vertices and stays, so no delete disconnects."""
    for e in sorted(ed.graph.edges - tree):
        ed.delete(e[0], e[1], PHASE_TREE)


def phase2_to_delaunay_tree(ed: _Editor, T, flips):
    """Pass ``flips``, the Lawson flips that reach the Delaunay triangulation
    ``T`` from the scan triangulation with the graph, a tree here,
    constrained (``delaunay``), through the swap rule in order: each flipped
    edge of the tree is swapped for a strictly shorter quad side, and the
    intermediate graph stays connected.  The rule reads only the flip and
    the current tree.  The final tree's edges must be edges of T.

    The swaps need no crossing or connectivity check.  The tree lies in the
    current triangulation of the flip sequence: it starts in the scan
    triangulation, each swap trades a flipped edge for a side of its quad,
    and the side survives the flip, so the inserted side crosses no tree
    edge.  ``_part`` puts apex and the side's other end on the two sides of
    the flipped edge, a bridge, so after the insert its delete leaves the
    graph connected."""
    g = ed.graph
    sq = _sq_len(g.points)
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
        if sq(new) >= sq((a, b)):
            raise LemmaViolation("tree swap did not shorten")
        ed.insert(new[0], new[1], PHASE_DELAUNAY)
        ed.delete(a, b, PHASE_DELAUNAY)
    for e in g.edges:
        if not T.has_edge(*e):
            raise LemmaViolation("tree edge missing from the Delaunay triangulation")
    ed.log.stats["flips"] = len(flips)


def _dot_at(g, apex, a, b):
    ax, ay = g.ipt(a)
    bx, by = g.ipt(b)
    cx, cy = g.ipt(apex)
    return (ax - cx) * (bx - cx) + (ay - cy) * (by - cy)


def phase3_to_mst(ed: _Editor, target):
    """Exchange the edges of the graph, a tree here, for those of the
    canonical Euclidean MST ``target``: insert a missing MST edge, delete a
    longest edge of the unique created cycle.

    The exchanges need no crossing or connectivity check.  The tree lies in
    T, the Delaunay triangulation, which phase 2 checks at its end, and
    each insert is an MST edge, an edge of T, so it crosses no tree edge.
    Each delete is of an edge of the cycle that the insert closed, so the
    graph stays a spanning tree."""
    sq = _sq_len(ed.graph.points)
    for e in sorted(target - ed.graph.edges):
        ed.insert(e[0], e[1], PHASE_MST)
        cyc = [ekey(*x) for x in ed._cycle(*e)]
        lens = [sq(f) for f in cyc]
        mx = max(lens)
        outside = [f for f, w in zip(cyc, lens) if w == mx and f not in target]
        if not outside:
            raise LemmaViolation("all longest cycle edges belong to the MST")
        f = min(outside)
        ed.delete(f[0], f[1], PHASE_MST)
    if ed.graph.edges != target:
        raise LemmaViolation("phase 3 did not reach the MST")


def phase4_grow_cycle(ed: _Editor):
    """Grow a weakly simple polygon from a hull edge over the whole vertex
    set, starting from the graph, the Euclidean MST here; the polygon plus
    leftover edges never exceed twice the MST.

    The edits need no crossing or connectivity check.  The first insert is
    a convex hull edge, which no segment between the points crosses, and
    it closes the first polygon.  Every later insert is a geodesic edge,
    which crosses nothing (``convex_geodesic``).  ``_Editor.splice``
    deletes an edge of ``old`` only with its last polygon copy, and the
    rest of the closed walk joins its ends; it deletes an off-polygon edge
    only between two polygon vertices, which the polygon joins.

    Each round grows the polygon at y, the least polygon vertex with a
    convex CCW-consecutive pair of neighbours, one on the polygon and one
    off it: the least rim vertex, one with a neighbour off the polygon,
    which a heap keeps.  A rim vertex also has a polygon neighbour, so it
    has at least two mixed pairs, and at most one sector at a vertex is
    reflex; a vertex off the rim has no mixed pair.  Phase 4 only adds polygon
    vertices, and each edge it inserts joins two of them, so a vertex never
    rejoins the rim: the heap takes each new polygon vertex on the rim and
    drops a top that has left it."""
    g = ed.graph
    id_at = {g.ipt(p.id): p.id for p in g.points}
    hull = [id_at[xy] for xy in convex_hull(list(id_at))]
    hull_edges = [ekey(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
    absent = [e for e in hull_edges if e not in g.edges]
    if not absent:
        raise LemmaViolation("spanning tree contains the whole hull cycle")
    sq = _sq_len(g.points)
    u, v = max(absent, key=lambda e: (sq(e), [-c for c in e]))
    ed.insert(u, v, PHASE_GROW)
    # the face of (v, u) runs the cycle from u to v, that of (u, v) back
    cyc = ed._cycle(u, v)
    ed.trace([x[1] for x in cyc[::-1 if cyc[0] == (u, v) else 1]])

    rounds = 0
    mult, rot = ed.mult, g.rotation
    rim = [v for v in mult if any(w not in mult for w in rot[v])]
    heapify(rim)
    while len(mult) < g.n:
        rounds += 1
        if rounds > g.n:
            raise LemmaViolation("phase 4 exceeded its round budget")
        while rim and all(w in mult for w in rot[rim[0]]):
            heappop(rim)
        y = rim[0] if rim else None
        r = rot.get(y, ())
        # the in-polygon endpoint may come first or second
        found = next(((a, y, b) for a, b in zip(r, r[1:] + r[:1])
                      if (a in mult) != (b in mult) and _corner_convex(g, a, y, b)), None)
        if found is None:
            raise LemmaViolation("no convex boundary pair found in phase 4")
        a_end, y, b_end = found
        xq = a_end if a_end in mult else b_end  # on the polygon; the other end, zq, is not
        if ekey(xq, y) not in ed.support:
            raise LemmaViolation("selected pair edge is not on the polygon")

        geo = ed.geodesic([a_end, y, b_end])
        gids = geo.ids() if a_end == xq else geo.ids()[::-1]  # from xq to zq

        # splice: replace the first copy of edge (xq, y), seq[at] to seq[at + 1],
        # by xq .. geodesic .. zq, y; it starts at or just before an xq
        seq, m = ed.poly.seq, len(ed.poly.seq)
        i = -1
        xqs = [i := seq.index(xq, i + 1) for _ in range(mult[xq])]  # xq's positions
        at = min(j % m for k in xqs for j in (k, k - 1) if {seq[j], seq[(j + 1) % m]} == {xq, y})
        old, new = [xq, y], gids + [y]
        # delete the replaced polygon edge first (the rest of the polygon
        # keeps everything connected); only then insert the geodesic, so the
        # intermediate length never spikes above the ceiling
        ed.splice(at, old, new, PHASE_GROW)
        for v in gids[1:]:
            if any(w not in mult for w in rot[v]):
                heappush(rim, v)
    ed.poly.validate(ed.graph)
    if ed.poly_len > ed.cycle_bound:
        raise LemmaViolation("final polygon exceeds 2*MST")


def phase5_simplify(ed: _Editor):
    """Shortcut the sharpest corner of a repeated vertex until the polygon
    is simple; the total length strictly decreases each step.  As in phase
    4, every insert is a geodesic edge and every delete is joined by the
    polygon: the corner's vertex is repeated, so the rest of the walk still
    passes through it and joins the corner's ends."""
    g = ed.graph
    guard = 0
    while len(ed.mult) < len(ed.poly.seq):
        guard += 1
        if guard > 4 * g.n * g.n + 16:
            raise LemmaViolation("phase 5 exceeded its step budget")
        seq, m = ed.poly.seq, len(ed.poly.seq)
        best = None
        for j in range(m):
            if ed.mult[seq[j]] < 2:
                continue
            px, py = g.ipt(seq[j - 1])
            vx, vy = g.ipt(seq[j])
            nx, ny = g.ipt(seq[(j + 1) % m])
            u_vec, w_vec = (px - vx, py - vy), (nx - vx, ny - vy)
            if best is None or angle_less(u_vec, w_vec, best[0], best[1]):
                best = (u_vec, w_vec, j)
        j = best[2]
        old = [seq[j - 1], seq[j], seq[(j + 1) % m]]  # prev, vtx, nxt
        if old[0] == old[2]:
            # a spike (angle 0): contract it, so the twice-used edge
            # (prev, vtx) leaves the polygon
            new = old[:1]
        else:
            # three distinct points in general position: convex or reflex
            convex = _corner_convex(g, *old)
            ids = ed.geodesic(old if convex else old[::-1]).ids()
            new = ids if convex else ids[::-1]
        old_len = ed.poly_len
        # corner edges that vanish go first (the repeated vertex stays on
        # the polygon elsewhere), keeping the intermediate length monotone
        ed.splice((j - 1) % m, old, new, PHASE_SIMPLIFY)
        if not ed.poly_len < old_len + 1e-12:
            raise LemmaViolation("phase 5 step did not shorten the polygon")
    ed.poly.validate(ed.graph)


def transform(g: Pslg):
    """Run phases 1-5; returns (final cycle graph, polygon, OpLog)."""
    require_augmentable(g)
    # phase 2's triangulation depends only on g: build it first, and take
    # the MST that the editor's ceiling needs from it
    tree = spanning_subtree(g)
    T, flips = delaunay(g.points, tree)
    mst = euclidean_mst(g, T)
    ed = _Editor(g)
    ed.log.stats.update(base_length=ed.length, mst_length=ed.mst_length, ceiling=ed.ceiling)

    phase1_spanning_tree(ed, tree)
    phase2_to_delaunay_tree(ed, T, flips)
    phase3_to_mst(ed, mst)
    phase4_grow_cycle(ed)
    phase5_simplify(ed)

    final, poly = ed.frozen(), ed.poly
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
