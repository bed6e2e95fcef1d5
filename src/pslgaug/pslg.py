"""PSLG data model: rotation systems, facial walks, connectivity queries and
the maximal-convex-walk decomposition.

Facial-walk convention: arriving at v via edge (u, v), the walk departs via
the CCW-successor of (v, u) in the rotation at v.  Each face then lies to the
right of its directed boundary edges, bounded faces are traversed clockwise
(negative shoelace area) and the outer walk is the unique one with
non-negative area.  Under this convention the corner of a walk (prev, apex,
next) spans exactly the angular sector of its face at that corner, measured
counterclockwise from ray(apex->prev) to ray(apex->next), so a corner is
convex iff apex, prev, next turn counterclockwise: ``orient_xy`` of the
three is +1 (``_corner_convex``).

Connectivity is read off the face labels: an edge is a bridge iff one face
lies on both of its sides, and a vertex is a cut vertex iff one face meets
it twice (two of its outgoing darts share a label).  This holds for every
rotation system of genus 0, which Euler's formula certifies: V' - E + F =
2C', counting only the vertices and components that have an edge.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import fsum, lcm

from .geom import (
    Point,
    collinear_pair,
    dist,
    ekey,
    orient_xy,
    polar_index,
    segments_properly_cross,
)


class PslgError(Exception):
    """Base class for instance-validation and internal-invariant errors."""


class DuplicatePoint(PslgError):
    pass


class CollinearTriple(PslgError):
    pass


class CrossingEdges(PslgError):
    pass


class EdgeThroughVertex(PslgError):
    pass


class InvalidInstance(PslgError):
    pass


class LemmaViolation(PslgError):
    """A structural invariant that must hold for every valid input failed:
    indicates an internal bug, not bad input."""


@dataclass(frozen=True)
class FacialWalk:
    face_id: int
    seq: tuple  # closed vertex-id sequence, seq[0] == seq[-1]
    is_outer: bool

    def __len__(self):
        return len(self.seq) - 1  # number of edge slots


@dataclass(frozen=True)
class Walk:
    """A contiguous subwalk of one facial walk (open or closed)."""

    face_id: int
    seq: tuple

    @property
    def closed(self):
        return self.seq[0] == self.seq[-1]

    def __len__(self):
        return len(self.seq) - 1


@dataclass
class ConvexWalkSet:
    p0: list  # single-edge maximal walks
    p1: list  # closed convex walks
    p2: list  # open convex walks of >= 2 edges


@dataclass
class ConnectivityReport:
    components: list
    cut_vertices: set
    bridges: set
    is_2_connected: bool
    is_2_edge_connected: bool

    @property
    def connected(self):
        return len(self.components) == 1


class Pslg:
    """Immutable planar straight-line graph in general position.

    Construct through :func:`build` and edit through :meth:`with_edges`;
    all derived queries are cached.  One instance changes: the graph of the
    morph's certified editor (``transform._CertifiedEdges``, whose edge set
    is a live key view), edited in place, never asked a derived query and
    handed out only as a copy.
    """

    # cached derived queries (_mst: transform.euclidean_mst), and _last, the
    # graph with_edges last returned
    _faces = _walks = _conn = _face_env = _mst = _length = _last = None

    def __init__(self, points, by_id, edges, rotation, ix, iy):
        self.points = points  # tuple of Point, input order
        self.by_id = by_id
        self.edges = edges  # frozenset of (u, v), u < v
        self.rotation = rotation  # id -> tuple of neighbor ids, CCW
        self._ix = ix  # id -> scaled int x
        self._iy = iy

    # -- basic views ---------------------------------------------------

    @property
    def n(self):
        return len(self.points)

    def degree(self, v):
        return len(self.rotation[v])

    def total_length(self):
        """||E||, summed on the first call: a built graph never changes."""
        if self._length is None:
            self._length = fsum(dist(self.by_id[u], self.by_id[v]) for u, v in self.edges)
        return self._length

    def ipt(self, v):
        """Scaled integer coordinates (exact, for hot-path predicates)."""
        return (self._ix[v], self._iy[v])

    def faces(self) -> Faces:
        """The faces of the rotation system, shared by ``facial_walks`` and
        ``connectivity``; read only (an editor keeps its own)."""
        if self._faces is None:
            self._faces = Faces(self.rotation)
        return self._faces

    def with_edges(self, edge_pairs) -> Pslg:
        """The PSLG on the same, already validated points with the edge set
        ``edge_pairs``: checks the list for unknown ids, self-loops and
        duplicates, then makes the edit with :meth:`_edit`.  Raises
        InvalidInstance or CrossingEdges with the offending ids.

        Its own edge set gets this graph back, and the set of the graph it
        last returned that graph, cached faces included: on fixed points a
        graph is a function of its edge set, its rotations ``polar_index``'s.
        A set that raised is not kept."""
        edges = set()
        for u, v in edge_pairs:
            if u not in self.by_id or v not in self.by_id:
                raise InvalidInstance(f"edge ({u},{v}) references unknown point id")
            if u == v:
                raise InvalidInstance(f"self-loop at point {u}")
            k = ekey(u, v)
            if k in edges:
                raise InvalidInstance(f"duplicate edge {k}")
            edges.add(k)
        last = self if edges == self.edges else self._last
        if last is None or edges != last.edges:
            last = self._last = self._edit(edges - self.edges, self.edges - edges)
        return last

    def _edit(self, added, removed) -> Pslg:
        """The PSLG with the sets of edge keys ``added`` (new, no self-loops)
        and ``removed`` (present) changed.  General position rules out an
        edge through a vertex, so only crossings with an added edge are
        tested (_raise_first_crossing).  At each endpoint of a changed edge
        the old rotation, less the removed neighbours, gains the added ones
        one at a time, each where ``polar_index`` puts it.  Raises
        CrossingEdges."""
        ix, iy = self._ix, self._iy
        kept = self.edges - removed if removed else self.edges
        if added:
            _raise_first_crossing(kept, added, ix, iy)
        gone, new = {}, {}
        for u, v in removed:
            gone.setdefault(u, set()).add(v)
            gone.setdefault(v, set()).add(u)
        for u, v in added:
            new.setdefault(u, []).append(v)
            new.setdefault(v, []).append(u)
        rotation = dict(self.rotation)
        for v in gone.keys() | new.keys():
            drop = gone.get(v, ())
            rot = [w for w in rotation[v] if w not in drop]
            for w in new.get(v, ()):
                rot.insert(polar_index(rot, v, w, ix, iy), w)
            rotation[v] = tuple(rot)
        edges = frozenset(kept | added if added else kept)
        return Pslg(self.points, self.by_id, edges, rotation, ix, iy)


class _ValidatedPoints(tuple):
    """The points of a built PSLG in input order, as :func:`build` checked
    them, with the id index ``by_id`` and the scaled integer coordinates
    ``ix`` and ``iy``.  ``build`` takes such a tuple as already valid.
    ``g0`` is a weak reference to the graph ``build`` last built on it from
    the empty graph: a strong one would keep every graph alive with its
    points.  A copy or an unpickled tuple starts without one."""

    g0 = None

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "g0"}


def build(points, edge_pairs) -> Pslg:
    """Validate and build a PSLG.

    ``points`` is an iterable of Point or (id, x, y) with decimal-string
    (or int/Fraction) coordinates; ``edge_pairs`` an iterable of id pairs.
    Raises DuplicatePoint, CollinearTriple, CrossingEdges, EdgeThroughVertex
    or InvalidInstance with the offending ids.

    The points of a built graph (``g.points``) are not checked again, nor,
    while g0 (the last graph built on them from none) lives, the pairs of g0's
    edges: ``g0.with_edges`` tests only the pairs with an edge not in g0,
    which accepts exactly the sets a build from the empty graph accepts,
    with the same rotations, and rejects the others with the same exception
    and message: the list checks run in list order from any base, and a
    crossing is reported as the least crossing pair of the whole set.  The
    set g0 last accepted gets that graph itself back: ``verify`` after an
    augmenter reads the graph the augmenter built, held by g0 strongly.
    """
    if type(points) is not _ValidatedPoints:
        points = _validate_points(points, edge_pairs)
    elif points.g0 is not None and (g0 := points.g0()) is not None:
        return g0.with_edges(edge_pairs)
    rotation = {p.id: () for p in points}
    empty = Pslg(points, points.by_id, frozenset(), rotation, points.ix, points.iy)
    g = empty.with_edges(edge_pairs)
    points.g0 = weakref.ref(g)
    return g


_EXACT = (int, Fraction)  # the coordinate types of Point.make


def _validate_points(points, edge_pairs) -> _ValidatedPoints:
    """The point checks and the integer scaling of :func:`build`."""
    pts = []
    for p in points:
        if isinstance(p, Point) and type(p.x) in _EXACT and type(p.y) in _EXACT:
            pts.append(p)
            continue
        # a Point built directly, not by Point.make, is read as a triple
        pid, x, y = (p.id, p.x, p.y) if isinstance(p, Point) else p
        try:
            pts.append(Point.make(pid, x, y))
        except ValueError as e:
            raise InvalidInstance(f"point {pid!r}: {e}") from None

    ids = [p.id for p in pts]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise DuplicatePoint(f"duplicate point ids: {dup}")
    coord_seen = {}
    for p in pts:
        other = coord_seen.get(p.coords())
        if other is not None:
            raise DuplicatePoint(f"points {other} and {p.id} coincide")
        coord_seen[p.coords()] = p.id

    # scale all coordinates to integers once; every combinatorial test
    # below (and the hot paths downstream) runs on ints
    denom = 1
    for p in pts:
        denom = lcm(denom, p.x.denominator, p.y.denominator)
    ix = {p.id: int(p.x * denom) for p in pts}
    iy = {p.id: int(p.y * denom) for p in pts}

    # 32 n max(|x|, |y|) < 2^1023 keeps every coordinate, length and length
    # sum the program forms a finite float (README, instance format)
    far = max(map(abs, (*ix.values(), *iy.values())), default=0)
    if 32 * len(pts) * far >= 2**1023 * denom:
        pid = next(p.id for p in pts if far in (abs(ix[p.id]), abs(iy[p.id])))
        raise InvalidInstance(
            f"point {pid} lies too far out: 32 * n * max(|x|, |y|) must stay "
            f"below 2^1023 (n = {len(pts)})"
        )

    # general position: no three collinear, each point checked against the
    # points before it.  An edge through a third vertex makes a collinear
    # triple, so it is looked for only then; it is the reported fault when
    # there is one.  build's with_edges then rejects unknown ids,
    # self-loops, duplicates and crossings.
    order = sorted(ids)
    placed = []
    for c in order:
        pair = collinear_pair((ix[c], iy[c]), placed)
        if pair is not None:
            _raise_edge_through_vertex(pts, edge_pairs, ix, iy)
            a, b = order[pair[0]], order[pair[1]]
            raise CollinearTriple(f"points ({a},{b},{c}) are collinear")
        placed.append((ix[c], iy[c]))
    return _validated(pts, ix, iy)


def _validated(pts, ix, iy) -> _ValidatedPoints:
    """The points ``pts``, scaled to ``ix`` and ``iy``, as :func:`build`
    takes them, which the caller has run through its point checks."""
    out = _ValidatedPoints(pts)
    out.by_id, out.ix, out.iy = {p.id: p for p in pts}, ix, iy
    return out


def _raise_first_crossing(kept, added, ix, iy):
    """Raise CrossingEdges for the least pair, by edge keys, of properly
    crossing edges, one of them in ``added`` and the other in ``kept`` or
    ``added``, if there is one.  Kept edges cross no kept edge, so this is
    the least crossing pair of the whole edge set, whatever the base graph.

    Broad phase on bounding boxes (``_box``), exact test ``_cross``.  One
    added edge takes ``_first_crossing``'s pass over the kept edges.
    Several are sorted by xmin, each swept against the later ones that
    start at or before its xmax, and each kept edge is compared with the
    added boxes that start at or before its xmax (a binary search).
    """
    if len(added) == 1:
        (e,) = added
        f = _first_crossing(e, _box(*e, ix, iy), ((k, _box(*k, ix, iy)) for k in kept), ix, iy)
        if f is not None:
            raise _crossing(e, f)
        return
    boxes = sorted((*_box(u, v, ix, iy), u, v) for u, v in added)
    xmins = [box[0] for box in boxes]
    found = []  # crossing pairs, each sorted
    for u, v in kept:
        x0, x1, y0, y1 = _box(u, v, ix, iy)
        for _, xmax2, ymin2, ymax2, s, t in islice(boxes, bisect_right(xmins, x1)):
            if xmax2 >= x0 and ymin2 <= y1 and y0 <= ymax2 and _cross(u, v, s, t, ix, iy):
                found.append(tuple(sorted(((u, v), (s, t)))))
    for i, (_, x1, y0, y1, u, v) in enumerate(boxes):
        for _, _, ymin2, ymax2, s, t in islice(boxes, i + 1, bisect_right(xmins, x1, i + 1)):
            if ymin2 <= y1 and y0 <= ymax2 and _cross(u, v, s, t, ix, iy):
                found.append(tuple(sorted(((u, v), (s, t)))))
    if found:
        raise _crossing(*min(found))


def _box(u, v, ix, iy):
    """The bounding box (xmin, xmax, ymin, ymax) of edge (u, v) on ix, iy."""
    x0, x1, y0, y1 = ix[u], ix[v], iy[u], iy[v]
    if x0 > x1:
        x0, x1 = x1, x0
    if y0 > y1:
        y0, y1 = y1, y0
    return x0, x1, y0, y1


def _first_crossing(e, box, boxes, ix, iy):
    """The least edge key k of ``boxes``, pairs (k, _box of k), that crosses
    edge ``e`` of box ``box``, or None: a box filter, then ``_cross``."""
    u, v = e
    x0, x1, y0, y1 = box
    best = None
    for k, (a, b, c, d) in boxes:
        if a <= x1 and x0 <= b and c <= y1 and y0 <= d and (best is None or k < best):
            if _cross(u, v, *k, ix, iy):
                best = k
    return best


def _cross(u, v, s, t, ix, iy):
    """Whether edges (u, v) and (s, t) share no endpoint and properly cross;
    in general position, edges with a common endpoint cannot cross."""
    return u != s and u != t and v != s and v != t and segments_properly_cross(
        ix[u], iy[u], ix[v], iy[v], ix[s], iy[s], ix[t], iy[t]
    )


def _crossing(e, f):
    """CrossingEdges naming the crossing edges ``e`` and ``f`` in key order."""
    (a, b), (c, d) = sorted((e, f))
    return CrossingEdges(f"edges ({a},{b}) and ({c},{d}) cross")


def _raise_edge_through_vertex(pts, edge_pairs, ix, iy):
    """Raise EdgeThroughVertex for the first edge, in sorted order, that
    passes through a third point, if any."""
    for (u, v) in sorted({ekey(u, v) for u, v in edge_pairs if u in ix and v in ix}):
        ax, ay, bx, by = ix[u], iy[u], ix[v], iy[v]
        for p in pts:
            if p.id in (u, v):
                continue
            px, py = ix[p.id], iy[p.id]
            if orient_xy(ax, ay, bx, by, px, py) == 0 and (
                min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)
            ):
                raise EdgeThroughVertex(f"edge ({u},{v}) passes through point {p.id}")


# -- facial walks ------------------------------------------------------


def next_darts(rotation):
    """Each directed edge (u, v) of the rotation system mapped to the next
    one on its facial walk: arrived via (u, v), the walk continues to the
    CCW-successor of u at v."""
    nxt = {}
    for v, rot in rotation.items():
        for i, u in enumerate(rot):
            nxt[(u, v)] = (v, rot[(i + 1) % len(rot)])
    return nxt


class Faces:
    """The faces of a rotation system, half-edge style (Guibas & Stolfi
    1985, without the dual): ``nxt`` maps each dart (directed edge) to the
    next dart of its facial walk (``next_darts``), and ``face`` maps it to a
    label shared by exactly the darts of its walk.  In a connected plane
    graph an edge is a bridge iff the same face lies on both of its sides,
    and a vertex is a cut vertex iff one face meets it twice.
    """

    def __init__(self, rotation):
        self.nxt = next_darts(rotation)
        self.face = {}
        self._labels = 0
        for d in self.nxt:
            if d not in self.face:
                self._label(d)

    def walk(self, d, k):
        """The vertices of the facial walk from dart ``d`` on, for k edges
        or, when the walk is shorter, once around."""
        nxt = self.nxt
        out, x = [d[0]], d
        for _ in range(k):
            x = nxt[x]
            out.append(x[0])
            if x == d:
                break
        return out

    def _label(self, d):
        """Give the darts of the facial walk through dart ``d`` a new face
        label."""
        label = self._labels = self._labels + 1
        nxt, face = self.nxt, self.face
        x = d
        while True:
            face[x] = label
            x = nxt[x]
            if x == d:
                return


def facial_walks(g: Pslg):
    """All facial walks of g, one per face label, each starting at its
    smallest directed edge and ordered by it.

    Each directed edge appears in exactly one walk exactly once; the unique
    walk of non-negative shoelace area is flagged as outer.
    """
    if g._walks is not None:
        return g._walks

    faces = g.faces()
    first = {}
    for d in sorted(faces.face):
        first.setdefault(faces.face[d], d)
    walks = [tuple(faces.walk(d, len(faces.nxt))) for d in first.values()]

    areas = []
    for seq in walks:
        a = 0
        for i in range(len(seq) - 1):
            u, v = seq[i], seq[i + 1]
            a += g._ix[u] * g._iy[v] - g._ix[v] * g._iy[u]
        areas.append(a)

    # bounded faces are traversed clockwise (negative area); a walk of
    # non-negative area is the external boundary of its component (unique
    # when the graph is connected)
    result = []
    if walks and not any(a >= 0 for a in areas):
        raise LemmaViolation("no outer facial walk found")
    for i, seq in enumerate(walks):
        result.append(FacialWalk(face_id=i, seq=seq, is_outer=(areas[i] >= 0)))
    g._walks = result
    return result


# -- graph search --------------------------------------------------------


def reach(adj, root):
    """Depth-first search from root over ``adj`` (vertex -> neighbours):
    each vertex of root's component mapped to its predecessor, root to None."""
    prev = {root: None}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj.get(x, ()):
            if y not in prev:
                prev[y] = x
                stack.append(y)
    return prev


def kruskal(edges, weight, joined=()):
    """Kruskal's algorithm: the edges, taken by increasing (weight(e), e),
    that join two components of the forest grown so far, which starts from
    the edges in ``joined``."""
    parent = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in joined:
        parent[find(u)] = find(v)
    out = []
    for e in sorted(edges, key=lambda e: (weight(e), e)):
        ra, rb = find(e[0]), find(e[1])
        if ra != rb:
            parent[ra] = rb
            out.append(e)
    return out


# -- connectivity ------------------------------------------------------


def connectivity(g: Pslg) -> ConnectivityReport:
    """Components of g by search; cut vertices and bridges by the face rule
    of the module docstring, after Euler's formula certifies its premise."""
    if g._conn is not None:
        return g._conn

    components, seen = [], set()
    for root in sorted(g.rotation):
        if root not in seen:
            comp = reach(g.rotation, root)
            seen.update(comp)
            components.append(sorted(comp))

    face = g.faces().face
    euler = sum(1 for rot in g.rotation.values() if rot) - len(g.edges) + len(set(face.values()))
    c2 = 2 * sum(1 for comp in components if len(comp) > 1)
    if euler != c2:
        raise LemmaViolation(f"rotation system is not planar: V - E + F = {euler}, 2C = {c2}")
    bridges = {(u, v) for (u, v), f in face.items() if u < v and face[(v, u)] == f}
    cut = {v for v, rot in g.rotation.items() if len({face[(v, w)] for w in rot}) < len(rot)}

    connected = len(components) == 1
    report = ConnectivityReport(
        components=components,
        cut_vertices=cut,
        bridges=bridges,
        is_2_connected=connected and g.n >= 3 and not cut,
        is_2_edge_connected=connected and not bridges,
    )
    g._conn = report
    return report


def require_augmentable(g: Pslg):
    """Raise InvalidInstance unless g is connected (an empty graph is not)
    and has at least 3 vertices."""
    if not g.points or len(reach(g.rotation, g.points[0].id)) != g.n:
        raise InvalidInstance("graph is not connected")
    if g.n < 3:
        raise InvalidInstance("need at least 3 vertices")


# -- convex walk decomposition ----------------------------------------


def _corner_convex(g: Pslg, prev, apex, nxt) -> bool:
    """Whether the corner (prev, apex, nxt) of a facial walk is convex.  A
    leaf corner (prev == nxt) spans the full angle and has orientation 0."""
    return orient_xy(*g.ipt(apex), *g.ipt(prev), *g.ipt(nxt)) > 0


def convex_walk_decomposition(g: Pslg) -> ConvexWalkSet:
    """Split every facial walk at its reflex corners into maximal convex
    walks: P0 single edges, P1 closed walks, P2 open walks of >= 2 edges."""
    require_augmentable(g)
    p0, p1, p2 = [], [], []
    for w in facial_walks(g):
        seq = w.seq
        m = len(seq) - 1
        # corner i sits between edge i and edge i+1, apex seq[i] (1-indexed,
        # corner m is the wrap corner at seq[m] == seq[0])
        reflex = []
        for i in range(1, m + 1):
            prev = seq[i - 1]
            apex = seq[i]
            nxt = seq[1] if i == m else seq[i + 1]
            if not _corner_convex(g, prev, apex, nxt):
                reflex.append(i)
        if not reflex:
            # the whole closed walk is convex
            inner = seq[:-1]
            k = min(range(m), key=lambda i: (inner[i], i))
            rot = inner[k:] + inner[:k]
            p1.append(Walk(w.face_id, tuple(rot) + (rot[0],)))
            continue
        for a, b in zip(reflex, reflex[1:] + [reflex[0] + m]):
            # run of edges a+1 .. b (cyclic), i.e. vertices seq[a..b]
            piece = tuple(seq[(a + i) % m] for i in range(b - a + 1))
            if len(piece) == 2:
                p0.append(Walk(w.face_id, piece))
            elif piece[0] == piece[-1]:
                p1.append(Walk(w.face_id, piece))
            else:
                p2.append(Walk(w.face_id, piece))
    return ConvexWalkSet(p0=p0, p1=p1, p2=p2)
