"""Independent shortest-homotopic-path oracle for validating the funnel
implementation.

Model: a face of the PSLG, with its boundary walk doubled, is a topological
disk whose boundary points are the walk's vertex occurrences.  Any path is a
sequence of moves between occurrences: boundary moves along walk slots (both
directions) and straight chords that leave and arrive strictly inside the
angular sector of their end occurrences without crossing any face edge.
For bounded faces every move sequence between two fixed occurrences is
homotopic, so Dijkstra gives the geodesic.  The clipped outer face is an
annulus: moves additionally carry a signed crossing count with a vertical
cut ray, and only paths matching the query walk's total count are admitted.

Written against raw predicates only; shares no code with the sleeve or
funnel machinery.
"""

import heapq
from fractions import Fraction

from pslgaug.geom import dist, ekey
from pslgaug.pslg import facial_walks
from tests_support import walk_edges

WIND_CLAMP = 4


def _orient(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _seg_cross(p1, p2, p3, p4):
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    if d1 == d2 == d3 == d4 == 0:
        if p1[0] != p2[0] or p3[0] != p4[0]:
            lo = max(min(p1[0], p2[0]), min(p3[0], p4[0]))
            hi = min(max(p1[0], p2[0]), max(p3[0], p4[0]))
        else:
            lo = max(min(p1[1], p2[1]), min(p3[1], p4[1]))
            hi = min(max(p1[1], p2[1]), max(p3[1], p4[1]))
        return lo < hi
    for (dd, s, t, q) in ((d1, p3, p4, p1), (d2, p3, p4, p2),
                          (d3, p1, p2, p3), (d4, p1, p2, p4)):
        if dd == 0 and s != q != t:
            if s[0] != t[0]:
                if min(s[0], t[0]) < q[0] < max(s[0], t[0]):
                    return True
            elif min(s[1], t[1]) < q[1] < max(s[1], t[1]):
                return True
    return False


class FaceModel:
    def __init__(self, g, face_id):
        self.g = g
        walk = facial_walks(g)[face_id]
        self.seq = walk.seq
        self.m = len(walk.seq) - 1
        self.edges = set(walk_edges(walk))
        self.is_outer = walk.is_outer
        self.cut_slot = None
        if walk.is_outer:
            self._make_cut()

    def _pt(self, v):
        p = self.g.by_id[v]
        return (p.x, p.y)

    def vertex(self, pos):
        return self.seq[pos % self.m]

    def _sector_has(self, pos, target_xy):
        pos %= self.m
        apex = self._pt(self.seq[pos])
        prev = self._pt(self.seq[(pos - 1) % self.m])
        nxt = self._pt(self.seq[pos + 1])
        u = (prev[0] - apex[0], prev[1] - apex[1])
        v = (nxt[0] - apex[0], nxt[1] - apex[1])
        d = (target_xy[0] - apex[0], target_xy[1] - apex[1])
        cuv = u[0] * v[1] - u[1] * v[0]
        cud = u[0] * d[1] - u[1] * d[0]
        cdv = d[0] * v[1] - d[1] * v[0]
        if cuv == 0:
            same_ray = cud == 0 and u[0] * d[0] + u[1] * d[1] > 0
            return not same_ray
        if cuv > 0:
            return cud > 0 and cdv > 0
        return not (-cdv >= 0 and -cud >= 0)

    # -- cut ray (outer face) -------------------------------------------

    def _make_cut(self):
        for s in range(self.m):
            a = self._pt(self.seq[s])
            b = self._pt(self.seq[s + 1])
            if a[0] != b[0]:
                self.cut_slot = s
                break
        else:
            raise RuntimeError("all outer edges vertical")
        a = self._pt(self.seq[self.cut_slot])
        b = self._pt(self.seq[self.cut_slot + 1])
        # ray leaves from the face side (right of slot direction):
        # for dx < 0 the right side points up, else down
        self.ray_up = a[0] > b[0]
        xs = {Fraction(p.x) for p in self.g.points}
        lo, hi = min(a[0], b[0]), max(a[0], b[0])
        denom = 2
        while True:
            x0 = Fraction(lo) + (Fraction(hi) - Fraction(lo)) / denom
            if x0 not in xs:
                break
            denom += 1
        y0 = Fraction(a[1]) + (Fraction(b[1]) - Fraction(a[1])) * (x0 - a[0]) / (
            Fraction(b[0]) - a[0]
        )
        self.cut_x, self.cut_y = x0, y0

    def _seg_wind(self, a_xy, b_xy):
        """Signed crossings of segment a->b with the cut ray (transversal)."""
        if self.cut_slot is None:
            return 0
        ax, bx = a_xy[0], b_xy[0]
        if ax == bx or not (min(ax, bx) < self.cut_x < max(ax, bx)):
            return 0
        ay, by = a_xy[1], b_xy[1]
        ycross = Fraction(ay) + (Fraction(by) - ay) * (self.cut_x - ax) / (
            Fraction(bx) - ax
        )
        beyond = ycross > self.cut_y if self.ray_up else ycross < self.cut_y
        if not beyond:
            return 0
        return 1 if ax > bx else -1

    def boundary_wind(self, slot, forward):
        """Crossing count of the boundary move along the given slot."""
        if self.cut_slot is None:
            return 0
        a = self._pt(self.seq[slot])
        b = self._pt(self.seq[slot + 1])
        if slot == self.cut_slot:
            # runs along the cut base on the ray side
            return (1 if a[0] > b[0] else -1) * (1 if forward else -1)
        return self._seg_wind(a, b) if forward else self._seg_wind(b, a)

    # -- moves ------------------------------------------------------------

    def moves(self, pos):
        g = self.g
        m = self.m
        here = self.seq[pos]
        here_xy = self._pt(here)
        # boundary forward along slot pos
        q = (pos + 1) % m
        w = dist(g.by_id[here], g.by_id[self.seq[pos + 1]])
        yield q, w, self.boundary_wind(pos, True)
        # boundary backward along slot (pos-1) % m
        s = (pos - 1) % m
        w = dist(g.by_id[here], g.by_id[self.seq[s]])
        yield s, w, self.boundary_wind(s, False)
        # chords
        for q in range(m):
            there = self.seq[q]
            if there == here or ekey(here, there) in g.edges:
                continue
            there_xy = self._pt(there)
            if not self._sector_has(pos, there_xy):
                continue
            if not self._sector_has(q, here_xy):
                continue
            blocked = False
            for (eu, ev) in self.edges:
                if _seg_cross(here_xy, there_xy, self._pt(eu), self._pt(ev)):
                    blocked = True
                    break
            if blocked:
                continue
            yield q, dist(g.by_id[here], g.by_id[there]), self._seg_wind(
                here_xy, there_xy
            )


def _locate(g, walk_ids):
    """(face id, position) of the directed subwalk in ``facial_walks(g)``:
    each directed edge occurs once, so its first edge fixes both."""
    for w in facial_walks(g):
        m = len(w)
        for pos in range(m):
            if (w.seq[pos], w.seq[pos + 1]) == (walk_ids[0], walk_ids[1]):
                occurrence = [w.seq[(pos + k) % m] for k in range(len(walk_ids))]
                if len(walk_ids) > m + 1 or occurrence != list(walk_ids):
                    raise ValueError(f"{walk_ids} is not a subwalk of face {w.face_id}")
                return w.face_id, pos
    raise ValueError(f"directed edge {tuple(walk_ids[:2])} is on no facial walk")


def oracle_geodesic(g, walk_ids):
    """Shortest path homotopic to the facial subwalk: (length, id path)."""
    face, pos = _locate(g, walk_ids)
    model = FaceModel(g, face)
    m = model.m
    t = len(walk_ids) - 1
    start = pos % m
    end = (pos + t) % m

    target = 0
    for k in range(t):
        target += model.boundary_wind((pos + k) % m, True)

    dist_to = {(start, 0): 0.0}
    prev = {}
    h = [(0.0, start, 0)]
    while h:
        d, p, w = heapq.heappop(h)
        if d > dist_to.get((p, w), float("inf")) + 1e-15:
            continue
        if p == end and w == target:
            path = [(p, w)]
            while path[-1] in prev:
                path.append(prev[path[-1]])
            ids = [model.vertex(q) for q, _ in reversed(path)]
            out = [ids[0]]
            for v in ids[1:]:
                if v != out[-1]:
                    out.append(v)
            return d, out
        for q, wt, dw in model.moves(p):
            w2 = w + dw
            if abs(w2) > WIND_CLAMP:
                continue
            nd = d + wt
            if nd < dist_to.get((q, w2), float("inf")) - 1e-15:
                dist_to[(q, w2)] = nd
                prev[(q, w2)] = (p, w)
                heapq.heappush(h, (nd, q, w2))
    raise RuntimeError("oracle found no homotopic path")
