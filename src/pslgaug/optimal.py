"""Minimum-total-length augmentation to 2-connectivity (algorithm A) or
2-edge-connectivity (algorithm B) of a connected PSLG, one interval dynamic
program per face.

For a face with closed walk (p_0, ..., p_n), p_0 = p_n, C[s][t] is the
minimum weight of a chord set that satisfies every cut vertex (resp. bridge)
relative to the subwalk (p_s, ..., p_t).  A vertex is a cut vertex relative
to the subwalk if it occurs in it more than once; the positions strictly
between consecutive occurrences are its descendants.  An edge is a bridge
relative to the subwalk if both of its traversals fall inside it.  Chords
are scored by the feasibility matrix: a chord between two walk positions is
usable iff its segment avoids every face edge and leaves both endpoints
strictly inside the angular sector of the face at those occurrences.

Cells are filled by increasing interval length; inner minimizations are
numpy-vectorized (the table has O(n^2) cells and each cell scans up to
O(n^2) chord pairs, the O(n^4) total the approach is good for).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .geom import dist, ekey, in_ccw_sector, segments_properly_cross
from .pslg import (
    LemmaViolation,
    Pslg,
    PslgError,
    build,
    connectivity,
    facial_walks,
    require_augmentable,
)

MODE_2VC = "2vc"
MODE_2EC = "2ec"

_CASE_ZERO = 0
_CASE_INF = 1
_CASE_SKIP = 2
_CASE_SPLIT = 3
_CASE_PAIR = 4


class InfeasibleFace(PslgError):
    pass


@dataclass
class IndexedWalk:
    """A facial walk with 1-based position indexing and occurrence maps.

    For the bridge DP the walk is extended by one position (p_{n+1} = p_1)
    so that all n edge traversals, including the closing one, fall inside
    the top-level interval: a bridge whose second traversal is the closing
    slot would otherwise never be "relative to" any subwalk.
    """

    face_id: int
    seq: tuple  # (p_0, ..., p_n[, p_1]) with p_0 == p_n
    n: int  # number of DP positions
    closed_m: int  # number of slots of the underlying closed walk
    vert: np.ndarray  # vert[i] = vertex id at position i, 1..n (index 0 unused)
    occ: dict  # vertex id -> sorted list of positions in 1..n
    extended: bool

    @staticmethod
    def from_walk(walk, extend=False):
        seq = walk.seq
        m = len(seq) - 1
        if extend:
            seq = seq + (seq[1],)
        n = m + (1 if extend else 0)
        vert = np.zeros(n + 1, dtype=np.int64)
        occ = {}
        for i in range(1, n + 1):
            vert[i] = seq[i]
            occ.setdefault(seq[i], []).append(i)
        return IndexedWalk(
            face_id=walk.face_id,
            seq=seq,
            n=n,
            closed_m=m,
            vert=vert,
            occ=occ,
            extended=extend,
        )

    def neighbors(self, i):
        """Cyclic corner neighbors of the occurrence at position i (for the
        sector test); the duplicated end position shares position 1's corner."""
        if self.extended and i == self.n:
            return self.seq[self.closed_m], self.seq[2]
        prev = self.seq[i - 1]
        nxt = self.seq[i + 1] if i < len(self.seq) - 1 else self.seq[1]
        return prev, nxt


@dataclass
class FaceSolution:
    face_id: int
    cost: float
    edges: list
    index_pairs: list = field(default_factory=list)


@dataclass
class OptimalResult:
    added: list
    total_added_length: float
    mode: str
    faces: list


def _winding_ok(g, w: IndexedWalk, is_outer, mx2, my2):
    """Exact point-in-face test at the (doubled) midpoint coordinates: the
    walk winds -1 around points of a bounded face, 0 in the outer face."""
    wind = 0
    seq = w.seq
    for i in range(w.closed_m):
        ax, ay = g.ipt(seq[i])
        bx, by = g.ipt(seq[i + 1])
        ay2, by2 = 2 * ay, 2 * by
        if (ay2 > my2) != (by2 > my2):
            side = (2 * bx - 2 * ax) * (my2 - ay2) - (by2 - ay2) * (mx2 - 2 * ax)
            if ay2 <= my2 < by2:
                if side > 0:
                    wind += 1
            elif by2 <= my2 < ay2:
                if side < 0:
                    wind -= 1
    return wind == (0 if is_outer else -1)


def feasibility(g: Pslg, w: IndexedWalk, is_outer: bool) -> np.ndarray:
    """Chord weight matrix over walk positions: F[i, j] is the segment
    length when the chord is usable, +inf otherwise."""
    n = w.n
    F = np.full((n + 1, n + 1), np.inf)
    ix, iy = g._ix, g._iy
    face_edges = set()
    for i in range(1, n + 1):
        face_edges.add(ekey(w.seq[i - 1], w.seq[i]))
    elist = []
    for (a, b) in sorted(face_edges):
        ax, ay, bx, by = ix[a], iy[a], ix[b], iy[b]
        elist.append((a, b, ax, ay, bx, by, min(ax, bx), max(ax, bx), min(ay, by), max(ay, by)))

    sectors = []
    for i in range(n + 1):
        if i == 0:
            sectors.append(None)
            continue
        prev, nxt = w.neighbors(i)
        v = w.seq[i]
        vx, vy = ix[v], iy[v]
        sectors.append(
            (vx, vy, ix[prev] - vx, iy[prev] - vy, ix[nxt] - vx, iy[nxt] - vy)
        )

    def in_sector(i, tx, ty):
        vx, vy, ux, uy, wx, wy = sectors[i]
        return in_ccw_sector(ux, uy, wx, wy, tx - vx, ty - vy)

    for i in range(1, n + 1):
        u = w.seq[i]
        uxi, uyi = ix[u], iy[u]
        for j in range(i + 1, n + 1):
            v = w.seq[j]
            if u == v or ekey(u, v) in g.edges:
                continue
            vxj, vyj = ix[v], iy[v]
            if not in_sector(i, vxj, vyj):
                continue
            if not in_sector(j, uxi, uyi):
                continue
            lox, hix = min(uxi, vxj), max(uxi, vxj)
            loy, hiy = min(uyi, vyj), max(uyi, vyj)
            blocked = False
            for (a, b, ax, ay, bx, by, elox, ehix, eloy, ehiy) in elist:
                if a == u or a == v or b == u or b == v:
                    continue
                if elox > hix or ehix < lox or eloy > hiy or ehiy < loy:
                    continue
                if segments_properly_cross(uxi, uyi, vxj, vyj, ax, ay, bx, by):
                    blocked = True
                    break
            if blocked:
                continue
            if not _winding_ok(g, w, is_outer, uxi + vxj, uyi + vyj):
                continue
            F[i, j] = F[j, i] = dist(g.by_id[u], g.by_id[v])
    return F


def _prefix_tables(w: IndexedWalk):
    """has_repeat[s][t] and, for 2ec, has_bridge[s][t], plus helpers."""
    n = w.n
    vert = w.vert
    prv = np.zeros(n + 1, dtype=np.int64)
    last = {}
    for i in range(1, n + 1):
        prv[i] = last.get(int(vert[i]), 0)
        last[int(vert[i])] = i
    has_rep = np.zeros((n + 2, n + 2), dtype=bool)
    for s in range(1, n + 1):
        if s + 1 <= n:
            run = np.maximum.accumulate(prv[s + 1 : n + 1])
            has_rep[s, s + 1 : n + 1] = run >= s

    slot_edge = {}
    mate = np.zeros(n + 1, dtype=np.int64)  # partner slot (later one) or 0
    mate_prev = np.zeros(n + 1, dtype=np.int64)
    seen = {}
    for c in range(1, n):  # slots 1..n-1: edge between positions c, c+1
        e = ekey(int(vert[c]), int(vert[c + 1])) if c + 1 <= n else None
        slot_edge[c] = e
        if e in seen:
            mate[seen[e]] = c
            mate_prev[c] = seen[e]
        else:
            seen[e] = c
    has_br = np.zeros((n + 2, n + 2), dtype=bool)
    for s in range(1, n):
        run = np.maximum.accumulate(mate_prev[s : n])
        # has_bridge(s, t) when some slot c <= t-1 has its mate in [s, c)
        has_br[s, s + 1 : n + 1] = run >= s
    return prv, has_rep, mate, has_br


def _dp(g: Pslg, w: IndexedWalk, F: np.ndarray, mode: str, weight: str):
    n = w.n
    vert = w.vert
    prv, has_rep, mate, has_br = _prefix_tables(w)
    W = F if weight == "length" else np.where(np.isfinite(F), 1.0, np.inf)

    C = np.full((n + 2, n + 2), np.inf)
    case = np.zeros((n + 2, n + 2), dtype=np.uint8)
    k1 = np.zeros((n + 2, n + 2), dtype=np.int64)
    k2 = np.zeros((n + 2, n + 2), dtype=np.int64)

    occ_arr = {v: np.array(ps) for v, ps in w.occ.items()}

    for L in range(0, n):
        for s in range(1, n + 1 - L):
            t = s + L
            if mode == MODE_2VC:
                trivial = not has_rep[s, t]
            else:
                trivial = not has_br[s, t]
            if trivial:
                C[s, t] = 0.0
                case[s, t] = _CASE_ZERO
                continue
            if mode == MODE_2VC and vert[s] == vert[t] and s != t:
                C[s, t] = np.inf
                case[s, t] = _CASE_INF
                continue

            if mode == MODE_2VC:
                ps = w.occ[int(vert[s])]
                idx = bisect_right(ps, t) - 1
                head_is_cut = ps[idx] > s  # another occurrence of p_s in (s, t]
                pair_anchor = ps[idx] if head_is_cut else 0
            else:
                c2 = int(mate[s]) if s < n else 0
                head_is_cut = bool(c2) and s < c2 <= t - 1
                pair_anchor = c2

            if not head_is_cut:
                best = C[s + 1, t]
                bcase, bk1, bk2 = _CASE_SKIP, 0, 0
                if t - 1 >= s + 2:
                    ks = np.arange(s + 2, t)
                    vals = C[s, ks] + C[ks, t] + W[s, ks]
                    m = int(np.argmin(vals))
                    if vals[m] < best:
                        best = vals[m]
                        bcase, bk1, bk2 = _CASE_SPLIT, int(ks[m]), 0
                C[s, t] = best
                case[s, t] = bcase
                k1[s, t] = bk1
                continue

            if mode == MODE_2VC:
                k = pair_anchor
                D = np.arange(s + 1, k)
                D = D[vert[D] != vert[s]]
                desc_verts = np.unique(vert[D]) if D.size else np.array([], dtype=np.int64)
                N = np.arange(k + 1, t + 1)
                if N.size and desc_verts.size:
                    N = N[~np.isin(vert[N], desc_verts)]
            else:
                c2 = pair_anchor
                D = np.arange(s + 1, c2 + 1)
                desc_verts = np.unique(vert[D])
                N = np.arange(c2 + 1, t + 1)
                if N.size:
                    N = N[~np.isin(vert[N], desc_verts)]

            best = np.inf
            bcase, bk1, bk2 = _CASE_INF, 0, 0
            if D.size and N.size:
                M = (
                    C[s, D][:, None]
                    + C[np.ix_(D, N)]
                    + C[N, t][None, :]
                    + W[np.ix_(D, N)]
                )
                flat = int(np.argmin(M))
                bi, bj = divmod(flat, M.shape[1])
                if M[bi, bj] < best:
                    best = M[bi, bj]
                    bcase, bk1, bk2 = _CASE_PAIR, int(D[bi]), int(N[bj])
            # the optimum may also use a chord at p_s itself, which the X
            # decomposition cannot express.  Splitting there is sound for
            # bridges at any k (the chord's cycle contains the bridge edge);
            # for cut vertices only beyond the last occurrence of p_s, where
            # the chord's cycle covers all of p_s's groups and ends at a
            # non-descendant.
            lo = s + 2 if mode == MODE_2EC else max(s + 2, pair_anchor + 1)
            if t - 1 >= lo:
                ks = np.arange(lo, t)
                vals = C[s, ks] + C[ks, t] + W[s, ks]
                m2 = int(np.argmin(vals))
                if vals[m2] < best:
                    best = vals[m2]
                    bcase, bk1, bk2 = _CASE_SPLIT, int(ks[m2]), 0
            C[s, t] = best if np.isfinite(best) else np.inf
            case[s, t] = bcase if np.isfinite(best) else _CASE_INF
            k1[s, t] = bk1
            k2[s, t] = bk2

    # reconstruction
    pairs = []
    stack = [(1, n)]
    while stack:
        s, t = stack.pop()
        cs = case[s, t]
        if cs == _CASE_ZERO:
            continue
        if cs == _CASE_INF:
            raise InfeasibleFace(
                f"face {w.face_id}: no chord set satisfies W[{s},{t}]"
            )
        if cs == _CASE_SKIP:
            stack.append((s + 1, t))
        elif cs == _CASE_SPLIT:
            k = int(k1[s, t])
            pairs.append((s, k))
            stack.append((s, k))
            stack.append((k, t))
        else:
            i, j = int(k1[s, t]), int(k2[s, t])
            pairs.append((i, j))
            stack.append((s, i))
            stack.append((i, j))
            stack.append((j, t))

    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            (i, j), (i2, j2) = sorted(pairs[a]), sorted(pairs[b])
            if i < i2 < j < j2 or i2 < i < j2 < j:
                raise LemmaViolation(
                    f"reconstructed chords interleave: {pairs[a]} {pairs[b]}"
                )

    edges = sorted({ekey(int(vert[i]), int(vert[j])) for i, j in pairs})
    cost = float(C[1, n])
    return cost, edges, pairs


def dp_2vc(g: Pslg, walk, weight="length"):
    """(cost, chord edges) making the face 2-connected, by algorithm A."""
    w = IndexedWalk.from_walk(walk)
    F = feasibility(g, w, walk.is_outer)
    return _dp(g, w, F, MODE_2VC, weight)[:2]


def dp_2ec(g: Pslg, walk, weight="length"):
    """(cost, chord edges) making the face 2-edge-connected, algorithm B."""
    w = IndexedWalk.from_walk(walk, extend=True)
    F = feasibility(g, w, walk.is_outer)
    return _dp(g, w, F, MODE_2EC, weight)[:2]


def optimal_augment(g: Pslg, mode: str, weight="length") -> OptimalResult:
    """Minimum-weight global augmentation: per-face optima are independent
    and their union is the global optimum."""
    if mode not in (MODE_2VC, MODE_2EC):
        raise ValueError(f"mode must be {MODE_2VC!r} or {MODE_2EC!r}")
    require_augmentable(g)
    faces = []
    added = {}
    for walk in facial_walks(g):
        cost, edges = (dp_2vc if mode == MODE_2VC else dp_2ec)(g, walk, weight)
        faces.append(FaceSolution(face_id=walk.face_id, cost=cost, edges=edges))
        for e in edges:
            if e in added:
                raise LemmaViolation(f"chord {e} chosen in two faces")
            added[e] = dist(g.by_id[e[0]], g.by_id[e[1]])

    total = sum(f.cost for f in faces) if weight != "length" else sum(added.values())
    g2 = build(g.points, sorted(set(g.edges) | set(added)))
    rep = connectivity(g2)
    if mode == MODE_2VC and not rep.is_2_connected:
        raise LemmaViolation("optimal augmentation is not 2-connected")
    if mode == MODE_2EC and not rep.is_2_edge_connected:
        raise LemmaViolation("optimal augmentation is not 2-edge-connected")
    return OptimalResult(
        added=sorted(added),
        total_added_length=total,
        mode=mode,
        faces=faces,
    )
