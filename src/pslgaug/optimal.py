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

The table is filled one diagonal t - s = L at a time, each cell reading
only shorter intervals.  Per diagonal, the trivial (ZERO) and, for 2vc,
p_s = p_t (INF) cells are set by masks, and the chord-at-p_s split of every
remaining cell is one gather of C[s, k] + C[k, t] + W[s, k] with a row-wise
first-minimum.  Only cells whose head p_s is a cut (PAIR) loop in Python:
their O(n^2) chord-pair scan reads a block cached per head s and its anchor
(the descendant and non-descendant positions, W on their product, and the
already-final C[s, D] + C[D, N] columns), so the O(n^4) total stays numpy
arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import fsum

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


class _LazyNumpy:
    """Stands in for numpy until a DP first reads it, so that importing
    pslgaug and every command without a DP stay free of numpy's import
    time.  The first attribute read imports numpy and rebinds the module
    global ``np`` to it; later reads cost nothing extra."""

    def __getattr__(self, name):
        global np
        import numpy as np

        return getattr(np, name)


np = _LazyNumpy()

MODE_2VC = "2vc"
MODE_2EC = "2ec"
WEIGHTS = ("length", "unit")

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


def _winding_ok(segs, is_outer, mx2, my2):
    """Exact point-in-face test at the (doubled) midpoint coordinates over
    the walk's doubled segments: the walk winds -1 around points of a
    bounded face, 0 in the outer face."""
    wind = 0
    for ax2, ay2, bx2, by2 in segs:
        if (ay2 > my2) != (by2 > my2):
            side = (bx2 - ax2) * (my2 - ay2) - (by2 - ay2) * (mx2 - ax2)
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

    segs = [
        (2 * ix[a], 2 * iy[a], 2 * ix[b], 2 * iy[b])
        for a, b in zip(w.seq[: w.closed_m], w.seq[1 : w.closed_m + 1])
    ]

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
            if not _winding_ok(segs, is_outer, uxi + vxj, uyi + vyj):
                continue
            F[i, j] = F[j, i] = dist(g.by_id[u], g.by_id[v])
    return F


def _prefix_tables(w: IndexedWalk):
    """has_repeat[s][t], each slot's later mate slot (or 0), has_bridge[s][t]."""
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

    mate = np.zeros(n + 1, dtype=np.int64)  # partner slot (later one) or 0
    mate_prev = np.zeros(n + 1, dtype=np.int64)
    seen = {}
    for c in range(1, n):  # slots 1..n-1: edge between positions c, c+1
        e = ekey(int(vert[c]), int(vert[c + 1]))
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
    return has_rep, mate, has_br


def _fill(w: IndexedWalk, W: np.ndarray, mode: str):
    """The DP tables C, case, k1, k2 over the cells 1 <= s <= t <= n, filled
    one diagonal t - s = L at a time; every cell reads only shorter ones."""
    n = w.n
    vert = w.vert
    has_rep, mate, has_br = _prefix_tables(w)
    trivial = ~(has_rep if mode == MODE_2VC else has_br)
    # the head p_s of (s, t) is a cut iff t >= cut_from[s]: p_s occurs again
    # in (s, t] (2vc), or the edge of slot s has its mate slot in (s, t) (2ec)
    cut_from = np.full(n + 1, n + 1, dtype=np.int64)
    if mode == MODE_2VC:
        for ps in w.occ.values():
            cut_from[ps[:-1]] = ps[1:]
    else:
        cut_from[mate > 0] = mate[mate > 0] + 1

    C = np.full((n + 2, n + 2), np.inf)
    case = np.zeros((n + 2, n + 2), dtype=np.uint8)
    k1 = np.zeros((n + 2, n + 2), dtype=np.int64)
    k2 = np.zeros((n + 2, n + 2), dtype=np.int64)
    # per head s, the PAIR block of its current anchor
    blocks = {}

    for L in range(n):
        S = np.arange(1, n + 1 - L)
        T = S + L
        zero = trivial[S, T]
        C[S[zero], T[zero]] = 0.0
        live = ~zero
        if mode == MODE_2VC:
            inf = live & (vert[S] == vert[T])
            case[S[inf], T[inf]] = _CASE_INF
            live &= ~inf
        S, T = S[live], T[live]
        if not S.size:
            continue
        cut = T >= cut_from[S]
        best = np.where(cut, np.inf, C[S + 1, T])
        bcase = np.where(cut, _CASE_INF, _CASE_SKIP).astype(np.uint8)
        b1 = np.zeros(S.size, dtype=np.int64)
        b2 = np.zeros(S.size, dtype=np.int64)
        anchors = np.zeros(S.size, dtype=np.int64)

        for r in np.flatnonzero(cut).tolist():
            s, t = int(S[r]), int(T[r])
            if mode == MODE_2VC:
                ps = w.occ[int(vert[s])]
                anchor = anchors[r] = ps[bisect_right(ps, t) - 1]
            else:
                anchor = int(mate[s])
            blk = blocks.get(s)
            if blk is None or blk.anchor != anchor:
                blk = blocks[s] = _PairBlock(w, C, W, mode, s, anchor)
            found = blk.solve(C, t)
            if found is not None:
                best[r], b1[r], b2[r] = found
                bcase[r] = _CASE_PAIR

        # SPLIT: a chord from p_s to p_k, k in s+2 .. t-1.  At a cut p_s the
        # optimum may use such a chord, which the PAIR decomposition cannot
        # express.  Splitting there is sound for bridges at any k (the
        # chord's cycle contains the bridge edge); for cut vertices only
        # beyond the anchor, where the chord's cycle covers all of p_s's
        # groups and ends at a non-descendant (anchors is 0 off the cuts).
        if L >= 3:
            K = S[:, None] + np.arange(2, L)
            vals = C[S[:, None], K] + C[K, T[:, None]] + W[S[:, None], K]
            if mode == MODE_2VC:
                vals[K <= anchors[:, None]] = np.inf
            m = np.argmin(vals, axis=1)
            vmin = vals[np.arange(S.size), m]
            split = vmin < best
            best[split] = vmin[split]
            bcase[split] = _CASE_SPLIT
            b1[split] = S[split] + 2 + m[split]
            b2[split] = 0
        C[S, T] = best
        case[S, T] = bcase
        k1[S, T] = b1
        k2[S, T] = b2
    return C, case, k1, k2


class _PairBlock:
    """PAIR data of a head s with its anchor: the descendants D of p_s
    (positions in (s, anchor), except p_s, for 2vc; (s, anchor] for 2ec),
    the later positions N_full whose vertex is no descendant, W[D, N_full],
    and A = C[s, D] + C[D, N_full], filled column by column as the cells
    it reads become final (C[d, q] for d < q <= t, once (s, t) is reached)."""

    def __init__(self, w: IndexedWalk, C, W, mode, s, anchor):
        vert = w.vert
        if mode == MODE_2VC:
            D = np.arange(s + 1, anchor)
            D = D[vert[D] != vert[s]]
        else:
            D = np.arange(s + 1, anchor + 1)
        desc = set(vert[D].tolist())
        self.anchor = anchor
        self.D = D
        self.N_list = [q for q in range(anchor + 1, w.n + 1) if int(vert[q]) not in desc]
        self.N_full = np.array(self.N_list, dtype=np.int64)
        self.W_DN = W[D[:, None], self.N_full]
        self.C_sD = C[s, D][:, None]  # final: every d <= anchor < t
        self.A = np.empty((D.size, self.N_full.size))
        self.filled = 0

    def solve(self, C, t):
        """(value, i, j) of the first minimum of
        ((C[s, i] + C[i, j]) + C[j, t]) + W[i, j] over i in D and
        non-descendant j <= t, or None when no such sum is finite."""
        cnt = bisect_right(self.N_list, t)
        if not (self.D.size and cnt):
            return None
        if cnt > self.filled:
            cols = self.N_full[self.filled : cnt]
            self.A[:, self.filled : cnt] = self.C_sD + C[self.D[:, None], cols]
            self.filled = cnt
        N = self.N_full[:cnt]
        M = self.A[:, :cnt] + C[N, t]
        M += self.W_DN[:, :cnt]
        flat = int(M.argmin())
        value = M.flat[flat]
        if value == np.inf:
            return None
        bi, bj = divmod(flat, cnt)
        return value, int(self.D[bi]), int(N[bj])


def _dp(g: Pslg, w: IndexedWalk, F: np.ndarray, mode: str, weight: str):
    vert = w.vert
    n = w.n
    W = F if weight == "length" else np.where(np.isfinite(F), 1.0, np.inf)
    C, case, k1, k2 = _fill(w, W, mode)

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


def _check_weight(weight):
    if weight not in WEIGHTS:
        raise ValueError(f"weight must be {WEIGHTS[0]!r} or {WEIGHTS[1]!r}")


def dp_2vc(g: Pslg, walk, weight="length"):
    """(cost, chord edges) making the face 2-connected, by algorithm A."""
    _check_weight(weight)
    w = IndexedWalk.from_walk(walk)
    F = feasibility(g, w, walk.is_outer)
    return _dp(g, w, F, MODE_2VC, weight)[:2]


def dp_2ec(g: Pslg, walk, weight="length"):
    """(cost, chord edges) making the face 2-edge-connected, algorithm B."""
    _check_weight(weight)
    w = IndexedWalk.from_walk(walk, extend=True)
    F = feasibility(g, w, walk.is_outer)
    return _dp(g, w, F, MODE_2EC, weight)[:2]


def optimal_augment(g: Pslg, mode: str, weight="length") -> OptimalResult:
    """Minimum-weight global augmentation: per-face optima are independent
    and their union is the global optimum."""
    if mode not in (MODE_2VC, MODE_2EC):
        raise ValueError(f"mode must be {MODE_2VC!r} or {MODE_2EC!r}")
    _check_weight(weight)
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

    total = sum(f.cost for f in faces) if weight != "length" else fsum(added.values())
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
