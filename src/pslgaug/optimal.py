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

A chordless face, whose closed walk repeats no vertex (2vc) or no edge
(2ec), is a ZERO cell as a whole: optimal_augment records it with cost 0.0
and no chord, and builds neither its feasibility matrix nor its DP.

Feasibility runs its sector, crossing and winding tests on the scaled
integer coordinates: as int64 numpy batches over all position pairs when
the face has at least _BATCH_MIN_SLOTS positions and its coordinates fit
_INT64_COORD_MAX, and one pair at a time on Python ints otherwise.

The DP reads only feasible chords.  Let f be their number, about 6% of the
position pairs on large random faces.  A cell (s, t) whose head p_s is not
a cut takes SKIP, C[s + 1, t], or SPLIT at a feasible chord (s, k); a cut
head takes the best PAIR of chords (i, j), i a descendant of p_s and j a
later non-descendant, or SPLIT beyond the anchor.  Each such choice is a
row of one candidate pool per face, scored (A + C[y, t]) + w: SKIP has
A = 0, y = s + 1, w = 0; PAIR A = C[s, i] + C[i, j], y = j, w = W[i, j];
SPLIT A = C[s, k], y = k, w = W[s, k].  The rows of a block (a head s, its
anchor and its cut status) form one run, sorted by the first t that may
read them: any t for SKIP, t >= j for PAIR, t >= k + 1 for SPLIT.  A
block's cells lie on consecutive diagonals, so cell (s, t) reads a prefix
of its run.  A cut block's run starts with a +inf sentinel in SKIP's
place, so a cell with no candidate comes out INF.  A row is activated, its
A computed once and cached, on the diagonal where a cell first reads it,
when both addends are final.  The runs of the non-cut blocks are laid out
once per face; a cut block's run joins at its first cell, where every
C[s, i] is final, without the i with C[s, i] = +inf.

Each diagonal t - s = L then gathers, for all its cells at once, the
prefixes of their runs and takes each cell's first minimum by tie key:
SKIP before every PAIR, in (i, j) order, before every SPLIT, in k order.
So PAIR takes its least (i, j), SPLIT wins only when strictly smaller and
SKIP is kept on a tie.  Case, k1 and k2 follow from the winning keys once
per face.  SPLIT costs O(f) per cell; PAIR costs the block's feasible
(i, j) with j <= t and C[s, i] finite, O(f) per cell as well, so a face
costs O(n^2 f) instead of the dense O(n^4).
"""

from __future__ import annotations

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


# Largest |scaled coordinate| at which the int64 feasibility kernel is exact.
# With |x|, |y| <= B on the face, a coordinate difference is at most 2B and
# the widest factor, the winding test's my2 - 2 ay = (uy - ay) + (vy - ay),
# at most 4B, so no product exceeds 8 B^2 in absolute value.  Each sum of two
# products is a dot product (at most |p| |q| <= 8 B^2), twice the area of a
# triangle in the 2B-square (at most 4 B^2) or the winding's sum of two such
# areas (at most 8 B^2).  8 B^2 < 2^63 for B = 2^30 - 1, while at B = 2^30
# the product (bx - ax) (my2 - 2 ay) can reach 2^31 * 2^32 = 2^63.
_INT64_COORD_MAX = 2**30 - 1

# Faces with fewer walk positions take the Python loop: below this the
# numpy set-up of the batch kernel costs more than it saves (measured).
_BATCH_MIN_SLOTS = 16

# Elements per temporary array of a batch, so that a large face never holds
# a whole chord-by-edge matrix.
_CHUNK = 8192

# Candidates the DP scores per batch: the batch's temporaries stay in a
# core's L2 cache (measured: half the time of one batch of 750k candidates).
_SCORE_CHUNK = 32768


def feasibility(g: Pslg, w: IndexedWalk, is_outer: bool) -> np.ndarray:
    """Chord weight matrix over walk positions: F[i, j] is the segment
    length when the chord is usable, +inf otherwise.

    A face of at least _BATCH_MIN_SLOTS positions whose scaled coordinates
    all lie within _INT64_COORD_MAX runs the int64 batch kernel; any other
    face the Python loop on exact ints.  Both give the same F."""
    n = w.n
    F = np.full((n + 1, n + 1), np.inf)
    if n >= _BATCH_MIN_SLOTS and _fits_int64(g, w):
        pairs = _feasible_pairs_int64(g, w, is_outer)
    else:
        pairs = _feasible_pairs_exact(g, w, is_outer)
    by_id, seq = g.by_id, w.seq
    for i, j in pairs:
        F[i, j] = F[j, i] = dist(by_id[seq[i]], by_id[seq[j]])
    return F


def _fits_int64(g: Pslg, w: IndexedWalk) -> bool:
    ix, iy = g._ix, g._iy
    return all(
        abs(ix[v]) <= _INT64_COORD_MAX and abs(iy[v]) <= _INT64_COORD_MAX
        for v in set(w.seq)
    )


def _feasible_pairs_exact(g: Pslg, w: IndexedWalk, is_outer: bool):
    """The usable chords (i, j), i < j, one pair of positions at a time."""
    n = w.n
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
            yield i, j


def _chunks(size, width):
    """Slices of range(size) of about _CHUNK // width items each."""
    step = max(1, _CHUNK // max(width, 1))
    for lo in range(0, size, step):
        yield slice(lo, lo + step)


def _in_sector_batch(cuv, ux, uy, wx, wy, dx, dy):
    """in_ccw_sector over arrays.  The points are in general position, so a
    sector with cuv == 0 is a leaf corner (rays u and w the same)."""
    cud = ux * dy - uy * dx
    cdv = dx * wy - dy * wx
    leaf = ~((cud == 0) & (ux * dx + uy * dy > 0))
    return np.where(
        cuv > 0, (cud > 0) & (cdv > 0), np.where(cuv < 0, (cud > 0) | (cdv > 0), leaf)
    )


def _feasible_pairs_int64(g: Pslg, w: IndexedWalk, is_outer: bool):
    """The usable chords (i, j), i < j, by the tests of
    _feasible_pairs_exact run as int64 batches over position pairs.

    The points are in general position (``build`` rejects collinear
    triples), so the orientation of three distinct points is never zero and
    a chord properly crosses a face edge with no shared endpoint iff each
    segment's endpoints lie strictly on opposite sides of the other's line.
    With a shared endpoint an orientation is zero, which puts that endpoint
    on neither side and leaves the pair uncounted, as the loop skips it."""
    n, seq = w.n, w.seq
    verts = sorted(set(seq))
    local = {v: k for k, v in enumerate(verts)}
    VX = np.array([g._ix[v] for v in verts], dtype=np.int64)
    VY = np.array([g._iy[v] for v in verts], dtype=np.int64)

    # per position 1..n (array index 0..n-1): vertex, and its corner's rays
    lv = np.array([local[v] for v in seq[1 : n + 1]], dtype=np.int64)
    corners = [w.neighbors(i) for i in range(1, n + 1)]
    lp = np.array([local[p] for p, _ in corners], dtype=np.int64)
    ln = np.array([local[q] for _, q in corners], dtype=np.int64)
    X, Y = VX[lv], VY[lv]
    UX, UY, WX, WY = VX[lp] - X, VY[lp] - Y, VX[ln] - X, VY[ln] - Y
    CUV = UX * WY - UY * WX

    # both sector tests, a block of rows at a time.  A face corner at u lies
    # between two edges that are consecutive around u, so no edge of g at u
    # points strictly into it: the sector test also rules out every chord
    # that is an edge, and only a repeated vertex needs its own test.
    I, J = [], []
    pos = np.arange(n)
    for rows in _chunks(n, n):
        r = pos[rows][:, None]
        c = pos[r[0, 0] + 1 :]
        DX, DY = X[c] - X[r], Y[c] - Y[r]
        ok = (c > r) & (lv[r] != lv[c])
        ok &= _in_sector_batch(CUV[r], UX[r], UY[r], WX[r], WY[r], DX, DY)
        ok &= _in_sector_batch(CUV[c], UX[c], UY[c], WX[c], WY[c], -DX, -DY)
        ri, ci = np.nonzero(ok)
        I.append(r[ri, 0])
        J.append(c[ci])
    I, J = np.concatenate(I), np.concatenate(J)

    # the walk's segments SA[k] -> SB[k], and its edges EA[e] - EB[e]
    SA = np.array([local[a] for a in seq[: w.closed_m]], dtype=np.int64)
    SB = np.array([local[b] for b in seq[1 : w.closed_m + 1]], dtype=np.int64)
    EA, EB = np.array(sorted({ekey(a, b) for a, b in zip(SA.tolist(), SB.tolist())})).T

    # crossings with the face's edges: vertex k lies strictly left of edge
    # e's line iff left[e, k], strictly right iff right[e, k]
    ex, ey = (VX[EB] - VX[EA])[:, None], (VY[EB] - VY[EA])[:, None]
    side = ex * (VY - VY[EA][:, None]) - ey * (VX - VX[EA][:, None])
    left, right = side > 0, side < 0
    keep = np.ones(I.size, dtype=bool)
    for b in _chunks(I.size, max(len(verts), len(EA))):
        u, v = lv[I[b]], lv[J[b]]
        ux, uy = VX[u][:, None], VY[u][:, None]
        chord = (VX[v][:, None] - ux) * (VY - uy) - (VY[v][:, None] - uy) * (VX - ux)
        cl, cr = chord > 0, chord < 0
        hit = (cl[:, EA] & cr[:, EB]) | (cr[:, EA] & cl[:, EB])
        hit &= ((left[:, u] & right[:, v]) | (right[:, u] & left[:, v])).T
        keep[b] = ~hit.any(axis=1)
    I, J = I[keep], J[keep]

    # winding number of the walk around each chord's (doubled) midpoint; sd
    # is half the determinant _winding_ok computes on doubled coordinates
    AX2, AY2, BY2 = 2 * VX[SA], 2 * VY[SA], 2 * VY[SB]
    SDX, SDY = VX[SB] - VX[SA], VY[SB] - VY[SA]
    target = 0 if is_outer else -1
    keep = np.ones(I.size, dtype=bool)
    for b in _chunks(I.size, SA.size):
        mx, my = (X[I[b]] + X[J[b]])[:, None], (Y[I[b]] + Y[J[b]])[:, None]
        sd = SDX * (my - AY2) - SDY * (mx - AX2)
        up = (AY2 <= my) & (my < BY2) & (sd > 0)
        down = (BY2 <= my) & (my < AY2) & (sd < 0)
        keep[b] = up.sum(axis=1) - down.sum(axis=1) == target
    return zip((I[keep] + 1).tolist(), (J[keep] + 1).tolist())


def _prefix_tables(w: IndexedWalk):
    """has_repeat[s][t], each slot's later mate slot (or 0), has_bridge[s][t]."""
    n, seq = w.n, w.seq
    prv = np.zeros(n + 2, dtype=np.int64)  # previous occurrence of p_i, or 0
    last = {}
    for i in range(1, n + 1):
        prv[i] = last.get(seq[i], 0)
        last[seq[i]] = i

    mate = np.zeros(n + 1, dtype=np.int64)  # partner slot (later one) or 0
    mate_before = np.zeros(n + 2, dtype=np.int64)  # [t]: slot t-1's earlier mate
    seen = {}
    for c in range(1, n):  # slots 1..n-1: edge between positions c, c+1
        e = ekey(seq[c], seq[c + 1])
        if e in seen:
            mate[seen[e]] = c
            mate_before[c + 1] = seen[e]
        else:
            seen[e] = c

    rows = np.arange(n + 2)[:, None]
    cols = np.arange(n + 2)
    inside = (cols > rows) & (cols <= n) & (rows >= 1)

    def reaches_back(back):
        """[s, t]: some back[q], s < q <= t, is at least s."""
        run = np.maximum.accumulate(np.where(cols > rows, back, 0), axis=1)
        return inside & (run >= rows)

    # has_repeat(s, t) when some p_q, s < q <= t, occurred before in [s, q);
    # has_bridge(s, t) when some slot c <= t-1 has its mate in [s, c)
    return reaches_back(prv), mate, reaches_back(mate_before)


def _fill(w: IndexedWalk, W: np.ndarray, mode: str):
    """The DP tables C, case, k1, k2 over the cells 1 <= s <= t <= n, filled
    one diagonal t - s = L at a time; every cell reads only shorter ones.

    Everything that does not depend on C is set up once for the face: the
    ZERO and INF cells, the live cells' blocks, the order of the runs and
    the runs of the non-cut blocks.  A diagonal then lays out the runs of
    the cut blocks whose first cell it holds, activates the rows its cells
    reach for the first time, and scores one run prefix per cell, in
    batches of about _SCORE_CHUNK candidates (see the module docstring)."""
    n, n2, vert = w.n, w.n + 2, w.vert
    nn = n2 * n2
    has_rep, mate, has_br = _prefix_tables(w)
    C = np.full((n2, n2), np.inf)
    Cf = C.reshape(-1)
    case = np.zeros((n2, n2), dtype=np.uint8)
    k1 = np.zeros((n2, n2), dtype=np.int64)
    k2 = np.zeros((n2, n2), dtype=np.int64)

    # every cell, by diagonal and then s
    per_diag = np.arange(n, 0, -1)
    start = per_diag.cumsum() - per_diag
    S = np.arange(1, n * (n + 1) // 2 + 1) - start.repeat(per_diag)
    T = S + np.arange(n).repeat(per_diag)
    zero = ~(has_rep if mode == MODE_2VC else has_br)[S, T]
    C[S[zero], T[zero]] = 0.0
    live = ~zero
    if mode == MODE_2VC:
        inf = live & (vert[S] == vert[T])
        case[S[inf], T[inf]] = _CASE_INF
        live &= ~inf
    S, T = S[live], T[live]
    if not S.size:
        return C, case, k1, k2
    diag = np.searchsorted(T - S, np.arange(n + 1)).tolist()

    # The head p_s of (s, t) is a cut iff t >= cut_from[s]: p_s occurs again
    # in (s, t] (2vc), or the edge of slot s has its mate slot in (s, t)
    # (2ec).  The anchor is the last occurrence of p_s in [s, t] (2vc), or
    # that mate slot (2ec).  first[q], the first position of p_q, numbers
    # the face's vertices.
    cut_from = np.full(n + 1, n + 1, dtype=np.int64)
    first = np.zeros(n + 1, dtype=np.int64)
    for ps in w.occ.values():
        first[ps] = ps[0]
        if mode == MODE_2VC:
            cut_from[ps[:-1]] = ps[1:]
    if mode == MODE_2VC:
        occ = np.array([ps[0] * n2 + p for ps in sorted(w.occ.values()) for p in ps])
        anchor = occ[np.searchsorted(occ, first[S] * n2 + T, side="right") - 1] % n2
    else:
        cut_from[mate > 0] = mate[mate > 0] + 1
        anchor = mate[S]
    cut = T >= cut_from[S]

    # blocks (s, anchor) in that order, a non-cut block as (s, s); bid[c] is
    # live cell c's block, whose cells (s, t0[b]) .. (s, t1[b]) lie on
    # consecutive diagonals
    key = S * n2 + np.where(cut, anchor, S)
    used = np.zeros(nn, dtype=bool)
    used[key] = True
    hk = used.nonzero()[0]
    bs, ba = np.divmod(hk, n2)
    bid = hk.searchsorted(key)
    bcut = ba != bs
    t0 = np.full(bs.size, n2)
    t1 = np.zeros(bs.size, dtype=np.int64)
    np.minimum.at(t0, bid, T)
    np.maximum.at(t1, bid, T)

    # SPLIT rows of a block: the feasible chords (s, k), lo <= k < t1, in
    # the index range sst .. sen of fs, fk.  At a cut p_s the optimum may
    # use such a chord, which the PAIR decomposition cannot express.
    # Splitting there is sound for bridges at any k >= s + 2 (the chord's
    # cycle contains the bridge edge); for cut vertices only beyond the
    # anchor, where the chord's cycle covers all of p_s's groups and ends
    # at a non-descendant.
    ok = np.isfinite(W)
    fs, fk = np.nonzero(ok)
    sk = fs * n2 + fk
    lo = bs + 2
    if mode == MODE_2VC:
        np.maximum(lo, ba + 1, out=lo)
    sst = sk.searchsorted(bs * n2 + lo)
    sen = sk.searchsorted(bs * n2 + np.maximum(lo, t1))

    # room for the PAIR rows of a cut block: the finite W in rows (s, a]
    # and columns (a, t1] (fin holds prefix counts)
    fin = np.zeros((n2, n2), dtype=np.int32)
    fin[1:, 1:] = ok.cumsum(axis=0, dtype=np.int32).cumsum(axis=1)
    r0, r1, c1 = bs + 1, ba + 1, t1 + 1
    pair_room = np.where(bcut, fin[r1, c1] - fin[r0, c1] - fin[r1, r1] + fin[r0, r1], 0)

    # The pool: each block's rows form one run, its SKIP row (a +inf
    # sentinel for a cut block) first and then sorted by the first t that
    # may read a row, so pos = base + that t.  A row scores (A + C[y, t]) +
    # wv, with ys = y * n2 + s; tie % nn is the flat index of A's second
    # addend, C[i, j] for PAIR and the zero cell C[k, k] for SPLIT, and a
    # cell takes the least tie among its minima.  The runs of the non-cut
    # blocks, one per head, come first, then those of the cut blocks in the
    # order they open, each at its first cell; base = that rank * n2.
    rank = np.empty_like(bs)
    rank[np.lexsort((np.where(bcut, t0 - bs, 0), bcut))] = np.arange(bs.size)
    base = rank * n2
    room = 1 + sen - sst + pair_room
    pos = np.empty(room.sum(), dtype=np.int64)
    tie, ys = np.empty_like(pos), np.empty_like(pos)
    wv, A = np.empty(pos.size), np.empty(pos.size)

    def put(q, b, t, key, y, w):
        pos[q], tie[q], ys[q], wv[q] = base[b] + t, key, y * n2 + bs[b], w

    nc = (~bcut).nonzero()[0]
    run = np.zeros_like(bs)
    run[nc] = room[nc].cumsum() - room[nc]
    put(run[nc], nc, 0, -1, bs[nc] + 1, 0.0)
    A[run[nc]] = 0.0
    head = np.full(n2, -1)
    head[bs[nc]] = nc
    e = np.arange(fs.size)
    b = head[fs]
    e = e[(b >= 0) & (sst[b] <= e) & (e < sen[b])]
    b, k = head[fs[e]], fk[e]
    put(run[b] + 1 + e - sst[b], b, k + 1, nn + k * (n2 + 1), k, W[fs[e], k])
    reached, top = run + 1, int(room[nc].sum())

    opening = [[] for _ in range(n)]
    for b in np.flatnonzero(bcut)[np.argsort(rank[bcut])].tolist():
        s, an, last = int(bs[b]), int(ba[b]), int(t1[b])
        opening[t0[b] - s].append((b, s, an, last, fk[sst[b] : sen[b]]))
    desc = np.zeros(n2 - 1, dtype=bool)
    cell, find = S * n2 + T, base[bid] + T
    won = np.zeros(S.size, dtype=np.int64)
    for L in range(n):
        a, b = diag[L], diag[L + 1]
        if a == b:
            continue

        # PAIR rows of a cut block (s, anchor): the chords (i, j) from a
        # descendant i of p_s (positions in (s, anchor), except p_s, for
        # 2vc; (s, anchor] for 2ec) with C[s, i] finite, final by its first
        # cell, to a later position j <= t1 whose vertex is no descendant;
        # merged with the block's SPLIT rows (s, k) by their first t
        for bk, s, an, last, k in opening[L]:
            if mode == MODE_2VC:
                D = np.arange(s + 1, an)
                D = D[vert[D] != vert[s]]
            else:
                D = np.arange(s + 1, an + 1)
            desc[first[D]] = True
            N = np.arange(an + 1, last + 1)
            N = N[~desc[first[N]]]
            desc[:] = False
            D = D[Cf[s * n2 + D] < np.inf]
            nj, di = np.nonzero(ok[D][:, N].T)
            i, j = D[di], N[nj]
            t = np.concatenate(([0], k + 1, j))
            o = t.argsort(kind="stable")
            r = slice(top, top + o.size)
            put(r, bk, t[o], np.concatenate(([-1], nn + k * (n2 + 1), i * n2 + j))[o],
                np.concatenate(([s + 1], k, j))[o], np.concatenate(([0.0], W[s, k], W[i, j]))[o])
            A[top], run[bk], reached[bk], top = np.inf, top, top + 1, r.stop

        # activate the rows the cells reach first, then score each prefix
        bl = bid[a:b]
        en = pos[:top].searchsorted(find[a:b], side="right")
        q = _ranges(reached[bl], en)[0]
        reached[bl] = en
        r = tie[q] % nn
        A[q] = Cf.take(ys[q] % n2 * n2 + r // n2) + Cf.take(r)
        st, cells, wins = run[bl], cell[a:b], won[a:b]
        reach = (en - st).cumsum()
        cuts = [0, b - a]
        if reach[-1] > _SCORE_CHUNK:
            cuts[1:1] = reach.searchsorted(range(_SCORE_CHUNK, int(reach[-1]), _SCORE_CHUNK))
        for c0, c1 in zip(cuts, cuts[1:]):
            if c1 > c0:
                idx, offs, cnt = _ranges(st[c0:c1], en[c0:c1])
                vals = A.take(idx) + Cf[L:].take(ys.take(idx))
                vals += wv.take(idx)
                Cf[cells[c0:c1]], wins[c0:c1] = _first_min(vals, tie, idx, offs, cnt)

    case[S, T] = np.where(cut, np.uint8(_CASE_INF), np.uint8(_CASE_SKIP))
    pair, split = (won >= 0) & (won < nn), won >= nn
    case[S[pair], T[pair]], case[S[split], T[split]] = _CASE_PAIR, _CASE_SPLIT
    k1[S[pair], T[pair]], k2[S[pair], T[pair]] = np.divmod(won[pair], n2)
    k1[S[split], T[split]] = (won[split] - nn) // (n2 + 1)
    return C, case, k1, k2


def _ranges(st, en):
    """The concatenated index ranges [st[r], en[r]), some perhaps empty, and
    the offset and length of each range in the result."""
    cnt = en - st
    offs = cnt.cumsum() - cnt
    idx = np.arange(offs[-1] + cnt[-1])
    idx += (st - offs).repeat(cnt)
    return idx, offs, cnt


def _first_min(vals, keys, idx, offs, cnt):
    """Per segment of ``vals`` given by ``offs`` and ``cnt`` (none empty):
    the minimum and the least keys[idx] among the entries equal to it.  The
    entries are sums of lengths and +inf, never NaN, so every segment has
    one."""
    vmin = np.minimum.reduceat(vals, offs)
    at = (vals == vmin.repeat(cnt)).nonzero()[0]
    return vmin, np.minimum.reduceat(keys.take(idx.take(at)), at.searchsorted(offs))


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


def _chordless(seq, mode) -> bool:
    """Whether the closed walk seq = (p_0, ..., p_n), p_0 = p_n, is a ZERO
    cell of its DP as a whole: no vertex twice among p_1, ..., p_n (2vc), or
    no edge twice among its n traversals (2ec).  Such a face needs no chord,
    and the DP would return (0.0, [])."""
    if mode == MODE_2VC:
        return len(set(seq)) == len(seq) - 1
    return len({ekey(a, b) for a, b in zip(seq, seq[1:])}) == len(seq) - 1


def optimal_augment(g: Pslg, mode: str, weight="length") -> OptimalResult:
    """Minimum-weight global augmentation: per-face optima are independent
    and their union is the global optimum.  A chordless face (see
    _chordless) is recorded with cost 0.0 and no chord, without building
    its feasibility matrix or DP."""
    if mode not in (MODE_2VC, MODE_2EC):
        raise ValueError(f"mode must be {MODE_2VC!r} or {MODE_2EC!r}")
    _check_weight(weight)
    require_augmentable(g)
    faces = []
    added = {}
    solve = dp_2vc if mode == MODE_2VC else dp_2ec
    for walk in facial_walks(g):
        cost, edges = (0.0, []) if _chordless(walk.seq, mode) else solve(g, walk, weight)
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
