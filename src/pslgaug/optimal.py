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

Feasibility runs two exact tests on the scaled integer coordinates, the
sector test at both ends and a proper-crossing test against the face's
edges, which in general position imply that the chord lies in the face.
The sector test at i puts the start of the open chord in the face, at
occurrence i.  The open chord can leave the face only through the walk:
through a face edge's interior, a proper crossing, or through a vertex,
which would make a collinear triple (build rejects those).  So it lies in
the face, and the sector test at j makes it arrive at occurrence j.  The
tests run as numpy batches over all position pairs, on int64 elements when
the face's coordinates fit _INT64_COORD_MAX and on Python ints otherwise.

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
place, so a cell with no candidate comes out INF.

Every run is laid out once per face, before any C is known, and so are
each cell's prefix end and the list of rows each diagonal reads first.  A
row is activated, its A computed once and cached, on that diagonal, when
both addends are final.  A descendant's vertex occurs nowhere outside the
descendant range: in 2vc because the occurrences of two vertices never
interleave in a facial walk, in 2ec because the walk between a bridge's
two traversals is the whole walk around the bridge's far side.  So every
later position up to a block's last cell is a non-descendant.

A PAIR row with C[s, i] = +inf scores +inf.  It never wins: the sentinel's
key -1 is the least, so a cut cell whose candidates are all +inf still
comes out INF, and C, case, k1 and k2 are those of a pool without such
rows.  In 2vc most of them are known before the fill, by the pocket test.
A pocket is the positions strictly between consecutive occurrences p < q
of one vertex v; by the non-interleaving above, a vertex at a pocket
position occurs nowhere else in the walk.  If s <= p < q <= i and no
feasible chord joins the pocket to a position in [s, p) or (q, i], every
chord the DP may choose for (s, i), which joins two positions of [s, i],
leaves the pocket attached to the rest of the subwalk through v alone.  v
then stays a cut vertex relative to (p_s, ..., p_i), so C[s, i] = +inf,
and the set-up drops the PAIR rows from that i.  In 2ec every row is kept:
there only 2-3% of the PAIR rows have C[s, i] = +inf.  A row holds its
tie key and y as int32, every key being below 2 n2^2 for n2 = n + 2, and
w and A as float64; the activation list holds the row and the flat
indices of A's two addends as int32: 36 bytes per row.

Each diagonal t - s = L then activates its rows and gathers, for all its
cells at once, the prefixes of their runs and takes each cell's first
minimum by tie key: SKIP before every PAIR, in (i, j) order, before every
SPLIT, in k order.  So PAIR takes its least (i, j), SPLIT wins only when
strictly smaller and SKIP is kept on a tie.  Case, k1 and k2 follow from
the winning keys once per face.  SPLIT costs O(f) per cell; PAIR costs the
block's feasible (i, j) with j <= t, O(f) per cell as well, so a face
costs O(n^2 f) instead of the dense O(n^4).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

from .geom import dist, ekey
from .oracle import CHECKS, certify, check_mode, check_weight, verify
from .pslg import LemmaViolation, Pslg, PslgError, facial_walks, require_augmentable


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
    vert: np.ndarray  # vert[i] = dense number of position i's vertex, 1..n (index 0 unused)
    occ: dict  # vertex id -> sorted list of positions in 1..n
    extended: bool

    @staticmethod
    def from_walk(walk, extend=False):
        seq = walk.seq
        m = len(seq) - 1
        if extend:
            seq = seq + (seq[1],)
        n = m + (1 if extend else 0)
        occ = {}
        for i in range(1, n + 1):
            occ.setdefault(seq[i], []).append(i)
        vert = np.zeros(n + 1, dtype=np.int64)
        for k, positions in enumerate(occ.values()):
            vert[positions] = k
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


@dataclass
class OptimalResult:
    added: list
    total_added_length: float
    mode: str
    faces: list


# Largest |scaled coordinate| at which the int64 feasibility kernel is exact.
# With |x|, |y| <= B on the face, every factor is a coordinate difference of
# at most 2B, so every product is at most 4 B^2 in absolute value.  The sums
# of two products are orientations, each twice the area of a triangle with
# corners in [-B, B]^2 (at most 4 B^2), and the sector test's dot products
# (at most |p| |q| <= 8 B^2), the widest.  8 B^2 < 2^63 for B = 2^30 - 1; at
# B = 2^30 the bound reaches 2^63.
_INT64_COORD_MAX = 2**30 - 1

# Elements per temporary array of a batch, so that a large face never holds
# a whole chord-by-edge matrix.
_CHUNK = 8192

# Candidates the DP scores per batch: the batch's temporaries stay in a
# core's L2 cache (measured: half the time of one batch of 750k candidates).
# The set-up lays out and lists its rows in batches of about as many.
_SCORE_CHUNK = 32768


def feasibility(g: Pslg, w: IndexedWalk) -> np.ndarray:
    """Chord weight matrix over walk positions: F[i, j] is the segment
    length when the chord is usable, +inf otherwise."""
    n = w.n
    F = np.full((n + 1, n + 1), np.inf)
    by_id, seq = g.by_id, w.seq
    for i, j in _feasible_pairs(g, w):
        F[i, j] = F[j, i] = dist(by_id[seq[i]], by_id[seq[j]])
    return F


def _coord_dtype(g: Pslg, verts):
    """The element type of the feasibility batches over the vertices verts:
    int64 when all their scaled coordinates lie within _INT64_COORD_MAX, so
    that no product overflows, else object, on which numpy applies Python's
    exact int arithmetic and comparisons elementwise."""
    ix, iy = g._ix, g._iy
    if all(abs(ix[v]) <= _INT64_COORD_MAX and abs(iy[v]) <= _INT64_COORD_MAX for v in verts):
        return np.int64
    return object


def _chunks(size, width):
    """Slices of range(size) of about _CHUNK // width items each."""
    step = max(1, _CHUNK // max(width, 1))
    for lo in range(0, size, step):
        yield slice(lo, lo + step)


def _in_sector_batch(cuv, ux, uy, wx, wy, dx, dy):
    """Whether each direction d lies strictly inside the sector swept
    counterclockwise from direction u to direction w, cuv being u x w.  The
    points are in general position, so a sector with cuv == 0 is a leaf
    corner (rays u and w the same), whose sector is the full angle less the
    ray u."""
    cud = ux * dy - uy * dx
    cdv = dx * wy - dy * wx
    leaf = ~((cud == 0) & (ux * dx + uy * dy > 0))
    return np.where(
        cuv > 0, (cud > 0) & (cdv > 0), np.where(cuv < 0, (cud > 0) | (cdv > 0), leaf)
    )


def _feasible_pairs(g: Pslg, w: IndexedWalk):
    """The usable chords (i, j), i < j: the sector test at both ends and no
    proper crossing with a face edge, run as batches over position pairs on
    elements of _coord_dtype.

    The points are in general position (``build`` rejects collinear
    triples), so the orientation of three distinct points is never zero and
    a chord properly crosses a face edge with no shared endpoint iff each
    segment's endpoints lie strictly on opposite sides of the other's line.
    With a shared endpoint an orientation is zero, which puts that endpoint
    on neither side and leaves the pair uncounted."""
    n, seq = w.n, w.seq
    verts = sorted(set(seq))
    local = {v: k for k, v in enumerate(verts)}
    dtype = _coord_dtype(g, verts)
    VX = np.array([g._ix[v] for v in verts], dtype=dtype)
    VY = np.array([g._iy[v] for v in verts], dtype=dtype)

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

    # the face's edges EA[e] - EB[e]
    steps = zip(seq, seq[1 : w.closed_m + 1])
    EA, EB = np.array(sorted({ekey(local[a], local[b]) for a, b in steps})).T

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
    return zip((I[keep] + 1).tolist(), (J[keep] + 1).tolist())


def _pockets(w: IndexedWalk):
    """Consecutive occurrences p[r] < q[r] of one vertex, over all vertices."""
    pq = [(a, b) for ps in w.occ.values() for a, b in zip(ps, ps[1:])]
    return np.array(pq, dtype=np.int64).reshape(-1, 2).T


def _has_repeat(n, p, q):
    """[s, t]: some vertex occurs twice among the positions s .. t, from the
    consecutive occurrences p < q of each vertex (see _pockets)."""
    back = np.zeros(n + 2, dtype=np.int64)
    back[q] = p
    return _reaches_back(n, back)


def _bridges(w: IndexedWalk):
    """Each slot's later mate slot (or 0), and has_bridge[s, t]: some slot
    c <= t - 1 has its mate in [s, c)."""
    n, seq = w.n, w.seq
    seen, pairs = {}, []
    for c in range(1, n):  # slots 1..n-1: edge between positions c, c+1
        e = ekey(seq[c], seq[c + 1])
        if e in seen:
            pairs.append((seen[e], c))
        else:
            seen[e] = c
    a, c = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    mate = np.zeros(n + 1, dtype=np.int64)
    mate[a] = c
    back = np.zeros(n + 2, dtype=np.int64)  # [t]: slot t-1's earlier mate
    back[c + 1] = a
    return mate, _reaches_back(n, back)


def _reaches_back(n, back):
    """[s, t] over 0 <= s, t <= n + 1: 1 <= s < t <= n and some back[q],
    s < q <= t, is at least s."""
    rows = np.arange(n + 2)[:, None]
    cols = np.arange(n + 2)
    run = np.maximum.accumulate(np.where(cols > rows, back, 0), axis=1)
    return (cols > rows) & (cols <= n) & (rows >= 1) & (run >= rows)


def _fill(w: IndexedWalk, W: np.ndarray, mode: str):
    """The DP tables C, case, k1, k2 over the cells 1 <= s <= t <= n, filled
    one diagonal t - s = L at a time; every cell reads only shorter ones.

    Everything that does not depend on C is set up once for the face: the
    ZERO and INF cells, the live cells' blocks, every block's run, cut
    blocks included, each cell's prefix end and the rows each diagonal
    reads first.  No run waits for C: a cut block's PAIR rows are laid out
    with every descendant i, less in 2vc the i that _dead_pockets proves to
    have C[s, i] = +inf, and a kept row with C[s, i] = +inf scores +inf
    and never wins.  A row costs 36 bytes (int32 tie key, y and activation
    entries, float64 w and A).  A diagonal then activates its rows and
    scores one run prefix per cell, in batches of about _SCORE_CHUNK
    candidates (see the module docstring)."""
    n, n2, vert = w.n, w.n + 2, w.vert
    nn = n2 * n2
    if mode == "2vc":
        p, q = _pockets(w)
        has = _has_repeat(n, p, q)
    else:
        mate, has = _bridges(w)
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
    zero = ~has[S, T]
    C[S[zero], T[zero]] = 0.0
    live = ~zero
    if mode == "2vc":
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
    # that mate slot (2ec).
    cut_from = np.full(n + 1, n + 1, dtype=np.int64)
    if mode == "2vc":
        cut_from[p] = q
        occ = np.array([ps[0] * n2 + x for ps in sorted(w.occ.values()) for x in ps])
        first = np.zeros(n + 1, dtype=np.int64)
        first[occ % n2] = occ // n2
        anchor = occ[np.searchsorted(occ, first[S] * n2 + T, side="right") - 1] % n2
    else:
        cut_from[mate > 0] = mate[mate > 0] + 1
        anchor = mate[S]
    cut = T >= cut_from[S]

    # blocks (s, anchor) in that order, a non-cut block as (s, s); bid[c] is
    # live cell c's block, whose cells (s, t0[b]) .. (s, t1[b]) lie on
    # consecutive diagonals.  by_block lists the cells by s and then t,
    # which is by block and then t: block b's are cells[b] .. cells[b + 1].
    key = S * n2 + np.where(cut, anchor, S)
    used = np.zeros(nn, dtype=bool)
    used[key] = True
    hk = used.nonzero()[0]
    bs, ba = np.divmod(hk, n2)
    bid = hk.searchsorted(key)
    bcut = ba != bs
    cell = S * n2 + T
    by_block = cell.argsort()
    cells = np.concatenate(([0], np.bincount(bid).cumsum()))
    t0, t1 = T[by_block[cells[:-1]]], T[by_block[cells[1:] - 1]]
    # arrays the fill no longer reads are freed early, for a lower peak
    del has, key, anchor, used, hk

    # SPLIT rows of a block: the feasible chords (s, k), lo <= k < t1, in
    # the index range sst .. sen of fs, fk.  At a cut p_s the optimum may
    # use such a chord, which the PAIR decomposition cannot express.
    # Splitting there is sound for bridges at any k >= s + 2 (the chord's
    # cycle contains the bridge edge); for cut vertices only beyond the
    # anchor, where the chord's cycle covers all of p_s's groups and ends
    # at a non-descendant.
    ok = np.isfinite(W)
    fs, fk = np.nonzero(ok)
    fw = W[fs, fk]
    sk = fs * n2 + fk
    lo = bs + 2
    if mode == "2vc":
        np.maximum(lo, ba + 1, out=lo)
    sst = sk.searchsorted(bs * n2 + lo)
    sen = sk.searchsorted(bs * n2 + np.maximum(lo, t1))

    # PAIR rows of a cut block (s, anchor): the chords (i, j) from a
    # descendant i of p_s, in (s, anchor) except p_s's own positions for
    # 2vc and in (s, anchor] for 2ec, to a later position j <= t1; every
    # such j is a non-descendant, since no descendant's vertex occurs
    # outside (s, anchor].  In 2vc, drop[s, i] leaves out the i with
    # C[s, i] = +inf by the pocket test.  pair_room, the finite W in rows
    # (s, anchor] and columns (anchor, t1] (fin holds prefix counts),
    # bounds a block's PAIR rows.
    dlen = np.where(bcut, ba - bs - (mode == "2vc"), 0)
    below = np.zeros((n2, n2 - 1), dtype=np.int32)  # [r, c]: finite W[x, c], x < r
    ok.cumsum(axis=0, dtype=np.int32, out=below[1:])
    drop = None
    if mode == "2vc":
        drop = _dead_pockets(n, p, q, below)
        drop[1 : n + 1, 1 : n + 1] |= vert[1:, None] == vert[None, 1:]
    fin = np.zeros((n2, n2), dtype=np.int32)
    below.cumsum(axis=1, out=fin[:, 1:])
    r0, r1, c1 = bs + 1, ba + 1, t1 + 1
    pair_room = np.where(bcut, fin[r1, c1] - fin[r0, c1] - fin[r1, r1] + fin[r0, r1], 0)
    room = 1 + sen - sst + pair_room
    size = int(room.sum())
    if max(size, 2 * nn) > np.iinfo(np.int32).max:
        raise MemoryError(f"face {w.face_id}: too large for the DP's int32 rows and keys")

    # The pool: each block's rows form one run, its SKIP row (a +inf
    # sentinel for a cut block) first and then the others sorted by the
    # first t that may read them, raised to the block's first cell t0.  A
    # row scores (A + C[y, t]) + wv, with ys = y * n2 + s; tie % nn is the
    # flat index of A's second addend, C[i, j] for PAIR and the zero cell
    # C[k, k] for SPLIT, and a cell takes the least tie among its minima.
    # The runs are laid out in block order, a chunk of whole blocks at a
    # time, so that a chunk's (block, i) and (i, j) expansions stay near
    # _SCORE_CHUNK rows.  st[b] is run b's first row; cell c reads the rows
    # st[bid[c]] .. en[c] and reads beg[c] .. en[c] for the first time.
    tie, ys = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32)
    wv, A = np.empty(size), np.empty(size)
    st, en, beg = np.empty_like(bs), np.empty_like(S), np.empty_like(S)
    top = 0
    for b0, b1 in _batches(np.concatenate(([0], (room + dlen).cumsum())), 0, bs.size):
        blk = np.arange(b0, b1)
        es, _, cnt = _ranges(sst[blk], sen[blk])
        eb, k = blk.repeat(cnt), fk[es]
        cb = blk[bcut[blk]]
        i, _, cnt = _ranges(bs[cb] + 1, bs[cb] + 1 + dlen[cb])
        ib = cb.repeat(cnt)
        if drop is not None:
            keep = ~drop[bs[ib], i]
            i, ib = i[keep], ib[keep]
        row = i * n2
        ep, _, cnt = _ranges(sk.searchsorted(row + ba[ib] + 1), sk.searchsorted(row + t1[ib] + 1))
        pb, i, j = ib.repeat(cnt), i.repeat(cnt), fk[ep]
        rb = np.concatenate((blk, eb, pb)) - b0
        pos = rb * n2 + np.concatenate((t0[blk] - 1, np.maximum(k + 1, t0[eb]), j))
        o = pos.argsort(kind="stable")
        r = slice(top, top + o.size)
        tie[r] = np.concatenate((np.full(blk.size, -1), nn + k * (n2 + 1), i * n2 + j))[o]
        ys[r] = np.concatenate(((bs[blk] + 1) * n2 + bs[blk], k * n2 + bs[eb], j * n2 + bs[pb]))[o]
        wv[r] = np.concatenate((np.zeros(blk.size), fw[es], fw[ep]))[o]
        cnt = np.bincount(rb, minlength=blk.size)
        st[blk] = top + cnt.cumsum() - cnt
        A[st[blk]] = np.where(bcut[blk], np.inf, 0.0)
        c = by_block[cells[b0] : cells[b1]]
        pos, kc = pos[o], (bid[c] - b0) * n2 + T[c]
        en[c] = top + pos.searchsorted(kc, "right")
        beg[c] = top + pos.searchsorted(kc - 1, "right")
        top = r.stop

    del by_block, drop, below, fin, sk, fs, fk, fw
    # the rows each diagonal reads first, act, with the flat indices ia and
    # ib of their A's two addends
    reads = np.concatenate(([0], (en - beg).cumsum()))
    act = np.empty(reads[-1], dtype=np.int32)
    ia, ib = np.empty_like(act), np.empty_like(act)
    for c0, c1 in _batches(reads, 0, S.size):
        rows = _ranges(beg[c0:c1], en[c0:c1])[0]
        r = slice(reads[c0], reads[c1])
        act[r], ib[r] = rows, tie.take(rows) % nn
        ia[r] = S[c0:c1].repeat(en[c0:c1] - beg[c0:c1]) * n2 + ib[r] // n2
    reads = reads[diag].tolist()
    del beg

    # activate the rows the cells reach first, then score each prefix:
    # cell c's candidates are the rows reach[c] + g[c] .. reach[c + 1] + g[c],
    # at offset rel[c] in its diagonal's candidates
    g = st[bid]
    cnt = en - g
    reach = np.concatenate(([0], cnt.cumsum()))
    g -= reach[:-1]
    rel = reach[:-1] - reach[diag[:-1]].repeat(np.diff(diag))
    scored = np.diff(reach[diag]).tolist()  # candidates per diagonal
    won = np.zeros(S.size, dtype=np.int64)
    for L in range(n):
        a, b = diag[L], diag[L + 1]
        if a == b:
            continue
        r = slice(reads[L], reads[L + 1])
        A.put(act[r], Cf.take(ia[r]) + Cf.take(ib[r]))
        for c0, c1 in _batches(reach, a, b) if scored[L] > _SCORE_CHUNK else ((a, b),):
            idx = np.arange(reach[c0], reach[c1])
            idx += g[c0:c1].repeat(cnt[c0:c1])
            vals = A.take(idx) + Cf[L:].take(ys.take(idx))
            vals += wv.take(idx)
            offs = rel[c0:c1] - rel[c0] if c0 > a else rel[a:c1]
            Cf[cell[c0:c1]], won[c0:c1] = _first_min(vals, tie, idx, offs, cnt[c0:c1])

    case[S, T] = np.where(cut, np.uint8(_CASE_INF), np.uint8(_CASE_SKIP))
    pair, split = (won >= 0) & (won < nn), won >= nn
    case[S[pair], T[pair]], case[S[split], T[split]] = _CASE_PAIR, _CASE_SPLIT
    k1[S[pair], T[pair]], k2[S[pair], T[pair]] = np.divmod(won[pair], n2)
    k1[S[split], T[split]] = (won[split] - nn) // (n2 + 1)
    return C, case, k1, k2


def _dead_pockets(n, p, q, below):
    """dead[s, i]: some pocket of the walk between positions s and i has no
    feasible chord to the rest of [s, i], so C[s, i] = +inf in 2vc (see the
    module docstring).

    A pocket (p, q) is the positions strictly between consecutive
    occurrences p < q of one vertex.  It marks the (s, i) with hi < s <= p
    and q <= i < lo, where hi is its last chord partner before p (or -1)
    and lo its first after q (or n + 2)."""
    n2 = n + 2
    reach = below[q] != below[p + 1]
    col = np.arange(n2 - 1, dtype=np.int32)
    hi = np.where(reach & (col < p[:, None]), col, -1).max(axis=1, initial=-1)
    lo = np.where(reach & (col > q[:, None]), col, n2).min(axis=1, initial=n2)
    mark = np.zeros((n2 + 1, n2 + 1), dtype=np.int32)
    corners = (np.concatenate((hi, hi, p, p)) + 1, np.concatenate((q, lo, q, lo)))
    np.add.at(mark, corners, np.repeat([1, -1, -1, 1], p.size))
    mark.cumsum(axis=0, out=mark).cumsum(axis=1, out=mark)
    return mark[:n2, :n2] > 0


def _batches(cum, a, b):
    """Consecutive ranges [c0, c1) of the items a .. b - 1, item c holding
    cum[c + 1] - cum[c] elements, in batches of about _SCORE_CHUNK
    elements; an item larger than that is a batch of its own."""
    cuts = [a, b]
    if cum[b] - cum[a] > _SCORE_CHUNK:
        ends = range(cum[a] + _SCORE_CHUNK, cum[b], _SCORE_CHUNK)
        cuts[1:1] = (np.searchsorted(cum[a + 1 : b + 1], ends) + a).tolist()
    return [(c0, c1) for c0, c1 in zip(cuts, cuts[1:]) if c1 > c0]


def _ranges(st, en):
    """The concatenated index ranges [st[r], en[r]), some perhaps empty, and
    the offset and length of each range in the result."""
    cnt = en - st
    offs = cnt.cumsum() - cnt
    idx = np.arange(cnt.sum())
    idx += (st - offs).repeat(cnt)
    return idx, offs, cnt


def _first_min(vals, keys, idx, offs, cnt):
    """Per segment of ``vals`` given by ``offs`` and ``cnt`` (none empty):
    the minimum and the least keys[idx] among the entries equal to it.  The
    entries are sums of lengths and +inf, never NaN, so every segment has
    one."""
    vmin = np.minimum.reduceat(vals, offs)
    at = (vals == vmin.repeat(cnt)).nonzero()[0]
    first = keys.take(idx.take(at))
    if at.size > offs.size:
        first = np.minimum.reduceat(first, at.searchsorted(offs))
    return vmin, first


def _dp(g: Pslg, w: IndexedWalk, F: np.ndarray, mode: str, weight: str):
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

    edges = sorted({ekey(w.seq[i], w.seq[j]) for i, j in pairs})
    cost = float(C[1, n])
    return cost, edges, pairs


def dp_2vc(g: Pslg, walk, weight="length"):
    """(cost, chord edges) making the face 2-connected, by algorithm A."""
    check_weight(weight)
    w = IndexedWalk.from_walk(walk)
    F = feasibility(g, w)
    return _dp(g, w, F, "2vc", weight)[:2]


def dp_2ec(g: Pslg, walk, weight="length"):
    """(cost, chord edges) making the face 2-edge-connected, algorithm B."""
    check_weight(weight)
    w = IndexedWalk.from_walk(walk, extend=True)
    F = feasibility(g, w)
    return _dp(g, w, F, "2ec", weight)[:2]


def _chordless(seq, mode) -> bool:
    """Whether the closed walk seq = (p_0, ..., p_n), p_0 = p_n, is a ZERO
    cell of its DP as a whole: no vertex twice among p_1, ..., p_n (2vc), or
    no edge twice among its n traversals (2ec).  Such a face needs no chord,
    and the DP would return (0.0, [])."""
    if mode == "2vc":
        return len(set(seq)) == len(seq) - 1
    return len({ekey(a, b) for a, b in zip(seq, seq[1:])}) == len(seq) - 1


def optimal_augment(g: Pslg, mode: str, weight="length") -> OptimalResult:
    """Minimum-weight global augmentation: per-face optima are independent
    and their union is the global optimum.  A chordless face (see
    _chordless) is recorded with cost 0.0 and no chord, without building
    its feasibility matrix or DP.  The result is certified by
    ``oracle.verify``: planar and of the mode's connectivity, and under
    weight "length" also within the 2||E|| ratio."""
    check_mode(mode)
    check_weight(weight)
    require_augmentable(g)
    faces = []
    added = {}
    solve = dp_2vc if mode == "2vc" else dp_2ec
    for walk in facial_walks(g):
        cost, edges = (0.0, []) if _chordless(walk.seq, mode) else solve(g, walk, weight)
        faces.append(FaceSolution(face_id=walk.face_id, cost=cost, edges=edges))
        for e in edges:
            if e in added:
                raise LemmaViolation(f"chord {e} chosen in two faces")
            added[e] = dist(g.by_id[e[0]], g.by_id[e[1]])

    total = sum(f.cost for f in faces) if weight != "length" else fsum(added.values())
    chords = sorted(added)
    # a minimum-cardinality set has no length bound
    checks = CHECKS if weight == "length" else CHECKS[:2]
    certify(verify(g, chords, mode), f"optimal_augment {mode}", checks)
    return OptimalResult(
        added=chords,
        total_added_length=total,
        mode=mode,
        faces=faces,
    )
