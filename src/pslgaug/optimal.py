"""Minimum-total-length augmentation to 2-connectivity (algorithm A) or
2-edge-connectivity (algorithm B) of a connected PSLG, one interval dynamic
program per pack of faces.

For a face with closed walk (p_0, ..., p_n), p_0 = p_n, C[s][t] is the
minimum length of a chord set that satisfies every cut vertex (resp. bridge)
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

The faces' optima are independent and add up, so optimal_augment solves
the other faces together, in packs of at most _PACK positions (a longer
walk alone) that lay their walks side by side.  Feasibility tests only the
pairs of one walk, against the pack's face edges: a chord in its own face
crosses no edge of another.  The fill scores only cells of one walk, whose
candidates read cells of that walk, and compares tie keys within a cell,
so each walk gets its own DP's C and keys, bit for bit, from one set-up
and one wavefront of the longest walk's diagonals.

Feasibility runs two exact tests on the scaled integer coordinates, the
sector test at both ends and a proper-crossing test against the face's
edges, which in general position imply that the chord lies in the face.
The sector test at i puts the start of the open chord in the face, at
occurrence i.  The open chord can leave the face only through the walk:
through a face edge's interior, a proper crossing, or through a vertex,
which would make a collinear triple (build rejects those).  So it lies in
the face, and the sector test at j makes it arrive at occurrence j.  Both
read orientation signs, as int8, computed on int64 elements when the
pack's extent fits _INT64_COORD_MAX and on Python ints otherwise, and no
face joins a pack that would move it from the one to the other.  One
vertex-by-edge table per pack holds each vertex's sign against each face
edge.  A corner's rays are face edges, so the sector test is sign logic on
two of its columns, one vertex-by-position table, and the pairs of one
walk that pass at both ends are one mask.  A chord crosses an edge
properly iff both sign products, of the edge's ends against the chord (a
chord-by-vertex table per batch of chords) and of the chord's ends against
the edge, are negative: four gathers per chord, and every chord-by-edge
temporary stays inside one batch of about _BATCH elements (_batches).

The DP reads only feasible chords.  Let f be their number, about 6% of the
position pairs on large random faces.  A cell (s, t) whose head p_s is not
a cut takes SKIP, C[s + 1, t], or SPLIT at a feasible chord (s, k); a cut
head takes the best PAIR of chords (i, j), i a descendant of p_s and j a
later non-descendant, or SPLIT beyond the anchor.  Each such choice is a
row of one candidate pool per pack, scored (A + C[y, t]) + w: SKIP has
A = 0, y = s + 1, w = 0; PAIR A = C[s, i] + C[i, j], y = j, w = W[i, j];
SPLIT A = C[s, k], y = k, w = W[s, k].  The rows of a block (a head s, its
anchor and its cut status) form one run, sorted by the first t that may
read them: any t for SKIP, t >= j for PAIR, t >= k + 1 for SPLIT.  A
block's cells lie on consecutive diagonals, so cell (s, t) reads a prefix
of its run.  A cut block's run starts with a +inf sentinel in SKIP's
place, so a cell with no candidate comes out INF.

Every run is laid out once per pack, before any C is known, and so are
each cell's prefix end and the list of rows each diagonal reads first.  A
row is activated, its A computed once and cached, on that diagonal, when
both addends are final.  A descendant's vertex occurs nowhere outside the
descendant range: in 2vc because the occurrences of two vertices never
interleave in a facial walk, in 2ec because the walk between a bridge's
two traversals is the whole walk around the bridge's far side.  So every
later position up to a block's last cell is a non-descendant.

A PAIR row with C[s, i] = +inf scores +inf.  It never wins: the sentinel's
key -1 is the least, so a cut cell whose candidates are all +inf still
comes out INF, and C and the winning keys are those of a pool without such
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
strictly smaller and SKIP is kept on a tie; the reconstruction reads the
winning keys.  SPLIT costs O(f) per cell; PAIR costs the block's feasible
(i, j) with j <= t, O(f) per cell as well, so a face costs O(n^2 f)
instead of the dense O(n^4).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from math import fsum

from .geom import dist, ekey
from .oracle import certify, check_mode, verify
from .pslg import LemmaViolation, Pslg, PslgError, facial_walks, require_augmentable


class _LazyNumpy:
    """Stands in for numpy until a DP first reads it, so that importing
    pslgaug and every command without a DP stay free of numpy's import
    time: the first attribute read rebinds the module global ``np``."""

    def __getattr__(self, name):
        global np
        import numpy as np

        return getattr(np, name)


np = _LazyNumpy()

# the keys of the cells the fill does not score (see _fill)
_ZERO, _INF, _SKIP = -3, -2, -1


class InfeasibleFace(PslgError):
    pass


@dataclass
class IndexedWalk:
    """The facial walks of one pack, laid side by side on one axis of
    1-based positions: walk k holds positions off[k] + 1 .. off[k + 1].

    For the bridge DP each walk is extended by one position (p_{m+1} = p_1)
    so that all m edge traversals, including the closing one, fall inside
    the walk's top-level interval: a bridge whose second traversal is the
    closing slot would otherwise never be "relative to" any subwalk.
    """

    walks: list  # the facial walks (closed Walks), in pack order
    off: list  # off[k]: the positions before walk k; off[-1] == n
    seq: tuple  # seq[i]: the vertex at position i; seq[0] is walk 0's p_0
    n: int  # number of DP positions
    vert: np.ndarray  # vert[i]: the index in occ of position i's vertex in its walk
    occ: list  # per vertex of a walk, its sorted positions, by first position

    @staticmethod
    def pack(walks, extend=False):
        seq, off, occ = [walks[0].seq[0]], [0], {}
        for k, walk in enumerate(walks):
            for v in walk.seq[1:] + walk.seq[1:2] * extend:
                occ.setdefault((k, v), []).append(len(seq))
                seq.append(v)
            off.append(len(seq) - 1)
        n, occ = off[-1], list(occ.values())
        vert = np.zeros(n + 1, dtype=np.int64)
        vert[[i for ps in occ for i in ps]] = np.arange(len(occ)).repeat([len(ps) for ps in occ])
        return IndexedWalk(walks, off, tuple(seq), n, vert, occ)

    def neighbors(self, i):
        """Cyclic corner neighbors of the occurrence at position i (for the
        sector test); a walk's duplicated end position shares its position
        1's corner."""
        k = bisect_left(self.off, i) - 1
        seq, x = self.walks[k].seq, i - self.off[k]
        x = 1 if x == len(seq) else x
        return seq[x - 1], seq[x % (len(seq) - 1) + 1]


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


# Largest extent of a face, in scaled coordinates on either axis, at which
# the int64 feasibility kernel runs.  The kernel reads only coordinate
# differences, so it moves the face into [0, B]^2 first.  Every factor is
# then a difference of at most B, every product at most B^2 in absolute
# value.  The widest values are the orientations and their two products:
# an orientation is twice a triangle's area in the box, at most B^2 as
# well, which for B = 2^31 - 1 is below 2^62 and fits int64.
_INT64_COORD_MAX = 2**31 - 1

# Elements per temporary batch, for every batch of the module: feasibility's
# chord-by-edge blocks, the DP set-up's rows and the candidates the DP
# scores.  A batch's temporaries stay in a core's L2 cache (measured: half
# the time of one batch of 750k candidates), and a large face never holds a
# whole chord-by-edge matrix.
_BATCH = 32768

# Positions per pack: past about 128 a pack's dense (n + 2)^2 tables and its
# crossing tests against every face edge of the pack cost more than it saves.
_PACK = 128


def _coord_dtype(xs, ys):
    """The element type of the feasibility batches over the face-local
    coordinates xs and ys, each at least 0: int64 when none exceeds
    _INT64_COORD_MAX, so that no product overflows, else object, on which
    numpy applies Python's exact int arithmetic and comparisons
    elementwise."""
    return np.int64 if max(*xs, *ys) <= _INT64_COORD_MAX else object


def feasibility(g: Pslg, w: IndexedWalk) -> np.ndarray:
    """Chord weight matrix over the pack's positions: F[i, j] is the
    segment length when the chord is usable, +inf otherwise.  A chord (i, j)
    of one walk is usable when it passes the sector test at both ends and
    crosses no face edge properly.  Both tests read orientation signs
    computed on elements of _coord_dtype, with the pack's least x and y at
    0; the sector test reads only the vertex-by-edge table.

    The points are in general position (``build`` rejects collinear
    triples), so the orientation of three distinct points is never zero and
    a chord properly crosses a face edge with no shared endpoint iff each
    segment's endpoints lie strictly on opposite sides of the other's line.
    With a shared endpoint an orientation is zero, which puts that endpoint
    on neither side and leaves the pair uncounted.  The sides are int8
    signs (+1 left, -1 right, 0 on the line), so each half of the test is a
    sign product below 0; the vertex-by-edge table is built once per pack,
    and every chord-by-edge temporary stays inside one batch of about
    _BATCH elements (``_batches``)."""
    n, seq = w.n, w.seq
    verts = sorted(set(seq))
    local = {v: k for k, v in enumerate(verts)}
    xs, ys = [g._ix[v] for v in verts], [g._iy[v] for v in verts]
    x0, y0 = min(xs), min(ys)
    xs, ys = [x - x0 for x in xs], [y - y0 for y in ys]
    dtype = _coord_dtype(xs, ys)
    VX, VY = np.array(xs, dtype=dtype), np.array(ys, dtype=dtype)

    # the pack's face edges EA[e] - EB[e]: a chord in its own face crosses
    # no edge of another.  side[k, e] is the sign of vertex k's orientation
    # against edge e.
    steps = [zip(wk.seq, wk.seq[1:]) for wk in w.walks]
    EA, EB = np.array(sorted({ekey(local[a], local[b]) for st in steps for a, b in st})).T
    ex, ey = VX[EB] - VX[EA], VY[EB] - VY[EA]
    side = np.sign(ex * (VY[:, None] - VY[EA]) - ey * (VX[:, None] - VX[EA])).astype(np.int8)

    # sector[t, i]: whether vertex t lies in the corner (p, u, q) of
    # position i, swept counterclockwise from p to q.  Its rays are the face
    # edges {u, p} and {u, q}, so orient(u, p, t) and orient(u, t, q) =
    # orient(q, u, t) are columns of side, and orient(u, p, q) is the first
    # at t = q.  At a leaf corner (p == q) that is 0 and rt is lt mirrored,
    # so lt | rt takes every t off the line through u and p.  t = u is on
    # both rays and in no sector, so no pair of one vertex passes.
    nv = len(verts)
    code = EA * nv + EB  # sorted, as the edge keys are
    lv, lp, lq = np.array([[local[seq[i]], *map(local.get, w.neighbors(i))]
                           for i in range(1, n + 1)]).T

    def left(a, b):
        """orient(a, b, t) > 0 for every vertex t, per position: edge
        {a, b}'s column of side, signed by the order of its key."""
        e = code.searchsorted(np.minimum(a, b) * nv + np.maximum(a, b))
        return side[:, e] == np.where(a < b, 1, -1)

    lt, rt = left(lv, lp), left(lq, lv)
    sector = np.where(lt[lq, np.arange(n)], lt & rt, lt | rt)

    # both sector tests on the pairs of positions of one walk.  A face
    # corner at u lies between two edges that are consecutive around u, so
    # no edge of g at u points strictly into it: the sector test also rules
    # out every chord that is an edge.
    inside = sector[lv]  # inside[j, i]: position j's vertex in i's corner
    walk = np.arange(len(w.walks)).repeat(np.diff(w.off))
    I, J = np.nonzero(np.triu(inside & inside.T & (walk[:, None] == walk), 1))

    # crossings with the face edges: chord[r, k] is the sign of vertex k's
    # orientation against chord r
    keep = np.ones(I.size, dtype=bool)
    for c0, c1 in _batches(np.arange(I.size + 1) * max(len(verts), len(EA)), 0, I.size):
        u, v = lv[I[c0:c1]], lv[J[c0:c1]]
        ux, uy = VX[u][:, None], VY[u][:, None]
        chord = (VX[v][:, None] - ux) * (VY - uy) - (VY[v][:, None] - uy) * (VX - ux)
        chord = np.sign(chord).astype(np.int8)
        # take: numpy gathers columns by take in about half the time of chord[:, EA]
        hit = chord.take(EA, axis=1) * chord.take(EB, axis=1) < 0
        hit &= side[u] * side[v] < 0
        keep[c0:c1] = ~hit.any(axis=1)
    I, J = I[keep] + 1, J[keep] + 1
    d = [dist(g.by_id[seq[i]], g.by_id[seq[j]]) for i, j in zip(I.tolist(), J.tolist())]
    F = np.full((n + 1, n + 1), np.inf)
    F[I, J] = F[J, I] = d
    return F


def _cut_from(w: IndexedWalk, mode: str):
    """``cut_from[s]`` over 0 <= s <= n, the least t at which the head p_s
    of a cell (s, t) is a cut, or n + 1: the next occurrence of p_s in its
    walk (2vc), or one past the later mate slot of slot s in its walk
    (2ec).  Also the pockets, consecutive occurrences p[r] < q[r] of one
    vertex in one walk (2vc), or each slot's later mate slot, or 0 (2ec).

    No vertex (2vc) or edge (2ec) repeats in (p_s, ..., p_t), the cell is
    ZERO, iff no cell (x, t), s <= x <= t, has a cut head: iff t is below
    min(cut_from[s:]), whose entries of later walks lie past t."""
    n, seq = w.n, w.seq
    cut_from = np.full(n + 1, n + 1, dtype=np.int64)
    if mode == "2vc":
        pq = [(a, b) for ps in w.occ for a, b in zip(ps, ps[1:])]
        p, q = np.array(pq, dtype=np.int64).reshape(-1, 2).T
        cut_from[p] = q
        return cut_from, (p, q)
    first, mate = {}, np.zeros(n + 1, dtype=np.int64)
    for k, (o, end) in enumerate(zip(w.off, w.off[1:])):
        for c in range(o + 1, end):  # slot c: the edge between positions c, c + 1
            a = first.setdefault((k, ekey(seq[c], seq[c + 1])), c)
            if a != c:
                mate[a] = c
    cut_from[mate > 0] = mate[mate > 0] + 1
    return cut_from, mate


def _fill(w: IndexedWalk, W: np.ndarray, mode: str):
    """The DP table C and the winning key ``won`` of each cell (s, t),
    s <= t, of one walk of the pack, filled one diagonal t - s = L at a
    time; no cell of two walks is scored.  A key is _ZERO, _INF, _SKIP, a
    PAIR's i * (n + 2) + j or a SPLIT's (n + 2)^2 + k * (n + 3).

    The ZERO cells, read off a suffix minimum of ``_cut_from``, the INF
    cells, the blocks, every block's run (less in 2vc the PAIR rows of the
    i that _dead_pockets proves to have C[s, i] = +inf), each cell's prefix
    end and the rows each diagonal reads first are set up once for the
    pack.  A diagonal then activates its rows and scores one run prefix per
    cell, in batches of about _BATCH candidates (see the module
    docstring)."""
    n, n2, vert = w.n, w.n + 2, w.vert
    nn = n2 * n2
    cut_from, heads = _cut_from(w, mode)
    C = np.full((n2, n2), np.inf)
    Cf = C.reshape(-1)
    won = np.full((n2, n2), _ZERO, dtype=np.int32)

    # every cell of one walk, by diagonal and then s: walk k's cells on
    # diagonal D have s in off[k] + 1 .. off[k + 1] - D
    off, m = np.array(w.off[:-1]), np.diff(w.off)
    D, _, cnt = _ranges(np.zeros_like(m), m)
    by_diag = D.argsort(kind="stable")
    D, k = D[by_diag], np.arange(m.size).repeat(cnt)[by_diag]
    S, _, cnt = _ranges(off[k] + 1, off[k] + m[k] - D + 1)
    T = S + D.repeat(cnt)
    zero = T < np.minimum.accumulate(cut_from[::-1])[::-1][S]
    C[S[zero], T[zero]] = 0.0
    live = ~zero
    if mode == "2vc":
        inf = live & (vert[S] == vert[T])
        won[S[inf], T[inf]] = _INF
        live &= ~inf
    S, T = S[live], T[live]
    if not S.size:
        return C, won
    diag = np.searchsorted(T - S, np.arange(m.max() + 1)).tolist()

    # The head p_s of (s, t) is a cut iff t >= cut_from[s].  The anchor is
    # the last occurrence of p_s in [s, t] (2vc), or the mate slot of slot
    # s (2ec).
    if mode == "2vc":
        occ = np.array([ps[0] * n2 + x for ps in w.occ for x in ps])
        first = np.zeros(n + 1, dtype=np.int64)
        first[occ % n2] = occ // n2
        anchor = occ[np.searchsorted(occ, first[S] * n2 + T, side="right") - 1] % n2
    else:
        anchor = heads[S]
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
    del key, anchor, used, hk

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
        drop = _dead_pockets(n, *heads, below)
        drop[1 : n + 1, 1 : n + 1] |= vert[1:, None] == vert[None, 1:]
    fin = np.zeros((n2, n2), dtype=np.int32)
    below.cumsum(axis=1, out=fin[:, 1:])
    r0, r1, c1 = bs + 1, ba + 1, t1 + 1
    pair_room = np.where(bcut, fin[r1, c1] - fin[r0, c1] - fin[r1, r1] + fin[r0, r1], 0)
    room = 1 + sen - sst + pair_room
    size = int(room.sum())
    if max(size, 2 * nn) > np.iinfo(np.int32).max:
        ids = [wk.face_id for wk in w.walks]
        raise MemoryError(f"faces {ids}: too large for the DP's int32 rows and keys")

    # The pool: each block's rows form one run, its SKIP row (a +inf
    # sentinel for a cut block) first and then the others sorted by the
    # first t that may read them, raised to the block's first cell t0.  A
    # row scores (A + C[y, t]) + wv, with ys = y * n2 + s; tie % nn is the
    # flat index of A's second addend, C[i, j] for PAIR and the zero cell
    # C[k, k] for SPLIT, and a cell takes the least tie among its minima.
    # The runs are laid out in block order, a batch of whole blocks at a
    # time, so that a batch's (block, i) and (i, j) expansions stay near
    # _BATCH rows.  st[b] is run b's first row; cell c reads the rows
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
        tie[r] = np.concatenate((np.full(blk.size, _SKIP), nn + k * (n2 + 1), i * n2 + j))[o]
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
    best = np.zeros(S.size, dtype=np.int64)
    for L in range(len(diag) - 1):
        a, b = diag[L], diag[L + 1]
        if a == b:
            continue
        r = slice(reads[L], reads[L + 1])
        A.put(act[r], Cf.take(ia[r]) + Cf.take(ib[r]))
        for c0, c1 in _batches(reach, a, b) if scored[L] > _BATCH else ((a, b),):
            idx = np.arange(reach[c0], reach[c1])
            idx += g[c0:c1].repeat(cnt[c0:c1])
            vals = A.take(idx) + Cf[L:].take(ys.take(idx))
            vals += wv.take(idx)
            offs = rel[c0:c1] - rel[c0] if c0 > a else rel[a:c1]
            Cf[cell[c0:c1]], best[c0:c1] = _first_min(vals, tie, idx, offs, cnt[c0:c1])

    # a cut cell won by its +inf sentinel has no candidate
    won[S, T] = np.where(cut & (best == _SKIP), _INF, best)
    return C, won


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
    cum[c + 1] - cum[c] elements, in batches of about _BATCH
    elements; an item larger than that is a batch of its own."""
    cuts = [a, b]
    if cum[b] - cum[a] > _BATCH:
        ends = range(cum[a] + _BATCH, cum[b], _BATCH)
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


def _dp(w: IndexedWalk, F: np.ndarray, mode: str):
    """One (cost, chord edges) per walk of the pack, read off one fill."""
    C, won = _fill(w, F, mode)
    n2, out = w.n + 2, []
    for walk, o, end in zip(w.walks, w.off, w.off[1:]):
        pairs, stack = [], [(o + 1, end)]
        while stack:
            s, t = stack.pop()
            key = int(won[s, t])
            if key == _ZERO:
                continue
            if key == _INF:
                raise InfeasibleFace(f"face {walk.face_id}: no chord set satisfies "
                                     f"W[{s - o},{t - o}]")
            if key == _SKIP:
                stack.append((s + 1, t))
            else:  # PAIR (i, j), or SPLIT at k as (s, k), whose (s, s) is ZERO
                i, j = divmod(key, n2) if key < n2 * n2 else (s, (key - n2 * n2) // (n2 + 1))
                pairs.append((i, j))
                stack += (s, i), (i, j), (j, t)

        for (i, j), (i2, j2) in combinations(sorted(map(sorted, pairs)), 2):
            if i < i2 < j < j2:
                raise LemmaViolation(f"reconstructed chords interleave: {i, j} {i2, j2}")
        out.append((float(C[o + 1, end]), sorted({ekey(w.seq[i], w.seq[j]) for i, j in pairs})))
    return out


def _solve(g: Pslg, walks, mode):
    if not walks:
        return []
    w = IndexedWalk.pack(walks, extend=mode == "2ec")
    return _dp(w, feasibility(g, w), mode)


def dp_2vc(g: Pslg, walks):
    """One (cost, chord edges) per facial walk, in order, making its face
    2-connected by algorithm A; the walks are solved as one pack."""
    return _solve(g, walks, "2vc")


def dp_2ec(g: Pslg, walks):
    """One (cost, chord edges) per facial walk, in order, making its face
    2-edge-connected by algorithm B; the walks are solved as one pack."""
    return _solve(g, walks, "2ec")


def _chordless(seq, mode) -> bool:
    """Whether the closed walk seq = (p_0, ..., p_n), p_0 = p_n, is a ZERO
    cell of its DP as a whole: no vertex twice among p_1, ..., p_n (2vc), or
    no edge twice among its n traversals (2ec).  Such a face needs no chord,
    and the DP would return (0.0, [])."""
    if mode == "2vc":
        return len(set(seq)) == len(seq) - 1
    return len({ekey(a, b) for a, b in zip(seq, seq[1:])}) == len(seq) - 1


def _packs(g: Pslg, walks, extend):
    """The walks, first fit in order, in packs of at most _PACK positions;
    a longer walk is a pack of its own.  No walk changes element type (see
    _coord_dtype): a pack's extent stays within _INT64_COORD_MAX unless
    every walk in it exceeds that alone."""
    def fits(xs, ys):
        return max(max(xs) - min(xs), max(ys) - min(ys)) <= _INT64_COORD_MAX

    packs = []  # [walks, positions, xs, ys, whether their extent fits]
    for walk in walks:
        xs, ys = [g._ix[v] for v in walk.seq], [g._iy[v] for v in walk.seq]
        n, alone = len(walk) + extend, fits(xs, ys)
        for p in packs:
            if p[1] + n <= _PACK and (fits(p[2] + xs, p[3] + ys) if alone else not p[4]):
                p[0].append(walk)
                p[1:4] = p[1] + n, p[2] + xs, p[3] + ys
                break
        else:
            packs.append([[walk], n, xs, ys, alone])
    return [p[0] for p in packs]


def optimal_augment(g: Pslg, mode: str) -> OptimalResult:
    """Minimum-length global augmentation: per-face optima are independent
    and their union is the global optimum.  A chordless face (see
    _chordless) is recorded with cost 0.0 and no chord, without building
    its feasibility matrix or DP.  The result is certified by
    ``oracle.verify``: planar, of the mode's connectivity and within the
    2||E|| ratio."""
    check_mode(mode)
    require_augmentable(g)
    walks = facial_walks(g)
    solve, solved = dp_2vc if mode == "2vc" else dp_2ec, {}
    for pack in _packs(g, [wk for wk in walks if not _chordless(wk.seq, mode)], mode == "2ec"):
        solved.update(zip([wk.face_id for wk in pack], solve(g, pack), strict=True))
    faces = [FaceSolution(wk.face_id, *solved.get(wk.face_id, (0.0, []))) for wk in walks]
    added = {}
    for e in (e for face in faces for e in face.edges):
        if e in added:
            raise LemmaViolation(f"chord {e} chosen in two faces")
        added[e] = dist(g.by_id[e[0]], g.by_id[e[1]])

    chords = sorted(added)
    certify(verify(g, chords, mode), f"optimal_augment {mode}")
    return OptimalResult(chords, fsum(added.values()), mode, faces)
