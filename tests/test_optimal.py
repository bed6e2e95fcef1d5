import hashlib
import itertools
import json
import math
import random
import re
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pslgaug import build, optimal
from pslgaug.cli import main
from pslgaug.geom import dist, ekey, segments_properly_cross
from pslgaug.instances import generate
from pslgaug.optimal import (
    IndexedWalk,
    InfeasibleFace,
    _INF,
    _SKIP,
    _ZERO,
    _chordless,
    _cut_from,
    _dead_pockets,
    _dp,
    _fill,
    dp_2ec,
    dp_2vc,
    feasibility,
    optimal_augment,
)
from pslgaug.oracle import Exhausted, brute_force_optimal, candidate_set, verify
from pslgaug.pslg import LemmaViolation, connectivity, facial_walks
from pslgaug.heuristic import augment_2ec, augment_2vc

from test_adversarial import FAMILIES, LARGE, _general_position
from tests_support import in_ccw_sector

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def occurrences(w, vid):
    return [i for i in range(1, w.n + 1) if w.seq[i] == vid]


def test_feasibility_fig3(fig3):
    walk = facial_walks(fig3)[0]
    w = IndexedWalk.pack([walk])
    F = feasibility(fig3, w)
    # the two dashed chords are feasible at exactly one occurrence pair each
    p1_pos = occurrences(w, 1)
    p3_pos = occurrences(w, 3)
    assert any(
        np.isfinite(F[i, j]) and F[i, j] == pytest.approx(1.0)
        for i in p1_pos
        for j in p3_pos
    )
    p4_pos = occurrences(w, 4)
    assert all(not np.isfinite(F[i, j]) for i in p1_pos for j in p4_pos)
    # existing edges are never candidates
    for i in range(1, w.n + 1):
        j = i + 1 if i < w.n else 1
        u, v = w.seq[i], w.seq[j]
        assert not np.isfinite(F[min(i, j) or 1, max(i, j)]) or ekey(u, v) not in fig3.edges


def test_feasibility_matches_brute_force():
    # independent re-derivation of the feasibility semantics on a small tree
    g = generate(7, 12345, 0.0)
    walk = facial_walks(g)[0]
    w = IndexedWalk.pack([walk])
    F = feasibility(g, w)

    def sector_ok(i, j):
        prev, nxt = w.neighbors(i)
        v = w.seq[i]
        vx, vy = g.ipt(v)
        px, py = g.ipt(prev)
        nx, ny = g.ipt(nxt)
        tx, ty = g.ipt(w.seq[j])
        return in_ccw_sector(px - vx, py - vy, nx - vx, ny - vy, tx - vx, ty - vy)

    face_edges = set()
    for i in range(1, w.n + 1):
        face_edges.add(ekey(w.seq[i - 1], w.seq[i]))
    for i in range(1, w.n + 1):
        for j in range(i + 1, w.n + 1):
            u, v = w.seq[i], w.seq[j]
            expect = True
            if u == v or ekey(u, v) in g.edges:
                expect = False
            if expect:
                expect = sector_ok(i, j) and sector_ok(j, i)
            if expect:
                ux, uy = g.ipt(u)
                vx, vy = g.ipt(v)
                for (a, b) in face_edges:
                    if u in (a, b) or v in (a, b):
                        continue
                    ax, ay = g.ipt(a)
                    bx, by = g.ipt(b)
                    if segments_properly_cross(ux, uy, vx, vy, ax, ay, bx, by):
                        expect = False
                        break
            assert np.isfinite(F[i, j]) == expect, (i, j)


def pool_instance(key):
    """The benchmark's pool instance gen-n{n}-d{d}: generate(n, seed, d),
    seeded by the first four bytes of the key's SHA-256, as perfbench
    derives it."""
    n, d = re.fullmatch(r"gen-n(\d+)-d([\d.]+)", key).groups()
    seed = int.from_bytes(hashlib.sha256(key.encode()).digest()[:4], "big")
    return generate(int(n), seed, float(d))


def pool_instances():
    """Every instance of the frozen pool in perfbench/reference.json."""
    return [pool_instance(key) for key in sorted(json.loads(REFERENCE.read_text())["instances"])]


def reference_pairs(g, w):
    """Reference: the usable chords (i, j), i < j, one pair of positions at a
    time on Python ints, with the scalar sector and crossing tests."""
    n = w.n
    ix, iy = g._ix, g._iy
    face_edges = set()
    for i in range(1, n + 1):
        face_edges.add(ekey(w.seq[i - 1], w.seq[i]))
    elist = []
    for (a, b) in sorted(face_edges):
        ax, ay, bx, by = ix[a], iy[a], ix[b], iy[b]
        elist.append((a, b, ax, ay, bx, by, min(ax, bx), max(ax, bx), min(ay, by), max(ay, by)))

    sectors = [None]
    for i in range(1, n + 1):
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
            for (a, b, ax, ay, bx, by, elox, ehix, eloy, ehiy) in elist:
                if a == u or a == v or b == u or b == v:
                    continue
                if elox > hix or ehix < lox or eloy > hiy or ehiy < loy:
                    continue
                if segments_properly_cross(uxi, uyi, vxj, vyj, ax, ay, bx, by):
                    break
            else:
                yield i, j


def reference_feasibility(g, w):
    """F from reference_pairs, filled as feasibility fills it."""
    F = np.full((w.n + 1, w.n + 1), np.inf)
    for i, j in reference_pairs(g, w):
        F[i, j] = F[j, i] = dist(g.by_id[w.seq[i]], g.by_id[w.seq[j]])
    return F


def spy_dtype(m, ran):
    """Append to ran the element type of each feasibility run."""
    pick = optimal._coord_dtype

    def spy(*args):
        ran.append(pick(*args))
        return ran[-1]

    m.setattr(optimal, "_coord_dtype", spy)


def feasibility_paths(g, walk, extend, monkeypatch):
    """F of the kernel on int64 elements, of the kernel on object elements
    (forced by lowering _INT64_COORD_MAX to -1) and of the reference loop,
    and the element types that ran."""
    w = IndexedWalk.pack([walk], extend=extend)
    ran = []
    with monkeypatch.context() as m:
        spy_dtype(m, ran)
        out = {"int64": feasibility(g, w)}
        m.setattr(optimal, "_INT64_COORD_MAX", -1)
        out["object"] = feasibility(g, w)
    out["reference"] = reference_feasibility(g, w)
    return out, ran


def assert_paths_agree(g, monkeypatch):
    """The kernel on int64 and on object elements and the reference loop
    give the same F on every face of g, in both walk forms, and int64
    elements run whenever the coordinates fit."""
    for walk in facial_walks(g):
        for extend in (False, True):
            F, ran = feasibility_paths(g, walk, extend, monkeypatch)
            assert ran == [np.int64, object]
            for path in ("object", "reference"):
                assert np.array_equal(F["int64"], F[path]), (walk.face_id, extend, path)


def test_feasibility_paths_agree_on_pool_and_random_instances(monkeypatch):
    graphs = pool_instances()
    assert len(graphs) == 49
    rng = random.Random(4242)  # the 44 instances of test_fill_matches_reference_generated
    for i in range(44):
        graphs.append(generate(rng.randrange(4, 30), 80000 + i, rng.choice([0.0, 0.2, 0.4, 0.7])))
    for g in graphs:
        assert_paths_agree(g, monkeypatch)


@pytest.mark.parametrize("n", [20, 40, 80])
def test_feasibility_paths_agree_on_convex_path(n, monkeypatch):
    assert_paths_agree(_convex_position_path(n), monkeypatch)


def test_feasibility_paths_agree_on_adversarial_families(monkeypatch):
    for name, make, seed in FAMILIES + LARGE:
        assert_paths_agree(_general_position(make, random.Random(seed)), monkeypatch)


def _stretch_to_extent(g, width):
    """g moved and stretched on each axis so that its scaled coordinates
    span [0, width] on both: v -> (v - least) * width // span.  For
    generate's points the rounding keeps every orientation, so the graph
    keeps its rotations."""
    def axis(values):
        least, span = min(values), max(values) - min(values)
        return lambda v: (v - least) * width // span

    ipts = {v: g.ipt(v) for v in g.by_id}
    fx, fy = axis([x for x, _ in ipts.values()]), axis([y for _, y in ipts.values()])
    return build([(v, fx(x), fy(y)) for v, (x, y) in ipts.items()], g.edges)


def _face_extent(g, *walks):
    xs, ys = zip(*map(g.ipt, {v for walk in walks for v in walk.seq}))
    return max(max(xs) - min(xs), max(ys) - min(ys))


@pytest.mark.parametrize("extra, dtype", [(0, "int64"), (1, "object")])
def test_feasibility_path_at_the_int64_bound(extra, dtype, monkeypatch):
    # the outer face spans the whole graph, _INT64_COORD_MAX + extra on both
    # axes: int64 elements at the widest face that fits, object one unit
    # past it; every face gets the reference's F
    width = optimal._INT64_COORD_MAX + extra
    g = generate(40, 4, 0.2)
    h = _stretch_to_extent(g, width)
    assert h.rotation == g.rotation
    widest = set()
    for walk in facial_walks(h):
        extent = _face_extent(h, walk)
        fits = extent <= optimal._INT64_COORD_MAX
        if extent == width:
            widest.add("int64" if fits else "object")
        for extend in (False, True):
            w = IndexedWalk.pack([walk], extend=extend)
            ran = []
            with monkeypatch.context() as m:
                spy_dtype(m, ran)
                F = feasibility(h, w)
            assert ran == [np.int64 if fits else object]
            assert np.array_equal(F, reference_feasibility(h, w))
    assert widest == {dtype}


def test_feasibility_near_the_int64_corner(monkeypatch):
    # a zigzag between a cluster at (0, 0) and its mirror at (B, B), with
    # B = _INT64_COORD_MAX: every corner's rays and every chord between the
    # clusters run near (B, B), and the leaf ray (0, 0) -> (B, B) makes the
    # sector test's dot product exactly 2 B^2; int64 elements give the
    # reference's F
    B = optimal._INT64_COORD_MAX
    low = [(0, 0), (3, 1), (7, 2), (12, 5), (18, 7)]
    pts = low + [(B - y, B - x) for x, y in low]
    edges = [(i, 5 + i) for i in range(5)] + [(5 + i, i + 1) for i in range(4)]
    g = build([(k, x, y) for k, (x, y) in enumerate(pts)], edges)
    (walk,) = facial_walks(g)
    assert _face_extent(g, walk) == B
    for extend in (False, True):
        w = IndexedWalk.pack([walk], extend=extend)
        ran = []
        with monkeypatch.context() as m:
            spy_dtype(m, ran)
            F = feasibility(g, w)
        assert ran == [np.int64]
        assert np.array_equal(F, reference_feasibility(g, w)) and np.isfinite(F).any()


@pytest.mark.parametrize("shift", [0, 2**30, 10**15, -10**15])
def test_feasibility_reads_face_local_coordinates(shift, monkeypatch):
    # the kernel reads only coordinate differences: a copy moved by shift on
    # both axes gets the same F, on int64 elements like the unmoved graph
    g = generate(40, 4, 0.2)
    h = build([(p.id, p.x + shift, p.y + shift) for p in g.points], g.edges)
    for walk, moved in zip(facial_walks(g), facial_walks(h), strict=True):
        assert walk.seq == moved.seq
        for extend in (False, True):
            ran = []
            with monkeypatch.context() as m:
                spy_dtype(m, ran)
                F = feasibility(g, IndexedWalk.pack([walk], extend=extend))
                G = feasibility(h, IndexedWalk.pack([moved], extend=extend))
            assert ran == [np.int64, np.int64]
            assert np.array_equal(F, G)


def test_feasibility_of_huge_and_tiny_coordinates_stays_exact(tmp_path, capsys, monkeypatch):
    # scaled by 10^300 with one point moved by 10^-300: the scaled integer
    # coordinates have 600 digits, far past int64, so the kernel runs on
    # Python ints
    points = [{"id": i, "x": f"{i}e300", "y": f"{i * i}e300"} for i in range(12)]
    points[0]["x"] = "1e-300"
    doc = {"format_version": 1, "points": points, "edges": [[i, i + 1] for i in range(11)]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    ran = []
    spy_dtype(monkeypatch, ran)
    assert main(["augment", str(path), "--mode", "opt2vc"]) == 0
    capsys.readouterr()
    assert ran == [object]


@pytest.mark.parametrize("n", [20, 40])
def test_feasibility_of_long_faces_with_wide_coordinates(n, monkeypatch):
    """The convex path scaled by 10^20: its one long face runs the kernel on
    Python ints, gives the reference's F in both walk forms, and the
    optimal chords of the unscaled path in both modes."""
    g = _convex_position_path(n)
    wide = build([(p.id, p.x * 10**20, p.y * 10**20) for p in g.points], g.edges)
    for walk in facial_walks(wide):
        for extend in (False, True):
            w = IndexedWalk.pack([walk], extend=extend)
            ran = []
            with monkeypatch.context() as m:
                spy_dtype(m, ran)
                F = feasibility(wide, w)
            assert ran == [object]
            assert np.array_equal(F, reference_feasibility(wide, w)), (walk.face_id, extend)
    for mode in ("2vc", "2ec"):
        assert optimal_augment(wide, mode).added == optimal_augment(g, mode).added, mode


def cut_structure(w: IndexedWalk, s: int, t: int):
    """Reference: cut vertices relative to (p_s, ..., p_t) with their
    descendant position groups and non-descendant positions."""
    count = {}
    for q in range(s, t + 1):
        count[w.seq[q]] = count.get(w.seq[q], 0) + 1
    cuts = {}
    for v, c in count.items():
        if c < 2:
            continue
        positions = [q for q in range(s, t + 1) if w.seq[q] == v]
        groups = []
        for a, b in zip(positions, positions[1:]):
            groups.append(list(range(a + 1, b)))
        desc = sorted({q for grp in groups for q in grp})
        desc_verts = {w.seq[q] for q in desc}
        nondesc = [
            q
            for q in range(s, t + 1)
            if w.seq[q] != v and w.seq[q] not in desc_verts
        ]
        cuts[v] = {"occurrences": positions, "groups": groups, "non_descendants": nondesc}
    return cuts


def _reaches_back(n, back):
    """Reference: [s, t] over 0 <= s, t <= n + 1: 1 <= s < t <= n and some
    back[q], s < q <= t, is at least s."""
    rows = np.arange(n + 2)[:, None]
    cols = np.arange(n + 2)
    run = np.maximum.accumulate(np.where(cols > rows, back, 0), axis=1)
    return (cols > rows) & (cols <= n) & (rows >= 1) & (run >= rows)


def _has_repeat(w: IndexedWalk):
    """Reference: [s, t]: some vertex occurs twice among the positions
    s .. t, from the consecutive occurrences p < q of each vertex."""
    p, q = _cut_from(w, "2vc")[1]
    back = np.zeros(w.n + 2, dtype=np.int64)
    back[q] = p
    return _reaches_back(w.n, back)


def _has_bridge(w: IndexedWalk):
    """Reference: [s, t]: some slot c <= t - 1 has its mate in [s, c)."""
    mate = _cut_from(w, "2ec")[1]
    a = mate.nonzero()[0]
    back = np.zeros(w.n + 2, dtype=np.int64)  # [t]: slot t-1's earlier mate
    back[mate[a] + 1] = a
    return _reaches_back(w.n, back)


def test_prefix_tables_match_cut_structure(
    fig3, triangle, path3, star3, two_triangles, square_diag, pendant_in_polygon,
    double_pendant,
):
    """The fill's ZERO rule, t below min(cut_from[s:]), says for 2vc that no
    vertex repeats in (p_s, ..., p_t), as ``cut_structure`` and the dense
    reference table find, and for 2ec that no edge is traversed twice."""
    graphs = [fig3, triangle, path3, star3, two_triangles, square_diag,
              pendant_in_polygon, double_pendant]
    graphs += [generate(n, seed, d) for n, seed, d in ((9, 1, 0.0), (14, 2, 0.3), (20, 3, 0.6))]
    checked = 0
    for g in graphs:
        for walk in facial_walks(g):
            for extend in (False, True):
                w = IndexedWalk.pack([walk], extend=extend)
                has_rep, has_br = _has_repeat(w), _has_bridge(w)
                reach = {m: np.minimum.accumulate(_cut_from(w, m)[0][::-1])[::-1]
                         for m in ("2vc", "2ec")}
                for s in range(1, w.n + 1):
                    for t in range(s, w.n + 1):
                        edges = [ekey(w.seq[x], w.seq[x + 1]) for x in range(s, t)]
                        assert (t >= reach["2vc"][s]) == has_rep[s, t], (s, t)
                        assert has_rep[s, t] == bool(cut_structure(w, s, t)), (s, t)
                        assert (t >= reach["2ec"][s]) == has_br[s, t], (s, t)
                        assert has_br[s, t] == (len(set(edges)) < len(edges)), (s, t)
                        checked += 1
    assert checked > 1000


_REFERENCE_TABLES = {}

# the cases of the reference tables; fill_tables decodes _fill's keys to them
_CASE_ZERO, _CASE_INF, _CASE_SKIP, _CASE_SPLIT, _CASE_PAIR = range(5)


def decode(won, n):
    """The case, k1 and k2 tables of _fill's winning keys over n positions:
    a PAIR's key is i * (n + 2) + j, a SPLIT's (n + 2)^2 + k * (n + 3)."""
    n2 = n + 2
    split = won >= n2 * n2
    pair = (won >= 0) & ~split
    codes = [won == _ZERO, won == _INF, won == _SKIP, split]
    case = np.select(codes, [_CASE_ZERO, _CASE_INF, _CASE_SKIP, _CASE_SPLIT], _CASE_PAIR)
    k1 = np.where(pair, won // n2, np.where(split, (won - n2 * n2) // (n2 + 1), 0))
    return case.astype(np.uint8), k1.astype(np.int64), np.where(pair, won % n2, 0).astype(np.int64)


def fill_tables(w: IndexedWalk, W, mode):
    """C, case, k1 and k2 of _fill, its keys decoded, as reference_fill
    gives them."""
    C, won = _fill(w, W, mode)
    return (C, *decode(won, w.n))


@pytest.fixture(autouse=True, scope="module")
def _free_reference_tables():
    """The shared reference tables live as long as this module's tests."""
    yield
    _REFERENCE_TABLES.clear()


def reference_fill(w: IndexedWalk, W, mode):
    """The reference tables of ``_fill_by_cell``, filled once per walk,
    weight matrix and mode and shared by every test that asks again (the
    reference does not read ``_SCORE_CHUNK``).  The arrays are read-only."""
    key = (w.seq, W.tobytes(), mode)
    if key not in _REFERENCE_TABLES:
        tables = _fill_by_cell(w, W, mode)
        for a in tables:
            a.setflags(write=False)
        _REFERENCE_TABLES[key] = tables
    return _REFERENCE_TABLES[key]


def _fill_by_cell(w: IndexedWalk, W, mode):
    """Reference: the DP tables filled one cell at a time, by increasing
    interval length, each inner minimization over its own index arrays."""
    n = w.n
    vert = w.vert
    has_rep = _has_repeat(w)
    mate, has_br = _cut_from(w, "2ec")[1], _has_bridge(w)
    # vert numbers the vertices densely from 0, so a set of descendant
    # vertices is a mask
    desc = np.zeros(n + 1, dtype=bool)

    C = np.full((n + 2, n + 2), np.inf)
    case = np.zeros((n + 2, n + 2), dtype=np.uint8)
    k1 = np.zeros((n + 2, n + 2), dtype=np.int64)
    k2 = np.zeros((n + 2, n + 2), dtype=np.int64)

    for L in range(0, n):
        for s in range(1, n + 1 - L):
            t = s + L
            trivial = not (has_rep[s, t] if mode == "2vc" else has_br[s, t])
            if trivial:
                C[s, t] = 0.0
                case[s, t] = _CASE_ZERO
                continue
            if mode == "2vc" and vert[s] == vert[t] and s != t:
                C[s, t] = np.inf
                case[s, t] = _CASE_INF
                continue

            if mode == "2vc":
                ps = w.occ[w.vert[s]]
                idx = bisect_right(ps, t) - 1
                head_is_cut = ps[idx] > s
                pair_anchor = ps[idx] if head_is_cut else 0
            else:
                c2 = int(mate[s]) if s < n else 0
                head_is_cut = bool(c2) and s < c2 <= t - 1
                pair_anchor = c2

            if not head_is_cut:
                best = C[s + 1, t]
                bcase, bk1 = _CASE_SKIP, 0
                if t - 1 >= s + 2:
                    ks = np.arange(s + 2, t)
                    vals = C[s, ks] + C[ks, t] + W[s, ks]
                    m = int(np.argmin(vals))
                    if vals[m] < best:
                        best = vals[m]
                        bcase, bk1 = _CASE_SPLIT, int(ks[m])
                C[s, t] = best
                case[s, t] = bcase
                k1[s, t] = bk1
                continue

            if mode == "2vc":
                D = np.arange(s + 1, pair_anchor)
                D = D[vert[D] != vert[s]]
            else:
                D = np.arange(s + 1, pair_anchor + 1)
            N = np.arange(pair_anchor + 1, t + 1)
            desc[vert[D]] = True
            N = N[~desc[vert[N]]]
            desc[vert[D]] = False

            best = np.inf
            bcase, bk1, bk2 = _CASE_INF, 0, 0
            if D.size and N.size:
                M = (
                    C[s, D][:, None]
                    + C[D[:, None], N]
                    + C[N, t][None, :]
                    + W[D[:, None], N]
                )
                flat = int(np.argmin(M))
                bi, bj = divmod(flat, M.shape[1])
                if M[bi, bj] < best:
                    best = M[bi, bj]
                    bcase, bk1, bk2 = _CASE_PAIR, int(D[bi]), int(N[bj])
            lo = s + 2 if mode == "2ec" else max(s + 2, pair_anchor + 1)
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
    return C, case, k1, k2


def _convex_position_path(n):
    return build([(i, i, i * i) for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def _upper(w):
    """The cells 1 <= s <= t <= n of an (n + 2) x (n + 2) table."""
    upper = np.triu(np.ones((w.n + 2, w.n + 2), dtype=bool))
    upper[0, :] = upper[:, 0] = upper[-1, :] = upper[:, -1] = False
    return upper


def dead_pockets(w, W):
    """The (s, i) the 2vc fill's pocket test drops, from the walk and W."""
    below = np.zeros((w.n + 2, w.n + 1), dtype=np.int32)
    below[1:] = np.isfinite(W).cumsum(axis=0)
    return _dead_pockets(w.n, *_cut_from(w, "2vc")[1], below)


def assert_tables_match(g, walk, extend):
    """The diagonal fill equals the per-cell reference, bit for bit, on
    every cell 1 <= s <= t <= n, for both modes and both weights, and every
    (s, i) the pocket test drops has C[s, i] = +inf in 2vc."""
    w = IndexedWalk.pack([walk], extend=extend)
    F = feasibility(g, w)
    upper = _upper(w)
    for W in (F, np.where(np.isfinite(F), 1.0, np.inf)):
        for mode in ("2vc", "2ec"):
            got, want = fill_tables(w, W, mode), reference_fill(w, W, mode)
            for name, a, b in zip(("C", "case", "k1", "k2"), got, want):
                assert np.array_equal(a[upper], b[upper]), (walk.face_id, extend, mode, name)
            if mode == "2vc":
                dead = dead_pockets(w, W)
                assert not (dead & np.isfinite(want[0])).any(), (walk.face_id, extend)


def test_fill_matches_reference_fixtures(
    fig3, triangle, path3, star3, two_triangles, square_diag, square,
    pendant_in_polygon, double_pendant,
):
    for g in (fig3, triangle, path3, star3, two_triangles, square_diag, square,
              pendant_in_polygon, double_pendant):
        for walk in facial_walks(g):
            for extend in (False, True):
                assert_tables_match(g, walk, extend)


def test_fill_matches_reference_generated():
    rng = random.Random(4242)
    for i in range(44):
        g = generate(rng.randrange(4, 30), 80000 + i, rng.choice([0.0, 0.2, 0.4, 0.7]))
        for walk in facial_walks(g):
            for extend in (False, True):
                assert_tables_match(g, walk, extend)
    # the outer faces of four pool instances of augment-mixed: 122, 126 and
    # 104 walk slots with 5-6% of the chord pairs feasible, and 28 slots at
    # density 0.6
    for key in ("gen-n62-d0.26", "gen-n66-d0.37", "gen-n69-d0.43", "gen-n76-d0.6"):
        g = pool_instance(key)
        walk = next(wk for wk in facial_walks(g) if wk.is_outer)
        for extend in (False, True):
            assert_tables_match(g, walk, extend)


@pytest.mark.parametrize("n", [20, 40, 80])
def test_fill_matches_reference_convex_path(n, monkeypatch):
    g = _convex_position_path(n)
    for extend in (False, True):
        assert_tables_match(g, facial_walks(g)[0], extend)
    # five candidates per batch split every diagonal, most cells into
    # batches of their own
    monkeypatch.setattr(optimal, "_SCORE_CHUNK", 5)
    for extend in (False, True):
        assert_tables_match(g, facial_walks(g)[0], extend)


def _lattice_circle():
    """The 36 lattice points of x^2 + y^2 = 65^2, in angular order.  No
    three of them are collinear, and many of their chords have exactly equal
    lengths, so length weights tie as unit weights do."""
    pts = [(x, y) for x in range(-65, 66) for y in range(-65, 66) if x * x + y * y == 65 * 65]
    assert len(pts) == 36
    return sorted(pts, key=lambda p: math.atan2(p[1], p[0]))


def _lattice_graph(shape):
    """The lattice circle's points joined by a non-crossing star or path."""
    pts = _lattice_circle()
    if shape == "star":
        edges = [(0, k) for k in range(1, len(pts))]
    else:
        edges = [(k, k + 1) for k in range(len(pts) - 1)]
    return build([(i, x, y) for i, (x, y) in enumerate(pts)], edges)


@pytest.mark.parametrize("shape", ["star", "path"])
def test_fill_matches_reference_on_tied_chords(shape):
    g = _lattice_graph(shape)
    for walk in facial_walks(g):
        for extend in (False, True):
            assert_tables_match(g, walk, extend)


def test_fill_matches_reference_on_adversarial_families():
    # stars, caterpillars, pendant chains and convex combs: the walks that
    # revisit vertices most, so the most cut blocks
    for name, make, seed in FAMILIES + LARGE:
        g = _general_position(make, random.Random(seed))
        for walk in facial_walks(g):
            for extend in (False, True):
                assert_tables_match(g, walk, extend)


def _generated_graphs():
    rng = random.Random(2468)
    return [generate(rng.randint(5, 70), 240000 + i, rng.choice([0.0, 0.2, 0.4, 0.6, 0.8]))
            for i in range(300)]


POCKET_GRAPHS = {
    "pool": pool_instances,
    "generated": _generated_graphs,
    "convex-path": lambda: [_convex_position_path(n) for n in (8, 20, 40, 80, 160)],
    "adversarial": lambda: [_general_position(make, random.Random(seed))
                            for _, make, seed in FAMILIES + LARGE],
    "lattice": lambda: [_lattice_graph("star"), _lattice_graph("path")],
}


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


WINDING_GRAPHS = dict(POCKET_GRAPHS, **{
    "convex-path": lambda: [_convex_position_path(n) for n in (*range(8, 41), 60, 80, 120, 160)],
})


@pytest.mark.parametrize("group", WINDING_GRAPHS)
def test_feasible_chords_pass_the_winding_test(group):
    """Every chord the feasibility kernel accepts, on the same F as the
    reference loop, has its midpoint inside its face by the winding number
    of the walk: the sector and crossing tests imply it in general position
    (see optimal's module docstring)."""
    chords = 0
    for g in WINDING_GRAPHS[group]():
        for walk in facial_walks(g):
            seq = walk.seq
            segs = [(2 * g.ipt(a)[0], 2 * g.ipt(a)[1], 2 * g.ipt(b)[0], 2 * g.ipt(b)[1])
                    for a, b in zip(seq, seq[1:])]
            for extend in (False, True):
                w = IndexedWalk.pack([walk], extend=extend)
                F = feasibility(g, w)
                assert np.array_equal(F, reference_feasibility(g, w)), (walk.face_id, extend)
                for i, j in zip(*np.nonzero(np.triu(np.isfinite(F)))):
                    (ux, uy), (vx, vy) = g.ipt(w.seq[i]), g.ipt(w.seq[j])
                    assert _winding_ok(segs, walk.is_outer, ux + vx, uy + vy), (i, j)
                    chords += 1
    assert chords > 0


@pytest.mark.parametrize("group", POCKET_GRAPHS)
def test_pocket_test_is_sound(group):
    """Every (s, i) the 2vc fill drops by the pocket test has C[s, i] = +inf
    in the per-cell reference, under length and unit weights, on every face.
    The dropped cells must also be at least half of the reference's +inf
    cells between two distinct vertices, so the test cannot pass by
    dropping nothing."""
    dropped = infinite = 0
    for g in POCKET_GRAPHS[group]():
        for walk in facial_walks(g):
            w = IndexedWalk.pack([walk])
            F = feasibility(g, w)
            dead = dead_pockets(w, F)
            distinct = _upper(w)
            distinct[1:-1, 1:-1] &= w.vert[1:, None] != w.vert[None, 1:]
            for W in (F, np.where(np.isfinite(F), 1.0, np.inf)):
                C = reference_fill(w, W, "2vc")[0]
                assert not (dead & np.isfinite(C)).any(), walk.face_id
                dropped += int((dead & distinct).sum())
                infinite += int((distinct & ~np.isfinite(C)).sum())
    assert infinite > 0 and dropped >= infinite / 2


def _pack_graphs_120():
    """300 generate graphs of 5 to 120 points."""
    rng = random.Random(9191)
    return [generate(rng.randint(5, 120), 310000 + i, rng.choice([0.0, 0.2, 0.4, 0.6, 0.8]))
            for i in range(300)]


PACK_GRAPHS = {
    "pool": pool_instances,
    "adversarial": POCKET_GRAPHS["adversarial"],
    "generated": _pack_graphs_120,
}


def place(w: IndexedWalk, parts, fill, size):
    """A size x size table holding each walk's table of the walk alone,
    rows and columns 1 .. m, at the walk's positions in the pack w, and
    fill elsewhere."""
    out = np.full((size, size), fill, dtype=parts[0].dtype)
    for o, end, part in zip(w.off, w.off[1:], parts):
        out[o + 1 : end + 1, o + 1 : end + 1] = part[1 : end - o + 1, 1 : end - o + 1]
    return out


def placed_tables(w: IndexedWalk, alone):
    """The pack's C, case, k1 and k2 assembled from the tables of its walks
    alone: their k1 and k2 move by the walk's offset, and no cell of two
    walks has a value."""
    moved = []
    for o, (C, case, k1, k2) in zip(w.off, alone):
        k1 = np.where(case >= _CASE_SPLIT, k1 + o, 0)
        moved.append((C, case, k1, np.where(case == _CASE_PAIR, k2 + o, 0)))
    return [place(w, parts, fill, w.n + 2) for parts, fill in zip(zip(*moved), (np.inf, 0, 0, 0))]


def solved_face_by_face(g, mode, monkeypatch, weight="length"):
    """optimal_augment with every walk in a pack of its own."""
    with monkeypatch.context() as m:
        m.setattr(optimal, "_PACK", 0)
        return optimal_augment(g, mode, weight)


@pytest.mark.parametrize("group", PACK_GRAPHS)
def test_packs_match_each_walk_alone(group, monkeypatch):
    """One pack of all of a graph's DP faces (those not chordless) gives, in
    both modes and under both weights, F and the decoded DP tables of every
    walk alone, bit for bit, at the walk's positions, and +inf and ZERO at
    every cell of two walks, and every walk's tables are the per-cell
    reference's.  optimal_augment gives the chords, FaceSolutions and total
    of solving every face alone.  The adversarial families have one DP face
    each, so their packs take every facial walk."""
    packs = 0
    for g in PACK_GRAPHS[group]():
        for mode in ("2vc", "2ec"):
            walks = [wk for wk in facial_walks(g)
                     if group == "adversarial" or not _chordless(wk.seq, mode)]
            if len(walks) < 2:  # a pack of one walk is the walk alone
                continue
            packs += 1
            w = IndexedWalk.pack(walks, extend=mode == "2ec")
            alone = [IndexedWalk.pack([wk], extend=mode == "2ec") for wk in walks]
            Fs = [feasibility(g, u) for u in alone]
            F = feasibility(g, w)
            assert np.array_equal(F, place(w, Fs, np.inf, w.n + 1)), mode
            for weight in ("length", "unit"):
                Ws = [X if weight == "length" else np.where(np.isfinite(X), 1.0, np.inf)
                      for X in [F] + Fs]
                tables = [fill_tables(u, Wu, mode) for u, Wu in zip(alone, Ws[1:])]
                got = fill_tables(w, Ws[0], mode)
                for name, a, b in zip(("C", "case", "k1", "k2"), got, placed_tables(w, tables)):
                    assert np.array_equal(a, b), (mode, weight, name)
                for u, Wu, mine in zip(alone, Ws[1:], tables):
                    upper = _upper(u)
                    for a, b in zip(mine, reference_fill(u, Wu, mode)):
                        assert np.array_equal(a[upper], b[upper]), (mode, weight)
                res = optimal_augment(g, mode, weight)
                assert res == solved_face_by_face(g, mode, monkeypatch, weight), (mode, weight)
    assert packs > 0


def test_pack_feasibility_tests_only_pairs_of_one_walk(monkeypatch):
    """The sector tests of a pack run on the position pairs of each walk,
    exactly as many as its walks alone, not on the pairs of two walks."""
    sizes, sector = [], optimal._in_sector_batch

    def spy(*args):
        sizes.append(args[-1].size)
        return sector(*args)

    monkeypatch.setattr(optimal, "_in_sector_batch", spy)
    for g in pool_instances():
        for extend in (False, True):
            walks = facial_walks(g)
            sizes.clear()
            for walk in walks:
                feasibility(g, IndexedWalk.pack([walk], extend=extend))
            alone = sum(sizes)
            sizes.clear()
            feasibility(g, IndexedWalk.pack(walks, extend=extend))
            assert sum(sizes) == alone == sum((len(wk) + extend) * (len(wk) + extend - 1)
                                              for wk in walks)


def traced_packs(g, mode, monkeypatch):
    """optimal_augment(g, mode) and the pack and element type of each of its
    feasibility runs."""
    packs, ran = [], []
    with monkeypatch.context() as m:
        spy_dtype(m, ran)
        feas = optimal.feasibility
        m.setattr(optimal, "feasibility", lambda g, w: packs.append(w) or feas(g, w))
        res = optimal_augment(g, mode)
    return res, list(zip(packs, ran, strict=True))


@pytest.mark.parametrize("limit", [12, 40, optimal._PACK])
def test_packs_keep_the_position_and_int64_bounds(limit, monkeypatch):
    """With the int64 bound at the median extent of a graph's DP faces, a
    pack holds at most _PACK positions or one walk, its walks all fit the
    bound alone and run on int64 elements, or none does and they run on
    Python ints, and optimal_augment gives what solving every face alone
    gives.  Some pair of packs on int64 elements could share one by size
    alone, so the union's extent kept them apart."""
    monkeypatch.setattr(optimal, "_PACK", limit)
    rng = random.Random(5151)
    kept_apart = shared = 0
    for i in range(40):
        g = generate(rng.randint(40, 120), 520000 + i, rng.choice([0.4, 0.5, 0.6, 0.7]))
        for mode in ("2vc", "2ec"):
            extend = mode == "2ec"
            walks = [wk for wk in facial_walks(g) if not _chordless(wk.seq, mode)]
            if len(walks) < 2:
                continue
            extents = sorted(_face_extent(g, wk) for wk in walks)
            bound = extents[len(extents) // 2]
            monkeypatch.setattr(optimal, "_INT64_COORD_MAX", bound)
            res, packs = traced_packs(g, mode, monkeypatch)
            assert sorted(wk.face_id for w, _ in packs for wk in w.walks) == sorted(
                wk.face_id for wk in walks)
            sizes = []
            for w, dtype in packs:
                assert w.n <= limit or len(w.walks) == 1
                fits = {_face_extent(g, wk) <= bound for wk in w.walks}
                assert len(fits) == 1 and fits.pop() == (dtype is np.int64), (mode, w.n)
                shared += len(w.walks) > 1
                if dtype is np.int64:
                    sizes.append((w.n, w.walks))
            for (a, wa), (b, wb) in itertools.combinations(sizes, 2):
                kept_apart += a + b <= limit and _face_extent(g, *wa, *wb) > bound
            assert res == solved_face_by_face(g, mode, monkeypatch), mode
    assert kept_apart > 0 and shared > 0


@settings(max_examples=40)
@given(n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1), d=st.floats(0.0, 0.8))
def test_fill_matches_reference_on_generated_faces(n, seed, d):
    g = generate(n, seed, d)
    for walk in facial_walks(g):
        for extend in (False, True):
            assert_tables_match(g, walk, extend)


def test_cut_structure_fig3(fig3):
    walk = facial_walks(fig3)[0]
    w = IndexedWalk.pack([walk])
    cuts = cut_structure(w, 1, w.n)
    assert set(cuts) == {2, 3}
    for v in (2, 3):
        assert len(cuts[v]["groups"]) == 1


def test_cut_structure_no_repeats(triangle):
    walk = [w for w in facial_walks(triangle) if not w.is_outer][0]
    w = IndexedWalk.pack([walk])
    assert cut_structure(w, 1, w.n) == {}


def test_cut_structure_star(star3):
    walk = facial_walks(star3)[0]
    w = IndexedWalk.pack([walk])
    cuts = cut_structure(w, 1, w.n)
    assert set(cuts) == {0}
    assert len(cuts[0]["occurrences"]) == 3
    assert len(cuts[0]["groups"]) == 2


def test_dp_fig3(fig3):
    walk = facial_walks(fig3)[0]
    ((cost, edges),) = dp_2vc(fig3, [walk])
    assert cost == pytest.approx(2.0, abs=1e-9)
    assert edges == [(1, 3), (2, 4)]
    ((cost, edges),) = dp_2ec(fig3, [walk])
    assert cost == pytest.approx(2.0, abs=1e-9)
    assert edges == [(1, 3), (2, 4)]


def test_dp_2connected_face(triangle):
    for walk in facial_walks(triangle):
        assert dp_2vc(triangle, [walk]) == [(0.0, [])]
        assert dp_2ec(triangle, [walk]) == [(0.0, [])]


@pytest.mark.parametrize("dp", [dp_2vc, dp_2ec])
@pytest.mark.parametrize("weight", ["length", "unit"])
def test_dp_of_no_walks_is_empty(fig3, dp, weight):
    # one (cost, chords) per walk: no walks, no solutions and no pack
    assert dp(fig3, [], weight) == []
    with pytest.raises(ValueError):
        dp(fig3, [], "bogus")


def test_dp_two_triangles(two_triangles):
    res_ec = optimal_augment(two_triangles, "2ec")
    assert res_ec.total_added_length == 0.0
    res_vc = optimal_augment(two_triangles, "2vc")
    assert res_vc.total_added_length > 0
    cost, edges = brute_force_optimal(two_triangles, "2vc")
    assert res_vc.total_added_length == pytest.approx(cost, abs=1e-9)


def augment_solving_every_face(g, mode, monkeypatch):
    """optimal_augment with every face run through its DP, chordless or not."""
    with monkeypatch.context() as m:
        m.setattr(optimal, "_chordless", lambda seq, mode: False)
        return optimal_augment(g, mode)


def assert_chordless_shortcut_agrees(g, monkeypatch):
    """On every face of g and in both modes, the DP gives (0.0, []) exactly
    where the face is chordless, under unit weights too, and optimal_augment
    returns what solving every face returns.  Counts the faces that are
    chordless for 2ec but not for 2vc."""
    walks = facial_walks(g)
    for mode, dp in (("2vc", dp_2vc), ("2ec", dp_2ec)):
        full = augment_solving_every_face(g, mode, monkeypatch)
        for walk, face in zip(walks, full.faces, strict=True):
            assert face.face_id == walk.face_id
            chordless = _chordless(walk.seq, mode)
            assert ((face.cost, face.edges) == (0.0, [])) == chordless, (walk.face_id, mode)
            if chordless:
                assert dp(g, [walk], "unit") == [(0.0, [])], (walk.face_id, mode)
        assert optimal_augment(g, mode) == full, mode
    return sum(_chordless(w.seq, "2ec") and not _chordless(w.seq, "2vc") for w in walks)


def test_chordless_shortcut_agrees_with_the_dp(two_triangles, monkeypatch):
    # the two triangles' outer face repeats their shared vertex and no edge:
    # chordless for 2ec only, and algorithm A needs a chord there
    outer = [w for w in facial_walks(two_triangles) if w.is_outer]
    assert [_chordless(w.seq, "2ec") for w in outer] == [True]
    assert [_chordless(w.seq, "2vc") for w in outer] == [False]
    assert dp_2vc(two_triangles, outer)[0][0] > 0
    graphs = [two_triangles] + pool_instances()
    rng = random.Random(1717)
    for i in range(300):
        graphs.append(generate(rng.randint(5, 70), 170000 + i, rng.choice([0.0, 0.2, 0.4, 0.6, 0.8])))
    cut_vertex_faces = sum(assert_chordless_shortcut_agrees(g, monkeypatch) for g in graphs)
    # faces a 2ec rule in 2vc would skip, so the check above would catch it
    assert cut_vertex_faces > 0


def test_optimal_fig3(fig3):
    for mode in ("2vc", "2ec"):
        res = optimal_augment(fig3, mode)
        assert res.total_added_length == pytest.approx(2.0, abs=1e-9)
        assert res.added == [(1, 3), (2, 4)]


def test_optimal_already_2connected(square_diag):
    res = optimal_augment(square_diag, "2vc")
    assert res.added == [] and res.total_added_length == 0.0


def test_optimal_augment_certifies_the_length_bound(monkeypatch):
    # a fan from one end of a convex path is planar and 2-connected but over
    # three times the path's length: under weight "length" optimal_augment
    # rejects it as a DP result, under "unit" (minimum cardinality, no
    # length bound) it accepts it
    n = 10
    g = build([(i, i, i * i) for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    fan = [(0, k) for k in range(2, n)]
    rep = verify(g, fan, "2vc")
    assert rep["planar"] and rep["connectivity_ok"] and rep["ratio"] > 3
    monkeypatch.setattr(optimal, "dp_2vc", lambda g, walks, weight: [(len(fan), fan)])
    with pytest.raises(LemmaViolation, match="^verify rejected the optimal_augment 2vc result: "
                                             "ratio_le_2 failed$"):
        optimal_augment(g, "2vc")
    assert optimal_augment(g, "2vc", weight="unit").added == fan


def test_oracle_equality_random():
    rng = random.Random(77)
    checked = 0
    for seed in range(60):
        n = rng.randrange(4, 10)
        g = generate(n, seed + 40000, rng.choice([0.0, 0.3, 0.6]))
        for mode in ("2vc", "2ec"):
            try:
                bb_cost, _ = brute_force_optimal(g, mode, limit=26)
            except Exhausted:
                continue
            res = optimal_augment(g, mode)
            assert res.total_added_length == pytest.approx(bb_cost, abs=1e-9), (
                seed,
                mode,
            )
            checked += 1
    assert checked >= 60


def test_cardinality_mode_random():
    # unit weights make the DP a minimum-cardinality augmentation
    rng = random.Random(99)
    checked = 0
    for seed in range(40):
        n = rng.randrange(4, 9)
        g = generate(n, seed + 50000, rng.choice([0.0, 0.4]))
        for mode in ("2vc", "2ec"):
            try:
                bb_cost, _ = brute_force_optimal(g, mode, limit=22, weight="unit")
            except Exhausted:
                continue
            res = optimal_augment(g, mode, weight="unit")
            assert res.total_added_length == pytest.approx(bb_cost, abs=1e-9)
            assert len(res.added) == round(bb_cost)
            checked += 1
    assert checked >= 30


def test_dp_at_most_heuristic():
    rng = random.Random(7)
    for seed in range(40):
        n = rng.randrange(3, 11)
        g = generate(n, seed + 60000, rng.choice([0.0, 0.4, 0.8]))
        for mode, heur in (("2ec", augment_2ec), ("2vc", augment_2vc)):
            res = optimal_augment(g, mode)
            h = heur(g)
            assert res.total_added_length <= h.total_added_length + 1e-9
            g2 = build(g.points, sorted(set(g.edges) | set(res.added)))
            rep = connectivity(g2)
            assert rep.is_2_connected if mode == "2vc" else rep.is_2_edge_connected


def test_infeasible_face_error(star3):
    # with no usable chord, the star's repeated center (2vc) and its bridges
    # (2ec) leave the top-level interval at infinity
    walk = facial_walks(star3)[0]
    for mode, extend in (("2vc", False), ("2ec", True)):
        w = IndexedWalk.pack([walk], extend=extend)
        F = np.full((w.n + 1, w.n + 1), np.inf)
        for weight in ("length", "unit"):
            with pytest.raises(InfeasibleFace, match=f"face {walk.face_id}:"):
                _dp(w, F, mode, weight)


@pytest.mark.parametrize("weight", ["lenght", "count", "Length", None])
def test_unknown_weight_rejected(weight):
    # a misspelt weight once fell back to unit (optimal) or length (oracle)
    g = generate(7, 40003, 0.3)
    walk = facial_walks(g)[0]
    calls = [
        lambda: optimal_augment(g, "2vc", weight=weight),
        lambda: optimal_augment(g, "2ec", weight=weight),
        lambda: dp_2vc(g, [walk], weight),
        lambda: dp_2ec(g, [walk], weight),
        lambda: candidate_set(g, weight=weight),
        lambda: brute_force_optimal(g, "2vc", weight=weight),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="weight must be 'length' or 'unit'"):
            call()
