import copy
import gc
import hashlib
import math
import pickle
import random
import weakref
from collections import Counter
from functools import cmp_to_key
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest

from pslgaug import (
    CollinearTriple,
    CrossingEdges,
    DuplicatePoint,
    EdgeThroughVertex,
    InvalidInstance,
    Pslg,
    PslgError,
    build,
    connectivity,
    convex_walk_decomposition,
    facial_walks,
)
from pslgaug.geom import (
    Point,
    _collinear_pair_exact,
    collinear_pair,
    dist,
    ekey,
    orient_xy,
    polar_before,
    segments_properly_cross,
)
from pslgaug.instances import generate
from pslgaug.pslg import (
    LemmaViolation,
    _box,
    _first_crossing,
    _raise_first_crossing,
    reach,
    require_augmentable,
)
from tests_support import adjacency, full_build, polar_sort, walk_edges


def test_build_fig3(fig3):
    assert fig3.n == 4
    assert len(fig3.edges) == 3


def test_build_crossing_diagonals():
    pts = [(0, "0", "0"), (1, "4", "0.2"), (2, "4.1", "4"), (3, "-0.2", "4.2")]
    with pytest.raises(CrossingEdges) as e:
        build(pts, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    assert "cross" in str(e.value)


def test_build_collinear():
    with pytest.raises(CollinearTriple):
        build([(0, "0", "0"), (1, "1", "1"), (2, "2", "2")], [(0, 1)])


def test_build_duplicate_point():
    with pytest.raises(DuplicatePoint):
        build([(0, "0", "0"), (1, "0", "0"), (2, "1", "0")], [])
    with pytest.raises(DuplicatePoint):
        build([(0, "0", "0"), (0, "1", "0"), (2, "0", "1")], [])


@pytest.mark.parametrize("x", ["1_0", "1/3", " 5", "\u0663", "1e4301"])
def test_build_reads_the_instance_grammar(x):
    # the grammar of instances.parse, on every Python: Fraction() alone
    # reads "1_0" as 10 from 3.11 on, and "1/3" and " 5" everywhere
    with pytest.raises(InvalidInstance, match="point 0: "):
        build([(0, x, "0"), (1, "0", "1"), (2, "3", "5")], [])


def test_build_bounds_coordinates_to_float_range():
    # 32 n max(|x|, |y|) < 2^1023, compared exactly, with n = 3
    edge = Fraction(2**1023, 96)
    build([(0, edge - Fraction(1, 10**9), "0"), (1, "0", "1"), (2, "3", "5")], [])
    with pytest.raises(InvalidInstance, match="point 0 lies too far out"):
        build([(0, edge, "0"), (1, "0", "1"), (2, "3", "5")], [])


def test_build_bad_edges():
    pts = [(0, "0", "0"), (1, "1", "0"), (2, "0", "1")]
    with pytest.raises(InvalidInstance):
        build(pts, [(0, 7)])
    with pytest.raises(InvalidInstance):
        build(pts, [(0, 0)])
    with pytest.raises(InvalidInstance):
        build(pts, [(0, 1), (1, 0)])


FIG3_PATH = [(1, 2), (2, 3), (3, 4)]


@pytest.mark.parametrize(
    "base, extra, error",
    [(FIG3_PATH, (1, 4), CrossingEdges),
     ([(1, 2), (1, 4), (3, 4)], (2, 3), CrossingEdges),  # crosses an earlier edge
     (FIG3_PATH, (1, 99), InvalidInstance), (FIG3_PATH, (2, 2), InvalidInstance),
     (FIG3_PATH, (2, 1), InvalidInstance)],
    ids=["crossing", "crossing_earlier", "unknown_endpoint", "self_loop", "duplicate"],
)
def test_with_edges_rejects_like_build(fig3, base, extra, error):
    g = build(fig3.points, base)
    with pytest.raises(error) as built:
        build(fig3.points, base + [extra])
    with pytest.raises(error) as edited:
        g.with_edges(base + [extra])
    assert str(edited.value) == str(built.value)


# -- differential test of the validation against the all-pairs scans --------


def reference_build(points, edge_pairs):
    """``build`` with the unconditional O(n*m) edge-through-vertex scan
    ahead of the exact collinear scan (no float filter), and the all-pairs
    crossing loop and per-vertex ``polar_sort`` of
    ``reference_with_edges``."""
    pts = [p if isinstance(p, Point) else Point.make(*p) for p in points]
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
    denom = 1
    for p in pts:
        denom = lcm(denom, p.x.denominator, p.y.denominator)
    ix = {p.id: int(p.x * denom) for p in pts}
    iy = {p.id: int(p.y * denom) for p in pts}

    edge_pairs = list(edge_pairs)
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

    order = sorted(ids)
    placed = []
    for c in order:
        pair = _collinear_pair_exact((ix[c], iy[c]), placed)
        if pair is not None:
            a, b = order[pair[0]], order[pair[1]]
            raise CollinearTriple(f"points ({a},{b},{c}) are collinear")
        placed.append((ix[c], iy[c]))

    empty = Pslg(pts, {p.id: p for p in pts}, frozenset(), {i: () for i in ids}, ix, iy)
    return reference_with_edges(empty, edge_pairs)


def reference_with_edges(g, edge_pairs):
    """``g.with_edges`` with every pair of the final edge set tested, in
    sorted order: the least crossing pair is reported."""
    edges = set()
    for u, v in edge_pairs:
        if u not in g.by_id or v not in g.by_id:
            raise InvalidInstance(f"edge ({u},{v}) references unknown point id")
        if u == v:
            raise InvalidInstance(f"self-loop at point {u}")
        k = ekey(u, v)
        if k in edges:
            raise InvalidInstance(f"duplicate edge {k}")
        edges.add(k)
    ix, iy = g._ix, g._iy
    final = sorted(edges)
    for i, (a, b) in enumerate(final):
        for c, d in final[i + 1 :]:
            if segments_properly_cross(ix[a], iy[a], ix[b], iy[b], ix[c], iy[c], ix[d], iy[d]):
                raise CrossingEdges(f"edges ({a},{b}) and ({c},{d}) cross")
    rotation = dict(g.rotation)
    adj = adjacency(edges)
    for v in {v for e in edges ^ g.edges for v in e}:
        rotation[v] = tuple(polar_sort(g.ipt(v), adj.get(v, ()), g.ipt))
    return Pslg(g.points, g.by_id, frozenset(edges), rotation, ix, iy)


def outcome(fn, *args):
    """The exception class and message, or the edges and rotation."""
    try:
        g = fn(*args)
    except PslgError as e:
        return type(e).__name__, str(e)
    return g.edges, g.rotation


def _random_edges(rng, ids, count, faults):
    edges = [tuple(rng.sample(ids, 2)) for _ in range(count)]
    edges = list(dict.fromkeys(ekey(u, v) for u, v in edges))
    edges = [(v, u) if rng.random() < 0.3 else (u, v) for u, v in edges]
    if faults and rng.random() < 0.15:
        u = rng.choice(ids)
        edges.insert(rng.randrange(len(edges) + 1), rng.choice(
            [(u, max(ids) + 1), (u, u), edges[0][::-1] if edges else (u, u)]
        ))
    return edges


def _general_position_points(rng, n, span):
    coords = []
    while len(coords) < n:
        c = (rng.randrange(-span, span), rng.randrange(-span, span))
        if collinear_pair(c, coords) is None:
            coords.append(c)
    ids = rng.sample(range(3 * n), n)
    # a third of the sets carry two decimal places, so build rescales them
    if rng.random() < 0.3:
        return [(i, f"{x / 100:.2f}", str(y)) for i, (x, y) in zip(ids, coords)]
    return [(i, str(x), str(y)) for i, (x, y) in zip(ids, coords)]


def test_build_matches_reference_on_random_inputs():
    rng = random.Random(2024)
    kinds = Counter()
    for trial in range(3000):
        n = rng.randrange(3, 16)
        if trial % 2:
            # general position, 1e6 range: valid graphs and several crossings
            pts = _general_position_points(rng, n, 10**6)
        else:
            # an 8 x 8 grid: collinear triples, edges through vertices and
            # crossings, often several at once, now and then coincident points
            cells = rng.sample(range(64), n)
            if rng.random() < 0.1:
                cells[0] = cells[-1]
            ids = rng.sample(range(3 * n), n)
            pts = [(i, str(c % 8), str(c // 8)) for i, c in zip(ids, cells)]
        ids = [p[0] for p in pts]
        edges = _random_edges(rng, ids, rng.randrange(0, 2 * n + 1), faults=True)
        want = outcome(reference_build, pts, edges)
        assert outcome(build, pts, edges) == want, (pts, edges)
        kinds[want[0] if isinstance(want[0], str) else "valid"] += 1
    assert min(kinds.values()) >= 40 and len(kinds) == 6, kinds


def _planted_collinear_point(rng, g):
    """The points of g, in shuffled order, with one more point on the line
    through two of them, a and b (between them, beyond b, or before a), and
    g's edges, sometimes plus one: a CollinearTriple, or an
    EdgeThroughVertex where an edge passes through the third point."""
    pts = [(p.id, p.x, p.y) for p in g.points]
    (a, ax, ay), (b, bx, by) = rng.sample(pts, 2)
    t = rng.choice([Fraction(1, 2), Fraction(1, 3), 2, -1, 3])
    new = max(g.by_id) + 1 if rng.random() < 0.5 else min(g.by_id) - 1
    pts.append((new, ax + t * (bx - ax), ay + t * (by - ay)))
    rng.shuffle(pts)
    edges = sorted(g.edges)
    r = rng.random()
    if r < 0.3:  # an edge through the third point
        edges.append((a, b) if 0 < t < 1 else (new, a) if t > 1 else (new, b))
    elif r < 0.6:
        edges.append((new, rng.choice(pts)[0]))
    return pts, edges


def test_build_errors_match_reference_with_a_planted_collinear_point():
    rng = random.Random(31)
    kinds = Counter()
    for i in range(500):
        g = generate(rng.randrange(4, 40), 610000 + i, rng.choice([0.0, 0.3, 0.6]))
        pts, edges = _planted_collinear_point(rng, g)
        want = outcome(reference_build, pts, edges)
        assert outcome(build, pts, edges) == want, (i, pts, edges)
        kinds[want[0]] += 1
    assert kinds.keys() == {"CollinearTriple", "EdgeThroughVertex"}, kinds
    assert min(kinds.values()) >= 50, kinds


def test_with_edges_matches_reference_on_batches():
    rng = random.Random(7)
    kinds = Counter()
    for seed in range(12):
        g = generate(rng.randrange(8, 40), 300 + seed, rng.choice([0.2, 0.5, 0.8]))
        ids = [p.id for p in g.points]
        for _ in range(60):
            kept = [e for e in sorted(g.edges) if rng.random() < 0.8]
            batch = kept + _random_edges(rng, ids, rng.randrange(1, 8), faults=True)
            rng.shuffle(batch)
            want = outcome(reference_with_edges, g, batch)
            assert outcome(g.with_edges, batch) == want, (seed, batch)
            kinds[want[0] if isinstance(want[0], str) else "valid"] += 1
    assert min(kinds.values()) >= 20 and len(kinds) == 3, kinds


def test_one_edge_edits_match_reference():
    # random runs of single inserts and deletes through the edit core: the
    # rotation merge and the crossing pass give the reference's edges and
    # rotations, or its exception and message for a crossing insert
    rng = random.Random(8)
    kinds = Counter()
    for seed in range(20):
        g = generate(rng.randrange(6, 40), 500 + seed, rng.choice([0.0, 0.3, 0.6]))
        ids = sorted(g.by_id)
        for _ in range(60):
            e = ekey(*rng.sample(ids, 2))
            insert = e not in g.edges and (rng.random() < 0.6 or not g.edges)
            if insert:
                want = outcome(reference_with_edges, g, g.edges | {e})
                got = outcome(g._edit, {e}, set())
            else:
                e = rng.choice(sorted(g.edges))
                want = outcome(reference_with_edges, g, g.edges - {e})
                got = outcome(g._edit, set(), {e})
            assert got == want, (seed, e, insert)
            if isinstance(want[0], str):
                kinds["crossing"] += 1
            else:
                kinds["insert" if insert else "delete"] += 1
                g = g._edit({e}, set()) if insert else g._edit(set(), {e})
    assert min(kinds.values()) >= 200, kinds


def _least_crossing(kept, added, ix, iy):
    """Reference: the least pair, by edge keys, of properly crossing edges
    with one in ``added``, every pair tested; None if there is none."""
    pairs = [
        tuple(sorted((e, f)))
        for e in added for f in set(kept) | set(added)
        if e != f and segments_properly_cross(
            ix[e[0]], iy[e[0]], ix[e[1]], iy[e[1]], ix[f[0]], iy[f[0]], ix[f[1]], iy[f[1]]
        )
    ]
    return min(pairs, default=None)


def test_first_crossing_pass_matches_the_least_crossing_pair():
    # random segment sets on small grids, where endpoints are shared and
    # boxes often only touch, and on wide ones: the one-pass helper names
    # the least crossing kept edge, and _raise_first_crossing, with one
    # added edge (that pass) or several (the sweep), the least pair
    rng = random.Random(38)
    kinds, sets = Counter(), Counter()
    for trial in range(2400):
        # a k x k grid holds at most 2k points with no three on a line, and
        # a greedy draw can stop short of that: 100 draws at most
        span, n, coords = rng.choice((4, 6, 10**6)), rng.randrange(5, 13), []
        for _ in range(100):
            c = (rng.randrange(span), rng.randrange(span))
            if collinear_pair(c, coords) is None:
                coords.append(c)
                if len(coords) == n:
                    break
        ix, iy = dict(enumerate(x for x, _ in coords)), dict(enumerate(y for _, y in coords))
        pairs = [ekey(*rng.sample(range(len(coords)), 2)) for _ in range(3 * len(coords))]
        kept = set()
        for e in dict.fromkeys(pairs):
            if rng.random() < 0.7 and _least_crossing(kept, {e}, ix, iy) is None:
                kept.add(e)
        free = sorted({ekey(u, v) for u in ix for v in ix if u != v} - kept)
        if trial % 4 == 0:  # several edges that cross no kept one
            free = [e for e in free if _least_crossing(kept, {e}, ix, iy) is None]
        added = set(rng.sample(free, min(len(free), 1 if trial % 2 else rng.randrange(2, 6))))
        if not added:
            continue
        want = _least_crossing(kept, added, ix, iy)
        if len(added) == 1:
            (e,) = added
            boxes = [(k, _box(*k, ix, iy)) for k in kept]
            assert _first_crossing(e, _box(*e, ix, iy), boxes, ix, iy) == (
                None if want is None else next(k for k in want if k != e))
            for k, (a, b, c, d) in boxes:
                x0, x1, y0, y1 = _box(*e, ix, iy)
                if set(k) & set(e) and a <= x1 and x0 <= b and c <= y1 and y0 <= d:
                    kinds["shared endpoint"] += 1
                if (a == x1 or b == x0) and c <= y1 and y0 <= d or (
                        c == y1 or d == y0) and a <= x1 and x0 <= b:
                    kinds["touching boxes"] += 1
        try:
            _raise_first_crossing(kept, added, ix, iy)
            got = None
        except CrossingEdges as exc:
            got = str(exc)
        message = want and "edges ({},{}) and ({},{}) cross".format(*want[0], *want[1])
        assert got == message, (coords, kept, added)
        sets[("several", "one")[len(added) == 1], want is not None] += 1
    assert min(kinds.values()) >= 500 and len(kinds) == 2, kinds
    assert min(sets.values()) >= 500 and len(sets) == 4 and sets.total() >= 2000, sets


def _augmented_edge_sets(g):
    from pslgaug.heuristic import augment_2ec, augment_2vc
    from pslgaug.optimal import optimal_augment

    yield sorted(g.edges)
    for res in (augment_2ec(g), augment_2vc(g),
                optimal_augment(g, "2ec"), optimal_augment(g, "2vc")):
        yield sorted(g.edges | set(res.added))


def test_build_from_built_points_matches_a_full_build():
    from test_optimal import pool_instances

    rng = random.Random(13)
    graphs = pool_instances() + [
        generate(rng.randrange(5, 30), rng.randrange(10**6), rng.choice([0.2, 0.4, 0.6]))
        for _ in range(110)
    ]
    for g in graphs:
        for edges in _augmented_edge_sets(g):
            fast, full = build(g.points, edges), full_build(g, edges)
            assert fast.edges == full.edges and fast.rotation == full.rotation
            assert (fast._ix, fast._iy) == (full._ix, full._iy)
            assert facial_walks(fast) == facial_walks(full)
            assert fast.points is g.points and fast.points == full.points


def test_build_from_built_points_rejects_edges_like_a_full_build():
    rng = random.Random(29)
    kinds = Counter()
    for seed in range(10):
        g = generate(rng.randrange(8, 30), 900 + seed, rng.choice([0.3, 0.6]))
        u, v = min(g.edges)
        ids = [p.id for p in g.points]
        # among five points in general position four are in convex position
        a, b, c, d = next(q for q in permutations(ids[:5], 4) if segments_properly_cross(
            *g.ipt(q[0]), *g.ipt(q[1]), *g.ipt(q[2]), *g.ipt(q[3])))
        batches = [
            sorted(g.edges) + [(u, v)],  # duplicate
            sorted(g.edges) + [(u, max(ids) + 1)],  # unknown id
            sorted(g.edges) + [(u, u)],  # self-loop
            [(a, b), (c, d)],  # crossing
        ] + [_random_edges(rng, ids, rng.randrange(1, 20), faults=True) for _ in range(40)]
        for edges in batches:
            want = outcome(full_build, g, edges)
            assert outcome(build, g.points, edges) == want, (seed, edges)
            kinds[want[0] if isinstance(want[0], str) else "valid"] += 1
    assert len(kinds) == 3 and min(kinds.values()) >= 10, kinds


def _valid_chords(rng, g, count):
    """g's edges plus up to ``count`` random chords that cross nothing."""
    ids = sorted(g.by_id)
    h = g
    for _ in range(count):
        e = ekey(*rng.sample(ids, 2))
        if e not in h.edges:
            try:
                h = h._edit({e}, set())
            except CrossingEdges:
                pass
    return sorted(h.edges)


def _crossings(g, edges):
    """The number of properly crossing pairs among ``edges``."""
    return sum(
        segments_properly_cross(*g.ipt(a), *g.ipt(b), *g.ipt(c), *g.ipt(d))
        for i, (a, b) in enumerate(edges) for c, d in edges[i + 1 :]
    )


def _edge_sets(rng, g):
    """Edge lists of four kinds on g's points, each shuffled with some pairs
    reversed: g's edges plus valid chords, random subsets (of those), sets
    with at least two crossings where the points allow them, and sets with
    an unknown id, a self-loop or a duplicate."""
    ids = sorted(g.by_id)
    chords = _valid_chords(rng, g, rng.randrange(1, 3 * len(ids)))
    subset = [e for e in chords if rng.random() < rng.choice([0.2, 0.5, 0.9])]
    crossing = list(chords)
    for _ in range(100):  # four or five points may allow fewer crossings
        e = ekey(*rng.sample(ids, 2))
        if e not in crossing:
            crossing.append(e)
            if _crossings(g, crossing) >= 2:
                break
    u = rng.choice(ids)
    faults = [chords + [(u, max(ids) + 1)], chords + [(u, u)], chords + [chords[0][::-1]]]
    for edges in [chords, subset, crossing, *faults]:
        edges = [(v, u) if rng.random() < 0.3 else (u, v) for u, v in edges]
        rng.shuffle(edges)
        yield edges


def _built_graphs(rng):
    from test_adversarial import FAMILIES, LARGE, _general_position

    graphs = [generate(rng.randrange(4, 40), 700000 + i, rng.choice([0.0, 0.3, 0.6]))
              for i in range(60)]
    return graphs + [_general_position(make, random.Random(seed))
                     for _, make, seed in FAMILIES + LARGE]


def test_build_on_built_points_edits_the_first_graph_like_reference(monkeypatch):
    # build(g.points, E) edits g, the first graph built on those points, in
    # one with_edges call, errors included; valid sets, subsets, crossings
    # and bad ids give reference_build's edges and rotations, or its
    # exception and message
    bases = []
    with_edges = Pslg.with_edges

    def spy(self, edge_pairs):
        bases.append(self)
        return with_edges(self, edge_pairs)

    monkeypatch.setattr(Pslg, "with_edges", spy)
    rng = random.Random(41)
    kinds = Counter()
    for g in _built_graphs(rng):
        assert g.points.g0() is g
        for edges in _edge_sets(rng, g):
            bases.clear()
            want = outcome(reference_build, g.points, edges)
            assert outcome(build, g.points, edges) == want, (sorted(g.edges), edges)
            kind = want[0] if isinstance(want[0], str) else "valid"
            kinds[kind] += 1
            assert bases == [g]
    assert kinds.keys() == {"valid", "CrossingEdges", "InvalidInstance"}, kinds
    assert min(kinds.values()) >= 100, kinds


def test_build_on_built_points_after_the_first_graph_is_dropped():
    rng = random.Random(43)
    for i in range(30):
        g = generate(rng.randrange(4, 40), 710000 + i, rng.choice([0.0, 0.3, 0.6]))
        points, sets = g.points, list(_edge_sets(rng, g))
        want = [outcome(build, points, edges) for edges in sets]
        # the points hold their first graph only weakly
        del g
        gc.collect()
        assert points.g0() is None
        assert [outcome(build, points, edges) for edges in sets] == want
        assert [outcome(reference_build, points, edges) for edges in sets] == want


def test_build_on_points_whose_first_graph_was_dropped_keeps_the_next(monkeypatch):
    # once the first graph on a point set is dropped, the next build on the
    # points takes its place: built again, that graph comes back itself, for
    # one graph edit in all
    g = generate(30, 5, 0.3)
    points, edges = g.points, sorted(g.edges)[1:]
    del g
    gc.collect()
    assert points.g0() is None
    edits = []
    edit = Pslg._edit
    monkeypatch.setattr(Pslg, "_edit", lambda self, *a: edits.append(self) or edit(self, *a))
    h = build(points, edges)
    assert build(points, edges) is h and points.g0() is h
    assert len(edits) == 1


def test_built_graphs_copy_and_pickle_without_their_first_graph():
    g = generate(20, 4, 0.5)
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert h.points.g0 is None and h.points == g.points and h.edges == g.edges
        assert h.points.by_id == g.points.by_id and h.points.ix == g.points.ix
        assert build(h.points, g.edges).points is h.points
        assert build(h.points, []).rotation == build(g.points, []).rotation


def test_build_gets_the_last_graph_back_for_the_same_set():
    # on fixed points a graph is a function of its edge set: the set g0 last
    # accepted, in any order and orientation, gets the same graph back with
    # its faces; another set, of the same size too, is built as a full build
    rng = random.Random(67)
    for g in _built_graphs(rng)[:40]:
        edges = _valid_chords(rng, g, rng.randrange(1, 3 * g.n))
        h = build(g.points, edges)
        faces = h.faces()
        again = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(again)
        assert build(g.points, edges) is h and build(g.points, again) is h
        assert g.with_edges(iter(again)) is h and h.faces() is faces
        if len(g.edges) < 2:
            continue
        for same_size in (sorted(g.edges)[1:], sorted(g.edges)[:-1]):
            k = build(g.points, same_size)
            assert k is not h and (k.edges, k.rotation) == outcome(full_build, g, same_size)
            h = k


def test_a_graph_and_its_last_graph_need_no_cycle_collector():
    # a graph holds its last graph strongly, which reaches it back only
    # through the points' weak g0: dropping both frees both at once
    g = generate(30, 5, 0.3)
    h = build(g.points, _valid_chords(random.Random(5), g, 20))
    assert g._last is h and connectivity(g) and connectivity(h)
    refs = weakref.ref(g), weakref.ref(h)
    gc.disable()
    try:
        del g, h
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_build_never_keeps_a_set_that_raised():
    # a set that raised is not the last set: asked again, it raises the same
    # exception and message, and the last valid set still gets its graph.  A
    # duplicate list of the last set's edges is a bad list, not that set
    rng = random.Random(71)
    kinds = Counter()
    for g in _built_graphs(rng)[:40]:
        sets = list(_edge_sets(rng, g))
        valid = sets[0]
        h = build(g.points, valid)
        u = valid[0][0]
        bad = sets[2:] + [valid + [valid[-1][::-1]], valid + [(u, u)], valid + [(u, max(g.by_id) + 1)]]
        for edges in bad:
            want = outcome(full_build, g, edges)
            if not isinstance(want[0], str):
                continue
            kinds[want[0]] += 1
            assert outcome(build, g.points, edges) == want
            assert outcome(build, g.points, edges) == want
            assert build(g.points, valid) is h
    assert kinds.keys() == {"CrossingEdges", "InvalidInstance"} and min(kinds.values()) >= 30, kinds


def test_total_length_is_the_fsum_of_the_edge_lengths():
    from test_optimal import pool_instances

    for g in pool_instances():
        want = math.fsum(dist(g.by_id[u], g.by_id[v]) for u, v in g.edges)
        assert g.total_length() == want and g.total_length() == want
        h = g.with_edges(sorted(g.edges)[1:])
        assert h.total_length() == math.fsum(dist(h.by_id[u], h.by_id[v]) for u, v in h.edges)


@pytest.mark.parametrize("coord", [0.5, 2.0, True])
def test_build_rejects_a_point_made_directly_with_a_float_or_bool(coord):
    # Point() does not convert its coordinates, as Point.make does
    pts = [Point(1, 5, 1), Point(2, 3, Fraction(7, 2))]
    for p in (Point(0, coord, 0), Point(0, 0, coord)):
        with pytest.raises(TypeError, match="expected int, Fraction or decimal string"):
            build([p] + pts, [(0, 1), (1, 2)])


def test_build_reads_a_point_made_directly_with_strings():
    g = build([Point(0, "0.5", "0"), Point(1, 5, 1), Point(2, "3", Fraction(7, 2))], [(0, 1)])
    assert [p.coords() for p in g.points] == [(Fraction(1, 2), 0), (5, 1), (3, Fraction(7, 2))]
    assert (g.ipt(0), g.ipt(2)) == ((1, 0), (6, 7))


def test_copied_points_are_checked_again():
    g = generate(20, 4, 0.5)
    p, q = g.points[0], g.points[1]
    mid = Point.make(1000, Fraction(p.x + q.x, 2), Fraction(p.y + q.y, 2))
    twin = Point(1000, p.x, p.y)
    for extra, error, match in ((mid, CollinearTriple, "collinear"),
                                (twin, DuplicatePoint, "coincide"),
                                (p, DuplicatePoint, "ids")):
        for pts in (list(g.points) + [extra], g.points[:5] + (extra,), g.points + (extra,)):
            with pytest.raises(error, match=match):
                build(pts, [])


def test_built_points_are_validated_once_and_immutable(monkeypatch):
    g = generate(20, 4, 0.5)
    with pytest.raises(TypeError):
        g.points[0] = g.points[1]
    with pytest.raises(AttributeError):
        g.points.append(g.points[0])
    assert isinstance(g.points, tuple)

    def unexpected(*args):
        raise AssertionError("points checked again")

    monkeypatch.setattr("pslgaug.pslg.collinear_pair", unexpected)
    assert build(g.points, g.edges).rotation == g.rotation
    with pytest.raises(AssertionError, match="checked again"):
        build(list(g.points), g.edges)


def test_lengths_independent_of_edge_order():
    from pslgaug.transform import WeaklySimplePolygon

    for seed in range(12):
        g = generate(40, seed, 0.5)
        edges = sorted(g.edges)
        random.Random(seed).shuffle(edges)
        assert build(g.points, edges).total_length() == g.total_length()
        seq = [p.id for p in g.points]
        lengths = {WeaklySimplePolygon(seq[k:] + seq[:k]).length(g) for k in range(len(seq))}
        assert len(lengths) == 1


def test_facial_walks_triangle(triangle):
    walks = facial_walks(triangle)
    assert len(walks) == 2
    assert all(len(w) == 3 for w in walks)
    outer = [w for w in walks if w.is_outer]
    assert len(outer) == 1


def test_facial_walks_fig3(fig3):
    walks = facial_walks(fig3)
    assert len(walks) == 1
    assert len(walks[0]) == 6
    assert walks[0].is_outer
    counts = Counter(walk_edges(walks[0]))
    assert all(v == 2 for v in counts.values())


def test_facial_walks_square_diag(square_diag):
    walks = facial_walks(square_diag)
    assert len(walks) == 3
    assert sorted(len(w) for w in walks) == [3, 3, 4]


def test_walk_invariants(fig3, triangle, square_diag, two_triangles, star3):
    for g in (fig3, triangle, square_diag, two_triangles, star3):
        walks = facial_walks(g)
        # each directed edge exactly once over all walks
        directed = []
        for w in walks:
            directed += list(zip(w.seq, w.seq[1:]))
        assert len(directed) == len(set(directed)) == 2 * len(g.edges)
        # each undirected edge exactly twice
        cnt = Counter(ekey(u, v) for u, v in directed)
        assert all(c == 2 for c in cnt.values())
        assert set(cnt) == set(g.edges)
        # Euler formula on connected graphs
        assert g.n - len(g.edges) + len(walks) == 2


def test_connectivity_fig3(fig3):
    rep = connectivity(fig3)
    assert rep.connected
    assert rep.cut_vertices == {2, 3}
    assert rep.bridges == {(1, 2), (2, 3), (3, 4)}
    assert not rep.is_2_connected
    assert not rep.is_2_edge_connected


def test_connectivity_triangle(triangle):
    rep = connectivity(triangle)
    assert rep.cut_vertices == set()
    assert rep.bridges == set()
    assert rep.is_2_connected and rep.is_2_edge_connected


def test_connectivity_two_triangles(two_triangles):
    rep = connectivity(two_triangles)
    assert rep.cut_vertices == {0}
    assert rep.bridges == set()
    assert rep.is_2_edge_connected
    assert not rep.is_2_connected


def test_connectivity_disconnected():
    g = build(
        [(0, "0", "0"), (1, "1", "0.1"), (2, "5", "1"), (3, "6", "1.7")],
        [(0, 1), (2, 3)],
    )
    rep = connectivity(g)
    assert len(rep.components) == 2
    assert not rep.connected


def _components(vertices, edges):
    """The connected components of (vertices, edges), each sorted, ordered
    by their smallest vertex, by a plain graph search."""
    nbrs = {v: set() for v in vertices}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    comps, seen = [], set()
    for root in sorted(vertices):
        if root in seen:
            continue
        comp, queue = [], [root]
        seen.add(root)
        while queue:
            x = queue.pop()
            comp.append(x)
            for y in nbrs[x] - seen:
                seen.add(y)
                queue.append(y)
        comps.append(sorted(comp))
    return comps


def brute_force_connectivity(g):
    """(components, cut vertices, bridges) by deletion: a bridge disconnects
    its endpoints when deleted, and a cut vertex splits its component."""
    vertices, edges = set(g.by_id), set(g.edges)
    comps = _components(vertices, edges)
    bridges = {e for e in edges if len(_components(vertices, edges - {e})) > len(comps)}
    cut = set()
    for v in vertices:
        # v's component, less v, is at least two components
        if len(_components(vertices - {v}, {e for e in edges if v not in e})) > len(comps):
            cut.add(v)
    return comps, cut, bridges


def test_connectivity_matches_brute_force():
    # the face-label report against deletion by brute force, on trees,
    # connected graphs with cycles, disconnected graphs, graphs with
    # isolated points, and the 16 augment-mixed pool graphs (n >= 40) with
    # their 2-connected and 2-edge-connected augmentations, which have many
    # faces
    from pslgaug.heuristic import augment_2ec
    from pslgaug.optimal import optimal_augment
    from test_optimal import pool_instances

    rng = random.Random(47)
    graphs = [
        build([], []),
        build([(3, "1", "2")], []),
        build([(0, "0", "0"), (1, "2", "1"), (2, "1", "3")], [(0, 1)]),
    ]
    for k in range(50):
        g = generate(rng.randint(3, 24), 900 + k, rng.choice([0.0, 0.0, 0.3, 0.6, 1.0]))
        graphs.append(g)
        graphs.append(g.with_edges(e for e in sorted(g.edges) if rng.random() < 0.6))
        graphs.append(g.with_edges(e for e in sorted(g.edges) if rng.random() < 0.25))
    pool = [g for g in pool_instances() if g.n >= 40]
    assert len(pool) == 16
    for g in pool:
        graphs.append(g)
        for added in (optimal_augment(g, "2vc").added, augment_2ec(g).added):
            graphs.append(g.with_edges(sorted(g.edges) + [ekey(*e) for e in added]))
    kinds = Counter()
    for g in graphs:
        rep = connectivity(g)
        comps, cut, bridges = brute_force_connectivity(g)
        assert (rep.components, rep.cut_vertices, rep.bridges) == (comps, cut, bridges)
        connected = len(comps) == 1
        assert rep.is_2_edge_connected == (connected and not bridges)
        assert rep.is_2_connected == (connected and g.n >= 3 and not cut)
        kinds["tree" if connected and len(g.edges) == g.n - 1 else
              "connected" if connected else "disconnected"] += 1
        kinds["isolated"] += any(not g.rotation[v] for v in g.by_id)
        kinds["cut"] += bool(cut)
        kinds["2-connected"] += rep.is_2_connected
    assert len(graphs) >= 150 + 48
    assert min(kinds.values()) >= 20, kinds


def _genus_zero(g, rotation):
    """Whether V' - E + F == 2C' for the rotation system ``rotation`` on g's
    edges, counting faces as the orbits of the facial-walk permutation and
    only the vertices and components that have an edge."""
    nxt = {}
    for v, rot in rotation.items():
        for i, u in enumerate(rot):
            nxt[(u, v)] = (v, rot[(i + 1) % len(rot)])
    faces, seen = 0, set()
    for d in nxt:
        faces += d not in seen
        while d not in seen:
            seen.add(d)
            d = nxt[d]
    edged = [v for v, rot in rotation.items() if rot]
    return len(edged) - len(g.edges) + faces == 2 * len(_components(edged, g.edges))


def test_connectivity_rejects_a_rotation_that_breaks_euler():
    # swap two neighbours in one vertex's rotation: a mutant of genus > 0
    # raises, one that stays genus 0 is still a plane embedding of the same
    # graph, so the face labels give the brute-force report
    rng = random.Random(53)
    broken = planar = 0
    for k in range(80):
        g = generate(rng.randint(6, 30), 5300 + k, rng.choice([0.0, 0.3, 0.6, 1.0]))
        if k % 2:
            g = g.with_edges(e for e in sorted(g.edges) if rng.random() < 0.7)
        assert _genus_zero(g, g.rotation)
        expect = brute_force_connectivity(g)
        rep = connectivity(g)
        assert (rep.components, rep.cut_vertices, rep.bridges) == expect
        hubs = [v for v in sorted(g.rotation) if len(g.rotation[v]) >= 3]
        for v in rng.choices(hubs, k=6) if hubs else ():
            rot = list(g.rotation[v])
            i, j = rng.sample(range(len(rot)), 2)
            rot[i], rot[j] = rot[j], rot[i]
            mutant = Pslg(g.points, g.by_id, g.edges, {**g.rotation, v: tuple(rot)},
                          g._ix, g._iy)
            if _genus_zero(g, mutant.rotation):
                planar += 1
                rep = connectivity(mutant)
                assert (rep.components, rep.cut_vertices, rep.bridges) == expect
            else:
                broken += 1
                with pytest.raises(LemmaViolation, match="not planar"):
                    connectivity(mutant)
    assert broken >= 100 and planar >= 20, (broken, planar)


def test_one_faces_per_graph(monkeypatch):
    # facial_walks and connectivity share the graph's faces, so an
    # augment item builds one Faces for its input graph and one for the
    # augmenter's closing check, whose graph verify's build gets back; the
    # item edits two graphs, the input and the augmented one.  The morph's
    # editor keeps its own next darts, so transform and replay build none
    from pslgaug.heuristic import augment_2ec, augment_2vc
    from pslgaug.optimal import optimal_augment
    from pslgaug.oracle import verify
    from pslgaug.pslg import Faces
    from pslgaug.transform import replay, transform

    made, edits = [], []
    init, edit = Faces.__init__, Pslg._edit
    monkeypatch.setattr(Faces, "__init__", lambda self, rot: made.append(self) or init(self, rot))
    monkeypatch.setattr(Pslg, "_edit", lambda self, *a: edits.append(self) or edit(self, *a))
    for seed in range(5):
        for augment, mode in ((augment_2ec, "2ec"), (augment_2vc, "2vc"),
                              (lambda g: optimal_augment(g, "2ec"), "2ec"),
                              (lambda g: optimal_augment(g, "2vc"), "2vc")):
            made.clear()
            edits.clear()
            g = generate(30, 720000 + seed, 0.4)
            assert verify(g, augment(g).added, mode)["ok"]
            assert len(made) == 2 and made[0] is g.faces()
            assert len(edits) == 2 and edits[1] is g
    assert facial_walks(g) and connectivity(g) and len(made) == 2
    for seed in range(5):
        g = generate(30, 720000 + seed, 0.4)
        made.clear()
        assert replay(g, transform(g)[2].steps)["ok"]
        assert made == []


# sha256 of repr(facial_walks(g)) over _pinned_graphs(), recorded from the
# walk tracer that face labels replaced: the walks, their order, where each
# starts and which is outer stay exactly as they were
PINNED_FACIAL_WALKS = "d563ddca9034d8cde0c6df39b7ae42ce7775152aae10c9624a8f2bced67d6e3c"


def _pinned_graphs():
    """Generated graphs, random edge subsets of them (disconnected, with
    isolated points) and some of the graphs their morph passes through."""
    from pslgaug.transform import transform

    rng = random.Random(41)
    out = []
    for n, seed, density in ((5, 1, 0.0), (9, 2, 0.5), (14, 3, 1.0), (18, 4, 0.3),
                             (23, 5, 0.6), (30, 6, 0.2), (37, 7, 0.8)):
        g = generate(n, seed, density)
        out.append(g)
        out.append(g.with_edges(e for e in sorted(g.edges) if rng.random() < 0.5))
        edges = set(g.edges)
        for k, st in enumerate(transform(g)[2].steps):
            (edges.add if st.op == "insert" else edges.discard)((st.u, st.v))
            if k % 5 == 2:
                out.append(build(g.points, edges))
    return out


def test_facial_walks_pinned():
    graphs = _pinned_graphs()
    assert len(graphs) == 76
    text = "".join(repr(facial_walks(g)) for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_FACIAL_WALKS


def reference_require_augmentable(g):
    """require_augmentable on the full connectivity report (cut vertices and
    bridges too), as it was before it tested connectedness by one search."""
    rep = connectivity(g)
    if not rep.connected:
        raise InvalidInstance("graph is not connected")
    if g.n < 3:
        raise InvalidInstance("need at least 3 vertices")


def _raised(fn, g):
    try:
        fn(g)
    except PslgError as e:
        return type(e).__name__, str(e)
    return None


def test_require_augmentable_matches_reference():
    rng = random.Random(31)
    graphs = [
        build([], []),
        build([(5, "1", "2")], []),
        build([(0, "0", "0"), (1, "1", "0")], []),
        build([(0, "0", "0"), (1, "1", "0")], [(0, 1)]),
    ]
    for seed in range(40):
        g = generate(rng.randrange(3, 30), 500 + seed, rng.choice([0.0, 0.4, 0.8]))
        graphs.append(g)
        graphs.append(g.with_edges([e for e in sorted(g.edges) if rng.random() < 0.7]))
    kinds = Counter()
    for g in graphs:
        got = _raised(require_augmentable, g)
        assert got == _raised(reference_require_augmentable, g), (g.n, sorted(g.edges))
        kinds[got] += 1
    assert kinds[None] >= 40 and len(kinds) == 3, kinds
    assert kinds[("InvalidInstance", "need at least 3 vertices")] == 2


def test_decomposition_triangle(triangle):
    c = convex_walk_decomposition(triangle)
    # inner walk is one closed convex cycle, outer is all reflex
    assert len(c.p1) == 1
    assert len(c.p1[0]) == 3
    assert len(c.p0) == 3
    assert not c.p2


def test_decomposition_fig3(fig3):
    c = convex_walk_decomposition(fig3)
    # the two 2-edge convex walks carry the augmentation; the second
    # occurrences of the leaf edges are single-edge maximal walks
    assert not c.p1
    seqs = sorted(w.seq for w in c.p2)
    assert seqs == [(1, 2, 3), (4, 3, 2)]
    assert sorted(w.seq for w in c.p0) == [(2, 1), (3, 4)]


def test_decomposition_star(star3):
    c = convex_walk_decomposition(star3)
    assert not c.p0 and not c.p1
    assert len(c.p2) == 3
    for w in c.p2:
        assert len(w) == 2 and w.seq[1] == 0


def test_decomposition_cover(fig3, triangle, square_diag, two_triangles, star3,
                             pendant_in_polygon, double_pendant):
    for g in (fig3, triangle, square_diag, two_triangles, star3,
              pendant_in_polygon, double_pendant):
        walks = facial_walks(g)
        c = convex_walk_decomposition(g)
        wanted = Counter()
        for w in walks:
            wanted.update(walk_edges(w))
        got = Counter()
        for wk in c.p0 + c.p1 + c.p2:
            got.update(walk_edges(wk))
        assert got == wanted


def test_decomposition_pendant_in_polygon(pendant_in_polygon):
    c = convex_walk_decomposition(pendant_in_polygon)
    closed = [w for w in c.p1 if w.seq[0] == w.seq[-1] == 4]
    assert len(closed) == 1
    w = closed[0]
    # pendant vertex wrapped by the polygon walk: p1 == p_{t-1}
    assert w.seq[1] == w.seq[-2] == 0
    assert len(w) == 6


def dual_graph(g, c):
    """Dual graph on the P1 + P2 walks of ``c = convex_walk_decomposition(g)``,
    two walks adjacent iff they share a graph edge, as (nodes, adjacency).

    Asserts the two structural facts the heuristics' bounds rest on: every
    edge of g lies on some P1/P2 walk, and the dual graph is connected.
    """
    nodes = c.p1 + c.p2
    edge_to_nodes = {}
    for i, wk in enumerate(nodes):
        for e in walk_edges(wk):
            edge_to_nodes.setdefault(e, set()).add(i)
    assert g.edges <= edge_to_nodes.keys(), "edges not covered by any convex chain"
    adj = {i: set() for i in range(len(nodes))}
    for ns in edge_to_nodes.values():
        for i in ns:
            adj[i] |= ns - {i}
    assert not nodes or len(reach(adj, 0)) == len(nodes), "dual graph is disconnected"
    return nodes, adj


def test_dual_graph(triangle, fig3, star3):
    nodes, _ = dual_graph(triangle, convex_walk_decomposition(triangle))
    assert len(nodes) == 1
    nodes, adj = dual_graph(fig3, convex_walk_decomposition(fig3))
    assert len(nodes) == 2
    assert adj[0] == {1}
    nodes, adj = dual_graph(star3, convex_walk_decomposition(star3))
    assert len(nodes) == 3
    # every pair of star walks shares an edge
    assert all(len(v) == 2 for v in adj.values())


def test_random_instance_properties():
    # dual connectivity, cover, Euler and the facial-walk cut/bridge
    # characterization over 100 seeded instances (the characterization
    # assertions live inside connectivity, the dual ones in dual_graph)
    rng = random.Random(2)
    for seed in range(100):
        n = rng.randrange(3, 13)
        g = generate(n, seed + 1000, rng.choice([0.0, 0.3, 0.7, 1.0]))
        walks = facial_walks(g)
        assert g.n - len(g.edges) + len(walks) == 2
        rep = connectivity(g)
        assert rep.connected
        c = convex_walk_decomposition(g)
        dual_graph(g, c)  # asserts cover and connectivity
        wanted = Counter()
        for w in walks:
            wanted.update(walk_edges(w))
        got = Counter()
        for wk in c.p0 + c.p1 + c.p2:
            got.update(walk_edges(wk))
        assert got == wanted


def test_isolated_vertices_in_data_model():
    # isolated points are valid in the data model (viewable instances) but
    # augmentation entry points reject them through the connectivity gate
    g = build([(0, "0", "0"), (1, "3", "1"), (2, "1", "4")], [(0, 1)])
    rep = connectivity(g)
    assert len(rep.components) == 2
    from pslgaug import augment_2ec
    from pslgaug.pslg import InvalidInstance

    with pytest.raises(InvalidInstance):
        augment_2ec(g)


def test_generate_smallest():
    for seed in range(5):
        for density in (0.0, 0.5, 1.0):
            g = generate(3, seed, density)
            assert g.n == 3 and len(g.edges) in (2, 3)
            assert connectivity(g).connected


# -- the rotation system, against a comparison sort -------------------------


def oracle_rotations(g):
    """Every vertex of g mapped to its neighbours sorted by ``sorted`` with
    ``polar_before`` as the comparison, independent of ``polar_sort``'s
    binary insertion."""
    adj = adjacency(g.edges)
    out = {}
    for v in g.by_id:
        cx, cy = g.ipt(v)

        def cmp(a, b):
            (ax, ay), (bx, by) = g.ipt(a), g.ipt(b)
            if polar_before(ax - cx, ay - cy, bx - cx, by - cy):
                return -1
            return 1 if polar_before(bx - cx, by - cy, ax - cx, ay - cy) else 0

        out[v] = tuple(sorted(adj.get(v, ()), key=cmp_to_key(cmp)))
    return out


def float_angle_rotations(g):
    """Every vertex of g mapped to its neighbours sorted by float ``atan2``
    angle in [0, 2 pi): the same order as the exact one wherever two
    directions' angles differ by more than a float's resolution."""
    adj = adjacency(g.edges)
    out = {}
    for v in g.by_id:
        cx, cy = g.ipt(v)

        def angle(w):
            x, y = g.ipt(w)
            return math.atan2(y - cy, x - cx) % (2 * math.pi)

        out[v] = tuple(sorted(adj.get(v, ()), key=angle))
    return out


def _rotation_graphs(group):
    from test_adversarial import FAMILIES, LARGE, _general_position
    from test_optimal import _lattice_graph, pool_instances

    if group == "pool":
        return pool_instances()
    if group == "generated":
        rng = random.Random(47)
        return [generate(rng.randrange(3, 70), 620000 + i, rng.choice([0.0, 0.3, 0.6, 1.0]))
                for i in range(500)]
    if group == "adversarial":
        return [_general_position(make, random.Random(seed)) for _, make, seed in FAMILIES + LARGE]
    return [_lattice_graph("star"), _lattice_graph("path")]


@pytest.mark.parametrize("group", ["pool", "generated", "adversarial", "lattice"])
def test_rotation_system_matches_polar_sort(group):
    # every built graph's rotations equal the comparison sort's; on the pool
    # and the generated graphs, whose scaled coordinates stay below 2 * 10^6,
    # two directions differ in angle by more than 10^-14, far above atan2's
    # resolution, so the float angle order is a third, independent witness
    graphs = _rotation_graphs(group)
    assert len(graphs) >= {"pool": 49, "generated": 500}.get(group, 2)
    for g in graphs:
        want = oracle_rotations(g)
        assert g.rotation == want
        if group in ("pool", "generated"):
            assert max(abs(c) for v in g.by_id for c in g.ipt(v)) < 2 * 10**6
            assert float_angle_rotations(g) == want


def test_rotation_system_orders_a_float_tie_exactly():
    # the directions to 1 and 2 differ by about 10^-18 rad, below a float's
    # resolution, so their float angles tie and a float sort would put the
    # smaller id, 1, first; exactly, 2 comes first
    a, b = (2**30 - 1, 2**30 - 2), (2**30 - 2, 2**30 - 3)
    assert math.atan2(a[1], a[0]) == math.atan2(b[1], b[0])
    pts = [(0, 0, 0), (1, *a), (2, *b), (3, -5, 7), (4, 3, -11), (5, -13, -2)]
    g = build(pts, [(0, k) for k in range(1, 6)])
    assert g.rotation[0] == (2, 1, 3, 5, 4)
    assert g.rotation == oracle_rotations(g)


def test_rotation_system_sorts_directions_past_the_float_range_exactly():
    # the points of test_feasibility_of_huge_and_tiny_coordinates_stays_exact:
    # scaled to integers, the coordinates have about 600 digits
    pts = [(i, f"{i}e300", f"{i * i}e300") for i in range(12)]
    pts[0] = (0, "1e-300", "0e300")
    g = build(pts, [(i, i + 1) for i in range(11)])
    with pytest.raises(OverflowError):
        float(g.ipt(5)[0])
    assert g.rotation == oracle_rotations(g)
