import hashlib
import inspect
import json
import random
import re
import sys
from collections import Counter
from dataclasses import replace
from math import atan2, fsum, isqrt

import pytest

from pslgaug import build
from pslgaug.geodesic import WalkNotInFace, convex_geodesic, geodesic
from pslgaug.geom import LENGTH_TOL, dist, ekey, segments_properly_cross
from pslgaug.instances import generate, oplog_to_jsonl
from pslgaug.pslg import (
    CrossingEdges,
    LemmaViolation,
    _corner_convex,
    connectivity,
    facial_walks,
    next_darts,
    reach,
)
from pslgaug.triangulate import insert_constraint, lawson_flips, triangulate_points
from pslgaug.transform import (
    PHASE_DELAUNAY,
    OpStep,
    ReplayViolation,
    WeaklySimplePolygon,
    _CertifiedEdges,
    _Editor,
    delaunay,
    euclidean_mst,
    mst_length,
    phase1_spanning_tree,
    phase2_to_delaunay_tree,
    phase3_to_mst,
    phase4_grow_cycle,
    phase5_simplify,
    replay,
    spanning_subtree,
    transform,
)
import funnel_oracle
import test_adversarial as A
from funnel_oracle import funnel_env, funnel_geodesic, locate_subwalk, validate
from test_optimal import pool_instances
from tests_support import (
    adjacency,
    all_pairs_mst,
    forest_path,
    full_build,
    is_delaunay,
    polar_sort,
    scan_graph,
    through_phase2,
)


def test_phase1_tree_input(fig3):
    ed = _Editor(fig3)
    phase1_spanning_tree(ed, spanning_subtree(fig3))
    assert ed.graph.edges == set(fig3.edges)
    assert ed.log.steps == []


def test_phase1_triangle(triangle):
    ed = _Editor(triangle)
    phase1_spanning_tree(ed, spanning_subtree(triangle))
    assert len(ed.log.steps) == 1
    deleted = ed.log.steps[0]
    assert deleted.op == "delete"
    # the longest edge goes
    longest = max(triangle.edges, key=lambda e: dist(triangle.by_id[e[0]], triangle.by_id[e[1]]))
    assert ekey(deleted.u, deleted.v) == longest


def test_phase1_random_counts():
    rng = random.Random(5)
    for seed in range(25):
        n = rng.randrange(4, 12)
        g = generate(n, seed + 3000, 0.7)
        ed = _Editor(g)
        phase1_spanning_tree(ed, spanning_subtree(g))
        assert len(ed.log.steps) == len(g.edges) - (n - 1)
        assert len(ed.graph.edges) == n - 1


def test_phase2_mst_input_no_swaps():
    # a tree that already is the MST sits inside the Delaunay triangulation
    rng = random.Random(11)
    for seed in range(12):
        g = generate(rng.randrange(4, 10), seed + 4000, 0.0)
        mst = euclidean_mst(g)
        if set(g.edges) != mst:
            continue
        ed, _ = through_phase2(g)
        assert [s for s in ed.log.steps if s.phase == 2] == []


def test_phase2_one_swap():
    # a quad with the long diagonal in the tree: one Delaunay flip swaps it
    g = build(
        [(0, "0", "0"), (1, "10", "1"), (2, "5", "4"), (3, "5", "-3.2")],
        [(0, 1), (0, 2), (0, 3)],
    )
    tree = spanning_subtree(g)
    T, flips = delaunay(g, tree)
    ed = _Editor(g)
    phase1_spanning_tree(ed, tree)
    assert ed.graph.edges == set(g.edges)
    phase2_to_delaunay_tree(ed, T, flips)
    swaps = [s for s in ed.log.steps if s.phase == 2]
    if swaps:
        assert len(swaps) % 2 == 0
        for ins, dele in zip(swaps[::2], swaps[1::2]):
            assert ins.op == "insert" and dele.op == "delete"
            assert dist(g.by_id[ins.u], g.by_id[ins.v]) < dist(
                g.by_id[dele.u], g.by_id[dele.v]
            )


def test_phase2_reaches_delaunay_random():
    rng = random.Random(21)
    for seed in range(30):
        n = rng.randrange(4, 14)
        g = generate(n, seed + 5000, rng.choice([0.3, 0.7]))
        ed, T = through_phase2(g)
        assert is_delaunay(T)
        assert ed.log.stats["flips"] <= 4 * n * n


def test_phase3_fixture():
    # tree differing from the MST in one edge: one insert + one delete
    g = build(
        [(0, "0", "0"), (1, "10", "0.5"), (2, "5", "4"), (3, "5.2", "9")],
        [(0, 1), (1, 2), (2, 3)],
    )
    mst = euclidean_mst(g)
    ed, _ = through_phase2(g)
    before = len(ed.log.steps)
    phase3_to_mst(ed, euclidean_mst(g))
    assert ed.graph.edges == mst
    diff = len(ed.log.steps) - before
    assert diff == 2 * len(mst - set(g.edges))


def test_phase3_random_exact_mst():
    rng = random.Random(31)
    for seed in range(25):
        n = rng.randrange(4, 13)
        g = generate(n, seed + 6000, rng.choice([0.4, 0.8]))
        ed, _ = through_phase2(g)
        phase3_to_mst(ed, euclidean_mst(g))
        assert ed.graph.edges == euclidean_mst(g)


def test_euclidean_mst_equals_the_all_pairs_oracle():
    # half of the random graphs are Delaunay subgraphs, half subgraphs of
    # the unflipped scan triangulation; graphs of 0-2 points take no
    # triangulation
    rng = random.Random(61)
    small = [build([], []), build([(7, "1", "2")], []),
             build([(7, "1", "2"), (3, "-4", "0.5")], [])]
    assert [euclidean_mst(g) for g in small] == [set(), set(), {(3, 7)}]
    graphs = small + pool_instances()
    for _ in range(250):
        case = (rng.randint(3, 60), rng.randrange(10**6), rng.choice((0.0, 0.3, 0.6)))
        graphs += [generate(*case), scan_graph(*case)]
    for g in graphs:
        assert euclidean_mst(g) == all_pairs_mst(g)


def test_transform_takes_the_mst_from_its_triangulation():
    # transform takes the MST from the triangulation it flips for phase 2,
    # built with the tree constrained, before the editor's ceiling
    rng = random.Random(62)
    cases = [(rng.randint(5, 60), rng.randrange(10**6), 0.4) for _ in range(20)]
    graphs = [f(*case) for case in cases for f in (generate, scan_graph)]
    for g in graphs + pool_instances():
        _, _, log = transform(g)
        assert g._mst == all_pairs_mst(g)
        assert log.stats["mst_length"] == fsum(dist(g.by_id[u], g.by_id[v]) for u, v in g._mst)


def cocircular_points(r=5525):
    """Every lattice point of the circle x^2 + y^2 = r^2, in angle order; 180
    of them for r = 5525 = 5^2 * 13 * 17."""
    pts = [(x, y) for x in range(-r, r + 1) for y in {isqrt(r * r - x * x), -isqrt(r * r - x * x)}
           if x * x + y * y == r * r]
    return sorted(pts, key=lambda p: atan2(p[1], p[0]))


def cocircular_sets():
    """Pairs of graphs on cocircular points, one with no edges and one with a
    path around the circle, on samples of 3-180 of ``cocircular_points``
    with random ids, at four offsets."""
    circle = cocircular_points()
    rng = random.Random(63)
    out = []
    for k in (180, 3, 4, 5, 8, 12, 20, 45, 90, 120):
        pts = circle if k == 180 else sorted(rng.sample(circle, k), key=circle.index)
        for dx, dy in ((0, 0), (1, 0), (-7, 3), (10**6 + 1, -(10**5) - 3)):
            ids = rng.sample(range(1000), len(pts))
            points = [(i, x + dx, y + dy) for i, (x, y) in zip(ids, pts)]
            out.append((build(points, []), build(points, list(zip(ids, ids[1:])))))
    return out


def test_euclidean_mst_on_cocircular_points():
    # every Delaunay triangulation of cocircular points is one of many, and
    # equal chords tie: Kruskal over any of them still gives the oracle's
    # tree, and the oracle certifies each triangulation
    assert len(cocircular_points()) == 180
    for g, path in cocircular_sets():
        assert euclidean_mst(g) == all_pairs_mst(g), g.points
        # transform constrains the path, then flips
        transform(path)
        assert path._mst == all_pairs_mst(path), g.points
        assert is_delaunay(delaunay(g)[0]), g.points
        assert is_delaunay(delaunay(path, spanning_subtree(path))[0]), g.points


def test_phase4_immediate_hamiltonian():
    # path along convex positions whose endpoints are hull-adjacent
    g = build(
        [(0, "0", "0"), (1, "2", "3"), (2, "5", "4"), (3, "8", "3.1"), (4, "10", "0")],
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )
    assert euclidean_mst(g) == set(g.edges)
    ed = _Editor(g)
    poly = phase4_grow_cycle(ed)
    assert poly.is_simple()
    assert poly.vertices() == {0, 1, 2, 3, 4}
    assert len([s for s in ed.log.steps if s.phase == 4]) == 1  # just the hull edge


def test_phase4_five_vertex_tree():
    # a star-ish 5-vertex tree grows into a weakly simple polygon over all
    # vertices within twice the tree length
    g = build(
        [(0, "0", "0"), (1, "4", "0.3"), (2, "0.2", "4"), (3, "-4", "0.5"), (4, "0.1", "-4")],
        [(0, 1), (0, 2), (0, 3), (0, 4)],
    )
    assert euclidean_mst(g) == set(g.edges)
    ed = _Editor(g)
    poly = phase4_grow_cycle(ed)
    assert poly.vertices() == {0, 1, 2, 3, 4}
    assert poly.length(g) <= 2 * mst_length(g) + 1e-9


def weighted_lengths(monkeypatch):
    """Record, after every edit, its phase and the length the paper bounds:
    while ``_retrace`` traces a polygon, the polygon's length plus the fsum
    of the graph's edges off it; otherwise the graph's length."""
    transform_mod = sys.modules["pslgaug.transform"]  # the package exports the function
    retrace, record = transform_mod._retrace, _Editor._record
    traced, steps = [None], []

    def tracing(ed, poly, *args):
        traced[0] = poly
        try:
            return retrace(ed, poly, *args)
        finally:
            traced[0] = None

    def recorded(ed, op, u, v, phase):
        record(ed, op, u, v, phase)
        poly, g = traced[0], ed.graph
        if poly is None:
            steps.append((phase, ed.length))
            return
        sup = poly.edge_multiset()
        off = fsum(dist(g.by_id[a], g.by_id[b]) for a, b in g.edges if (a, b) not in sup)
        steps.append((phase, poly.length(g) + off))

    monkeypatch.setattr(transform_mod, "_retrace", tracing)
    monkeypatch.setattr(_Editor, "_record", recorded)
    return steps


def test_phase4_invariant_random(monkeypatch):
    # after every phase 4 and phase 5 edit, the polygon plus the leftover
    # edges stay within twice the MST
    steps = weighted_lengths(monkeypatch)
    rng = random.Random(41)
    graphs = [generate(rng.randrange(4, 13), seed + 7000, 0.0) for seed in range(20)]
    checked = Counter()
    for g in graphs + pool_instances():
        steps.clear()
        ed, _ = through_phase2(g)
        phase3_to_mst(ed, euclidean_mst(g))
        poly = phase4_grow_cycle(ed)
        assert poly.vertices() == {p.id for p in g.points}
        phase5_simplify(ed, poly)
        assert len(steps) == len(ed.log.steps)
        for phase, length in steps:
            if phase >= 4:
                assert length <= 2 * mst_length(g) + 1e-9
                checked[phase] += 1
    assert checked[4] >= 2400 and checked[5] >= 15


def test_retrace_leaves_no_off_polygon_edge_between_polygon_vertices(monkeypatch):
    # _retrace scans only the edges at its path for edges to delete; after
    # every call on the 150-morph set, no edge of the whole graph joins two
    # polygon vertices off the polygon
    transform_mod = sys.modules["pslgaug.transform"]  # the package exports the function
    retrace = transform_mod._retrace
    calls = Counter()

    def checked(ed, poly, *args):
        out = retrace(ed, poly, *args)
        vc, sup = poly.vertices(), poly.edge_multiset()
        assert [e for e in ed.graph.edges if e[0] in vc and e[1] in vc and e not in sup] == []
        calls[args[-1]] += 1
        return out

    monkeypatch.setattr(transform_mod, "_retrace", checked)
    rng = random.Random(7)
    for _ in range(150):
        transform(generate(rng.randint(5, 60), rng.randrange(10**6), rng.choice((0.0, 0.2, 0.4, 0.6))))
    assert calls[4] >= 3000 and calls[5] >= 15


def test_live_polygon_state_equals_a_recount(monkeypatch):
    # after every round of phases 4-5 on the 150-morph set and the pool, the
    # polygon state the editor keeps by deltas equals a recount from
    # poly.seq, the weighted length bit for bit, and the whole validate passes
    transform_mod = sys.modules["pslgaug.transform"]  # the package exports the function
    retrace = transform_mod._retrace
    calls = Counter()

    def recounted(ed, poly, *args):
        out = retrace(ed, poly, *args)
        g, sup = ed.graph, poly.edge_multiset()
        d = {e: dist(g.by_id[e[0]], g.by_id[e[1]]) for e in g.edges | set(sup)}
        assert dict(ed.support) == dict(sup) and ed.vc == poly.vertices()
        assert ed.own == {e: c * d[e] for e, c in sup.items()}
        assert ed.off == {e: d[e] for e in g.edges if e not in sup}
        want = poly.length(g) + fsum(d[e] for e in g.edges if e not in sup)
        assert fsum(ed.own.values()) + fsum(ed.off.values()) == want
        poly.validate(g)
        calls[args[-1]] += 1
        return out

    monkeypatch.setattr(transform_mod, "_retrace", recounted)
    rng = random.Random(7)
    for _ in range(150):
        transform(generate(rng.randint(5, 60), rng.randrange(10**6), rng.choice((0.0, 0.2, 0.4, 0.6))))
    for g in pool_instances():
        transform(g)
    assert calls[4] >= 4000 and calls[5] >= 20


# plain generate graphs whose phase-4 splice takes the wrong copy of a doubled
# edge (a known defect), with the vertex that the whole check names
DEFECT_A = {
    (21, 904, 0.3): 7, (24, 680188, 0.6): 3, (50, 778402, 0.0): 4, (38, 950275, 0.6): 4,
    (41, 456502, 0.0): 13, (39, 940107, 0.6): 4, (30, 859481, 0.3): 18, (40, 692119, 0.4): 8,
    (88, 254460, 0.9): 19, (55, 108661, 0.6): 4, (33, 662209, 0.9): 12, (45, 296622, 0.8): 3,
    (53, 618053, 0.6): 2, (45, 730250, 0.2): 11, (60, 639648, 0.8): 7, (47, 932522, 0.8): 35,
}


def test_local_round_checks_catch_the_known_interleaves():
    # a round checks only the vertices it changed, and still names the
    # vertex that the whole check names
    for case, v in DEFECT_A.items():
        with pytest.raises(LemmaViolation) as e:
            transform(generate(*case))
        assert str(e.value) == f"polygon occurrences interleave at vertex {v}", case


def test_transform_and_replay_leave_the_start_graph_as_it_is(monkeypatch):
    # the editor edits a copy of the start graph in place: the start graph's
    # edges, rotations and faces stay as they were, transform's final graph
    # is a frozen copy that equals a fresh build, and the editor's graph
    # never fills a derived cache
    transform_mod = sys.modules["pslgaug.transform"]
    editors = []

    class Recorded(_Editor):
        def __init__(self, g):
            super().__init__(g)
            editors.append(self)

    monkeypatch.setattr(transform_mod, "_Editor", Recorded)
    for g in pool_instances():
        edges, rotation, walks, faces = g.edges, dict(g.rotation), facial_walks(g), g.faces()
        nxt, face = dict(faces.nxt), dict(faces.face)
        final, _, log = transform(g)
        replay(g, log.steps)
        assert g.edges is edges and g.rotation == rotation and g._faces is faces
        assert (faces.nxt, faces.face) == (nxt, face)
        assert facial_walks(g) == walks == facial_walks(full_build(g, g.edges))
        ref = build(g.points, final.edges)
        assert type(final.edges) is frozenset
        assert final.edges == ref.edges and final.rotation == ref.rotation
        live = editors[-1].graph
        assert final.edges is not live.edges and final.rotation is not live.rotation
        assert [live._faces, live._walks, live._conn, live._face_env, live._mst] == [None] * 5
    assert len(editors) == len(pool_instances())


def test_phase5_shortcuts_a_spike():
    # phase 4 ends with the spike (0, 28, 0) at a repeated vertex 28; phase 5
    # drops its tip and one copy of 0 instead of asking for the geodesic of
    # a corner of angle 0
    g = generate(48, 518200, 0.5)
    n = max(p.id for p in g.points)
    g = build([(n - p.id, p.x, p.y) for p in g.points], [(n - u, n - v) for u, v in g.edges])
    final, poly, log = transform(g)
    assert len(log.steps) == 127
    assert [(s.op, s.u, s.v) for s in log.steps if s.phase == 5] == [("delete", 0, 28)]
    assert replay(g, log.steps)["final_edges"] == sorted(final.edges)
    assert poly.length(g) <= 2 * mst_length(g) + 1e-9


def test_phase5_simple_input_no_ops(triangle):
    final, poly, log = transform(triangle)
    assert [s for s in log.steps if s.phase == 5] == []


def test_phase5_random():
    rng = random.Random(51)
    for seed in range(20):
        n = rng.randrange(4, 13)
        g = generate(n, seed + 8000, 0.0)
        ed, _ = through_phase2(g)
        phase3_to_mst(ed, euclidean_mst(g))
        poly4 = phase4_grow_cycle(ed)
        len4 = poly4.length(g)
        poly5 = phase5_simplify(ed, poly4)
        assert poly5.is_simple()
        assert len(poly5.seq) == n
        assert poly5.length(g) <= len4 + 1e-9


def test_transform_triangle(triangle):
    final, poly, log = transform(triangle)
    assert set(final.edges) == set(triangle.edges)


def test_transform_fig3(fig3):
    final, poly, log = transform(fig3)
    assert sorted(final.edges) == [(1, 2), (1, 3), (2, 4), (3, 4)]
    assert log.stats["final_length"] == pytest.approx(2.2, abs=1e-9)
    assert log.stats["final_length"] <= 2 * log.stats["mst_length"] + 1e-9
    assert log.stats["mst_length"] == pytest.approx(1.2, abs=1e-9)


def test_transform_and_replay_random():
    rng = random.Random(61)
    for seed in range(40):
        n = rng.randrange(3, 16)
        g = generate(n, seed + 9000, rng.choice([0.0, 0.4, 0.8]))
        final, poly, log = transform(g)
        rep = replay(g, log.steps)
        assert rep["ok"]
        assert rep["final_length"] <= 2 * log.stats["mst_length"] + 1e-9
        assert rep["max_intermediate_length"] <= (
            g.total_length() + log.stats["mst_length"] + 1e-9
        )
        assert sorted(final.edges) == rep["final_edges"]
        rep2 = connectivity(final)
        assert rep2.is_2_connected


# each case follows a valid first step, so the violation is at step 1
REJECTED = {
    "disconnecting_delete": (OpStep("delete", 3, 4, 1), "connectivity", ""),
    "crossing_insert": (OpStep("insert", 1, 4, 1), "planarity", "edges (1,4) and (2,3) cross"),
    # past ||E|| + ||MST||
    "overlong": (OpStep("insert", 2, 4, 1), "length", "3.20498756 > ceiling 2.40498756"),
    "unknown_endpoint": (OpStep("insert", 1, 99, 1), "vertices", "unknown endpoint in (1, 99)"),
    "unknown_op": (OpStep("flip", 1, 4, 1), "op", "flip"),
    "insert_present": (OpStep("insert", 3, 1, 1), "planarity", "edge (1, 3) already present"),
    "delete_absent": (OpStep("delete", 1, 4, 1), "planarity", "edge (1, 4) not present"),
    "self_loop": (OpStep("insert", 2, 2, 1), "vertices", "self-loop at point 2"),
}


def violation(invariant, message):
    return f"{invariant} violated{': ' + message if message else ''}"


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_replay_rejects(fig3, case):
    bad, invariant, message = REJECTED[case]
    with pytest.raises(ReplayViolation) as e:
        replay(fig3, [OpStep("insert", 1, 3, 1), bad])
    assert (e.value.step, e.value.invariant) == (1, invariant)
    assert str(e.value) == "step 1: " + violation(invariant, message)


def test_replay_rejects_disconnected_start():
    g = build([(1, "0", "0"), (2, "0", "0.1"), (3, "1", "0"), (4, "1", "0.1")], [(1, 2)])
    with pytest.raises(ReplayViolation) as e:
        replay(g, [OpStep("insert", 3, 4, 1)])
    assert (e.value.step, e.value.invariant) == (0, "connectivity")
    # the start graph is certified once, before any step: an empty log and
    # a first insert that would connect it fail the same way
    for steps in ([], [OpStep("insert", 2, 3, 1)]):
        with pytest.raises(ReplayViolation) as e:
            replay(g, steps)
        assert str(e.value) == "step 0: connectivity violated: start graph is not connected"


@pytest.mark.parametrize("case", ["crossing_insert", "disconnecting_delete"])
def test_editor_rejects(fig3, case):
    ed = _Editor(fig3)
    ed.insert(1, 3, 1)
    bad, invariant, message = REJECTED[case]
    with pytest.raises(LemmaViolation) as e:
        (ed.insert if bad.op == "insert" else ed.delete)(bad.u, bad.v, bad.phase)
    assert str(e.value) == f"{bad.op} {ekey(bad.u, bad.v)}: " + violation(invariant, message)
    assert len(ed.log.steps) == 1


def test_editor_computes_the_ceiling_and_cycle_bound():
    # the editor's ceiling is the old ||E|| + ||MST|| + LENGTH_TOL bit for
    # bit, and transform records it for the op log
    for case in sorted(GOLDEN_MORPHS):
        g = generate(*case)
        ed = _Editor(g)
        assert ed.ceiling == g.total_length() + mst_length(g) + LENGTH_TOL
        assert ed.cycle_bound == 2 * mst_length(g) + LENGTH_TOL
    assert transform(g)[2].stats["ceiling"] == ed.ceiling


def test_replay_checks_each_steps_length_ceiling():
    g = generate(10, 5, 0.5)
    steps = transform(g)[2].steps
    ceiling = g.total_length() + mst_length(g) + LENGTH_TOL
    assert replay(g, [replace(st, assert_len_le=ceiling) for st in steps])["ok"]
    # the graph after step k is no longer than the ceiling it may state,
    # and one step with a ceiling below that length fails at that step
    lengths = [g.total_length()]
    for st in steps:
        d = dist(g.by_id[st.u], g.by_id[st.v])
        lengths.append(lengths[-1] + (d if st.op == "insert" else -d))
    for k in (0, len(steps) // 2, len(steps) - 1):
        tight = list(steps)
        tight[k] = replace(steps[k], assert_len_le=lengths[k + 1])
        assert replay(g, tight)["ok"]
        tight[k] = replace(steps[k], assert_len_le=lengths[k + 1] * (1 - 1e-12))
        with pytest.raises(ReplayViolation) as e:
            replay(g, tight)
        assert (e.value.step, e.value.invariant) == (k, "length")
        assert "> assert_len_le" in str(e.value)


def test_certified_insert_reports_the_crossing_with_edges_reports():
    # a crossing insert through the one-edge edit names the same pair as a
    # whole-list with_edges of the same graph, on start graphs and on
    # editors stopped in the middle of a morph; an insert that passes is
    # deleted again, so later inserts meet an editor that has edited
    rng = random.Random(12)
    crossings = Counter()
    starts = [(generate(rng.randint(6, 30), rng.randrange(10**6), rng.choice((0.2, 0.5, 0.8))), [])
              for _ in range(30)]
    for g, prefix in starts + mid_morph_graphs(30, rng):
        cert = _CertifiedEdges(g)
        for st in prefix:
            assert cert.edit(st.op, st.u, st.v) is None
        h = cert.frozen()
        ids = sorted(h.by_id)
        for _ in range(20):
            e = tuple(sorted(rng.sample(ids, 2)))
            if e in h.edges:
                continue
            try:
                want = h.with_edges(h.edges | {e})
            except CrossingEdges as exc:
                want = str(exc)
            got = cert.edit("insert", *e)
            if isinstance(want, str):
                crossings[bool(prefix)] += 1
                assert got == ("planarity", want)
            else:
                assert got is None and cert.graph.rotation == want.rotation
                assert cert.edit("delete", *e) is None
            assert cert.graph.edges == h.edges and cert.boxes == _boxes(h)
    assert crossings[False] >= 100 and crossings[True] >= 100, crossings


def _boxes(g):
    """Each edge of g's rotation system, as a key, mapped to its (xmin,
    xmax, ymin, ymax): the rotations are kept apart from the edge set."""
    ix, iy = g._ix, g._iy
    return {(u, v): (min(ix[u], ix[v]), max(ix[u], ix[v]), min(iy[u], iy[v]), max(iy[u], iy[v]))
            for u, rot in g.rotation.items() for v in rot if u < v}


def test_editor_boxes_follow_every_edit(monkeypatch):
    # after every certified step of transform and of replay, on the
    # 150-morph set and the pool, the editor's box map, whose keys are its
    # graph's edge set, holds exactly the boxes of the edges of its rotations
    steps = Counter()
    edit = _CertifiedEdges.edit

    def checked(self, op, u, v):
        out = edit(self, op, u, v)
        assert out is None and self.boxes == _boxes(self.graph)
        steps[type(self), op] += 1
        return out

    monkeypatch.setattr(_CertifiedEdges, "edit", checked)
    rng = random.Random(7)
    graphs = [generate(rng.randint(5, 60), rng.randrange(10**6), rng.choice((0.0, 0.2, 0.4, 0.6)))
              for _ in range(150)]
    for g in graphs + pool_instances():
        assert _CertifiedEdges(g).boxes == _boxes(g)
        assert replay(g, transform(g)[2].steps)["ok"]
    assert steps[_Editor, "insert"] == steps[_CertifiedEdges, "insert"] >= 6000
    assert steps[_Editor, "delete"] == steps[_CertifiedEdges, "delete"] >= 7000


def test_edited_graph_matches_build():
    # every graph the certified edit passes through equals a fresh build, and
    # the next darts the editor threaded at the spliced ends are the build's;
    # on generate graphs, on scan_graph starts, where phase 2 inserts and
    # deletes, and on copies of those moved by 10^15.  The editor changes
    # its graph in place, so each step is checked on a copy
    graphs = [generate(n, seed + 9500, density)
              for n, seed, density in ((8, 1, 0.5), (12, 2, 0.0), (16, 3, 0.8), (20, 4, 0.4),
                                       (28, 5, 0.6), (40, 6, 0.3))]
    for n, seed, density in ((10, 1, 0.3), (18, 2, 0.5), (26, 3, 0.2), (34, 4, 0.6)):
        start = scan_graph(n, seed + 9700, density)
        far = build([(p.id, p.x + 10**15, p.y - 10**15) for p in start.points], start.edges)
        graphs += [start, far]
    phase2 = 0
    for g in graphs:
        _, _, log = transform(g)
        phase2 += sum(st.phase == PHASE_DELAUNAY for st in log.steps)
        cert = _CertifiedEdges(g)
        for st in log.steps:
            assert cert.edit(st.op, st.u, st.v) is None
            h = cert.frozen()
            ref = build(g.points, h.edges)
            assert h.edges == ref.edges and h.rotation == ref.rotation
            assert cert.nxt == next_darts(ref.rotation)
            assert facial_walks(h) == facial_walks(ref)
            assert connectivity(h) == connectivity(ref)
            assert h.total_length() == ref.total_length()
    assert phase2 >= 80


def test_editor_next_darts_match_facial_walks(monkeypatch):
    # after every certified step of transform and of replay, on six recorded
    # morphs and the adversarial families, the editor's next darts are those
    # of a fresh build of its edge set, so its walks are the facial walks
    steps = Counter()
    edit = _CertifiedEdges.edit

    def checked(self, op, u, v):
        out = edit(self, op, u, v)
        h = build(self.graph.points, self.graph.edges)
        assert out is None and self.nxt == next_darts(h.rotation)
        steps[type(self)] += 1
        return out

    monkeypatch.setattr(_CertifiedEdges, "edit", checked)
    graphs = [generate(n, seed + 9500, density)
              for n, seed, density in ((8, 1, 0.5), (12, 2, 0.0), (16, 3, 0.8), (20, 4, 0.4),
                                       (28, 5, 0.6), (40, 6, 0.3))]
    graphs += [A._general_position(make, random.Random(seed))
               for _, make, seed in A.FAMILIES + A.LARGE]
    for g in graphs:
        assert _CertifiedEdges(g).nxt == next_darts(g.rotation)
        assert replay(g, transform(g)[2].steps)["ok"]
    assert steps[_Editor] == steps[_CertifiedEdges] >= 1000


def test_editor_next_darts_are_never_a_graphs_cached_faces(monkeypatch):
    # each edit changes the editor's next darts in place, so they must not be
    # those of the read-only faces a graph caches (Pslg.faces)
    graphs = []
    edit = _CertifiedEdges.edit

    def checked(self, op, u, v):
        graphs.append(self.graph)
        out = edit(self, op, u, v)
        graphs.append(self.graph)
        assert all(h._faces is None or self.nxt is not h._faces.nxt for h in graphs)
        return out

    monkeypatch.setattr(_CertifiedEdges, "edit", checked)
    for n, seed, density in ((8, 1, 0.5), (16, 3, 0.8), (30, 5, 0.3)):
        g = generate(n, seed + 9600, density)
        faces = g.faces()
        graphs[:] = [g]
        log = transform(g)[2]
        replay(g, log.steps)
        assert g._faces is faces and faces.nxt == next_darts(g.rotation)
        assert len(graphs) > 2 * len(log.steps)


def mid_morph_graphs(count, rng):
    """(start graph, op log prefix) pairs: random morphs stopped at a random
    step."""
    out = []
    while len(out) < count:
        g = generate(rng.randint(6, 30), rng.randrange(10**6), rng.choice((0.0, 0.3, 0.6)))
        steps = transform(g)[2].steps
        out.append((g, steps[: rng.randrange(len(steps) + 1)]))
    return out


def _walk(nxt, d, stop):
    """The darts of d's facial walk in ``nxt`` from d up to ``stop``."""
    out = [d]
    while nxt[out[-1]] != stop:
        out.append(nxt[out[-1]])
    return out


def test_walk_smaller_part_matches_reach():
    # on every edge of 40 mid-morph graphs, the lockstep walk finds one face
    # on both sides iff a delete disconnects the graph, and the certified
    # delete fails with "connectivity" exactly then; its part is the side of
    # its first dart's head, or that dart's face, and never the larger one
    rng = random.Random(14)
    bridges = kept = 0
    for g, prefix in mid_morph_graphs(40, rng):
        cert = _CertifiedEdges(g)
        for st in prefix:
            assert cert.edit(st.op, st.u, st.v) is None
        h = cert.graph
        nxt = next_darts(h.rotation)
        for u, v in sorted(h.edges):
            side = set(reach(adjacency(h.edges - {(u, v)}), v))
            cut = u not in side
            assert cert._smaller(u, v)[1] == cert._smaller(v, u)[1] == cut
            part, bridge = cert._part(u, v)
            d, r = part[0], (part[0][1], part[0][0])
            assert bridge == cut and d in ((u, v), (v, u))
            if cut:
                assert {x[1] for x in part} == (side if d[1] == v else set(h.by_id) - side)
                assert part == _walk(nxt, d, r) and len(part) <= len(_walk(nxt, r, d))
            else:
                assert part == _walk(nxt, d, d) and len(part) <= len(_walk(nxt, r, r))
            other = _CertifiedEdges(h)
            got = other.edit("delete", *rng.choice(((u, v), (v, u))))
            if cut:
                assert got == ("connectivity", "")
                bridges += 1
            else:
                assert got is None
                fresh = build(g.points, other.graph.edges)
                assert other.nxt == next_darts(fresh.rotation)
                kept += 1
    assert bridges >= 300 and kept >= 200


def test_tree_sides_and_cycles_match_the_forest_path_oracle(monkeypatch):
    # on the 150-morph set and the phase-2 digest sets, every phase-2 swap
    # reconnects the side that a depth-first search puts apex on, every
    # cycle phases 3 and 4 read off a face is the edge plus the tree path
    # between its ends, and phase 4's first polygon is that path from u to v
    cycle, trace = _Editor._cycle, _Editor.trace
    checked = Counter()

    def cycle_checked(ed, u, v):
        out = cycle(ed, u, v)
        path = forest_path(adjacency(ed.graph.edges - {ekey(u, v)}), u, v)
        assert {ekey(*x) for x in out} == {ekey(u, v), *map(ekey, path, path[1:])}
        assert len(out) == len(path)
        checked[ed.log.steps[-1].phase] += 1
        return out

    def trace_checked(ed, seq):
        e = ed.log.steps[-1]
        assert seq == forest_path(adjacency(ed.graph.edges - {(e.u, e.v)}), e.u, e.v)
        checked["polygon"] += 1
        return trace(ed, seq)

    monkeypatch.setattr(_Editor, "_cycle", cycle_checked)
    monkeypatch.setattr(_Editor, "trace", trace_checked)
    rng = random.Random(7)
    graphs = [generate(rng.randint(5, 60), rng.randrange(10**6), rng.choice((0.0, 0.2, 0.4, 0.6)))
              for _ in range(150)]
    graphs += [h for hs in phase2_sets().values() for h in hs]
    for g in graphs:
        steps = transform(g)[2].steps
        edges = set(g.edges)
        for k, st in enumerate(steps):
            if st.phase == PHASE_DELAUNAY and st.op == "insert":
                # the swap (apex, other) for the flipped tree edge (a, b)
                (a, b), new = (steps[k + 1].u, steps[k + 1].v), (st.u, st.v)
                apex = (set(new) - {a, b}).pop()
                other = a if forest_path(adjacency(edges), a, apex)[1] == b else b
                assert ekey(apex, other) == new
                checked["swap"] += 1
            (edges.add if st.op == "insert" else edges.discard)((st.u, st.v))
    assert checked["polygon"] == len(graphs)
    assert checked["swap"] >= 450 and checked[3] >= 2000 and checked[4] == checked["polygon"]


def _located(g, walk):
    try:
        return locate_subwalk(g, walk)
    except WalkNotInFace as exc:
        return str(exc)


def _corner_outcome(g, walk):
    try:
        convex_geodesic(g, walk)
    except WalkNotInFace:
        return "not located"
    except LemmaViolation as exc:
        assert "is not convex" in str(exc)
        return "not convex"
    return "path"


def test_live_walk_lookup_matches_a_fresh_one(monkeypatch):
    # at every morph query, the corner query accepts exactly the convex
    # two-edge walks that a fresh environment locates: a located walk that
    # is not convex raises LemmaViolation, any other walk WalkNotInFace
    rng = random.Random(15)
    outcomes = Counter()
    query = _Editor.geodesic

    def checked(ed, walk):
        geo = query(ed, walk)
        g = ed.graph
        fresh = ed.frozen()
        for _ in range(6):
            w = rng.choice(facial_walks(fresh)).seq
            i = rng.randrange(len(w) - 1)
            cand = list((w[:-1] * 3)[i : i + 3])
            if rng.random() < 0.3:
                cand[rng.randrange(3)] = rng.choice(sorted(g.by_id))
            if isinstance(_located(fresh, cand), str):
                want = "not located"
            else:
                want = "path" if _corner_convex(g, *cand) else "not convex"
            assert _corner_outcome(g, cand) == want, cand
            outcomes[want] += 1
        return geo

    monkeypatch.setattr(_Editor, "geodesic", checked)
    for _ in range(12):
        transform(generate(rng.randint(8, 30), rng.randrange(10**6), rng.choice((0.0, 0.4))))
    assert outcomes["path"] >= 250
    assert outcomes["not convex"] >= 200
    assert outcomes["not located"] >= 150


def test_weighted_length_equals_the_fsum_of_its_edges(monkeypatch):
    # every weighted length the morph checks, the fsums of its live maps
    # after a round of _retrace, equals the polygon's length plus the fsum of
    # the graph's off-polygon edges, bit for bit, also when the polygon runs
    # along an edge twice
    calls = Counter()
    transform_mod = sys.modules["pslgaug.transform"]  # the package exports the function
    retrace = transform_mod._retrace

    def reference(ed, poly, *args):
        out = retrace(ed, poly, *args)
        got = fsum(ed.own.values()) + fsum(ed.off.values())
        g, seq, m = ed.graph, poly.seq, len(poly.seq)
        own = fsum(dist(g.by_id[seq[i]], g.by_id[seq[(i + 1) % m]]) for i in range(m))
        sup = poly.edge_multiset()
        want = own + fsum(dist(g.by_id[u], g.by_id[v]) for u, v in g.edges if (u, v) not in sup)
        assert got == want
        calls[max(sup.values())] += 1
        return out

    monkeypatch.setattr(transform_mod, "_retrace", reference)
    rng = random.Random(16)
    for _ in range(40):
        transform(generate(rng.randint(8, 40), rng.randrange(10**6), rng.choice((0.0, 0.3, 0.6))))
    for case in ((50, 435469, 0.4), (58, 692674, 0.0)):  # polygons with doubled edges
        transform(generate(*case))
    assert calls[1] >= 450 and calls[2] >= 50


def test_weakly_simple_validation(fig3):
    # validate checks a closed walk in the certified graph it is given
    poly = WeaklySimplePolygon(seq=[1, 2, 4, 3])
    poly.validate(fig3.with_edges(poly.edge_multiset()))
    with pytest.raises(LemmaViolation, match=r"polygon edge \(2, 4\) is not a graph edge"):
        poly.validate(fig3)
    crossing = WeaklySimplePolygon(seq=[1, 2, 3, 4])  # (2, 3) and (1, 4) cross
    with pytest.raises(LemmaViolation, match=r"\(1, 4\) is not a graph edge"):
        crossing.validate(fig3)
    with pytest.raises(CrossingEdges):
        fig3.with_edges(crossing.edge_multiset())
    with pytest.raises(LemmaViolation, match="multiplicity"):
        WeaklySimplePolygon(seq=[1, 2, 1, 2]).validate(fig3)  # multiplicity 4


def reference_check_rotations(poly, g):
    """Reference: the interleave test with each repeated vertex's polygon
    neighbours polar-sorted afresh instead of read from the rotation."""
    m = len(poly.seq)
    at = {}
    for j, v in enumerate(poly.seq):
        at.setdefault(v, []).append((poly.seq[j - 1], poly.seq[(j + 1) % m]))
    for v, occs in at.items():
        if len(occs) < 2:
            continue
        order = polar_sort(g.ipt(v), {w for occ in occs for w in occ}, g.ipt)
        pos = {w: i for i, w in enumerate(order)}
        for a in range(len(occs)):
            for b in range(a + 1, len(occs)):
                if len({*occs[a], *occs[b]}) < 4:
                    continue
                a1, a2 = sorted((pos[occs[a][0]], pos[occs[a][1]]))
                b1, b2 = sorted((pos[occs[b][0]], pos[occs[b][1]]))
                if (a1 < b1 < a2 < b2) or (b1 < a1 < b2 < a2):
                    raise LemmaViolation(f"polygon occurrences interleave at vertex {v}")


def _copies(g, rng):
    """g, a relabelled copy and a relabelled copy reflected in the y axis."""
    ids = sorted(p.id for p in g.points)
    new = dict(zip(ids, rng.sample(range(3 * len(ids)), len(ids))))
    edges = [(new[u], new[v]) for u, v in g.edges]
    return [
        g,
        build([(new[p.id], p.x, p.y) for p in g.points], edges),
        build([(new[p.id], -p.x, p.y) for p in g.points], edges),
    ]


def _outcome(check, *args):
    try:
        check(*args)
    except LemmaViolation as exc:
        return str(exc)
    return None


def test_check_rotations_matches_polar_sort_reference(monkeypatch):
    # each round checks only the vertices it changed; that equals the whole
    # reference check, since the polygon before it passed
    checked = []
    new_check = WeaklySimplePolygon._check_rotations

    def both(poly, g, at=None):
        got = _outcome(new_check, poly, g, at)
        assert got == _outcome(reference_check_rotations, poly, g), poly.seq
        checked.append((len(poly.seq) > len(poly.vertices()), got))
        if got:
            raise LemmaViolation(got)

    monkeypatch.setattr(WeaklySimplePolygon, "_check_rotations", both)
    rng = random.Random(6)
    graphs = [generate(21, 904, 0.3)]  # phase 4 makes an interleaving polygon
    graphs += [generate(rng.randint(6, 26), rng.randrange(10**6), rng.choice((0.0, 0.3, 0.6)))
               for _ in range(40)]
    for g in graphs:
        for h in _copies(g, rng):
            try:
                transform(h)
            except LemmaViolation as exc:
                assert "interleave" in str(exc)
    assert len(checked) > 1000
    repeated = [got for rep, got in checked if rep]
    assert len(repeated) >= 20
    assert "polygon occurrences interleave at vertex 7" in repeated


def test_check_rotations_matches_polar_sort_reference_on_closed_walks():
    # facial walks never interleave; random closed walks often do
    rng = random.Random(7)
    outcomes = []
    for _ in range(20):
        g = generate(rng.randint(6, 30), rng.randrange(10**6), rng.choice((0.0, 0.3, 0.6)))
        for h in _copies(g, rng):
            walks = [list(w.seq[:-1]) for w in facial_walks(h) if len(w) >= 3]
            for _ in range(50):
                walk = [rng.choice(sorted(h.rotation))]
                while len(walk) < 60 and (len(walk) < 3 or walk[-1] != walk[0]):
                    walk.append(rng.choice(h.rotation[walk[-1]]))
                if walk[-1] == walk[0] and len(walk) > 3:
                    walks.append(walk[:-1])
            for seq in walks:
                poly = WeaklySimplePolygon(seq=seq)
                got = _outcome(poly._check_rotations, h)
                assert got == _outcome(reference_check_rotations, poly, h), seq
                outcomes.append(got)
    assert outcomes.count(None) > 300
    assert len(outcomes) - outcomes.count(None) > 100


# -- the triangulation's indexes --------------------------------------------


def assert_vertex_index_current(T):
    index = {}
    for t in set(T.side.values()):
        for v in t:
            index.setdefault(v, []).append(t)
    got = {v: sorted(ts) for v, ts in T.vertex_tris.items()}
    assert got == {v: sorted(ts) for v, ts in index.items()}


def assert_side_map_current(T):
    # rebuilt from the vertex index, which ``add_tri`` and ``remove_tri``
    # keep apart from the side map
    side = {}
    for t in {t for ts in T.vertex_tris.values() for t in ts}:
        for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            assert e not in side, e
            side[e] = t
    assert T.side == side


def test_vertex_index_follows_random_constraint_edits():
    rng = random.Random(8)
    for _ in range(12):
        g = generate(rng.randint(8, 30), rng.randrange(10**6), 0.0)
        T = triangulate_points({p.id: g.ipt(p.id) for p in g.points})
        n, edits = g.n, 0
        while edits < 60:
            if T.constrained and rng.random() < 0.3:
                T.constrained.discard(rng.choice(sorted(T.constrained)))
            else:
                i, j = sorted(rng.sample(range(n), 2))
                if (i, j) in T.constrained or any(
                    segments_properly_cross(*T.pts[i], *T.pts[j], *T.pts[a], *T.pts[b])
                    for a, b in T.constrained
                ):
                    continue
                insert_constraint(T, i, j)
            edits += 1
            validate(T)
            assert_vertex_index_current(T)
            assert_side_map_current(T)


def test_validate_rejects_a_removed_interior_triangle():
    g = generate(30, 11, 0.0)
    T = triangulate_points({p.id: g.ipt(p.id) for p in g.points})
    lawson_flips(T)
    validate(T)
    interior = [t for t in sorted(set(T.side.values())) if all(
        (b, a) in T.side for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])))]
    assert len(interior) > 20
    for t in interior:
        T.remove_tri(t)
        with pytest.raises(LemmaViolation, match="triangles, not 2V - h - 2"):
            validate(T)
        T.add_tri(*t)
    validate(T)
    a, b, c = interior[0]
    z = next(z for z in sorted(T.pts) if z not in (a, b, c) and T.orient(a, b, z))
    with pytest.raises(LemmaViolation, match=re.escape(f"edge {ekey(a, b)} borders 3 triangles")):
        T.add_tri(a, b, z)


def fresh_geodesic(g, walk):
    """The funnel's geodesic through an environment built for g alone: g is
    a copy without a cached environment."""
    assert g._face_env is None
    return funnel_geodesic(g, walk)


# phase 5 is rare: found among 600 random morphs, each shortcuts a corner
PHASE5_CASES = [
    (34, 381969, 0.2), (25, 99427, 0.2), (30, 896495, 0.0), (13, 778397, 0.2),
    (32, 241972, 0.2), (21, 317009, 0.2), (27, 990934, 0.4), (36, 371341, 0.4),
    (24, 2503, 0.4), (30, 927071, 0.2), (24, 646924, 0.0), (18, 271793, 0.2),
    (26, 978505, 0.2), (25, 56182, 0.4), (38, 268224, 0.2), (27, 605670, 0.4),
]


def test_morph_queries_match_the_funnel(monkeypatch):
    # every corner geodesic of phases 4-5 equals the funnel through a fresh
    # environment, in ids and bit for bit in length
    queries = Counter()
    query = _Editor.geodesic

    def checked(ed, walk):
        geo = query(ed, walk)
        ref = fresh_geodesic(ed.frozen(), walk)
        assert geo.ids() == ref.ids() and geo.length == ref.length
        queries[phase[0]] += 1
        return geo

    phase = [4]
    transform_mod = sys.modules["pslgaug.transform"]  # the package exports the function
    simplify = transform_mod.phase5_simplify

    def phase5(*args):
        phase[0] = 5
        return simplify(*args)

    monkeypatch.setattr(_Editor, "geodesic", checked)
    monkeypatch.setattr(transform_mod, "phase5_simplify", phase5)
    rng = random.Random(9)
    cases = [(rng.randint(6, 30), rng.randrange(10**6), rng.choice((0.0, 0.3, 0.6)))
             for _ in range(60)]
    cases += PHASE5_CASES
    graphs = [h for case in cases for h in _copies(generate(*case), rng)] + pool_instances()
    for h in graphs:
        phase[0] = 4
        try:
            transform(h)
        except LemmaViolation as exc:  # the known phase-4 splice defect
            assert "interleave" in str(exc)
    assert queries[4] >= 1250
    assert queries[5] >= 30


def test_transform_triangulates_its_points_once(monkeypatch):
    # the morph triangulates the points and constrains the tree in it before
    # its first edit, for phase 2's flips and the MST; phases 2-5 build no
    # triangulation and constrain no edge
    transform_mod = sys.modules["pslgaug.transform"]
    calls, phase1, inserts, edited = [], transform_mod.phase1_spanning_tree, Counter(), [False]

    def counted(pts):
        calls.append((len(pts), edited[0]))
        return triangulate_points(pts)

    def flagged(ed, tree):
        edited[0] = True
        return phase1(ed, tree)

    def constrain(T, u, w):
        inserts[edited[0]] += 1
        insert_constraint(T, u, w)

    monkeypatch.setattr(transform_mod, "triangulate_points", counted)
    monkeypatch.setattr(transform_mod, "insert_constraint", constrain)
    monkeypatch.setattr(transform_mod, "phase1_spanning_tree", flagged)
    for case in sorted(GOLDEN_MORPHS):
        g = generate(*case)
        del calls[:]
        edited[0] = False
        transform(g)
        assert calls == [(g.n, False)]  # on the points alone, before phase 1
    assert inserts[False] > 100 and inserts[True] == 0


def test_queried_graphs_give_the_recorded_geodesics(monkeypatch):
    # every graph the morph queried gives the recorded geodesic on its own
    # environment, built after the morph has moved on from it (from a copy:
    # the editor changes its graph in place)
    asked = []
    query = _Editor.geodesic

    def recorded(ed, walk):
        geo = query(ed, walk)
        asked.append((ed.frozen(), walk, geo.ids()))
        return geo

    monkeypatch.setattr(_Editor, "geodesic", recorded)
    transform(generate(30, 17, 0.4))
    assert len(asked) > 10
    for g, walk, ids in asked:
        assert geodesic(g, walk).ids() == ids


# sha256 of the op log's JSONL followed by the final polygon, recorded from
# the morph that built a fresh geodesic environment for every query: a change
# that only makes the morph faster leaves every operation byte-identical
GOLDEN_MORPHS = {
    (12, 11, 0.3): "bb6cf50b77e38abd",
    (20, 12, 0.5): "062aff9390c7fe33",
    (28, 13, 0.0): "8f4c8718d810a7b7",
    (36, 14, 0.6): "11566c42286b0e78",
    (48, 15, 0.4): "0fd63efa69816ad5",
    (60, 16, 0.2): "b56817089567b4c8",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_MORPHS))
def test_transform_golden_hash(case):
    _, poly, log = transform(generate(*case))
    text = oplog_to_jsonl(log.steps) + json.dumps(poly.seq)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == GOLDEN_MORPHS[case]


def phase2_sets():
    """Graphs on which phase 2 swaps tree edges: the adversarial families,
    and 40 seeded subgraphs of scan triangulations.  The golden six and the
    pool are Delaunay subgraphs, so phase 2 makes no op on them."""
    rng = random.Random(33)
    return {
        "adversarial": [A._general_position(make, random.Random(seed))
                        for _, make, seed in A.FAMILIES + A.LARGE],
        "scan": [scan_graph(rng.randint(5, 60), rng.randrange(10**6),
                            rng.choice((0.2, 0.4, 0.6, 0.8))) for _ in range(40)],
    }


# sha256 over each set's op logs, final polygons and stats, recorded before
# the morph's triangulation moved out of phase 2, with its phase-2 op count
PHASE2_DIGESTS = {"adversarial": ("b84d4934e20c58d4", 178), "scan": ("6bb431677aed9535", 732)}


@pytest.mark.parametrize("name", sorted(PHASE2_DIGESTS))
def test_phase2_swaps_digest(name):
    h, ops = hashlib.sha256(), 0
    for g in phase2_sets()[name]:
        _, poly, log = transform(g)
        h.update((oplog_to_jsonl(log.steps) + json.dumps(poly.seq)
                  + json.dumps(log.stats, sort_keys=True)).encode())
        ops += sum(st.phase == PHASE_DELAUNAY for st in log.steps)
    assert (h.hexdigest()[:16], ops) == PHASE2_DIGESTS[name]


def test_lawson_queue_certifies_delaunay():
    # with no runtime re-check left, the oracle confirms phase 2's
    # triangulation on every graph of the phase-2 digest sets
    for name, graphs in phase2_sets().items():
        for g in graphs:
            assert is_delaunay(delaunay(g, spanning_subtree(g))[0]), name


def _lawson_mutant(skip):
    """``lawson_flips`` with the quad side ``skip`` not queued again after a
    flip."""
    triangulate = sys.modules["pslgaug.triangulate"]
    source = inspect.getsource(triangulate.lawson_flips)
    sides = "(ekey(a, c), ekey(c, b), ekey(b, d), ekey(d, a), ekey(c, d))"
    assert source.count(sides) == 1 and sides.count(skip + ", ") == 1
    scope = dict(vars(triangulate))
    exec(source.replace(sides, sides.replace(skip + ", ", "")), scope)
    return scope["lawson_flips"]


@pytest.mark.parametrize("skip", ["ekey(a, c)", "ekey(c, b)", "ekey(b, d)", "ekey(d, a)"])
def test_delaunay_oracle_rejects_a_lawson_mutant(skip, monkeypatch):
    # a queue that forgets one quad side after a flip can stop short of
    # Delaunay: the oracle rejects the mutant's result on some graph of the
    # phase-2 and cocircular sets
    monkeypatch.setattr(sys.modules["pslgaug.transform"], "lawson_flips", _lawson_mutant(skip))
    graphs = [g for gs in phase2_sets().values() for g in gs]
    graphs += [g for pair in cocircular_sets() for g in pair]
    assert any(not is_delaunay(delaunay(g, spanning_subtree(g))[0]) for g in graphs)


# -- the one-shot environment's checks -------------------------------------

CORRUPTED = (20, 5, 0.5)


def _a_walk(g):
    """Two edges of a facial walk that a geodesic query accepts."""
    for w in facial_walks(g):
        if len(w.seq) > 3 and w.seq[0] != w.seq[2]:
            return w.seq[:3]
    raise AssertionError("no walk of two edges")


def _query_after(corrupt):
    """A geodesic query on generate(*CORRUPTED), whose new environment's
    triangulation ``corrupt`` changes once every graph edge is
    constrained, before the face flood fill."""
    g = generate(*CORRUPTED)
    last = max(g.edges)

    def constrain(T, u, v):
        insert_constraint(T, u, v)
        if (u, v) == last:
            corrupt(T)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funnel_oracle, "insert_constraint", constrain)
        return funnel_geodesic(g, _a_walk(g))


def test_query_rejects_a_flipped_constrained_edge():
    # the flipped graph edge keeps its mark, so the constraint set still
    # matches the graph; the faces on its two sides now meet across the new
    # diagonal, and a bridge (one face on both sides) loses its triangles
    _query_after(lambda T: None)  # the uncorrupted query passes
    g = generate(*CORRUPTED)
    T = funnel_env(g).T
    bridges = connectivity(g).bridges
    seen = Counter()
    for a, b in sorted(T.constrained):
        c, d = T.apex(T.side[a, b], a, b), T.apex(T.side[b, a], a, b)
        if T.orient(c, d, a) * T.orient(c, d, b) >= 0:
            continue  # not a convex quad

        def flip(T, a=a, b=b, c=c, d=d):
            for t in (T.side[a, b], T.side[b, a]):
                T.remove_tri(t)
            T.add_tri(a, c, d)
            T.add_tri(b, c, d)

        with pytest.raises(LemmaViolation) as e:
            _query_after(flip)
        seen[str(e.value)] += 1
        if (a, b) in bridges:
            assert str(e.value) == "face assignment incomplete"
        else:  # a triangle spanning both faces may already get both seeds
            assert str(e.value) in ("face flood fill conflict",
                                    "conflicting face assignment for triangle")
    assert seen["face flood fill conflict"] >= 5
    assert seen["face assignment incomplete"] >= 3


def test_query_rejects_a_deleted_triangle():
    tris = sorted(set(funnel_env(generate(*CORRUPTED)).T.side.values()))
    assert len(tris) > 40
    for t in tris:
        with pytest.raises(LemmaViolation, match="^face assignment incomplete$"):
            _query_after(lambda T, t=t: T.remove_tri(t))
