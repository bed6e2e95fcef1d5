import hashlib
import json
import random
import re
import sys
from collections import Counter
from dataclasses import replace
from math import fsum

import pytest

from pslgaug import build
from pslgaug.geodesic import WalkNotInFace, face_env, geodesic, locate_subwalk
from pslgaug.geom import LENGTH_TOL, dist, ekey, polar_sort, segments_properly_cross
from pslgaug.instances import generate, oplog_to_jsonl
from pslgaug.pslg import (
    CrossingEdges,
    LemmaViolation,
    connectivity,
    facial_walks,
    next_darts,
    reach,
)
from pslgaug.triangulate import insert_constraint, lawson_flips, triangulate_points
from pslgaug.transform import (
    OpStep,
    ReplayViolation,
    WeaklySimplePolygon,
    _CertifiedEdges,
    _Editor,
    euclidean_mst,
    mst_length,
    phase1_spanning_tree,
    phase2_to_delaunay_tree,
    phase3_to_mst,
    phase4_grow_cycle,
    phase5_simplify,
    replay,
    transform,
)
from test_optimal import pool_instances
from tests_support import adjacency, label_partition, walk_partition


def test_phase1_tree_input(fig3):
    ed = _Editor(fig3)
    tree = phase1_spanning_tree(ed)
    assert tree == set(fig3.edges)
    assert ed.log.steps == []


def test_phase1_triangle(triangle):
    ed = _Editor(triangle)
    tree = phase1_spanning_tree(ed)
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
        tree = phase1_spanning_tree(ed)
        assert len(ed.log.steps) == len(g.edges) - (n - 1)
        assert len(tree) == n - 1


def test_phase2_mst_input_no_swaps():
    # a tree that already is the MST sits inside the Delaunay triangulation
    rng = random.Random(11)
    for seed in range(12):
        g = generate(rng.randrange(4, 10), seed + 4000, 0.0)
        mst = euclidean_mst(g)
        if set(g.edges) != mst:
            continue
        ed = _Editor(g)
        tree = phase1_spanning_tree(ed)
        tree, _ = phase2_to_delaunay_tree(ed, tree)
        assert [s for s in ed.log.steps if s.phase == 2] == []


def test_phase2_one_swap():
    # a quad with the long diagonal in the tree: one Delaunay flip swaps it
    g = build(
        [(0, "0", "0"), (1, "10", "1"), (2, "5", "4"), (3, "5", "-3.2")],
        [(0, 1), (0, 2), (0, 3)],
    )
    ed = _Editor(g)
    tree = phase1_spanning_tree(ed)
    assert tree == set(g.edges)
    tree, _ = phase2_to_delaunay_tree(ed, tree)
    swaps = [s for s in ed.log.steps if s.phase == 2]
    if swaps:
        assert len(swaps) % 2 == 0
        for ins, dele in zip(swaps[::2], swaps[1::2]):
            assert ins.op == "insert" and dele.op == "delete"
            assert dist(g.by_id[ins.u], g.by_id[ins.v]) < dist(
                g.by_id[dele.u], g.by_id[dele.v]
            )


def test_phase2_reaches_delaunay_random():
    from pslgaug.triangulate import is_delaunay

    rng = random.Random(21)
    for seed in range(30):
        n = rng.randrange(4, 14)
        g = generate(n, seed + 5000, rng.choice([0.3, 0.7]))
        ed = _Editor(g)
        tree = phase1_spanning_tree(ed)
        tree, T = phase2_to_delaunay_tree(ed, tree)
        assert is_delaunay(T)
        assert ed.log.stats["flips"] <= 4 * n * n


def test_phase3_fixture():
    # tree differing from the MST in one edge: one insert + one delete
    g = build(
        [(0, "0", "0"), (1, "10", "0.5"), (2, "5", "4"), (3, "5.2", "9")],
        [(0, 1), (1, 2), (2, 3)],
    )
    mst = euclidean_mst(g)
    ed = _Editor(g)
    tree = phase1_spanning_tree(ed)
    tree, _ = phase2_to_delaunay_tree(ed, tree)
    before = len(ed.log.steps)
    tree = phase3_to_mst(ed, tree, euclidean_mst(g))
    assert tree == mst
    diff = len(ed.log.steps) - before
    assert diff == 2 * len(mst - set(g.edges))


def test_phase3_random_exact_mst():
    rng = random.Random(31)
    for seed in range(25):
        n = rng.randrange(4, 13)
        g = generate(n, seed + 6000, rng.choice([0.4, 0.8]))
        ed = _Editor(g)
        tree = phase1_spanning_tree(ed)
        tree, _ = phase2_to_delaunay_tree(ed, tree)
        tree = phase3_to_mst(ed, tree, euclidean_mst(g))
        assert tree == euclidean_mst(g)


def test_phase4_immediate_hamiltonian():
    # path along convex positions whose endpoints are hull-adjacent
    g = build(
        [(0, "0", "0"), (1, "2", "3"), (2, "5", "4"), (3, "8", "3.1"), (4, "10", "0")],
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )
    assert euclidean_mst(g) == set(g.edges)
    ed = _Editor(g)
    tree = set(g.edges)
    poly = phase4_grow_cycle(ed, tree)
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
    poly = phase4_grow_cycle(ed, set(g.edges))
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
        ed = _Editor(g)
        tree = phase1_spanning_tree(ed)
        tree, _ = phase2_to_delaunay_tree(ed, tree)
        tree = phase3_to_mst(ed, tree, euclidean_mst(g))
        poly = phase4_grow_cycle(ed, tree)
        assert poly.vertices() == {p.id for p in g.points}
        phase5_simplify(ed, poly)
        assert len(steps) == len(ed.log.steps)
        for phase, length in steps:
            if phase >= 4:
                assert length <= 2 * mst_length(g) + 1e-9
                checked[phase] += 1
    assert checked[4] >= 2400 and checked[5] >= 15


def test_phase5_simple_input_no_ops(triangle):
    final, poly, log = transform(triangle)
    assert [s for s in log.steps if s.phase == 5] == []


def test_phase5_random():
    rng = random.Random(51)
    for seed in range(20):
        n = rng.randrange(4, 13)
        g = generate(n, seed + 8000, 0.0)
        ed = _Editor(g)
        tree = phase1_spanning_tree(ed)
        tree, _ = phase2_to_delaunay_tree(ed, tree)
        tree = phase3_to_mst(ed, tree, euclidean_mst(g))
        poly4 = phase4_grow_cycle(ed, tree)
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
    # whole-list with_edges of the same graph
    rng = random.Random(12)
    crossings = 0
    for _ in range(30):
        g = generate(rng.randint(6, 30), rng.randrange(10**6), rng.choice((0.2, 0.5, 0.8)))
        ids = sorted(g.by_id)
        for _ in range(20):
            e = tuple(sorted(rng.sample(ids, 2)))
            if e in g.edges:
                continue
            try:
                want = g.with_edges(g.edges | {e})
            except CrossingEdges as exc:
                want = str(exc)
            cert = _CertifiedEdges(g)
            got = cert.edit("insert", *e)
            if isinstance(want, str):
                crossings += 1
                assert got == ("planarity", want)
            else:
                assert got is None and cert.graph.rotation == want.rotation
    assert crossings >= 100


def test_edited_graph_matches_build():
    # every graph the certified edit passes through equals a fresh build
    for n, seed, density in ((8, 1, 0.5), (12, 2, 0.0), (16, 3, 0.8), (20, 4, 0.4),
                             (28, 5, 0.6), (40, 6, 0.3)):
        g = generate(n, seed + 9500, density)
        _, _, log = transform(g)
        cert = _CertifiedEdges(g)
        for st in log.steps:
            assert cert.edit(st.op, st.u, st.v) is None
            h = cert.graph
            ref = build(g.points, h.edges)
            assert h.edges == ref.edges and h.rotation == ref.rotation
            assert facial_walks(h) == facial_walks(ref)
            assert connectivity(h) == connectivity(ref)
            assert h.total_length() == ref.total_length()


def test_face_labels_match_facial_walks():
    # after every certified step of six recorded morphs, the labels group
    # the darts as a fresh facial-walk derivation does, and nxt is the walk
    steps = 0
    for n, seed, density in ((8, 1, 0.5), (12, 2, 0.0), (16, 3, 0.8), (20, 4, 0.4),
                             (28, 5, 0.6), (40, 6, 0.3)):
        g = generate(n, seed + 9500, density)
        _, _, log = transform(g)
        cert = _CertifiedEdges(g)
        assert label_partition(cert.faces) == walk_partition(g)
        for st in log.steps:
            assert cert.edit(st.op, st.u, st.v) is None
            h = build(g.points, cert.graph.edges)
            assert label_partition(cert.faces) == walk_partition(h)
            assert cert.faces.nxt == next_darts(h.rotation)
            steps += 1
    assert steps >= 200


def test_editor_faces_are_never_a_graphs_cached_faces(monkeypatch):
    # split and merge change the editor's faces in place, so they must not
    # be the read-only faces a graph caches (Pslg.faces)
    graphs = []
    edit = _CertifiedEdges.edit

    def checked(self, op, u, v):
        graphs.append(self.graph)
        out = edit(self, op, u, v)
        graphs.append(self.graph)
        assert all(self.faces is not h._faces for h in graphs)
        return out

    monkeypatch.setattr(_CertifiedEdges, "edit", checked)
    for n, seed, density in ((8, 1, 0.5), (16, 3, 0.8), (30, 5, 0.3)):
        g = generate(n, seed + 9600, density)
        faces = g.faces()
        graphs[:] = [g]
        log = transform(g)[2]
        replay(g, log.steps)
        assert g._faces is faces and len(graphs) > 2 * len(log.steps)


def mid_morph_graphs(count, rng):
    """(start graph, op log prefix) pairs: random morphs stopped at a random
    step."""
    out = []
    while len(out) < count:
        g = generate(rng.randint(6, 30), rng.randrange(10**6), rng.choice((0.0, 0.3, 0.6)))
        steps = transform(g)[2].steps
        out.append((g, steps[: rng.randrange(len(steps) + 1)]))
    return out


def test_label_bridge_test_matches_reach():
    # on every edge of 40 mid-morph graphs, a delete disconnects the graph
    # iff both of its darts carry one label, and the certified delete fails
    # with "connectivity" exactly then
    rng = random.Random(14)
    bridges = kept = 0
    for g, prefix in mid_morph_graphs(40, rng):
        cert = _CertifiedEdges(g)
        for st in prefix:
            assert cert.edit(st.op, st.u, st.v) is None
        h = cert.graph
        for u, v in sorted(h.edges):
            cut = len(reach(adjacency(h.edges - {(u, v)}), u)) != h.n
            assert (cert.faces.face[u, v] == cert.faces.face[v, u]) == cut
            other = _CertifiedEdges(h)
            got = other.edit("delete", *rng.choice(((u, v), (v, u))))
            if cut:
                assert got == ("connectivity", "")
                bridges += 1
            else:
                assert got is None
                fresh = build(g.points, other.graph.edges)
                assert label_partition(other.faces) == walk_partition(fresh)
                kept += 1
    assert bridges >= 300 and kept >= 200


def _located(g, walk):
    try:
        return locate_subwalk(g, walk)
    except WalkNotInFace as exc:
        return str(exc)


def test_live_walk_lookup_matches_a_fresh_one(monkeypatch):
    # at every live query, walks traced from the editor's labels are
    # accepted or rejected, with the same message, as by a fresh environment
    rng = random.Random(15)
    outcomes = Counter()
    live_query = _Editor.geodesic

    def checked(ed, walk):
        geo = live_query(ed, walk)
        g = ed.graph
        fresh = g.with_edges(g.edges)
        for _ in range(6):
            w = rng.choice(facial_walks(fresh)).seq
            i = rng.randrange(len(w) - 1)
            cand = list((w[:-1] * 3)[i : i + rng.randint(2, len(w) + 2)])
            if rng.random() < 0.3:
                cand[rng.randrange(1, len(cand))] = rng.choice(sorted(g.by_id))
            want, got = _located(fresh, cand), _located(g, cand)
            if isinstance(want, str):
                assert got == want
                outcomes[want] += 1
            else:  # the live lookup names the editor's face label
                assert got == ed.faces.face[cand[0], cand[1]]
                outcomes["located"] += 1
        return geo

    monkeypatch.setattr(_Editor, "geodesic", checked)
    for _ in range(12):
        transform(generate(rng.randint(8, 30), rng.randrange(10**6), rng.choice((0.0, 0.4))))
    assert outcomes["located"] >= 300
    assert sum(c for k, c in outcomes.items() if "diverges" in k) >= 100
    assert sum(c for k, c in outcomes.items() if "not on any facial walk" in k) >= 20
    assert outcomes["walk longer than its facial walk"] >= 50


def test_weighted_length_equals_the_fsum_of_its_edges(monkeypatch):
    # every weighted length the morph checks equals the polygon's length
    # plus the fsum of the graph's off-polygon edges, bit for bit, also when
    # the polygon runs along an edge twice
    calls = Counter()
    exact = _Editor.weighted_length

    def reference(ed, poly):
        got = exact(ed, poly)
        g, seq, m = ed.graph, poly.seq, len(poly.seq)
        own = fsum(dist(g.by_id[seq[i]], g.by_id[seq[(i + 1) % m]]) for i in range(m))
        sup = poly.edge_multiset()
        want = own + fsum(dist(g.by_id[u], g.by_id[v]) for u, v in g.edges if (u, v) not in sup)
        assert got == want
        calls[max(sup.values())] += 1
        return got

    monkeypatch.setattr(_Editor, "weighted_length", reference)
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
    checked = []
    new_check = WeaklySimplePolygon._check_rotations

    def both(poly, g):
        got = _outcome(new_check, poly, g)
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


# -- the live geodesic environment of phases 4-5 ---------------------------


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
            T.validate()
            assert_vertex_index_current(T)
            assert_side_map_current(T)


def test_validate_rejects_a_removed_interior_triangle():
    g = generate(30, 11, 0.0)
    T = triangulate_points({p.id: g.ipt(p.id) for p in g.points})
    lawson_flips(T)
    T.validate()
    interior = [t for t in sorted(set(T.side.values())) if all(
        (b, a) in T.side for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])))]
    assert len(interior) > 20
    for t in interior:
        T.remove_tri(t)
        with pytest.raises(LemmaViolation, match="triangles, not 2V - h - 2"):
            T.validate()
        T.add_tri(*t)
    T.validate()
    a, b, c = interior[0]
    z = next(z for z in sorted(T.pts) if z not in (a, b, c) and T.orient(a, b, z))
    with pytest.raises(LemmaViolation, match=re.escape(f"edge {ekey(a, b)} borders 3 triangles")):
        T.add_tri(a, b, z)


def fresh_geodesic(g, walk):
    """The geodesic from an environment built for g alone: a copy of g
    without a cached environment."""
    h = g.with_edges(g.edges)
    assert h._face_env is None
    return geodesic(h, walk)


# phase 5 is rare: found among 600 random morphs, each shortcuts a corner
PHASE5_CASES = [
    (34, 381969, 0.2), (25, 99427, 0.2), (30, 896495, 0.0), (13, 778397, 0.2),
    (32, 241972, 0.2), (21, 317009, 0.2), (27, 990934, 0.4), (36, 371341, 0.4),
    (24, 2503, 0.4), (30, 927071, 0.2), (24, 646924, 0.0), (18, 271793, 0.2),
    (26, 978505, 0.2), (25, 56182, 0.4), (38, 268224, 0.2), (27, 605670, 0.4),
]


def test_live_environment_matches_a_fresh_one(monkeypatch):
    queries, follows = Counter(), Counter()
    live_query, follow = _Editor.geodesic, _Editor._follow

    def checked(ed, walk):
        reused = ed.env is not None
        geo = live_query(ed, walk)
        g, env = ed.graph, ed.env
        assert env.g is g and g._face_env is env
        assert env.T.constrained == g.edges
        env.T.validate()
        assert_vertex_index_current(env.T)
        assert_side_map_current(env.T)
        ref = fresh_geodesic(g, walk)
        assert geo.ids() == ref.ids() and geo.length == ref.length
        queries[phase[0], reused] += 1
        return geo

    phase = [4]
    transform_mod = sys.modules["pslgaug.transform"]  # the package exports the function
    simplify = transform_mod.phase5_simplify

    def phase5(*args):
        phase[0] = 5
        return simplify(*args)

    def followed(ed, op, u, v):
        follow(ed, op, u, v)
        # the constraint marks follow the graph's edges
        assert ed.env.T.constrained == ed.graph.edges
        follows[op] += 1

    monkeypatch.setattr(_Editor, "geodesic", checked)
    monkeypatch.setattr(_Editor, "_follow", followed)
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
    assert queries[4, False] >= 250  # one fresh build per morph
    assert queries[4, True] >= 1000
    assert queries[5, True] >= 30
    assert follows["insert"] >= 1000 and follows["delete"] >= 1000


def test_transform_triangulates_its_points_once(monkeypatch):
    # phase 2's Delaunay triangulation becomes the live environment's: the
    # box corners join it and every edge of the first queried graph (the
    # MST and a hull edge, all Delaunay edges) is already in it
    transform_mod = sys.modules["pslgaug.transform"]
    geodesic_mod = sys.modules["pslgaug.geodesic"]
    calls, phase2, envs, channels = [], transform_mod.phase2_to_delaunay_tree, [], []
    live_query, insert = _Editor.geodesic, geodesic_mod.insert_constraint

    def counted(pts):
        calls.append(len(pts))
        return triangulate_points(pts)

    def seeding(ed, tree):
        tree, T = phase2(ed, tree)
        envs.append(T)
        return tree, T

    def first_query(ed, walk):
        if ed.env is None:
            assert ed.delaunay is envs[-1]
            geo = live_query(ed, walk)
            assert ed.env.T is envs[-1] and ed.delaunay is None
            return geo
        return live_query(ed, walk)

    def constrain(T, u, w):
        channels.append(T.has_edge(u, w))
        insert(T, u, w)

    for mod in (transform_mod, geodesic_mod):
        monkeypatch.setattr(mod, "triangulate_points", counted)
    monkeypatch.setattr(transform_mod, "phase2_to_delaunay_tree", seeding)
    monkeypatch.setattr(geodesic_mod, "insert_constraint", constrain)
    monkeypatch.setattr(_Editor, "geodesic", first_query)
    for case in sorted(GOLDEN_MORPHS):
        g = generate(*case)
        del calls[:]
        transform(g)
        assert calls == [g.n]  # phase 2's, on the points alone
    assert len(envs) == len(GOLDEN_MORPHS) and all(channels) and len(channels) > 100


def test_earlier_graph_is_not_served_the_live_environment(monkeypatch):
    asked = []
    live_query = _Editor.geodesic

    def recorded(ed, walk):
        geo = live_query(ed, walk)
        asked.append((ed, ed.graph, walk, geo.ids()))
        return geo

    monkeypatch.setattr(_Editor, "geodesic", recorded)
    transform(generate(30, 17, 0.4))
    assert len(asked) > 10
    ed = asked[0][0]
    for _, g, walk, ids in asked[:-1]:
        assert g is not ed.graph
        assert geodesic(g, walk).ids() == ids == fresh_geodesic(g, walk).ids()
        assert face_env(g).T is not ed.env.T


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


# -- the live environment's per-query checks ------------------------------

CORRUPTED = (20, 5, 0.5)


def _a_walk(g):
    """Two edges of a facial walk that a geodesic query accepts."""
    for w in facial_walks(g):
        if len(w.seq) > 3 and w.seq[0] != w.seq[2]:
            return w.seq[:3]
    raise AssertionError("no walk of two edges")


def _live_editor(seeded):
    """An editor whose live environment has followed one certified delete
    since its first query, so its next query derives a new environment.
    ``seeded``: that environment started from phase 2's triangulation of
    the points, as in ``transform``."""
    g = generate(*CORRUPTED)
    ed = _Editor(g)
    if seeded:
        other = _Editor(g)
        _, ed.delaunay = phase2_to_delaunay_tree(other, phase1_spanning_tree(other))
    seed = ed.delaunay
    ed.geodesic(_a_walk(g))
    assert (ed.env.T is seed) == seeded
    ed.delete(*min(g.edges - connectivity(g).bridges), 4)
    return ed


def _query_after(corrupt, seeded):
    ed = _live_editor(seeded)
    corrupt(ed.env.T)
    return ed.geodesic(_a_walk(ed.graph))


# each corruption test runs on an environment built from scratch and on one
# started from phase 2's triangulation
SEEDS = (False, True)


def test_query_rejects_a_dropped_constraint_mark():
    for seeded in SEEDS:
        _query_after(lambda T: None, seeded)  # the uncorrupted query passes
        with pytest.raises(LemmaViolation, match="^live triangulation constrains other edges"):
            _query_after(lambda T: T.constrained.discard(min(T.constrained)), seeded)


def test_query_rejects_an_extra_constraint_mark():
    def mark(T):
        T.constrained.add(min(T.edges() - T.constrained))

    for seeded in SEEDS:
        with pytest.raises(LemmaViolation, match="^live triangulation constrains other edges"):
            _query_after(mark, seeded)


def test_query_rejects_a_flipped_constrained_edge():
    # the flipped graph edge keeps its mark, so the constraint set still
    # matches the graph; the faces on its two sides now meet across the new
    # diagonal, and a bridge (one face on both sides) loses its triangles
    for seeded in SEEDS:
        ed = _live_editor(seeded)
        T = ed.env.T
        bridges = connectivity(ed.graph).bridges
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
                _query_after(flip, seeded)
            seen[str(e.value)] += 1
            if (a, b) in bridges:
                assert str(e.value) == "face assignment incomplete"
            else:  # a triangle spanning both faces may already get both seeds
                assert str(e.value) in ("face flood fill conflict",
                                        "conflicting face assignment for triangle")
        assert seen["face flood fill conflict"] >= 5
        assert seen["face assignment incomplete"] >= 3


def test_query_rejects_a_deleted_triangle():
    for seeded in SEEDS:
        tris = sorted(set(_live_editor(seeded).env.T.side.values()))
        assert len(tris) > 40
        for t in tris:
            with pytest.raises(LemmaViolation, match="^face assignment incomplete$"):
                _query_after(lambda T, t=t: T.remove_tri(t), seeded)
