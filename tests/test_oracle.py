import hashlib
import random
from collections import Counter

import pytest

from pslgaug import augment_2ec, augment_2vc, build
from pslgaug.instances import generate
from pslgaug.optimal import optimal_augment
from pslgaug.geom import ekey, segments_properly_cross
from pslgaug.oracle import (
    Exhausted,
    _shortfall,
    brute_force_optimal,
    candidate_set,
    report,
    verify,
)
from pslgaug.pslg import LemmaViolation, PslgError, connectivity
from tests_support import full_build, make_fig3


def exhaustive_optimal(g, mode, limit=15):
    """Second, independent exhaustive recursion (plain subset enumeration,
    weight-pruned only): cross-checks the branch-and-bound on small
    candidate sets."""
    cs = candidate_set(g)
    m = len(cs.edges)
    if m > limit:
        raise Exhausted(f"{m} candidates exceed limit {limit}")
    best = [float("inf"), None]
    for mask in range(1 << m):
        subset = [i for i in range(m) if mask >> i & 1]
        w = sum(cs.weights[i] for i in subset)
        if w >= best[0] - 1e-12:
            continue
        ok = True
        for a in range(len(subset)):
            if cs.crossing[subset[a]] & set(subset[a + 1 :]):
                ok = False
                break
        if not ok:
            continue
        if _shortfall(g, [cs.edges[i] for i in subset], mode)[1]:
            best[0] = w
            best[1] = subset
    if best[1] is None:
        raise Exhausted("no feasible augmentation among candidates")
    return best[0], [cs.edges[i] for i in sorted(best[1])]


def test_bb_fig3(fig3):
    cost, edges = brute_force_optimal(fig3, "2ec")
    assert cost == pytest.approx(2.0, abs=1e-9)
    assert edges == [(1, 3), (2, 4)]
    cost, edges = brute_force_optimal(fig3, "2vc")
    assert cost == pytest.approx(2.0, abs=1e-9)


def test_bb_triangle(triangle):
    cost, edges = brute_force_optimal(triangle, "2ec")
    assert cost == 0.0 and edges == []


def test_candidate_set(fig3):
    cs = candidate_set(fig3)
    # p1p4 crosses p2p3 and is not a candidate
    assert (1, 4) not in cs.edges
    assert (1, 3) in cs.edges and (2, 4) in cs.edges


def test_limit_exhausted():
    g = generate(9, 3, 0.2)
    with pytest.raises(Exhausted):
        brute_force_optimal(g, "2ec", limit=1)


def test_two_independent_oracles_agree():
    rng = random.Random(4)
    agree = 0
    for seed in range(50):
        g = generate(rng.randrange(4, 9), seed + 70000, rng.choice([0.0, 0.4]))
        for mode in ("2vc", "2ec"):
            try:
                c1, e1 = brute_force_optimal(g, mode, limit=15)
                c2, e2 = exhaustive_optimal(g, mode, limit=15)
            except Exhausted:
                continue
            assert c1 == pytest.approx(c2, abs=1e-9)
            agree += 1
    assert agree >= 40


def test_shortfall_done_matches_connectivity():
    # two independent implementations: one block search on adjacency sets,
    # and the face labels of the built augmented graph
    rng = random.Random(11)
    seen = set()
    for seed in range(60):
        g = generate(rng.randint(3, 14), 50000 + seed, rng.choice([0.0, 0.3, 0.6]))
        cs = candidate_set(g)
        for _ in range(4):
            p, extra, blocked = rng.random(), [], set()
            for i in rng.sample(range(len(cs.edges)), len(cs.edges)):
                if i not in blocked and rng.random() < p:
                    extra.append(cs.edges[i])
                    blocked |= cs.crossing[i]
            conn = connectivity(build(g.points, sorted(g.edges) + extra))
            for mode, want in (("2vc", conn.is_2_connected), ("2ec", conn.is_2_edge_connected)):
                need, done = _shortfall(g, extra, mode)
                assert done == want and (need == 0) == done, (seed, extra, mode)
                seen.add((mode, done))
    assert len(seen) == 4


def test_shortfall_on_small_graphs(path3, star3, two_triangles, square):
    assert _shortfall(path3, [], "2vc") == _shortfall(path3, [], "2ec") == (1, False)
    assert _shortfall(path3, [(0, 2)], "2vc") == _shortfall(path3, [(0, 2)], "2ec") == (0, True)
    assert _shortfall(star3, [], "2vc") == _shortfall(star3, [], "2ec") == (2, False)
    assert _shortfall(two_triangles, [], "2vc") == (1, False)
    assert _shortfall(two_triangles, [], "2ec") == (0, True)
    assert _shortfall(square, [], "2vc") == _shortfall(square, [], "2ec") == (0, True)
    pts = [(0, 0, 0), (1, 4, 1), (2, 1, 5), (3, 7, 3), (4, 9, 8)]
    for edges, need in (([], 4), ([(0, 1)], 3), ([(0, 1), (1, 2), (2, 0)], 2),
                        ([(0, 1), (2, 3)], 2), ([(0, 1), (1, 2), (2, 0), (3, 4)], 1)):
        g = build(pts, edges)
        assert _shortfall(g, [], "2vc") == _shortfall(g, [], "2ec") == (need, False)
    # one edge: a single block, but 2-connectivity needs three vertices
    edge = build(pts[:2], [(0, 1)])
    assert _shortfall(edge, [], "2vc") == (0, False)
    assert _shortfall(edge, [], "2ec") == (1, False)


def test_brute_force_on_the_smallest_graphs_matches_connectivity():
    # (0.0, []) exactly when the graph already has the mode's connectivity,
    # else Exhausted: the empty graph, with no component, is not connected
    pts = [(0, 0, 0), (1, 4, 1)]
    outcomes = []
    for g in (build([], []), build(pts[:1], []), build(pts, []), build(pts, [(0, 1)])):
        conn = connectivity(g)
        for mode, has in (("2vc", conn.is_2_connected), ("2ec", conn.is_2_edge_connected)):
            if has:
                assert brute_force_optimal(g, mode) == (0.0, [])
            else:
                with pytest.raises(Exhausted, match="no feasible augmentation"):
                    brute_force_optimal(g, mode)
            outcomes.append(has)
    assert outcomes == [False, False, False, True, False, False, False, False]


def test_brute_force_digest_pinned():
    # the first 50 graphs of the acceptance set: both modes, both weights
    rng = random.Random(2027)
    h = hashlib.sha256()
    for _ in range(50):
        n = rng.randint(3, 11)
        g = generate(n, rng.randrange(10**6), rng.choice([0.0, 0.2, 0.4, 0.6, 0.8]))
        for mode in ("2vc", "2ec"):
            for weight in ("length", "unit"):
                try:
                    r = brute_force_optimal(g, mode, limit=24, weight=weight)
                except Exhausted as e:
                    r = ("exhausted", str(e))
                h.update(repr(r).encode())
    assert h.hexdigest()[:16] == "c5af6102e6b0fcae"


def test_verify_heuristic_fig3(fig3):
    res = augment_2ec(fig3)
    rep = verify(fig3, res.added, "2ec")
    assert rep["ok"] and rep["planar"] and rep["connectivity_ok"]
    assert rep["ratio"] <= 2 + 1e-9


def test_verify_rejects_present_or_repeated_edges(fig3):
    added = augment_2ec(fig3).added
    for bad in (added + [(1, 2)], added + added):
        rep = verify(fig3, bad, "2ec")
        assert not rep["ok"] and "duplicate edge" in rep["error"]


def test_verify_ratio_tends_to_two():
    # the lower-bound family: added/existing length tends to 2 from below
    ratios = []
    for eps in ("0.1", "0.01", "0.001"):
        g = make_fig3(eps)
        res = optimal_augment(g, "2ec")
        rep = verify(g, res.added, "2ec")
        assert rep["ok"]
        ratios.append(rep["ratio"])
    assert ratios[0] < ratios[1] < ratios[2] <= 2.0
    assert ratios[2] >= 1.99


def test_verify_fail_connectivity(fig3):
    rep = verify(fig3, [], "2ec")
    assert not rep["ok"] and not rep["connectivity_ok"]


@pytest.mark.parametrize("mode", ["VERTEX_2VC", "EDGE_2EC", "2VC", "vc", "", None])
def test_verify_rejects_unknown_modes(fig3, mode):
    with pytest.raises(ValueError, match="^mode must be '2vc' or '2ec'$"):
        verify(fig3, augment_2vc(fig3).added, mode)


def test_verify_reads_a_heuristic_results_mode():
    # a heuristic result names its mode in verify's vocabulary: without its
    # fourth added edge this 2vc augmentation is 2-edge-connected but has a
    # cut vertex, which verify finds under res.mode
    g = generate(10, 1, 0.4)
    res = augment_2vc(g)
    dropped = res.added[:3] + res.added[4:]
    rep = verify(g, dropped, res.mode)
    assert rep["planar"] and not rep["connectivity_ok"] and not rep["ok"]
    assert verify(g, dropped, "2ec")["ok"]
    assert res.mode == "2vc" and verify(g, res.added, res.mode)["ok"]
    res = augment_2ec(g)
    assert res.mode == "2ec" and verify(g, res.added, res.mode)["ok"]


def test_verify_dp_outputs_random():
    rng = random.Random(8)
    for seed in range(25):
        g = generate(rng.randrange(4, 10), seed + 80000, rng.choice([0.0, 0.5]))
        for mode, heur in (("2ec", augment_2ec), ("2vc", augment_2vc)):
            res = optimal_augment(g, mode)
            rep = verify(g, res.added, mode)
            assert rep["ok"]
            h = heur(g)
            rep_h = verify(g, h.added, mode)
            assert rep_h["ok"]
            assert rep["ratio"] <= rep_h["ratio"] + 1e-9


def test_added_lengths_independent_of_edge_order():
    # the summed lengths are correctly rounded, so they depend only on the
    # set of added edges: a shuffled copy verifies to a bit-equal report, and
    # the reported totals equal verify's sum
    for seed in range(20):
        g = generate(40, seed, 0.3)
        res = optimal_augment(g, "2ec")
        rep = verify(g, res.added, "2ec")
        assert rep["added_length"] == res.total_added_length
        shuffled = list(res.added)
        random.Random(seed).shuffle(shuffled)
        assert verify(g, shuffled, "2ec") == rep
        for augment, mode in ((augment_2ec, "2ec"), (augment_2vc, "2vc")):
            h = augment(g)
            assert verify(g, h.added, mode)["added_length"] == h.total_added_length


AUGMENTERS = (
    ("2ec", augment_2ec),
    ("2vc", augment_2vc),
    ("2ec", lambda g: optimal_augment(g, "2ec")),
    ("2vc", lambda g: optimal_augment(g, "2vc")),
)


def full_report(g, added, mode):
    """oracle.report on g plus ``added`` as a full build makes it (or on its
    error): no graph built before is edited or got back."""
    try:
        g2 = full_build(g, sorted(g.edges) + [ekey(*e) for e in added])
    except PslgError as e:
        g2 = e
    return report(g, added, mode, g2)


def augment_graphs():
    """The benchmark pool (key None) and 100 generate graphs, keyed by their
    (n, seed, density)."""
    from test_optimal import pool_instances

    rng = random.Random(73)
    keys = [(rng.randrange(3, 40), 730000 + i, rng.choice([0.0, 0.3, 0.6])) for i in range(100)]
    return [(None, g) for g in pool_instances()] + [(key, generate(*key)) for key in keys]


# augment_2vc's own certificate rejects its result on this draw (the strict
# xfail in test_heuristic.py): it leaves a cut vertex
AUGMENT_2VC_DEFECT = (33, 730070, 0.3)


def test_verify_after_an_augmenter_reads_its_graph_and_reports_as_a_full_build():
    for key, g in augment_graphs():
        for mode, augment in AUGMENTERS:
            if key == AUGMENT_2VC_DEFECT and augment is augment_2vc:
                with pytest.raises(LemmaViolation, match="augment_2vc result: connectivity_ok"):
                    augment(g)
                continue
            added = augment(g).added
            last = g.points.g0()._last
            assert last.edges == g.edges | set(added)
            rep = verify(g, added, mode)
            assert g.points.g0()._last is last
            assert rep["ok"] and rep == full_report(g, added, mode)


def test_verify_rebuilds_a_result_changed_after_the_augmenter():
    # what the command line's verify is for: an added list with an edge
    # dropped, a crossing edge or a duplicate reports as a full build does
    kinds = Counter()
    for _, g in augment_graphs()[::3]:
        ids = sorted(g.by_id)
        for mode, augment in AUGMENTERS:
            added = augment(g).added
            if not added:
                continue
            edges = g.edges | set(added)
            crossing = next((
                (u, v) for i, u in enumerate(ids) for v in ids[i + 1:] if (u, v) not in edges
                and any(segments_properly_cross(*g.ipt(u), *g.ipt(v), *g.ipt(a), *g.ipt(b))
                        for a, b in edges)), None)
            changed = [added[1:], added + [added[0][::-1]]] + [added + [crossing]] * bool(crossing)
            for edited in changed:
                rep = verify(g, edited, mode)
                assert rep == full_report(g, edited, mode), (mode, edited)
                kinds[rep["error"].split()[0] if "error" in rep else rep["connectivity_ok"]] += 1
            assert verify(g, added, mode) == full_report(g, added, mode)
    assert kinds.keys() == {"duplicate", "edges", False, True}, kinds
