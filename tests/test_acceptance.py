"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities.  Tolerances are fixed here, not configurable."""

import math
import time

import pytest

from pslgaug import augment_2ec, augment_2vc, build, connectivity
from pslgaug.instances import generate
from pslgaug.optimal import dp_2vc, optimal_augment
from pslgaug.oracle import Exhausted, brute_force_optimal, verify
from pslgaug.pslg import facial_walks
from pslgaug.transform import replay, transform

from tests_support import is_delaunay, make_fig3, through_phase2

TOL = 1e-9


def test_criterion_1_fig3_exactness():
    t0 = time.perf_counter()
    g = make_fig3("0.1")
    base = g.total_length()
    assert base == pytest.approx(math.sqrt(1.01) + 0.2, abs=TOL)
    for mode in ("2ec", "2vc"):
        res = optimal_augment(g, mode)
        assert res.total_added_length == pytest.approx(2.0, abs=TOL)
        assert res.added == [(1, 3), (2, 4)]
    for fn in (augment_2ec, augment_2vc):
        res = fn(g)
        assert res.total_added_length == pytest.approx(2.0, abs=TOL)
        assert res.total_added_length <= 2 * base + TOL
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"\ncriterion 1 PASS: optimal and heuristic cost 2.0, edges "
        f"{{p1p3, p2p4}}, 2||E|| = {2 * base:.4f}, {elapsed:.2f}s"
    )


def test_criterion_2_tight_ratio_family():
    t0 = time.perf_counter()
    g = make_fig3("0.001")
    base = g.total_length()
    ratios = []
    for mode in ("2ec", "2vc"):
        res = optimal_augment(g, mode)
        ratios.append(res.total_added_length / base)
    for r in ratios:
        assert 1.99 <= r <= 2.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"\ncriterion 2 PASS: eps=1e-3 optimal/||E|| = "
        f"{', '.join(f'{r:.5f}' for r in ratios)} in [1.99, 2], {elapsed:.2f}s"
    )


def test_criterion_3_bound_property_suite():
    t0 = time.perf_counter()
    count = 0
    for seed in range(500):
        n = 3 + seed % 10
        g = generate(n, 100_000 + seed, (seed % 5) / 5.0)
        bound = 2 * g.total_length() + TOL
        for fn, flag in ((augment_2ec, "is_2_edge_connected"),
                         (augment_2vc, "is_2_connected")):
            res = fn(g)
            assert res.total_added_length <= bound, (seed, fn.__name__)
            assert res.produced_length <= bound, (seed, fn.__name__)
            g2 = build(g.points, sorted(set(g.edges) | set(res.added)))
            assert getattr(connectivity(g2), flag), (seed, fn.__name__)
        count += 1
    elapsed = time.perf_counter() - t0
    assert count == 500
    assert elapsed < 60.0
    print(
        f"\ncriterion 3 PASS: 500 instances (3<=n<=12), both heuristics "
        f"planar+connected within 2||E||, {elapsed:.1f}s"
    )


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        n = 4 + seed % 6  # n <= 9
        g = generate(n, 200_000 + seed, (seed % 4) / 4.0)
        try:
            bb_vc, _ = brute_force_optimal(g, "2vc", limit=28)
            bb_ec, _ = brute_force_optimal(g, "2ec", limit=28)
        except Exhausted:
            continue  # candidate count beyond the oracle's reach; next seed
        res_vc = optimal_augment(g, "2vc")
        res_ec = optimal_augment(g, "2ec")
        assert res_vc.total_added_length == pytest.approx(bb_vc, abs=TOL), seed
        assert res_ec.total_added_length == pytest.approx(bb_ec, abs=TOL), seed
        assert verify(g, res_vc.added, "2vc")["ok"], seed
        assert verify(g, res_ec.added, "2ec")["ok"], seed
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"\ncriterion 4 PASS: 100 instances (n<=9), dp == brute force for "
        f"both modes within 1e-9, edge sets verified, {elapsed:.1f}s"
    )


def test_criterion_5_transform_suite():
    t0 = time.perf_counter()
    for seed in range(200):
        n = 3 + seed % 13  # n <= 15
        g = generate(n, 300_000 + seed, (seed % 5) / 5.0)
        final, poly, log = transform(g)
        rep = replay(g, log.steps)
        assert rep["ok"], seed
        ceiling = g.total_length() + log.stats["mst_length"] + TOL
        assert rep["max_intermediate_length"] <= ceiling, seed
        assert rep["final_length"] <= 2 * log.stats["mst_length"] + TOL, seed
        assert poly.is_simple() and len(poly.seq) == n, seed
        assert all(final.degree(p.id) == 2 for p in final.points), seed

    g = make_fig3("0.1")
    final, poly, log = transform(g)
    assert log.stats["final_length"] <= 2.4 + TOL
    assert log.stats["final_length"] == pytest.approx(2.2, abs=TOL)
    # the optimal cycle (p1, p2, p4, p3) up to rotation and reflection
    seq = poly.seq
    k = seq.index(1)
    rot = seq[k:] + seq[:k]
    assert rot in ([1, 2, 4, 3], [1, 3, 4, 2])
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"\ncriterion 5 PASS: 200 transforms replay within bounds; Fig. 3 "
        f"reaches the optimal cycle of length 2.2 <= 2.4, {elapsed:.1f}s"
    )


def test_criterion_6_delaunay_certification():
    t0 = time.perf_counter()
    for seed in range(100):
        n = 4 + seed % 14
        g = generate(n, 400_000 + seed, (seed % 4) / 4.0)
        ed, T = through_phase2(g)
        assert is_delaunay(T), seed
        assert ed.log.stats["flips"] <= 4 * n * n, seed
    elapsed = time.perf_counter() - t0
    print(
        f"\ncriterion 6 PASS: 100 instances, exact empty-circumcircle after "
        f"phase 2, flip counts <= 4n^2, {elapsed:.1f}s"
    )


def _convex_position_path(n):
    pts = [(i, i, i * i) for i in range(n)]
    return build(pts, [(i, i + 1) for i in range(n - 1)])


def test_criterion_7_complexity_sanity():
    times = {}
    for n in (20, 40, 60, 80):
        g = _convex_position_path(n)
        walk = facial_walks(g)[0]
        t0 = time.perf_counter()
        dp_2vc(g, [walk])
        times[n] = time.perf_counter() - t0
    coeffs = {n: t / n**4 for n, t in times.items()}
    cap = max(coeffs[20], coeffs[40], coeffs[60]) * 1.5
    assert coeffs[80] <= cap, coeffs
    assert times[80] < 30.0
    print(
        "\ncriterion 7 PASS: dp runtime fits c*n^4 "
        + ", ".join(f"n={n}: {t:.2f}s" for n, t in times.items())
    )


def test_criterion_8_out_of_scope_note():
    # the NP-hardness reduction is a proof about disconnected inputs; there
    # is nothing executable to accept, and disconnected inputs are rejected
    g = build(
        [(0, "0", "0"), (1, "1", "0.1"), (2, "5", "1"), (3, "6", "1.7")],
        [(0, 1), (2, 3)],
    )
    from pslgaug.pslg import InvalidInstance

    with pytest.raises(InvalidInstance):
        optimal_augment(g, "2ec")
    print(
        "\ncriterion 8 PASS: hardness reduction out of scope; disconnected "
        "inputs are rejected"
    )
