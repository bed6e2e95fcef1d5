"""Tests of the benchmark's own arithmetic and tracer, and a program defect
the benchmark found.

    python3 -m pytest -q perfbench
"""

import json
import random
import sys
from fractions import Fraction

import pytest

import run
import speed
import stats
import workloads as W
import tracer as tracer_mod
from tracer import TARGETS, Tracer


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert stats.tail(range(1, 101)) == (90, 90.0, 100)
    assert stats.tail([3, 1, 2] * 4) == (1, 100 * 2 / 12, 12)
    value, pct, n = stats.tail(range(11))
    assert (value, pct, n) == (0, 100 / 11, 11)
    with pytest.raises(ValueError):
        stats.tail(range(10))


def test_self_time_subtracts_direct_children_only():
    spans = [
        (-1, 0.0, 10.0),  # root
        (0, 1.0, 4.0),  # child
        (1, 2.0, 3.0),  # grandchild
        (0, 5.0, 7.0),  # second child
    ]
    assert stats.self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    assert sum(stats.self_times(spans)) == 10.0


def test_scaling_to_the_reference_speed():
    # the kernel ran at half the reference speed around the item
    assert stats.at_reference_speed(0.3, 0.008, 0.012, 0.005) == pytest.approx(0.15)
    runs = {("a", "k"): [0.2, 0.1, 0.4], ("b", "k"): [0.3]}
    runs.update({("c", str(i)): [1.0] for i in range(10)})
    timing, pct, n = run.latency_summary(runs)
    # item medians 0.2, 0.3 and ten of 1.0; the tail has ten items above it
    assert n == 12 and pct == pytest.approx(100 * 2 / 12)
    assert timing["latency_tail_ms"] == 300.0
    assert timing["latency_p50_ms"] == 1000.0
    assert timing["items_per_s"] == pytest.approx(12 / 10.5)


def test_speed_kernel_is_deterministic():
    assert speed.kernel() == speed.CHECKSUM
    assert speed.sample() > 0


@pytest.fixture(scope="module")
def probe():
    run.load_program()
    return W.materialize([W.PROBE], W.load_reference())[0]


def test_tracer_sees_internal_calls(probe):
    tracer = Tracer()
    originals = {t: getattr(sys.modules["pslgaug." + t.owner], t.attr)
                 for t in TARGETS if ":" not in t.owner}
    tracer.install()
    try:
        tracer.item = 0
        W.run_item("heur2ec", probe.text)
        tracer.item = 1
        W.run_item("opt2vc", probe.text)
    finally:
        tracer.item = None
        tracer.uninstall()
    _, heur_calls = tracer.summary({0})
    _, opt_calls = tracer.summary({1})
    # parse, the heuristic's own re-check and verify
    assert heur_calls["pslg.build"] == 3
    assert heur_calls["heuristic.augment_2ec"] == 1
    assert opt_calls["pslg.build"] == 3
    assert opt_calls["optimal.feasibility"] == opt_calls["optimal.dp"] >= 1
    for t, fn in originals.items():
        assert getattr(sys.modules["pslgaug." + t.owner], t.attr) is fn


def test_self_check_passes_and_catches_a_missed_binding(probe):
    items = [(kind, probe) for kind in W.ALL_KINDS]
    tracer = Tracer()

    def exercise():  # the self-check also needs a generate call
        W.materialize([W.PROBE], W.load_reference())
        run.Loop(tracer).run(items)

    tracer.install()
    try:
        calls = tracer.self_check(exercise)
        assert calls["pslg.build"] > 0 and calls["transform.phase4_grow_cycle"] == 1
        heuristic = sys.modules["pslgaug.heuristic"]
        wrapper = heuristic.build
        heuristic.build = wrapper.__wrapped__
        try:
            with pytest.raises(RuntimeError, match="pslg.build"):
                tracer.self_check(exercise)
        finally:
            heuristic.build = wrapper
    finally:
        tracer.uninstall()


def test_count_hook_time_is_not_charged_to_the_caller():
    spans = [
        ["optimal.dp", 0, -1, 0.0, 10.0],
        ["optimal.feasibility", 0, 0, 1.0, 4.0],
        [tracer_mod.COUNT_HOOK, 0, 0, 4.0, 6.0],
    ]
    tracer = Tracer()
    tracer.spans = spans
    seconds, _ = tracer.summary({0})
    assert seconds["optimal.dp"] == 5.0
    assert seconds["optimal.feasibility"] == 3.0


def test_translated_copy_keeps_the_work(probe):
    instances = sys.modules["pslgaug.instances"]
    g = instances.parse(probe.text)
    h = instances.parse(W.translated(g, random.Random("7:probe")))
    assert [p.id for p in h.points] == [p.id for p in g.points]
    assert h.edges == g.edges
    assert W.edges_length(h, h.edges) == W.edges_length(g, g.edges)


def congruent_copy(text, rng):
    """Copy with ids permuted, each axis maybe reflected and coordinates
    translated by up to 1000."""
    doc = json.loads(text)
    ids = [p["id"] for p in doc["points"]]
    relabel = dict(zip(ids, rng.sample(range(len(ids)), len(ids))))
    sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
    ox, oy = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
    points = [
        (relabel[p["id"]], sx * Fraction(p["x"]) + ox, sy * Fraction(p["y"]) + oy)
        for p in doc["points"]
    ]
    edges = [(relabel[u], relabel[v]) for u, v in doc["edges"]]
    return sys.modules["pslgaug.pslg"].build(points, edges)


@pytest.mark.xfail(strict=True, reason="known defect: phase 4 raises LemmaViolation "
                   "'polygon occurrences interleave' on this congruent copy")
def test_transform_of_a_congruent_copy(probe):
    text = sys.modules["pslgaug.instances"].serialize(W.make_graph(("gen", 36, 0.5)))
    g = congruent_copy(text, random.Random("43:gen-n36-d0.5"))
    sys.modules["pslgaug.transform"].transform(g)
