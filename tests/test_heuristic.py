import hashlib
import json
import math
import random

import pytest

from pslgaug import (
    augment_2ec,
    augment_2vc,
    build,
    connectivity,
    convex_walk_decomposition,
    split_into_short_walks,
)
from pslgaug.geom import convex_hull, ekey
from pslgaug.instances import generate
from pslgaug import heuristic
from pslgaug.geodesic import geodesic
from pslgaug.pslg import InvalidInstance, Walk

from test_optimal import pool_instances
from test_transform import GOLDEN_MORPHS


def test_split_sizes():
    # a 5-edge open convex walk splits into 3 + 2
    c = convex_walk_decomposition(
        build(
            [
                (0, "0", "0"),
                (1, "2", "3"),
                (2, "5", "4"),
                (3, "8", "3.5"),
                (4, "10", "2"),
                (5, "11", "0"),
            ],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        )
    )
    walks5 = [w for w in c.p2 if len(w) == 5]
    assert walks5
    pieces = split_into_short_walks(c)
    mine = [p for p in pieces if set(p.seq) <= set(walks5[0].seq)]
    assert sorted(len(p) for p in mine if len(p) in (2, 3))[:2] == [2, 3]


def test_split_rules():
    # splitting rule over synthetic walks: 3-pieces greedily, tail 2s
    class FakeSet:
        def __init__(self, seq):
            self.p1 = []
            self.p2 = [Walk(0, tuple(seq))]
            self.p0 = []

    for m, want in [(2, [2]), (3, [3]), (4, [2, 2]), (5, [3, 2]), (6, [3, 3]),
                    (7, [3, 2, 2]), (8, [3, 3, 2]), (10, [3, 3, 2, 2])]:
        pieces = split_into_short_walks(FakeSet(list(range(m + 1))))
        assert [len(p) for p in pieces] == want, m


def test_split_discards_triangle(triangle):
    c = convex_walk_decomposition(triangle)
    pieces = split_into_short_walks(c)
    assert pieces == []


def test_split_keeps_fig3_walks(fig3):
    c = convex_walk_decomposition(fig3)
    pieces = split_into_short_walks(c)
    assert sorted(p.seq for p in pieces) == [(1, 2, 3), (4, 3, 2)]


def test_augment_2ec_fig3(fig3):
    res = augment_2ec(fig3)
    assert res.added == [(1, 3), (2, 4)]
    assert res.total_added_length == pytest.approx(2.0, abs=1e-9)
    assert res.mode == "2ec"
    bound = 2 * (math.sqrt(1.01) + 0.2)
    assert res.total_added_length <= bound + 1e-9


def test_augment_2ec_triangle(triangle):
    res = augment_2ec(triangle)
    assert res.added == []
    assert res.total_added_length == 0.0


def test_augment_2ec_star(star3):
    res = augment_2ec(star3)
    assert len(res.added) == 3
    g2 = build(star3.points, sorted(set(star3.edges) | set(res.added)))
    assert connectivity(g2).is_2_edge_connected
    assert res.produced_length <= 2 * star3.total_length() + 1e-9


def test_augment_2vc_fig3(fig3):
    res = augment_2vc(fig3)
    assert res.added == [(1, 3), (2, 4)]
    assert res.total_added_length == pytest.approx(2.0, abs=1e-9)
    g2 = build(fig3.points, sorted(set(fig3.edges) | set(res.added)))
    assert connectivity(g2).is_2_connected


def test_augment_2vc_triangle(triangle):
    assert augment_2vc(triangle).added == []


def test_augment_2vc_two_triangles(two_triangles):
    res = augment_2vc(two_triangles)
    assert res.added
    g2 = build(two_triangles.points, sorted(set(two_triangles.edges) | set(res.added)))
    assert connectivity(g2).is_2_connected
    assert res.produced_length <= 2 * two_triangles.total_length() + 1e-9


def test_augment_2vc_pendant_in_polygon(pendant_in_polygon):
    g = pendant_in_polygon
    res = augment_2vc(g)
    # the closed convex walk around the pendant contributes the single chord
    # from the pendant vertex to the second polygon corner along the walk
    assert any(4 in e for e in res.added)
    g2 = build(g.points, sorted(set(g.edges) | set(res.added)))
    assert connectivity(g2).is_2_connected


def test_augment_2vc_double_pendant(double_pendant):
    # convex walks that revisit the shared corner: the decomposition must
    # still 2-connect everything within the length bound
    g = double_pendant
    res = augment_2vc(g)
    g2 = build(g.points, sorted(set(g.edges) | set(res.added)))
    assert connectivity(g2).is_2_connected
    assert res.produced_length <= 2 * g.total_length() + 1e-9


def test_augment_2ec_double_pendant(double_pendant):
    g = double_pendant
    res = augment_2ec(g)
    g2 = build(g.points, sorted(set(g.edges) | set(res.added)))
    assert connectivity(g2).is_2_edge_connected


def test_augment_rejects_disconnected():
    g = build(
        [(0, "0", "0"), (1, "1", "0.1"), (2, "5", "1"), (3, "6", "1.7")],
        [(0, 1), (2, 3)],
    )
    with pytest.raises(InvalidInstance):
        augment_2ec(g)


def test_certificates(fig3):
    res = augment_2ec(fig3)
    assert len(res.certificates) == 2
    for cert in res.certificates:
        # each new edge lies on its certificate cycle: walk + geodesic
        cyc = set(zip(cert.geodesic, cert.geodesic[1:]))
        for e in cert.new_edges:
            assert e in {ekey(a, b) for a, b in cyc}
        assert cert.walk[0] == cert.geodesic[0]
        assert cert.walk[-1] == cert.geodesic[-1]


def test_bound_property_random():
    rng = random.Random(31)
    for trial in range(100):
        n = rng.randrange(3, 13)
        g = generate(n, trial + 300, rng.choice([0.0, 0.3, 0.6, 1.0]))
        bound = 2 * g.total_length() + 1e-9
        for fn, check in ((augment_2ec, "is_2_edge_connected"),
                          (augment_2vc, "is_2_connected")):
            res = fn(g)
            assert res.total_added_length <= bound
            assert res.produced_length <= bound
            g2 = build(g.points, sorted(set(g.edges) | set(res.added)))
            assert getattr(connectivity(g2), check)


def test_each_geodesic_is_computed_once(monkeypatch):
    # the 2vc decomposition inserts the geodesic its simple-cycle check
    # computed, so no heuristic call asks for one (graph, walk) twice
    queries = []

    def spy(g, walk_ids):
        queries.append(tuple(walk_ids))
        return geodesic(g, walk_ids)

    monkeypatch.setattr(heuristic, "geodesic", spy)
    total = 0
    for g in pool_instances():
        for augment in (augment_2ec, augment_2vc):
            queries.clear()
            augment(g)
            assert len(set(queries)) == len(queries), (g.n, augment.__name__)
            total += len(queries)
    assert total > 500


# sha256 of both heuristics' results on the golden morph graphs and the
# benchmark pool (55 graphs, 2,348 certificates): the added edges, their
# length and every certificate's walk, geodesic, new edges and length,
# recorded while the geodesic environment still renumbered the vertices, so
# every geodesic is checked to be the same in the graph's own ids
HEURISTIC_DIGEST = "e992b2b53d3dbc2b"


def results_digest(results):
    """sha256 prefix of augmentation results: the added edges, their length
    and every certificate."""
    text = []
    for r in results:
        certs = [[c.face_id, c.walk, c.geodesic, c.new_edges, repr(c.geodesic_length)]
                 for c in r.certificates]
        text.append(json.dumps([r.mode, r.added, repr(r.total_added_length), certs]))
    return hashlib.sha256("\n".join(text).encode()).hexdigest()[:16]


def test_heuristic_digest_pinned():
    graphs = [generate(*case) for case in sorted(GOLDEN_MORPHS)] + pool_instances()
    results = [augment(g) for g in graphs for augment in (augment_2ec, augment_2vc)]
    assert results_digest(results) == HEURISTIC_DIGEST


# graphs on which augment_2vc decomposes an open convex walk from its hull
# subchain outward, once each; the digest of its results on them was
# recorded before the hull positions were read as one consecutive run
HULL_SUBCHAIN_CASES = [(39, 900020, 0.4), (15, 900079, 0.4), (13, 900176, 0.2),
                       (13, 900254, 0.4), (20, 900308, 0.4), (9, 900479, 0.4),
                       (40, 900513, 0.4)]
HULL_SUBCHAIN_DIGEST = "283c70e2ea116202"


def test_hull_subchain_digest_pinned(monkeypatch):
    hulls = []

    def counted(pts):
        hulls.append(len(pts))
        return convex_hull(pts)

    monkeypatch.setattr(heuristic, "convex_hull", counted)
    results = [augment_2vc(generate(*case)) for case in HULL_SUBCHAIN_CASES]
    assert len(hulls) == len(HULL_SUBCHAIN_CASES)
    assert results_digest(results) == HULL_SUBCHAIN_DIGEST
