from collections import Counter

import pytest

from pslgaug import (
    CollinearTriple,
    CrossingEdges,
    DuplicatePoint,
    InvalidInstance,
    build,
    connectivity,
    convex_walk_decomposition,
    dual_graph,
    facial_walks,
)
from pslgaug.geom import ekey


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


def test_lengths_independent_of_edge_order():
    import random

    from pslgaug.instances import generate
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
    counts = Counter(walks[0].edge_slots())
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
            wanted.update(w.edge_slots())
        got = Counter()
        for wk in c.p0 + c.p1 + c.p2:
            got.update(wk.edges())
        assert got == wanted


def test_decomposition_pendant_in_polygon(pendant_in_polygon):
    c = convex_walk_decomposition(pendant_in_polygon)
    closed = [w for w in c.p1 if w.seq[0] == w.seq[-1] == 4]
    assert len(closed) == 1
    w = closed[0]
    # pendant vertex wrapped by the polygon walk: p1 == p_{t-1}
    assert w.seq[1] == w.seq[-2] == 0
    assert len(w) == 6


def test_dual_graph(triangle, fig3, star3):
    c = convex_walk_decomposition(triangle)
    d = dual_graph(c)
    assert len(d.nodes) == 1
    c = convex_walk_decomposition(fig3)
    d = dual_graph(c)
    assert len(d.nodes) == 2
    assert d.adjacency[0] == {1}
    c = convex_walk_decomposition(star3)
    d = dual_graph(c)
    assert len(d.nodes) == 3
    # every pair of star walks shares an edge
    assert all(len(v) == 2 for v in d.adjacency.values())


def test_random_instance_properties():
    # dual connectivity, cover, Euler and the facial-walk cut/bridge
    # characterization over 100 seeded instances (the characterization and
    # dual assertions live inside connectivity/dual_graph and raise on
    # failure)
    import random

    from pslgaug.instances import generate

    rng = random.Random(2)
    for seed in range(100):
        n = rng.randrange(3, 13)
        g = generate(n, seed + 1000, rng.choice([0.0, 0.3, 0.7, 1.0]))
        walks = facial_walks(g)
        assert g.n - len(g.edges) + len(walks) == 2
        rep = connectivity(g)
        assert rep.connected
        c = convex_walk_decomposition(g)
        dual_graph(c)  # asserts cover and connectivity internally
        wanted = Counter()
        for w in walks:
            wanted.update(w.edge_slots())
        got = Counter()
        for wk in c.p0 + c.p1 + c.p2:
            got.update(wk.edges())
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
    from pslgaug.instances import generate

    for seed in range(5):
        for density in (0.0, 0.5, 1.0):
            g = generate(3, seed, density)
            assert g.n == 3 and len(g.edges) in (2, 3)
            assert connectivity(g).connected
