import random

import pytest

from pslgaug import build
from pslgaug.geom import convex_hull, dist, ekey, segments_properly_cross
from pslgaug.geodesic import WalkNotInFace, face_env, geodesic, locate_subwalk
from pslgaug.instances import generate
from pslgaug.pslg import _corner_convex, convex_walk_decomposition, facial_walks

from geodesic_oracle import oracle_geodesic
from tests_support import label_partition, walk_partition


def _is_convex(g, walk):
    """Every interior corner of the facial subwalk is strictly convex."""
    return all(_corner_convex(g, *walk[i - 1 : i + 2]) for i in range(1, len(walk) - 1))


def _is_safe(g, walk):
    """The walk's vertices are distinct and its interior vertices lie on the
    boundary of its convex hull."""
    pts = [g.ipt(v) for v in walk]
    if len(set(pts)) != len(pts):
        return False
    hull = set(convex_hull(pts))
    return all(p in hull for p in pts[1:-1])


def _lemma1_holds(g, walk):
    """Lemma 1's conclusion: the geodesic of the walk is a simple path that
    avoids the walk's interior vertices."""
    gids = geodesic(g, walk).ids()
    return len(set(gids)) == len(gids) and not set(gids[1:-1]) & set(walk)


def test_path3(path3):
    geo = geodesic(path3, [0, 1, 2])
    assert geo.ids() == [0, 2]
    assert geo.length == pytest.approx(4.0, abs=1e-12)


def test_fig3_dashed_edge(fig3):
    geo = geodesic(fig3, [1, 2, 3])
    assert geo.ids() == [1, 3]
    assert geo.length == pytest.approx(1.0, abs=1e-12)
    geo = geodesic(fig3, [4, 3, 2])
    assert geo.ids() == [4, 2]
    assert geo.length == pytest.approx(1.0, abs=1e-12)


def test_geodesic_bends_around_first_edge():
    # spiral where the straight chord is blocked: the geodesic keeps the
    # walk's first edge and wraps its far endpoint
    g = build(
        [(0, "4", "8"), (1, "2", "4"), (2, "2", "9"), (3, "9", "6"), (4, "0", "2")],
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )
    walk = [0, 1, 2, 3, 4]
    assert _is_convex(g, walk)
    geo = geodesic(g, walk)
    assert geo.ids() == [0, 1, 4]
    length, oids = oracle_geodesic(g, walk)
    assert oids == geo.ids()
    assert geo.length == pytest.approx(length, abs=1e-9)


def test_walk_not_in_face(path3):
    with pytest.raises(WalkNotInFace):
        geodesic(path3, [0, 2, 1])  # (0,2) is not an edge
    with pytest.raises(WalkNotInFace):
        geodesic(path3, [0, 1])  # single edge
    with pytest.raises(WalkNotInFace):
        geodesic(path3, [1, 0, 1])  # backtrack is not a facial subwalk here


def test_face_region(fig3, triangle):
    # the environment's faces group the darts as the facial walks do
    graphs = [fig3, triangle] + [
        generate(5 + 2 * k, 700 + k, (0.0, 0.3, 0.6, 1.0)[k % 4]) for k in range(20)
    ]
    for g in graphs:
        assert label_partition(face_env(g).faces) == walk_partition(g)
    assert facial_walks(fig3)[0].is_outer
    env = face_env(fig3)
    # the clip box strictly contains all (scaled) vertices with margin at
    # least the point-set diameter
    (xmin, ymin), _, (xmax, ymax), _ = env.box.values()
    xs = [fig3.ipt(p.id)[0] for p in fig3.points]
    ys = [fig3.ipt(p.id)[1] for p in fig3.points]
    diam2 = max(
        (a - c) ** 2 + (b - d) ** 2
        for a, b in zip(xs, ys)
        for c, d in zip(xs, ys)
    )
    margin = min(min(xs) - xmin, min(ys) - ymin, xmax - max(xs), ymax - max(ys))
    assert margin > 0 and margin * margin >= diam2
    assert sorted(w.is_outer for w in facial_walks(triangle)) == [False, True]


def test_check_lemma1_convex_position():
    # Fig 1(a) analog: convex path with all vertices in convex position
    g = build(
        [(0, "0", "0"), (1, "2", "-1"), (2, "4", "0"), (3, "5", "2")],
        [(0, 1), (1, 2), (2, 3)],
    )
    walk = [0, 1, 2, 3]
    if not _is_convex(g, walk):
        walk = [3, 2, 1, 0]
    assert _is_convex(g, walk) and _is_safe(g, walk)
    assert _lemma1_holds(g, walk)


def test_check_lemma1_endpoint_inside():
    # Fig 1(b) analog: p0 inside conv(p1, p2, p3); the walk is still safe
    g = build(
        [(0, "3", "1"), (1, "0", "0"), (2, "4", "-2"), (3, "7", "3")],
        [(0, 1), (1, 2), (2, 3)],
    )
    walk = [0, 1, 2, 3]
    if not _is_convex(g, walk):
        walk = [3, 2, 1, 0]
    assert _is_convex(g, walk) and _is_safe(g, walk)
    assert _lemma1_holds(g, walk)


def test_check_lemma1_not_safe():
    # interior vertex strictly inside the hull: not safe, and the geodesic
    # does pass through an interior vertex of the walk
    g = build(
        [(0, "4", "8"), (1, "2", "4"), (2, "2", "9"), (3, "9", "6"), (4, "0", "2")],
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )
    walk = [0, 1, 2, 3, 4]
    assert _is_convex(g, walk) and not _is_safe(g, walk)
    assert not _lemma1_holds(g, walk)


def _subwalks(seq, lo=3, hi=8):
    for i in range(len(seq)):
        for j in range(i + lo - 1, min(len(seq), i + hi)):
            yield seq[i : j + 1]


def _no_crossings(g, ids):
    pts = [g.by_id[v] for v in ids]
    for a, b in zip(pts, pts[1:]):
        if ekey(a.id, b.id) in g.edges:
            continue
        for (u, v) in g.edges:
            pu, pv = g.by_id[u], g.by_id[v]
            if segments_properly_cross(
                a.x, a.y, b.x, b.y, pu.x, pu.y, pv.x, pv.y
            ):
                return False
    return True


def test_geodesic_properties_random():
    rng = random.Random(1234)
    tested = 0
    idem = 0
    for seed in range(150):
        n = rng.randrange(4, 11)
        g = generate(n, seed + 5000, 0.4)
        walks = facial_walks(g)
        for w in walks:
            for sub in list(_subwalks(w.seq))[:6]:
                if sub[0] == sub[-1] or any(a == b for a, b in zip(sub, sub[1:])):
                    continue
                geo = geodesic(g, list(sub))
                walk_len = sum(
                    dist(g.by_id[a], g.by_id[b]) for a, b in zip(sub, sub[1:])
                )
                assert geo.length <= walk_len + 1e-9
                assert _no_crossings(g, geo.ids())
                L, ids = oracle_geodesic(g, list(sub))
                assert geo.length == pytest.approx(L, abs=1e-9), (seed, sub)
                assert ids == geo.ids(), (seed, sub)
                tested += 1
        if tested > 400:
            break
    assert tested > 300


def test_geodesic_idempotent():
    from pslgaug.pslg import build as pbuild

    rng = random.Random(77)
    located = 0
    for seed in range(150):
        g = generate(rng.randrange(6, 13), seed + 900, 0.3)
        subs = []
        for w in facial_walks(g):
            subs.extend(_subwalks(w.seq, lo=3, hi=11))
        for sub in subs:
            # a clean pocket: simple walk, simple geodesic, no shared edges,
            # geodesic interior disjoint from the walk; only then does the
            # walk's homotopy class survive the augmentation as a face class
            if sub[0] == sub[-1] or len(set(sub)) != len(sub):
                continue
            geo = geodesic(g, list(sub))
            gids = geo.ids()
            if len(gids) < 3 or len(set(gids)) != len(gids):
                continue
            if set(gids[1:-1]) & set(sub):
                continue
            new_edges = [
                ekey(a, b) for a, b in zip(gids, gids[1:]) if ekey(a, b) not in g.edges
            ]
            if len(new_edges) != len(gids) - 1:
                continue
            g2 = pbuild(g.points, sorted(set(g.edges) | set(new_edges)))
            # the geodesic is taut in the pocket face it was pulled into;
            # the occurrence on the far side of the new edges may shortcut,
            # so at least one locatable orientation must be a fixed point
            results = []
            for cand in (gids, gids[::-1]):
                try:
                    locate_subwalk(g2, cand)
                except WalkNotInFace:
                    continue
                geo2 = geodesic(g2, cand)
                results.append(geo2.ids() == cand and
                               abs(geo2.length - geo.length) < 1e-9)
            if results:
                assert any(results), (seed, sub, gids)
                located += 1
        if located >= 25:
            break
    assert located >= 10


def test_lemma1_property_500_walks():
    rng = random.Random(42)
    checked = 0
    seed = 0
    while checked < 500:
        seed += 1
        g = generate(rng.randrange(4, 12), seed + 11000, 0.45)
        c = convex_walk_decomposition(g)
        for w in c.p2:
            for sub in _subwalks(w.seq):
                if len(set(sub)) != len(sub):
                    continue
                if not _is_convex(g, sub) or not _is_safe(g, sub):
                    continue
                assert _lemma1_holds(g, list(sub)), (seed, sub)
                checked += 1
                if checked >= 500:
                    return


def test_lemma2_extension_property():
    # whenever geod(p_1..p_t) is simple and avoids p_0 and the interior
    # vertices, geod(p_0..p_t) is simple and avoids p_1..p_{t-1}
    rng = random.Random(4242)
    checked = 0
    seed = 0
    while checked < 200 and seed < 400:
        seed += 1
        g = generate(rng.randrange(4, 11), seed + 23000, 0.4)
        c = convex_walk_decomposition(g)
        for w in c.p2:
            seq = list(w.seq)
            if len(seq) < 4 or len(set(seq)) != len(seq):
                continue
            tail = seq[1:]
            geo_t = geodesic(g, tail)
            tids = geo_t.ids()
            if len(set(tids)) != len(tids):
                continue
            if set(tids[1:-1]) & set(seq):
                continue
            geo = geodesic(g, seq)
            gids = geo.ids()
            assert len(set(gids)) == len(gids), (seed, seq)
            assert not (set(gids[1:-1]) & set(seq[1:-1])), (seed, seq)
            checked += 1
    assert checked >= 100


# -- the environment speaks the graph's own ids -----------------------------


def _relabelled(g, rng):
    """g under an order-preserving relabelling whose ids have gaps, are
    negative and lie beyond +-2**63, with the map."""
    n = g.n
    k = n // 3
    far = {rng.randrange(2**63, 2**66) for _ in range(k)}
    ids = sorted([-x for x in far] + rng.sample(range(-3 * n, 3 * n), n - 2 * k) + [*far])
    new = dict(zip(sorted(p.id for p in g.points), ids))
    h = build([(new[p.id], p.x, p.y) for p in g.points], [(new[u], new[v]) for u, v in g.edges])
    return h, new


def test_outputs_follow_an_order_preserving_relabelling():
    from pslgaug.heuristic import augment_2ec, augment_2vc
    from pslgaug.optimal import optimal_augment
    from pslgaug.transform import transform

    rng = random.Random(28)
    cases = [(12, 11, 0.3), (20, 12, 0.5), (28, 13, 0.0), (36, 14, 0.6)]
    cases += [(rng.randint(6, 24), rng.randrange(10**6), rng.choice((0.0, 0.3))) for _ in range(16)]
    for case in cases:
        g = generate(*case)
        h, new = _relabelled(g, rng)
        assert min(new.values()) < -2**63 and max(new.values()) >= 2**63
        ekeys = lambda es: [ekey(new[u], new[v]) for u, v in es]  # noqa: E731
        for graph in (g, h):
            assert min(face_env(graph).box) > max(p.id for p in graph.points)

        _, poly, log = transform(g)
        _, hpoly, hlog = transform(h)
        assert hpoly.seq == [new[v] for v in poly.seq], case
        assert [(s.op, s.u, s.v, s.phase) for s in hlog.steps] == [
            (s.op, new[s.u], new[s.v], s.phase) for s in log.steps
        ], case

        for augment in (augment_2ec, augment_2vc):
            r, hr = augment(g), augment(h)
            assert hr.added == ekeys(r.added) and hr.total_added_length == r.total_added_length
            assert [
                (c.walk, c.geodesic, c.new_edges, c.geodesic_length) for c in hr.certificates
            ] == [
                (tuple(new[v] for v in c.walk), tuple(new[v] for v in c.geodesic),
                 ekeys(c.new_edges), c.geodesic_length)
                for c in r.certificates
            ], (case, r.mode)

        for mode in ("2vc", "2ec"):
            r, hr = optimal_augment(g, mode), optimal_augment(h, mode)
            assert hr.added == ekeys(r.added) and hr.total_added_length == r.total_added_length
            assert [(f.cost, f.edges) for f in hr.faces] == [
                (f.cost, ekeys(f.edges)) for f in r.faces
            ], (case, mode)
