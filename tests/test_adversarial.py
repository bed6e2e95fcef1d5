"""DP against the exhaustive oracle on families whose facial walks revisit
vertices deeply: stars, caterpillars, a pendant chain inside a triangle and
a comb in convex position.  Every instance is in general position (build
rejects collinear triples and edges through vertices)."""

import random

import pytest

from pslgaug import build
from pslgaug.heuristic import augment_2ec, augment_2vc
from pslgaug.optimal import optimal_augment
from pslgaug.oracle import brute_force_optimal
from pslgaug.pslg import PslgError, facial_walks

HEURISTIC = {"2ec": augment_2ec, "2vc": augment_2vc}


def _general_position(make, rng, tries=50):
    """The first instance make(rng) that build accepts."""
    for _ in range(tries):
        points, edges = make(rng)
        try:
            return build(points, edges)
        except PslgError:
            continue
    raise AssertionError("no instance in general position")


def star(k):
    def make(rng):
        points = [(0, 0, 0)]
        for i in range(k):
            while True:
                x, y = rng.randint(-40, 40), rng.randint(-40, 40)
                if x or y:
                    break
            points.append((i + 1, x, y))
        return points, [(0, i + 1) for i in range(k)]

    return make


def caterpillar(spine, legs):
    def make(rng):
        points, edges = [], []
        for i in range(spine):
            points.append((i, 10 * i, rng.randint(-3, 3)))
            if i:
                edges.append((i - 1, i))
        vid = spine
        for i in range(spine):
            for side in range(legs):
                sign = 1 if side % 2 == 0 else -1
                points.append((vid, 10 * i + rng.randint(-4, 4), sign * rng.randint(6, 20)))
                edges.append((i, vid))
                vid += 1
        return points, edges

    return make


def chain_in_triangle(length):
    def make(rng):
        points = [(0, 0, 0), (1, 400, 0), (2, 200, 360)]
        edges = [(0, 1), (1, 2), (2, 0)]
        for i in range(length):
            # a zig-zag chain from corner 0 towards the centroid
            zig = 4 if i % 2 else -4
            x, y = 12 * (i + 1), 6 * (i + 1) + 8 + zig
            points.append((3 + i, x + rng.randint(-3, 3), y + rng.randint(-3, 3)))
            edges.append((2 + i if i else 0, 3 + i))
        return points, edges

    return make


def convex_comb(teeth):
    def make(rng):
        # points on the parabola y = x^2 are in convex position; the spine
        # joins the even ones and each spine vertex carries the next odd one
        m = 2 * teeth
        points = [(i, i, i * i) for i in range(m)]
        edges = [(i, i + 2) for i in range(0, m - 2, 2)]
        edges += [(i, i + 1) for i in range(0, m, 2)]
        return points, edges

    return make


# every instance here has at most 25 oracle candidates
FAMILIES = (
    [(f"star{k}-{seed}", star(k), seed) for k in range(3, 11) for seed in range(2)]
    + [(f"caterpillar{s}x{l}-{seed}", caterpillar(s, l), seed)
       for s, l in ((2, 2), (3, 1), (2, 3), (3, 2), (4, 1), (4, 2), (3, 3))
       for seed in range(2)]
    + [(f"chain{n}-{seed}", chain_in_triangle(n), seed) for n in range(2, 8) for seed in range(2)]
    + [(f"comb{t}", convex_comb(t), 0) for t in range(2, 7)]
)
# beyond the oracle: only the heuristic bounds the DP
LARGE = [("star16", star(16), 0), ("caterpillar6x3", caterpillar(6, 3), 0),
         ("chain14", chain_in_triangle(14), 0), ("comb12", convex_comb(12), 0)]


def _ids(families):
    return [f[0] for f in families]


def test_stars_and_caterpillars_revisit_vertices():
    # the walks are what makes these families adversarial: the center of a
    # k-star occurs k times in its walk, a spine vertex once per incident edge
    for name, make, seed in FAMILIES:
        if name.startswith(("star", "caterpillar")):
            g = _general_position(make, random.Random(seed))
            walk = facial_walks(g)[0]
            hub = max(g.rotation, key=lambda v: len(g.rotation[v]))
            assert walk.seq[1:].count(hub) == len(g.rotation[hub]) >= 3, name


@pytest.mark.parametrize("name, make, seed", FAMILIES, ids=_ids(FAMILIES))
def test_dp_equals_oracle_on_family(name, make, seed):
    g = _general_position(make, random.Random(seed))
    for mode in ("2vc", "2ec"):
        res = optimal_augment(g, mode)
        assert res.total_added_length <= HEURISTIC[mode](g).total_added_length + 1e-9
        cost, _ = brute_force_optimal(g, mode, limit=26)
        assert res.total_added_length == pytest.approx(cost, abs=1e-9), mode


@pytest.mark.parametrize("name, make, seed", LARGE, ids=_ids(LARGE))
def test_dp_at_most_heuristic_on_large_family(name, make, seed):
    g = _general_position(make, random.Random(seed))
    for mode in ("2vc", "2ec"):
        res = optimal_augment(g, mode)
        assert res.total_added_length <= HEURISTIC[mode](g).total_added_length + 1e-9
