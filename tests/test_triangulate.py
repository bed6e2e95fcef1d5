import random
import re
import sys
from collections import Counter

import pytest

from pslgaug.geom import DegenerateInput
from pslgaug.instances import generate
from pslgaug.pslg import LemmaViolation
from pslgaug.transform import transform
from pslgaug.triangulate import (
    Triangulation,
    add_outside_points,
    insert_constraint,
    join_outside,
    lawson_flips,
    triangulate_points,
)
from test_optimal import pool_instances


def recount_hull_sides(T):
    """The oracle for ``T.hull_sides``: directed sides with no triangle
    across, counted over the whole side map."""
    return sum((j, i) not in T.side for i, j in T.side)


def _hull_cycle(T):
    nxt = {i: j for i, j in T.side if (j, i) not in T.side}
    hull = [min(nxt)]
    while nxt[hull[-1]] != hull[0]:
        hull.append(nxt[hull[-1]])
    return hull


def _points(rng, n):
    """n lattice points with no three collinear."""
    pts = []
    while len(pts) < n:
        p = (rng.randrange(-500, 500), rng.randrange(-500, 500))
        if p in pts or any(
            (b[0] - a[0]) * (p[1] - a[1]) == (b[1] - a[1]) * (p[0] - a[0])
            for k, a in enumerate(pts) for b in pts[k + 1 :]
        ):
            continue
        pts.append(p)
    return pts


def test_hull_side_count_follows_every_triangle_edit(monkeypatch):
    edits = Counter()
    add, remove = Triangulation.add_tri, Triangulation.remove_tri

    def checked(edit):
        def run(T, *args):
            out = edit(T, *args)
            assert T.hull_sides == recount_hull_sides(T)
            caller = sys._getframe(1).f_code.co_name
            if caller == "join_outside":  # the scan, or the box corners
                caller = sys._getframe(2).f_code.co_name
            edits[edit.__name__, caller] += 1
            return out
        return run

    monkeypatch.setattr(Triangulation, "add_tri", checked(add))
    monkeypatch.setattr(Triangulation, "remove_tri", checked(remove))
    rng = random.Random(3)
    for _ in range(20):
        T = triangulate_points(dict(enumerate(_points(rng, rng.randint(3, 25)))))
        lawson_flips(T)
        add_outside_points(T, {100: (-10**4, -10**4), 101: (10**4, -10**4 - 1),
                               102: (10**4 + 3, 10**4)})
        for _ in range(8):
            i, j = sorted(rng.sample(sorted(T.pts), 2))
            try:
                insert_constraint(T, i, j)
            except LemmaViolation:  # crosses a constraint or passes a point
                pass
        T.validate()
    rng = random.Random(4)
    graphs = pool_instances() + [
        generate(rng.randint(5, 40), rng.randrange(10**6), rng.choice((0.0, 0.3, 0.6)))
        for _ in range(40)
    ]
    for g in graphs:
        try:
            transform(g)
        except LemmaViolation as exc:  # the known phase-4 splice defect
            assert "interleave" in str(exc)
    for caller in ("triangulate_points", "add_outside_points", "insert_constraint", "lawson_flips"):
        assert edits["add_tri", caller] > 100, caller
    for caller in ("insert_constraint", "lawson_flips"):
        assert edits["remove_tri", caller] > 100, caller


def test_validate_rejects_a_triangle_dropped_behind_its_back():
    # dropped from ``side`` without ``remove_tri``: the hull side count
    # does not move, so the triangle count no longer matches it
    g = generate(30, 11, 0.0)
    T = triangulate_points({p.id: g.ipt(p.id) for p in g.points})
    lawson_flips(T)
    T.validate()
    for t in sorted(set(T.side.values())):
        sides = ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))
        for e in sides:
            del T.side[e]
        with pytest.raises(LemmaViolation, match="triangles, not 2V - h - 2"):
            T.validate()
        for e in sides:
            T.side[e] = t
        T.validate()
    assert T.hull_sides == recount_hull_sides(T)


def test_add_outside_points_joins_the_box_corners():
    rng = random.Random(5)
    for _ in range(20):
        pts = dict(enumerate(_points(rng, rng.randint(3, 30))))
        T = triangulate_points(pts)
        box = {40: (-10**4, -10**4), 41: (10**4, -10**4 - 1), 42: (10**4 + 3, 10**4),
               43: (-10**4 - 7, 10**4 + 2)}
        add_outside_points(T, box)
        T.validate()
        assert T.pts == {**pts, **box} and list(T.pts) == [*pts, *box]
        assert sorted(_hull_cycle(T)) == [40, 41, 42, 43]
        assert T.hull_sides == recount_hull_sides(T) == 4


def test_join_outside_refuses_a_point_inside_the_hull():
    pts = dict(enumerate([(0, 0), (10, 1), (4, 9), (-3, 5)]))
    T = triangulate_points(pts)
    T.pts[4] = (3, 4)
    with pytest.raises(LemmaViolation, match="^point 4 inside current hull during scan$"):
        join_outside(T, _hull_cycle(T), 4)
    T = triangulate_points(pts)
    with pytest.raises(LemmaViolation, match="^point 4 inside current hull during scan$"):
        add_outside_points(T, {4: (3, 4)})


def test_add_tri_orients_once_and_keeps_its_canonical_form(monkeypatch):
    T = Triangulation(dict(enumerate([(0, 0), (4, 0), (1, 3), (2, 0)])))
    calls = []
    orient = T.orient
    monkeypatch.setattr(T, "orient", lambda *a: calls.append(a) or orient(*a))
    assert T.add_tri(2, 1, 0) == (0, 1, 2)  # clockwise in, CCW from the smallest out
    assert len(calls) == 1
    with pytest.raises(DegenerateInput, match=re.escape("degenerate triangle (0, 3, 1)")):
        T.add_tri(3, 1, 0)
    assert set(T.side.values()) == {(0, 1, 2)} and T.hull_sides == 3


def test_points_must_be_a_mapping():
    # dict() would read each (x, y) of a sequence as the pair x -> y
    pts = [(0, 0), (4, 0), (1, 3)]
    for make in (Triangulation, triangulate_points):
        with pytest.raises(TypeError):
            make(pts)
