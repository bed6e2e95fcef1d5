import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from pslgaug import triangulate
from pslgaug.geom import DegenerateInput
from pslgaug.instances import generate
from pslgaug.pslg import LemmaViolation
from pslgaug.transform import transform
from pslgaug.triangulate import (
    Triangulation,
    insert_constraint,
    lawson_flips,
    triangulate_points,
)
from funnel_oracle import add_outside_points, full_hull_scan, join_outside, validate
from test_optimal import pool_instances
from tests_support import assert_triangulation_current


def hull_sides(T):
    """The directed sides with no triangle across, counted over the whole
    side map."""
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


def test_side_map_and_darts_follow_every_triangle_edit(monkeypatch):
    # after every edit each triangle owns its three sides; once every corner
    # of the removed triangles has a triangle added at it again, as after
    # each flip and each constraint, every dart names a live side
    edits, stale = Counter(), set()
    add, remove = Triangulation.add_ccw, Triangulation.remove_tri

    def checked(edit):
        def run(T, *args):
            out = edit(T, *args)
            if edit is remove:
                stale.update(*args)
            else:
                stale.difference_update(out)
            assert_triangulation_current(T, darts=not stale)
            caller = sys._getframe(1).f_code.co_name
            if caller == "join_outside":  # the box corners
                caller = sys._getframe(2).f_code.co_name
            edits[edit.__name__, caller] += 1
            edits["darts", caller] += not stale
            return out
        return run

    monkeypatch.setattr(Triangulation, "add_ccw", checked(add))
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
        validate(T)
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
        assert edits["add_ccw", caller] > 100, caller
    for caller in ("insert_constraint", "lawson_flips"):
        assert edits["remove_tri", caller] > 100, caller
        assert edits["darts", caller] > 100, caller


def test_validate_rejects_a_triangle_dropped_behind_its_back():
    # dropped from ``side`` without ``remove_tri``, a hull triangle as well
    # as an interior one: the points and their hull do not change, so the
    # triangle count no longer matches them
    g = generate(30, 11, 0.0)
    T = triangulate_points({p.id: g.ipt(p.id) for p in g.points})
    lawson_flips(T)
    validate(T)
    for t in sorted(set(T.side.values())):
        sides = ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))
        for e in sides:
            del T.side[e]
        with pytest.raises(LemmaViolation, match="triangles, not 2V - h - 2"):
            validate(T)
        for e in sides:
            T.side[e] = t
        validate(T)


def test_add_outside_points_joins_the_box_corners():
    rng = random.Random(5)
    for _ in range(20):
        pts = dict(enumerate(_points(rng, rng.randint(3, 30))))
        T = triangulate_points(pts)
        box = {40: (-10**4, -10**4), 41: (10**4, -10**4 - 1), 42: (10**4 + 3, 10**4),
               43: (-10**4 - 7, 10**4 + 2)}
        add_outside_points(T, box)
        validate(T)
        assert T.pts == {**pts, **box} and list(T.pts) == [*pts, *box]
        assert sorted(_hull_cycle(T)) == [40, 41, 42, 43]
        assert hull_sides(T) == 4


def test_join_outside_refuses_a_point_inside_the_hull():
    pts = dict(enumerate([(0, 0), (10, 1), (4, 9), (-3, 5)]))
    T = triangulate_points(pts)
    T.pts[4] = (3, 4)
    with pytest.raises(LemmaViolation, match="^point 4 inside current hull during scan$"):
        join_outside(T, _hull_cycle(T), 4)
    T = triangulate_points(pts)
    with pytest.raises(LemmaViolation, match="^point 4 inside current hull during scan$"):
        add_outside_points(T, {4: (3, 4)})


def test_add_ccw_orients_none_and_keeps_its_canonical_form(monkeypatch):
    T = Triangulation(dict(enumerate([(0, 0), (4, 0), (1, 3), (3, 2)])))
    calls = []
    monkeypatch.setattr(triangulate, "orient_xy", lambda *a: calls.append(a))
    monkeypatch.setattr(T, "orient", lambda *a: calls.append(a))
    assert T.add_ccw(2, 0, 1) == (0, 1, 2)  # CCW in, CCW from the smallest out
    assert calls == []
    with pytest.raises(LemmaViolation, match=re.escape("edge (0, 1) borders 3 triangles")):
        T.add_ccw(3, 0, 1)  # CCW too, on the same side of (0, 1)
    assert set(T.side.values()) == {(0, 1, 2)} and hull_sides(T) == 3
    assert T.dart == {0: 1, 1: 2, 2: 0}


def _with_dart(T, u, p):
    """A copy of T whose dart at u is p."""
    R = Triangulation(T.pts)
    R.side, R.dart, R.constrained = dict(T.side), {**T.dart, u: p}, set(T.constrained)
    return R


def test_the_fan_walk_finds_the_same_wedge_from_any_dart():
    # one wedge at u holds the direction to w, so the walk reaches it from
    # every live side at u, on a hull vertex's open fan as well, and the
    # constraint makes the side map, in order, that it makes from the dart
    # add_ccw left
    rng, walks = random.Random(9), Counter()
    for _ in range(12):
        pts = dict(enumerate(_points(rng, rng.randint(3, 15))))
        flipped = triangulate_points(pts)
        lawson_flips(flipped)
        for T in (triangulate_points(pts), flipped):
            for u in pts:
                fan = [p for i, p in T.side if i == u]
                for w in pts:
                    if w == u:
                        continue
                    R = _with_dart(T, u, T.dart[u])
                    insert_constraint(R, u, w)
                    want = list(R.side.items())
                    for p in fan:
                        R = _with_dart(T, u, p)
                        insert_constraint(R, u, w)
                        assert list(R.side.items()) == want, (u, p, w)
                        walks["hull" if (p, u) not in T.side else "interior"] += p != T.dart[u]
    assert walks["hull"] > 400 and walks["interior"] > 3000


def test_a_constraint_with_no_wedge_at_its_start_raises():
    # a point with no triangle has no dart, and a hull vertex's fan ends on
    # either side before the direction to a point beyond it
    T = Triangulation(dict(enumerate([(0, 0), (4, 0), (1, 3), (3, 2)])))
    T.add_ccw(0, 1, 2)
    for u, w in ((3, 0), (1, 3), (2, 3)):
        with pytest.raises(LemmaViolation, match=f"^no wedge at {u} contains direction to {w}$"):
            insert_constraint(T, u, w)
    assert list(T.side.values()) == [(0, 1, 2)] * 3 and not T.constrained


def test_scan_tests_two_hull_edges_a_point_beyond_its_triangles(monkeypatch):
    # each point after the first three is tested against the hull edges it
    # joins and at most one more edge each way (none on a side whose walk
    # ends at the leftmost point, and that is never both sides); the first
    # triangle is oriented once and no triangle again
    orient_xy, tested = triangulate.orient_xy, []
    monkeypatch.setattr(triangulate, "orient_xy", lambda *a: tested.append(a) or orient_xy(*a))
    rng = random.Random(6)
    for n in (3, 4, 12, 40):
        T = triangulate_points(dict(enumerate(_points(rng, n))))
        del tested[:]
        T = triangulate_points(T.pts)
        tris = len(T.side) // 3
        assert tris + (n - 3) <= len(tested) <= tris + 2 * (n - 3)


def test_scan_walk_refuses_collinear_points_as_the_full_hull_scan_does():
    # on a 7 x 7 grid most sets have a collinear triple: an edge the walk
    # tests raises DegenerateInput with the message the full-hull scan
    # gives, and the sets the walk accepts, both scans triangulate alike
    rng, outcomes = random.Random(7), Counter()
    for _ in range(1500):
        cells = rng.sample([(x, y) for x in range(-3, 4) for y in range(-3, 4)], rng.randint(3, 9))
        pts = dict(zip(rng.sample(range(100), len(cells)), cells))
        got = []
        for scan in (triangulate_points, full_hull_scan):
            try:
                got.append(list(scan(pts).side.items()))
            except DegenerateInput as exc:
                got.append(str(exc))
        assert got[0] == got[1], pts
        outcomes[type(got[0]).__name__] += 1
    assert outcomes["str"] > 500 and outcomes["list"] > 200


def _no_three_collinear(pts):
    ps = list(pts.values())
    return not any(
        (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])
        for i, a in enumerate(ps) for j, b in enumerate(ps[i + 1 :], i + 1) for c in ps[j + 1 :]
    )


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-40, 40)), min_size=3, max_size=14),
       st.sampled_from((0, 10**15, -(10**15))), st.sampled_from((0, 10**15, -(10**15))))
def test_scan_walk_equals_the_full_hull_scan(xy, dx, dy):
    # x is drawn from 13 values, so equal-x ties are common; the walk makes
    # the same triangles in the same order as the scan that tests every
    # hull edge, so the side map and the darts agree, in order
    pts = {3 * k + 1: (x + dx, y + dy) for k, (x, y) in enumerate(dict.fromkeys(xy))}
    assume(len(pts) >= 3 and _no_three_collinear(pts))
    T, R = triangulate_points(pts), full_hull_scan(pts)
    assert list(T.side.items()) == list(R.side.items())
    assert list(T.dart.items()) == list(R.dart.items())
    validate(T)


def test_points_must_be_a_mapping():
    # dict() would read each (x, y) of a sequence as the pair x -> y
    pts = [(0, 0), (4, 0), (1, 3)]
    for make in (Triangulation, triangulate_points):
        with pytest.raises(TypeError):
            make(pts)
