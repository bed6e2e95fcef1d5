"""Constructive augmentations to 2-edge- and 2-vertex-connectivity with
added length at most twice the existing edge length.

2-edge-connectivity: every maximal convex walk of two or more edges is cut
into pieces of two or three edges and each piece is closed into a cycle by
its geodesic.  2-connectivity: closed convex walks are handled directly
(either already a cycle, or a pendant vertex inside a convex polygon fixed
by one chord); open convex walks are decomposed from their hull subchain
outward so that every piece together with its geodesic forms a simple
cycle.

Since each edge occurs in at most two convex walks and geodesics never
exceed their walks in length, the produced length is bounded by twice the
total edge length; the bound is asserted, and the closing re-check builds
the augmented graph and certifies ``oracle.report``'s planarity,
connectivity and ratio on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum

from .geom import LENGTH_TOL, convex_hull, dist, ekey
from .geodesic import GeodesicPath, geodesic
from .oracle import certify, report
from .pslg import (
    ConvexWalkSet,
    LemmaViolation,
    Pslg,
    PslgError,
    Walk,
    build,
    convex_walk_decomposition,
)


@dataclass
class Certificate:
    """Provenance of inserted edges: the convex walk piece, its geodesic and
    which of the geodesic's edges were new."""

    face_id: int
    walk: tuple
    geodesic: tuple
    new_edges: list
    geodesic_length: float


@dataclass
class AugmentationResult:
    added: list  # sorted edge keys
    total_added_length: float
    mode: str  # "2ec" or "2vc", as oracle.verify reads it
    certificates: list = field(default_factory=list)

    @property
    def produced_length(self):
        """Multiset length of all produced geodesics (>= total_added_length);
        this is the quantity the 2||E|| bound is proved for."""
        return fsum(c.geodesic_length for c in self.certificates)


def split_into_short_walks(c: ConvexWalkSet):
    """Cut every P1/P2 walk into edge-disjoint convex pieces of 2 or 3
    edges.  Single edges and 3-edge convex cycles are discarded."""
    pieces = []
    for w in sorted(list(c.p1) + list(c.p2), key=lambda w: (w.face_id, w.seq)):
        m = len(w)
        if m < 2:
            continue
        if w.closed and m == 3 and len(set(w.seq[:-1])) == 3:
            continue  # triangle: already a cycle
        sizes = []
        rem = m
        while rem > 0:
            if rem % 3 == 0 or rem > 4:
                sizes.append(3)
                rem -= 3
            else:  # rem is 2 or 4: finish with 2-edge pieces
                sizes.append(2)
                rem -= 2
        at = 0
        for s in sizes:
            pieces.append(Walk(w.face_id, w.seq[at : at + s + 1]))
            at += s
    return pieces


def _insert_geodesic_edges(g, walk, geo, added, certs):
    """Record the edges of ``geo``, the geodesic of ``walk`` in g, that are
    neither in g nor added yet, and write their Certificate (no other code
    writes one)."""
    gids = geo.ids()
    new = []
    for a, b in zip(gids, gids[1:]):
        e = ekey(a, b)
        if e in g.edges or e in added:
            continue
        added[e] = dist(g.by_id[a], g.by_id[b])
        new.append(e)
    certs.append(
        Certificate(
            face_id=walk.face_id,
            walk=tuple(walk.seq),
            geodesic=tuple(gids),
            new_edges=new,
            geodesic_length=geo.length,
        )
    )


def _finish(g, added, certs, mode):
    total = fsum(added.values())
    bound = 2 * g.total_length()
    produced = fsum(c.geodesic_length for c in certs)
    if produced > bound + LENGTH_TOL or total > bound + LENGTH_TOL:
        raise LemmaViolation(
            f"augmentation length {total:.12g} (produced {produced:.12g}) "
            f"exceeds 2||E|| = {bound:.12g}"
        )
    edges = sorted(added)
    # built here, not by oracle.verify: perfbench's tracer self-check test
    # unbinds heuristic.build to show that a missed binding is caught
    try:
        g2 = build(g.points, sorted(g.edges) + edges)
    except PslgError as e:
        g2 = e
    certify(report(g, edges, mode, g2), f"augment_{mode}")
    return AugmentationResult(
        added=edges,
        total_added_length=total,
        mode=mode,
        certificates=certs,
    )


def augment_2ec(g: Pslg) -> AugmentationResult:
    """Augment a connected PSLG to 2-edge-connectivity, added length at most
    2||E||."""
    c = convex_walk_decomposition(g)
    added = {}
    certs = []
    for piece in split_into_short_walks(c):
        if piece.seq[0] == piece.seq[-1]:
            continue  # closed 3-edge piece of a longer walk: already a cycle
        _insert_geodesic_edges(g, piece, geodesic(g, piece.seq), added, certs)
    return _finish(g, added, certs, "2ec")


def _case2_decompose(g, walk: Walk, added, certs):
    """Open convex walk: recursive hull-subchain decomposition.

    Every processed piece p' is a simple path whose geodesic avoids its
    other vertices, so p' + geod(p') is a simple cycle; the recursion covers
    the remaining prefix and suffix.
    """
    seq = list(walk.seq)
    if len(seq) < 3:
        return

    def cycle_ok(sub):
        if len(set(sub)) != len(sub):
            return None
        geo = geodesic(g, sub)
        gids = geo.ids()
        if len(set(gids)) != len(gids):
            return None
        if set(gids[1:-1]) & set(sub):
            return None
        return geo

    geo = cycle_ok(seq)
    if geo is not None:
        _insert_geodesic_edges(g, Walk(walk.face_id, tuple(seq)), geo, added, certs)
        return

    pts = [g.ipt(v) for v in seq]
    hull = set(convex_hull(pts))
    # the hull vertices of a convex walk sit at consecutive positions i..j
    at = [k for k, p in enumerate(pts) if p in hull]
    i, j, n = at[0], at[-1], len(seq)
    if j - i + 1 != len(at):
        raise LemmaViolation(f"hull subchain of convex walk is not contiguous: {at}")
    if j - i < 1:
        raise LemmaViolation("hull subchain of convex walk has no edge")

    if seq[i] == seq[j]:
        # closed subchain along the hull: it is already a cycle in the graph
        pass
    else:
        geo = cycle_ok(seq[i : j + 1])
        if geo is None:
            raise LemmaViolation("geodesic of a safe hull subchain hits the walk")
        # grow the subchain while the simple-cycle property survives:
        # first toward the front, then toward the back; geo stays the
        # geodesic of seq[i : j + 1]
        while i > 0 and (grown := cycle_ok(seq[i - 1 : j + 1])) is not None:
            i, geo = i - 1, grown
        while j < n - 1 and (grown := cycle_ok(seq[i : j + 2])) is not None:
            j, geo = j + 1, grown
        _insert_geodesic_edges(g, Walk(walk.face_id, tuple(seq[i : j + 1])), geo, added, certs)

    if i > 0:
        _case2_decompose(g, Walk(walk.face_id, tuple(seq[: i + 1])), added, certs)
    if j < n - 1:
        _case2_decompose(g, Walk(walk.face_id, tuple(seq[j:])), added, certs)


def _split_simple_segments(seq):
    """Cut a walk at repeated-vertex occurrences into edge-disjoint maximal
    simple segments (consecutive segments share their junction vertex)."""
    segs = []
    start = 0
    seen = {seq[0]}
    k = 1
    while k < len(seq):
        if seq[k] in seen:
            if seq[k] == seq[k - 1]:
                raise LemmaViolation("immediate backtrack in convex walk")
            # close the previous segment before the repeat; the junction
            # vertex seq[k-1] starts the next segment
            segs.append(seq[start : k])
            start = k - 1
            seen = {seq[k - 1]}
        else:
            seen.add(seq[k])
            k += 1
    if start < len(seq) - 1:
        segs.append(seq[start:])
    return segs


def augment_2vc(g: Pslg) -> AugmentationResult:
    """Augment a connected PSLG to 2-connectivity, added length at most
    2||E||."""
    c = convex_walk_decomposition(g)
    added = {}
    certs = []

    for w in sorted(c.p1, key=lambda w: (w.face_id, w.seq)):
        inner = w.seq[:-1]
        if len(set(inner)) == len(inner):
            continue  # a plain cycle: its vertices are already 2-connected
        seq = w.seq
        if seq[1] != seq[-2]:
            raise LemmaViolation(
                f"closed convex walk with unexpected repeat pattern: {seq}"
            )
        chord = [g.by_id[seq[0]], g.by_id[seq[2]]]
        e = ekey(seq[0], seq[2])
        if e not in g.edges and e not in added:
            _insert_geodesic_edges(g, w, GeodesicPath(chord, dist(*chord)), added, certs)

    for w in sorted(c.p2, key=lambda w: (w.face_id, w.seq)):
        for seg in _split_simple_segments(list(w.seq)):
            if len(seg) >= 3:
                _case2_decompose(g, Walk(w.face_id, tuple(seg)), added, certs)

    return _finish(g, added, certs, "2vc")
