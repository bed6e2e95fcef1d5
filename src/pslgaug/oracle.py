"""Exhaustive minimum-length augmentation and solution verification.

The ground truth for the dynamic programs: enumerate all subsets of
individually-insertable candidate edges (pairwise non-crossing), pruned by
an incumbent bound and a connectivity-deficiency lower bound.  Instances
are capped by candidate count, not vertex count.  Each node of the search
makes one block search (Hopcroft & Tarjan 1973) on adjacency sets, which
gives both the bound and whether the mode's connectivity is reached; it
shares no code with the facial-walk ``connectivity`` it cross-checks.

``verify`` is the one certificate of an augmentation, in the one mode
vocabulary MODES: both augmenters end by checking their own result with
its ``report`` through ``certify``, and so does the command line.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import fsum

from .geom import LENGTH_TOL, dist, ekey, segments_properly_cross
from .pslg import LemmaViolation, Pslg, PslgError, build, connectivity

MODES = ("2vc", "2ec")
CHECKS = ("planar", "connectivity_ok", "ratio_le_2")


class Exhausted(PslgError):
    pass


def check_mode(mode):
    """Raise ValueError unless ``mode`` is one of MODES."""
    if mode not in MODES:
        raise ValueError("mode must be " + " or ".join(map(repr, MODES)))


@dataclass
class CandidateSet:
    edges: list  # candidate edge keys, sorted by (length, key)
    weights: list  # their lengths
    crossing: dict  # index -> set of indices it crosses


def candidate_set(g: Pslg, limit=None) -> CandidateSet:
    """Non-edges that can be inserted alone: no proper crossing with E.
    (General position rules out passing through a vertex.)  Raises
    Exhausted when there are more than ``limit``, before their pairwise
    crossing table is built."""
    ids = sorted(p.id for p in g.points)
    ipt = g.ipt
    cands = []
    for i, u in enumerate(ids):
        ux, uy = ipt(u)
        for v in ids[i + 1 :]:
            if ekey(u, v) in g.edges:
                continue
            vx, vy = ipt(v)
            ok = True
            for (a, b) in g.edges:
                if segments_properly_cross(ux, uy, vx, vy, *ipt(a), *ipt(b)):
                    ok = False
                    break
            if ok:
                cands.append((dist(g.by_id[u], g.by_id[v]), (u, v)))
    if limit is not None and len(cands) > limit:
        raise Exhausted(f"{len(cands)} candidates exceed limit {limit}")
    cands.sort()
    edges = [e for _, e in cands]
    weights = [w for w, _ in cands]
    crossing = {i: set() for i in range(len(edges))}
    for i in range(len(edges)):
        a, b = edges[i]
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if segments_properly_cross(*ipt(a), *ipt(b), *ipt(c), *ipt(d)):
                crossing[i].add(j)
                crossing[j].add(i)
    return CandidateSet(edges=edges, weights=weights, crossing=crossing)


def _blocks(adj):
    """The blocks of the simple graph ``adj`` (vertex -> neighbour set), as
    vertex sets, and its number of connected components: one iterative
    depth-first search that pops a block off its edge stack whenever a
    child's low point does not reach above its parent (Hopcroft & Tarjan
    1973).  An isolated vertex is in no block."""
    disc, low = {}, {}
    blocks, edges = [], []
    components = 0
    for root in adj:
        if root in disc:
            continue
        components += 1
        disc[root] = low[root] = len(disc)
        stack = [(root, None, iter(adj[root]), 0)]
        while stack:
            v, p, it, top = stack[-1]
            for u in it:
                if u not in disc:
                    disc[u] = low[u] = len(disc)
                    stack.append((u, v, iter(adj[u]), len(edges)))
                    edges.append((v, u))
                    break
                if u != p and disc[u] < disc[v]:
                    edges.append((v, u))
                    low[v] = min(low[v], disc[u])
            else:
                stack.pop()
                if p is None:
                    continue
                low[p] = min(low[p], low[v])
                if low[v] >= disc[p]:
                    # the tree edge (p, v) and every edge pushed after it
                    blocks.append(set(chain.from_iterable(edges[top:])))
                    del edges[top:]
    return blocks, components


def _shortfall(g: Pslg, extra, mode):
    """(need, done) for g plus the edges ``extra``: ``need`` is a lower
    bound on the edges still to add, ``done`` whether the graph already has
    the mode's connectivity, from one ``_blocks`` search.

    A disconnected graph, or one with no vertex, needs one edge per
    component past the first.  A connected one needs half its leaves,
    rounded up: in 2vc a leaf is a block holding exactly one cut vertex (a
    vertex in two blocks), in 2ec a 2-edge-connected component that meets
    exactly one bridge (a two-vertex block).  ``done`` implies need == 0."""
    adj = {p.id: set() for p in g.points}
    for u, v in chain(g.edges, extra):
        adj[u].add(v)
        adj[v].add(u)
    blocks, components = _blocks(adj)
    if components != 1:
        return max(components - 1, 0), False
    if mode == "2vc":
        seen = Counter(v for b in blocks for v in b)
        cut = {v for v, k in seen.items() if k > 1}
        leaves = sum(1 for b in blocks if len(b & cut) == 1)
        return (leaves + 1) // 2, len(adj) >= 3 and len(blocks) == 1
    # 2-edge-connected components: the vertex classes that blocks of three
    # or more vertices join (union-find); bridges are the two-vertex blocks
    root = {v: v for v in adj}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    bridges = [b for b in blocks if len(b) == 2]
    for b in blocks:
        if len(b) > 2:
            r = find(next(iter(b)))
            for v in b:
                root[find(v)] = r
    degree = Counter(find(v) for b in bridges for v in b)
    leaves = sum(1 for d in degree.values() if d == 1)
    return (leaves + 1) // 2, not bridges


def brute_force_optimal(g: Pslg, mode: str, limit: int = 22):
    """Minimum-length subset of pairwise-non-crossing candidates whose
    insertion achieves the mode's connectivity: (cost, edges).

    Branch and bound over candidates sorted by length; raises Exhausted when
    the candidate count exceeds ``limit``.
    """
    check_mode(mode)
    cs = candidate_set(g, limit)
    m = len(cs.edges)

    best = [float("inf"), None]

    def rec(i, chosen, wsum, blocked):
        if wsum >= best[0] - 1e-12:
            return
        need, done = _shortfall(g, [cs.edges[j] for j in chosen], mode)
        if done:
            best[0] = wsum
            best[1] = list(chosen)
            return
        if i >= m:
            return
        if need > 0 and wsum + need * cs.weights[i] >= best[0] - 1e-12:
            return
        # include candidate i if it crosses nothing chosen
        if i not in blocked:
            chosen.append(i)
            rec(i + 1, chosen, wsum + cs.weights[i], blocked | cs.crossing[i])
            chosen.pop()
        rec(i + 1, chosen, wsum, blocked)

    rec(0, [], 0.0, frozenset())
    if best[1] is None:
        raise Exhausted("no feasible augmentation among candidates")
    return best[0], [cs.edges[i] for i in sorted(best[1])]


def verify(g: Pslg, added, mode: str) -> dict:
    """Check planarity, the mode's connectivity and the 2||E|| ratio of an
    augmentation; returns a report dict.  Raises ValueError on a mode not
    in MODES."""
    try:
        g2 = build(g.points, sorted(g.edges) + [ekey(*e) for e in added])
    except PslgError as e:
        g2 = e
    return report(g, added, mode, g2)


def report(g: Pslg, added, mode: str, g2) -> dict:
    """verify's report on the augmentation ``added`` of g, given ``g2``: the
    graph build made of g's edges and ``added``, or the PslgError it raised
    (then the augmentation is not planar)."""
    check_mode(mode)
    rep = {"mode": mode, "n_added": len(added)}
    if isinstance(g2, PslgError):
        rep.update(planar=False, error=str(g2), ok=False)
        return rep
    rep["planar"] = True
    conn = connectivity(g2)
    rep["connectivity_ok"] = conn.is_2_connected if mode == "2vc" else conn.is_2_edge_connected
    base = g.total_length()
    add_len = fsum(dist(g.by_id[u], g.by_id[v]) for u, v in added)
    rep["base_length"] = base
    rep["added_length"] = add_len
    rep["ratio"] = add_len / base if base else float("inf")
    rep["ratio_le_2"] = rep["ratio"] <= 2 + LENGTH_TOL
    rep["ok"] = rep["planar"] and rep["connectivity_ok"] and rep["ratio_le_2"]
    return rep


def certify(rep: dict, name: str) -> dict:
    """``rep``, a verify report on the result of ``name``; raises
    LemmaViolation naming the first of CHECKS that failed: planarity, the
    mode's connectivity, the 2||E|| ratio."""
    failed = next((k for k in CHECKS if not rep[k]), None)
    if failed is not None:
        detail = f" ({rep['error']})" if failed == "planar" else ""
        raise LemmaViolation(f"verify rejected the {name} result: {failed} failed{detail}")
    return rep
