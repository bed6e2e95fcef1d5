"""Exhaustive minimum-weight augmentation and solution verification.

The ground truth for the dynamic programs: enumerate all subsets of
individually-insertable candidate edges (pairwise non-crossing), pruned by
an incumbent bound and a connectivity-deficiency lower bound.  Instances
are capped by candidate count, not vertex count.

``verify`` is the one certificate of an augmentation, in the one mode
vocabulary MODES: both augmenters end by checking their own result with
its ``report`` through ``certify``, and so does the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

from .geom import LENGTH_TOL, dist, ekey, segments_properly_cross
from .pslg import LemmaViolation, Pslg, PslgError, build, connectivity

MODES = ("2vc", "2ec")
WEIGHTS = ("length", "unit")
CHECKS = ("planar", "connectivity_ok", "ratio_le_2")


class Exhausted(PslgError):
    pass


def check_mode(mode):
    """Raise ValueError unless ``mode`` is one of MODES."""
    if mode not in MODES:
        raise ValueError("mode must be " + " or ".join(map(repr, MODES)))


def check_weight(weight):
    """Raise ValueError unless ``weight`` is one of WEIGHTS."""
    if weight not in WEIGHTS:
        raise ValueError("weight must be " + " or ".join(map(repr, WEIGHTS)))


@dataclass
class CandidateSet:
    edges: list  # candidate edge keys, sorted by (weight, key)
    weights: list
    crossing: dict  # index -> set of indices it crosses


def candidate_set(g: Pslg, weight="length") -> CandidateSet:
    """Non-edges that can be inserted alone: no proper crossing with E.
    (General position rules out passing through a vertex.)"""
    check_weight(weight)
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
                w = 1.0 if weight == "unit" else dist(g.by_id[u], g.by_id[v])
                cands.append((w, (u, v)))
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


def _deficiency(g: Pslg, extra, mode) -> int:
    """Number of augmentation edges still needed, at least: half the leaves
    of the block (resp. bridge) forest, rounded up."""
    adj = {p.id: set() for p in g.points}
    for u, v in list(g.edges) + list(extra):
        adj[u].add(v)
        adj[v].add(u)
    g2 = _SimpleGraph(adj)
    if not g2.connected():
        return max(1, g2.n_components - 1)
    if mode == "2ec":
        leaves = g2.bridge_tree_leaves()
    else:
        leaves = g2.block_tree_leaves()
    if leaves == 0:
        return 0
    return (leaves + 1) // 2


class _SimpleGraph:
    """Small adjacency-set graph with bridge/articulation leaf counts,
    independent of the facial-walk machinery."""

    def __init__(self, adj):
        self.adj = adj
        self.n_components = 0

    def connected(self):
        ids = list(self.adj)
        if not ids:
            return True
        seen = set()
        comps = 0
        for root in ids:
            if root in seen:
                continue
            comps += 1
            stack = [root]
            seen.add(root)
            while stack:
                v = stack.pop()
                for u in self.adj[v]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
        self.n_components = comps
        return comps == 1

    def _dfs_low(self):
        disc, low, parent = {}, {}, {}
        order = []
        t = 0
        for root in self.adj:
            if root in disc:
                continue
            parent[root] = None
            stack = [(root, iter(self.adj[root]))]
            disc[root] = low[root] = t
            t += 1
            order.append(root)
            while stack:
                v, it = stack[-1]
                moved = False
                for u in it:
                    if u not in disc:
                        parent[u] = v
                        disc[u] = low[u] = t
                        t += 1
                        order.append(u)
                        stack.append((u, iter(self.adj[u])))
                        moved = True
                        break
                    elif u != parent[v]:
                        low[v] = min(low[v], disc[u])
                if not moved:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        low[p] = min(low[p], low[v])
        return disc, low, parent

    def bridge_tree_leaves(self):
        disc, low, parent = self._dfs_low()
        bridges = set()
        for v, p in parent.items():
            if p is not None and low[v] > disc[p]:
                bridges.add(frozenset((v, p)))
        if not bridges:
            return 0
        # 2-edge-components by flood fill avoiding bridges
        comp = {}
        cid = 0
        for root in self.adj:
            if root in comp:
                continue
            stack = [root]
            comp[root] = cid
            while stack:
                v = stack.pop()
                for u in self.adj[v]:
                    if frozenset((u, v)) in bridges or u in comp:
                        continue
                    comp[u] = cid
                    stack.append(u)
            cid += 1
        degree = [0] * cid
        for e in bridges:
            u, v = tuple(e)
            degree[comp[u]] += 1
            degree[comp[v]] += 1
        return sum(1 for d in degree if d == 1)

    def block_tree_leaves(self):
        """Leaf blocks of the block-cut forest."""
        disc, low, parent = self._dfs_low()
        cut = set()
        children = {}
        for v, p in parent.items():
            if p is not None:
                children[p] = children.get(p, 0) + 1
                if parent[p] is not None and low[v] >= disc[p]:
                    cut.add(p)
        for root, p in parent.items():
            if p is None and children.get(root, 0) > 1:
                cut.add(root)
        # block decomposition via edge stack
        blocks = []
        state = {"stack": []}
        disc2, low2 = {}, {}
        t = [0]

        def root_dfs(root):
            st = [(root, iter(self.adj[root]), None)]
            disc2[root] = low2[root] = t[0]
            t[0] += 1
            while st:
                v, it, pv = st[-1]
                moved = False
                for u in it:
                    if u not in disc2:
                        state["stack"].append((v, u))
                        disc2[u] = low2[u] = t[0]
                        t[0] += 1
                        st.append((u, iter(self.adj[u]), v))
                        moved = True
                        break
                    elif u != pv and disc2[u] < disc2[v]:
                        state["stack"].append((v, u))
                        low2[v] = min(low2[v], disc2[u])
                if not moved:
                    st.pop()
                    if st:
                        p = st[-1][0]
                        if low2[v] >= disc2[p]:
                            blk = set()
                            while True:
                                e = state["stack"].pop()
                                blk.update(e)
                                if e == (p, v):
                                    break
                            blocks.append(blk)
                        low2[p] = min(low2[p], low2[v])

        for root in self.adj:
            if root not in disc2:
                root_dfs(root)
        if len(blocks) <= 1:
            return 0
        return sum(1 for b in blocks if len(b & cut) == 1)


def brute_force_optimal(g: Pslg, mode: str, limit: int = 22, weight="length"):
    """Minimum-weight subset of pairwise-non-crossing candidates whose
    insertion achieves the mode's connectivity: (cost, edges).

    Branch and bound over candidates sorted by weight; raises Exhausted when
    the candidate count exceeds ``limit``.
    """
    check_mode(mode)
    cs = candidate_set(g, weight=weight)
    m = len(cs.edges)
    if m > limit:
        raise Exhausted(f"{m} candidates exceed limit {limit}")

    best = [float("inf"), None]

    def rec(i, chosen, wsum, blocked):
        if wsum >= best[0] - 1e-12:
            return
        need = _deficiency(g, [cs.edges[j] for j in chosen], mode)
        if need == 0 and _achieves(g, [cs.edges[j] for j in chosen], mode):
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


def _achieves(g, extra, mode):
    adj = {p.id: set() for p in g.points}
    for u, v in list(g.edges) + list(extra):
        adj[u].add(v)
        adj[v].add(u)
    sg = _SimpleGraph(adj)
    if not sg.connected():
        return False
    if mode == "2ec":
        return sg.bridge_tree_leaves() == 0
    return len(adj) >= 3 and not _has_cut_vertex(sg)


def _has_cut_vertex(sg):
    disc, low, parent = sg._dfs_low()
    children = {}
    for v, p in parent.items():
        if p is not None:
            children[p] = children.get(p, 0) + 1
            if parent[p] is not None and low[v] >= disc[p]:
                return True
    for root, p in parent.items():
        if p is None and children.get(root, 0) > 1:
            return True
    return False


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


def certify(rep: dict, name: str, checks=CHECKS) -> dict:
    """``rep``, a verify report on the result of ``name``; raises
    LemmaViolation naming the first of ``checks`` (which start with
    "planar") that failed."""
    failed = next((k for k in checks if not rep[k]), None)
    if failed is not None:
        detail = f" ({rep['error']})" if failed == "planar" else ""
        raise LemmaViolation(f"verify rejected the {name} result: {failed} failed{detail}")
    return rep
