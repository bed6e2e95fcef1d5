"""Workload definitions, the items they run, and the checks on each item's
output.

A workload is a list of instance specs; each instance run in every kind of
the workload makes one pass. Every spec is an entry of the frozen pool:
``reference.json`` holds the ``instance_hash`` of its serialized text and its
optimal costs, recorded by ``record.py``.

The run's seed translates every instance by an integer offset. Ids, the
order of the points and every orientation stay those of the pool, so the
program does the same work on every seed and the optimal costs stay the
recorded ones; only the coordinates the program reads differ.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from tracer import module

LENGTH_TOL = 1e-9
REFERENCE = Path(__file__).with_name("reference.json")
MAX_SHIFT = 1000

# Quality terms a workload's items do not produce (a heuristic on
# transform-replay, a morph on augment-mixed) are computed untimed on this
# many of its smallest instances.
QUALITY_INSTANCES = 2

HEURISTIC = {"heur2ec": ("augment_2ec", "2ec"), "heur2vc": ("augment_2vc", "2vc")}
OPTIMAL = {"opt2ec": "2ec", "opt2vc": "2vc"}
AUGMENT_KINDS = ("heur2ec", "heur2vc", "opt2ec", "opt2vc")


def _gen_specs(sizes, densities):
    return [("gen", n, densities[i % len(densities)]) for i, n in enumerate(sizes)]


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple
    specs: list


WORKLOADS = {
    w.name: w
    for w in (
        # The library's main call: build validates three times per item and
        # the DP sees mostly short faces, since density grows with size.
        Workload(
            "augment-mixed",
            AUGMENT_KINDS,
            _gen_specs(
                tuple(40 + round(36 * i / 15) for i in range(16)),
                tuple(round(0.2 + 0.4 * i / 7, 2) for i in range(8)),
            ),
        ),
        # The five-phase morph and its replay: dozens of rebuilds of nearly
        # identical graphs and face environments per item.
        Workload(
            "transform-replay",
            ("transform",),
            _gen_specs(
                tuple(20 + round(10 * i / 31) for i in range(32)),
                (0.2, 0.4, 0.6, 0.3, 0.5),
            ),
        ),
    )
}

# Nominal seconds of one pass of either workload on a 2-vCPU host; sets the
# pass count.
PASS_S = 9.0

# A small instance run in every kind by the tracer self-check, so that it
# reaches every wrapped function.
PROBE = ("gen", 12, 0.5)
ALL_KINDS = AUGMENT_KINDS + ("transform",)


def spec_key(spec):
    _, n, d = spec
    return f"gen-n{n}-d{d}"


def make_graph(spec):
    """The pool graph of a spec, from the public generate (which builds it)."""
    _, n, d = spec
    gseed = int.from_bytes(hashlib.sha256(spec_key(spec).encode()).digest()[:4], "big")
    return module("instances").generate(n, gseed, d)


def load_reference():
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)["instances"]


@dataclass
class Instance:
    key: str
    text: str
    points: int
    ref: dict
    mst: float | None = None  # filled by the first transform check


def translated(g, rng):
    """Serialized copy of a graph translated by up to MAX_SHIFT on each axis."""
    ox, oy = rng.randint(-MAX_SHIFT, MAX_SHIFT), rng.randint(-MAX_SHIFT, MAX_SHIFT)
    points = [(p.id, p.x + ox, p.y + oy) for p in g.points]
    return module("instances").serialize(module("pslg").build(points, g.edges))


def materialize(specs, reference, seed=None):
    """Generate the instances and refuse any whose serialized text differs
    from the frozen pool; with a seed, return translated copies."""
    instances = module("instances")
    out = []
    for spec in specs:
        key = spec_key(spec)
        g = make_graph(spec)
        ref = reference.get(key)
        if ref is None:
            raise SystemExit(f"instance {key} is not in {REFERENCE.name}; run record.py")
        digest = instances.instance_hash(g)
        if digest != ref["hash"]:
            raise SystemExit(
                f"instance {key} changed: digest {digest} != frozen {ref['hash']}; "
                "the generator's output moved, so the workload is no longer the "
                "recorded one"
            )
        if seed is None:
            text = instances.serialize(g)
        else:
            text = translated(g, random.Random(f"{seed}:{key}"))
        out.append(Instance(key, text, g.n, ref))
    return out


# -- items ---------------------------------------------------------------


def run_item(kind, text):
    """One user call, from instance text to a verified result. Timed."""
    instances = module("instances")
    g = instances.parse(text)
    if kind in HEURISTIC:
        fn, target = HEURISTIC[kind]
        res = getattr(module("heuristic"), fn)(g)
        return g, res, module("oracle").verify(g, res.added, target)
    if kind in OPTIMAL:
        res = module("optimal").optimal_augment(g, OPTIMAL[kind])
        return g, res, module("oracle").verify(g, res.added, OPTIMAL[kind])
    if kind == "transform":
        tr = module("transform")
        res = tr.transform(g)
        steps = instances.oplog_from_jsonl(instances.oplog_to_jsonl(res[2].steps))
        return g, res, tr.replay(g, steps)
    raise ValueError(f"unknown item kind {kind!r}")


def seg_length(g, u, v):
    p, q = g.by_id[u], g.by_id[v]
    return math.hypot(float(p.x - q.x), float(p.y - q.y))


def edges_length(g, edges):
    """Exactly rounded length of an edge set, independent of its order."""
    return math.fsum(seg_length(g, u, v) for u, v in edges)


def mst_length(g):
    """Euclidean MST length by Prim's algorithm, independent of the
    program's Kruskal."""
    ids = [p.id for p in g.points]
    best = {v: seg_length(g, ids[0], v) for v in ids[1:]}
    total = []
    while best:
        v = min(best, key=best.get)
        total.append(best.pop(v))
        for w in best:
            d = seg_length(g, v, w)
            if d < best[w]:
                best[w] = d
    return math.fsum(total)


def check(kind, inst, out):
    """Check one item's output. Returns ``(error or None, quality)`` where
    quality holds the lengths the quality ratios sum."""
    g, res, rep = out
    if kind in HEURISTIC or kind in OPTIMAL:
        if not rep.get("ok"):
            return f"verify failed: {rep}", {}
        bound = 2 * g.total_length() + LENGTH_TOL
        if kind in HEURISTIC:
            if res.total_added_length > bound or res.produced_length > bound:
                return (
                    f"added {res.total_added_length!r} / produced "
                    f"{res.produced_length!r} exceeds 2||E|| = {bound!r}"
                ), {}
            return None, {"added": res.total_added_length}
        cost = edges_length(g, res.added)
        ref = inst.ref[kind]
        if abs(cost - ref) > LENGTH_TOL:
            return f"optimal cost {cost!r} != reference {ref!r}", {}
        return None, {"added": cost}

    final, poly, log = res
    n = g.n
    if not rep.get("ok"):
        return f"replay failed: {rep}", {}
    if inst.mst is None:
        inst.mst = mst_length(g)
    mst = inst.mst
    base = edges_length(g, g.edges)
    if rep["max_intermediate_length"] > base + mst + LENGTH_TOL:
        return f"intermediate length {rep['max_intermediate_length']!r} > ||E||+||MST||", {}
    cycle = rep["final_edges"]
    final_len = edges_length(g, cycle)
    if final_len > 2 * mst + LENGTH_TOL:
        return f"final length {final_len!r} > 2||MST|| = {2 * mst!r}", {}
    if set(cycle) != set(final.edges):
        return "replayed final edges differ from the transform's", {}
    seq = list(poly.seq)
    if sorted(seq) != sorted(p.id for p in g.points):
        return "final polygon is not a simple Hamiltonian cycle", {}
    ring = {tuple(sorted((seq[i], seq[(i + 1) % n]))) for i in range(n)}
    if len(cycle) != n or ring != set(cycle):
        return "final edges are not the polygon's Hamiltonian cycle", {}
    return None, {"final": final_len, "mst": mst}
