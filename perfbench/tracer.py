"""Spans and counters around pslgaug's public functions, from outside the
program.

pslgaug modules import each other's functions by name (``from .pslg import
build``), so a wrapper is bound into every ``pslgaug.*`` namespace that holds
the original function. Modules are looked up in ``sys.modules`` because the
package re-exports the functions ``geodesic`` and ``transform`` under the
names of their modules.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from stats import self_times


def module(name):
    return sys.modules["pslgaug." + name]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner`` is a module name, or ``module:Class``
    for a method."""

    owner: str
    attr: str
    span: str
    count: object = None  # (args, result) -> dict of counter increments


def _feasibility_counts(args, F):
    # dp_2vc and dp_2ec each call feasibility once, on the walk they solve.
    import numpy as np

    n = args[1].n
    return {
        "optimal.walk_slots": n,
        "optimal.feasible_chords": int(np.isfinite(F).sum()) // 2,
        "optimal.chord_pairs": n * (n - 1) // 2,
        "optimal.dp.cells": n * (n + 1) // 2,
    }


def _transform_counts(args, result):
    steps = result[2].steps
    out = {"transform.ops": len(steps), "transform.flips": result[2].stats["flips"]}
    for k, v in Counter(st.phase for st in steps).items():
        out[f"transform.ops.phase{k}"] = v
    return out


TARGETS = (
    Target("instances", "parse", "instances.parse"),
    Target("instances", "generate", "instances.generate"),
    Target("instances", "oplog_to_jsonl", "instances.oplog_io"),
    Target("instances", "oplog_from_jsonl", "instances.oplog_io"),
    Target("pslg", "build", "pslg.build"),
    Target("pslg", "facial_walks", "pslg.facial_walks"),
    Target("pslg", "connectivity", "pslg.connectivity"),
    Target("pslg", "convex_walk_decomposition", "pslg.convex_walk_decomposition"),
    Target("triangulate", "triangulate_points", "triangulate.triangulate_points"),
    Target("triangulate", "insert_constraint", "triangulate.insert_constraint"),
    Target("triangulate", "lawson_flips", "triangulate.lawson_flips"),
    Target("geodesic:_FaceEnv", "__init__", "geodesic.face_env"),
    Target("geodesic", "geodesic", "geodesic.geodesic"),
    Target("heuristic", "augment_2ec", "heuristic.augment_2ec"),
    Target("heuristic", "augment_2vc", "heuristic.augment_2vc"),
    Target("optimal", "feasibility", "optimal.feasibility", _feasibility_counts),
    Target("optimal", "dp_2vc", "optimal.dp"),
    Target("optimal", "dp_2ec", "optimal.dp"),
    Target("optimal", "optimal_augment", "optimal.optimal_augment"),
    Target("oracle", "verify", "oracle.verify"),
    Target("transform", "euclidean_mst", "transform.euclidean_mst"),
    Target("transform", "phase1_spanning_tree", "transform.phase1"),
    Target("transform", "phase2_to_delaunay_tree", "transform.phase2"),
    Target("transform", "phase3_to_mst", "transform.phase3"),
    Target("transform", "phase4_grow_cycle", "transform.phase4"),
    Target("transform", "phase5_simplify", "transform.phase5"),
    Target("transform", "transform", "transform.transform", _transform_counts),
    Target("transform", "replay", "transform.replay"),
)


def _owner(target):
    mod, _, cls = target.owner.partition(":")
    m = module(mod)
    return getattr(m, cls) if cls else m


COUNT_HOOK = "perfbench.count_hook"


class Tracer:
    """Records spans ``[name, item, parent, start, end]`` in memory, plus
    counters from the count hooks; ``item`` is None outside items. The count
    hooks' own spans are named COUNT_HOOK."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.counts = Counter()
        self.calls = Counter()  # per target index, for the self-check
        self.item = None
        self._stack = []
        self._bound = []  # (namespace owner, attr, original)
        self._originals = []  # per target index

    def _wrap(self, index, target, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [target.span, tracer.item, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer.calls[index] += 1
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if target.count is not None:
                # The hook is a child span of the caller's span, so that
                # its time is not charged to the program.
                hook = [COUNT_HOOK, tracer.item, span[2], perf_counter(), 0.0]
                tracer.spans.append(hook)
                tracer.counts.update(target.count(args, result))
                hook[4] = perf_counter()
            return result

        return traced

    def install(self):
        if self._bound:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in sys.modules.items()
                      if name == "pslgaug" or name.startswith("pslgaug.")]
        self._originals = []
        for index, target in enumerate(self.targets):
            owner = _owner(target)
            original = getattr(owner, target.attr)
            self._originals.append(original)
            wrapper = self._wrap(index, target, original)
            if isinstance(owner, type):
                self._bound.append((owner, target.attr, original))
                setattr(owner, target.attr, wrapper)
                continue
            for m in namespaces:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._bound.append((m, name, original))
                        setattr(m, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._bound):
            setattr(owner, name, original)
        self._bound.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.calls.clear()

    def summary(self, items):
        """Per-name self seconds and call counts over the spans of the given
        item ids."""
        self_s = self_times([(p, s, e) for _, _, p, s, e in self.spans])
        seconds, calls = Counter(), Counter()
        for span, t in zip(self.spans, self_s):
            if span[1] in items:
                seconds[span[0]] += t
                calls[span[0]] += 1
        return seconds, calls

    def self_check(self, run):
        """Run ``run()`` under an interpreter profile hook and require that
        every call the interpreter made to a wrapped function went through
        its wrapper, and that ``run()`` reached every wrapped function.
        Raises RuntimeError otherwise."""
        if not self._bound:
            raise RuntimeError("tracer not installed")
        codes = {fn.__code__: i for i, fn in enumerate(self._originals)}
        seen = Counter()

        def profile(frame, event, arg):
            if event == "call":
                index = codes.get(frame.f_code)
                if index is not None:
                    seen[index] += 1

        before = Counter(self.calls)
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        wrapped = self.calls - before
        missed = {
            f"{t.owner}.{t.attr}": (seen[i], wrapped[i])
            for i, t in enumerate(self.targets)
            if seen[i] != wrapped[i] or seen[i] == 0
        }
        if missed:
            raise RuntimeError(
                "tracer self-check failed (interpreter count, wrapper count): "
                f"{missed}"
            )
        return {f"{t.owner}.{t.attr}": seen[i] for i, t in enumerate(self.targets)}
