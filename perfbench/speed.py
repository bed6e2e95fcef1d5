"""A fixed reference kernel that tracks how fast the host runs Python at the
moment, so that timings can be stated at one reference speed.

On a shared host the speed at which the same single-threaded Python code
runs drifts by a third and more over minutes, while other tenants come and
go. The benchmark times this kernel between items, off the items' clock,
and scales each item's time by ``REFERENCE_S`` ÷ the kernel's time measured
around it. The kernel is part of the benchmark, not of the program, so a
change to pslgaug does not change it.

The kernel does the kind of work pslgaug does: integer orientation tests,
``Fraction`` arithmetic, dict and set updates, sorting with a key, small
objects and function calls. It makes no reference cycles and runs with the
cyclic garbage collector off, so the program's heap does not change its
time.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Median kernel time on one core of the 2-vCPU host the benchmark was tuned
# on, in a quiet phase. Timings scaled by it read as on that host.
REFERENCE_S = 0.0045

_N = 160
_POINTS = tuple(((i * 7919) % 1009 - 504, (i * 104729) % 1013 - 506) for i in range(_N))


class _Seg:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _crossing(s, t):
    d1, d2 = _orient(s.a, s.b, t.a), _orient(s.a, s.b, t.b)
    if (d1 > 0) == (d2 > 0) or d1 == 0 or d2 == 0:
        return None
    u = Fraction(d1, d1 - d2)
    return (t.a[0] + u * (t.b[0] - t.a[0]), t.a[1] + u * (t.b[1] - t.a[1]))


def kernel():
    """One run of the reference work; returns a checksum."""
    pts = _POINTS
    segs = [_Seg(pts[i], pts[(i * 37 + 11) % _N]) for i in range(0, _N, 2)]
    hits = {}
    for i in range(len(segs)):
        s = segs[i]
        for j in range(i + 1, min(i + 12, len(segs))):
            x = _crossing(s, segs[j])
            if x is not None:
                hits.setdefault(i, set()).add(x)
    order = sorted(range(_N), key=lambda k: (pts[k][1], -pts[k][0]))
    parent = list(range(_N))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    joined = 0
    for a, b in zip(order, order[3:]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            joined += 1
    return joined + sum(len(v) for v in hits.values())


CHECKSUM = kernel()


def sample():
    """Wall time of one kernel run, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        got = kernel()
        t = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if got != CHECKSUM:
        raise RuntimeError("speed kernel returned a different checksum")
    return t
