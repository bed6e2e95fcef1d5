"""Arithmetic shared by the benchmark and its tests: latency summaries,
scaling to the reference speed and span self time."""

from __future__ import annotations

import statistics

TAIL_SAMPLES_ABOVE = 10


def tail(samples, above=TAIL_SAMPLES_ABOVE):
    """The highest nearest-rank percentile with at least ``above`` samples
    strictly ranked above it.

    Returns ``(value, percentile, n)``. With n sorted samples the value at
    rank k (1-based) is the k/n percentile and has n - k samples above it,
    so the rank is n - above.
    """
    xs = sorted(samples)
    n = len(xs)
    k = n - above
    if k < 1:
        raise ValueError(f"need more than {above} samples for a tail, got {n}")
    return xs[k - 1], 100.0 * k / n, n


def median(samples):
    return statistics.median(samples)


def self_times(spans):
    """Self time of each span: its duration minus the durations of its
    direct children.

    ``spans`` is a sequence of ``(parent, start, end)`` with ``parent`` the
    index of the enclosing span or -1. Spans come from one thread, so
    children never overlap one another and lie inside their parent.
    """
    out = [end - start for _, start, end in spans]
    for parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def at_reference_speed(seconds, before, after, reference):
    """A time taken between two speed-kernel samples, scaled to the host
    speed at which the kernel takes ``reference`` seconds."""
    return seconds * reference / ((before + after) / 2)
