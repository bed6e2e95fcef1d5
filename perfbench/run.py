"""pslgaug benchmark: one closed-loop caller, one thread, one workload.

    python3 perfbench/run.py --workload augment-mixed --seed 1 --seconds 27 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones; either way the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. End-to-end times are stated at
the reference host speed of ``speed.py``. A fuller record, with the
environment, the tail percentile, the unscaled times and any failures, goes
to ``.perfbench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed
import stats
import workloads as W
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SPAWNS = 9
TRACED_PASSES = 2


def load_program():
    """Import pslgaug from the checkout's src with BLAS pinned to one
    thread; exit non-zero when the source is not there."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "pslgaug" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pslgaug source under {SRC}")
    sys.path.insert(0, str(SRC))
    import pslgaug.cli  # noqa: F401  (loads every pslgaug module)

    if not Path(sys.modules["pslgaug"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("perfbench: pslgaug was not imported from the checkout")


def _digest(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    import numpy

    u = os.uname()
    return {
        "git_sha": sha,
        "src_digest": _digest((SRC / "pslgaug").glob("*.py")),
        "bench_digest": _digest(list(BENCH.glob("*.py")) + [W.REFERENCE]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": f"{u.sysname} {u.release} {u.machine}",
    }


def measure_setup():
    """Median wall time of a fresh interpreter importing pslgaug.cli, after
    one spawn that may still compile bytecode. Not scaled by the speed
    kernel: a spawn is mostly process creation and loading, whose time the
    kernel's does not track."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import pslgaug.cli"]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(perf_counter() - t0)
    return stats.median(times)


class Loop:
    """Closed loop over item lists: each item starts after the previous one
    returned. Only the item itself is on the clock; the benchmark's checks
    of its output run off the clock. The speed kernel runs, also off the
    clock, before the first item and after every item, so each item lies
    between two kernel samples."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = {}  # (instance key, kind) -> seconds of each checked run
        self.scaled = {}  # the same at the reference speed
        self.passes = []  # (checked items, seconds without checks and kernel) per pass
        self.attempted = 0
        self.failures = []
        self.quality = {}  # (instance key, kind) -> quality dict
        self.next_item = 0

    def run(self, items):
        """Run one pass over the items in order; returns their item ids."""
        ids = []
        done = 0
        start = perf_counter()
        before = speed.sample()
        checking = perf_counter() - start
        for kind, inst in items:
            item = self.next_item
            self.next_item += 1
            ids.append(item)
            if self.tracer is not None:
                self.tracer.item = item
            t0 = perf_counter()
            try:
                out = W.run_item(kind, inst.text)
            except Exception:  # a failed item is counted, not fatal
                out, raised = None, traceback.format_exc(limit=4)
            t1 = perf_counter()
            if self.tracer is not None:
                self.tracer.item = None
            after = speed.sample()
            self.attempted += 1
            if out is None:
                self.failures.append(
                    {"instance": inst.key, "kind": kind, "raised": True, "error": raised})
            else:
                wrong, q = W.check(kind, inst, out)
                if wrong is None:
                    done += 1
                    self.latencies.setdefault((inst.key, kind), []).append(t1 - t0)
                    self.scaled.setdefault((inst.key, kind), []).append(
                        stats.at_reference_speed(t1 - t0, before, after, speed.REFERENCE_S))
                    self.quality[inst.key, kind] = q
                else:
                    self.failures.append(
                        {"instance": inst.key, "kind": kind, "raised": False, "error": wrong})
            before = after
            checking += perf_counter() - t1
        self.passes.append((done, perf_counter() - start - checking))
        return ids

    @property
    def wall(self):
        return sum(w for _, w in self.passes)

    @property
    def scaled_wall(self):
        return sum(sum(runs) for runs in self.scaled.values())


def pass_items(workload, chosen):
    return [(kind, inst) for inst in chosen for kind in workload.kinds]


def pass_count(seconds):
    """Passes per run: set by --seconds only, so it is the same on every
    commit."""
    return max(1, round(seconds / W.PASS_S))


def warm_up(items):
    """One untimed item of each kind, on the smallest instance that has it."""
    first = {}
    for kind, inst in sorted(items, key=lambda it: it[1].points):
        first.setdefault(kind, inst)
    for kind, inst in first.items():
        W.run_item(kind, inst.text)


def quality_ratios(loop, chosen):
    """heur_over_opt and cycle_over_mst over the pass's instances. Terms the
    timed items did not produce come from untimed, checked items on the
    pass's QUALITY_INSTANCES smallest instances on which those items pass."""
    extra = Loop()
    done = 0
    for inst in sorted(chosen, key=lambda i: i.points):
        if done == W.QUALITY_INSTANCES:
            break
        failed = len(extra.failures)
        extra.run([(k, inst) for k in W.ALL_KINDS if (inst.key, k) not in loop.quality])
        done += len(extra.failures) == failed
    q = {**extra.quality, **loop.quality}
    heur = opt = final = mst = 0.0
    for inst in chosen:
        for h, o in (("heur2ec", "opt2ec"), ("heur2vc", "opt2vc")):
            if (inst.key, h) in q and (inst.key, o) in q:
                heur += q[inst.key, h]["added"]
                opt += q[inst.key, o]["added"]
        if (inst.key, "transform") in q:
            final += q[inst.key, "transform"]["final"]
            mst += q[inst.key, "transform"]["mst"]
    return heur / opt, final / mst, extra


def latency_summary(runs):
    """items_per_s, latency_p50_ms and latency_tail_ms from the seconds of
    each item's runs: an item's latency is the median of its runs, and the
    throughput that of a pass made of those latencies."""
    per_item = [stats.median(r) for r in runs.values()]
    tail, pct, n = stats.tail(per_item)
    return {
        "items_per_s": len(per_item) / sum(per_item),
        "latency_p50_ms": 1000 * stats.median(per_item),
        "latency_tail_ms": 1000 * tail,
    }, pct, n


def run_untraced(workload, chosen, seconds):
    items = pass_items(workload, chosen)
    setup_s = measure_setup()
    warm_up(items)
    # A fixed number of whole passes. The host's speed drifts by a third
    # and more within seconds, so each run of an item is scaled to the
    # reference speed by the kernel samples just before and after it.
    passes = pass_count(seconds)
    loop = Loop()
    for _ in range(passes):
        loop.run(items)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timing, pct, n = latency_summary(loop.scaled)
    unscaled, _, _ = latency_summary(loop.latencies)
    values = {"setup_s": setup_s, **timing, "peak_rss_mb": peak_rss_mb}
    heur_over_opt, cycle_over_mst, extra = quality_ratios(loop, chosen)
    attempted = loop.attempted + extra.attempted
    failures = loop.failures + extra.failures
    values.update({
        "ok_frac": (attempted - len(failures)) / attempted,
        "heur_over_opt": heur_over_opt,
        "cycle_over_mst": cycle_over_mst,
    })
    print(f"# latency_tail_ms is p{pct:.4g} of {n} items, each the median of "
          f"{passes} passes; the passes took {loop.wall:.1f} s")
    print("# unscaled (host speed of this run): " + json.dumps(unscaled, sort_keys=True))
    info = {"passes": passes, "items_per_pass": len(items), "pass_s": loop.passes,
            "latency_tail": {"percentile": pct, "samples": n},
            "unscaled": unscaled,
            "latencies_s": {f"{key}:{kind}": runs for (key, kind), runs in loop.latencies.items()},
            "scaled_latencies_s": {f"{key}:{kind}": runs for (key, kind), runs in loop.scaled.items()},
            "untimed_quality_items": extra.attempted}
    return values, attempted, failures, info


def check_counts_repeat(name, env, seed, per_pass):
    """Counts of every traced pass, and of an earlier run of the same code
    and seed, must be identical; anything else is an error."""
    first = per_pass[0]
    for k, counts in enumerate(per_pass[1:], 2):
        if counts != first:
            diff = {key: (first.get(key), counts.get(key))
                    for key in first.keys() | counts.keys()
                    if first.get(key) != counts.get(key)}
            raise SystemExit(f"perfbench: counts drifted between traced passes 1 and {k}: {diff}")
    path = OUT / "counts" / (
        f"{name}-seed{seed}-{env['src_digest']}-{env['bench_digest']}.json")
    if path.is_file():
        before = json.loads(path.read_text())
        if before != first:
            raise SystemExit(f"perfbench: counts differ from the earlier run in {path}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(first, sort_keys=True))


def self_check(tracer, reference):
    """Run the probe instance in every kind, plus one generate, under the
    tracer self-check; exit non-zero if it fails."""
    probe = W.materialize([W.PROBE], reference)[0]
    probe_items = [(kind, probe) for kind in W.ALL_KINDS]
    warm_up(probe_items)
    probe_loop = Loop(tracer)
    tracer.install()
    try:
        calls = tracer.self_check(
            lambda: (W.materialize([W.PROBE], reference), probe_loop.run(probe_items)))
    finally:
        tracer.uninstall()
    if probe_loop.failures:
        raise SystemExit(f"perfbench: probe items failed: {probe_loop.failures}")
    tracer.reset()
    return calls


def run_traced(workload, seed, reference, env):
    """Self-check, then untraced and traced passes of the workload's items
    in turn. A layer the workload's items do not reach reads 0."""
    tracer = Tracer()
    tracer.install()
    try:
        chosen = W.materialize(workload.specs, reference, seed)
    finally:
        tracer.uninstall()
    gen_s, gen_calls = tracer.summary({None})
    tracer.reset()
    calls = self_check(tracer, reference)

    items = pass_items(workload, chosen)
    warm_up(items)
    plain, loop = Loop(), Loop(tracer)
    per_pass, ids = [], set()
    for _ in range(TRACED_PASSES):
        plain.run(items)
        tracer.install()
        try:
            pass_ids = loop.run(items)
        finally:
            tracer.uninstall()
        _, pass_calls = tracer.summary(set(pass_ids))
        counts = {f"calls:{k}": v for k, v in pass_calls.items()}
        counts.update(tracer.counts)
        tracer.counts.clear()
        per_pass.append(counts)
        ids.update(pass_ids)
    check_counts_repeat(workload.name, env, seed, per_pass)

    seconds, span_calls = tracer.summary(ids)
    counts = Counter()
    for c in per_pass:
        counts.update(c)
    n_items = len(ids)

    def value(name):
        if name == "instances.generate.ms":
            return 1000 * gen_s["instances.generate"] / gen_calls["instances.generate"]
        if name == "trace_overhead_frac":
            return loop.scaled_wall / plain.scaled_wall - 1
        if name == "optimal.feasible_frac":
            pairs = counts["optimal.chord_pairs"]
            return counts["optimal.feasible_chords"] / pairs if pairs else 0.0
        if name == "geodesic.face_env.builds":
            return span_calls["geodesic.face_env"] / n_items
        if name.endswith(".ms"):
            return 1000 * seconds[name[:-3]] / n_items
        if name.endswith(".calls"):
            return span_calls[name[:-6]] / n_items
        return counts[name] / n_items

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload.name}-seed{seed}.jsonl", "w", encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    info = {"items_per_pass": len(items), "self_check_calls": calls,
            "counts_per_pass": per_pass[0]}
    return value, loop.attempted + plain.attempted, loop.failures + plain.failures, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_program()
    workload = W.WORKLOADS[args.workload]
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    reference = W.load_reference()
    if args.trace:
        value, attempted, failures, info = run_traced(workload, args.seed, reference, env)
        wanted = bench["per_layer"]
    else:
        chosen = W.materialize(workload.specs, reference, args.seed)
        values, attempted, failures, info = run_untraced(workload, chosen, args.seconds)
        value = values.__getitem__
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in wanted}

    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for f in failures:
        what = "raised" if f["raised"] else "wrong output"
        print(f"# FAILED ({what}) {f['instance']} {f['kind']}: {f['error']}")
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "env": env, "metrics": metrics, "failures": failures, **info}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    # An item that raised produced no output to be wrong; it counts as failed.
    print(json.dumps({
        "correct": not any(not f["raised"] for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
