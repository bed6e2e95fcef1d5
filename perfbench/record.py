"""Record the frozen instance pool: the ``instance_hash`` of every pool
instance and its optimal 2ec/2vc costs.

    python3 perfbench/record.py

Run it only to define a new pool; the benchmark refuses to run on instances
whose digest no longer matches, and checks every optimal item against these
costs. Entries whose digest is unchanged are kept as recorded.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads as W


def pool_specs():
    specs = {W.PROBE}
    for w in W.WORKLOADS.values():
        specs.update(w.specs)
    return sorted(specs, key=W.spec_key)


def main():
    run.load_program()
    optimal = sys.modules["pslgaug.optimal"]
    instance_hash = sys.modules["pslgaug.instances"].instance_hash
    old = W.load_reference() if W.REFERENCE.is_file() else {}
    out = {}
    t0 = time.perf_counter()
    for spec in pool_specs():
        key = W.spec_key(spec)
        g = W.make_graph(spec)
        entry = {"hash": instance_hash(g)}
        if old.get(key, {}).get("hash") == entry["hash"]:
            out[key] = old[key]
            continue
        for kind, target in W.OPTIMAL.items():
            entry[kind] = W.edges_length(g, optimal.optimal_augment(g, target).added)
        out[key] = entry
        print(f"{time.perf_counter() - t0:8.1f}s {key} {entry}", flush=True)
    with open(W.REFERENCE, "w", encoding="utf-8") as f:
        json.dump({"format": 1, "instances": out}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
