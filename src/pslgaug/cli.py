"""Command-line interface.

Subcommands: validate, augment, transform, oracle, replay, gen, render.
Machine-readable JSON goes to stdout with --json.  Exit codes:
0 success, 1 validation failure, 2 infeasible or oracle exhausted,
3 internal invariant (lemma) violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import instances
from .heuristic import augment_2ec, augment_2vc
from .optimal import InfeasibleFace, optimal_augment
from .oracle import MODES, Exhausted, brute_force_optimal, certify, verify
from .pslg import InvalidInstance, LemmaViolation, PslgError, connectivity
from .render import render_svg
from .transform import ReplayViolation, replay, transform

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_LEMMA = 3

AUGMENT_MODES = {
    "heur2ec": ("2ec", lambda g: augment_2ec(g)),
    "heur2vc": ("2vc", lambda g: augment_2vc(g)),
    "opt2ec": ("2ec", lambda g: optimal_augment(g, "2ec")),
    "opt2vc": ("2vc", lambda g: optimal_augment(g, "2vc")),
}


def _emit(args, record, human):
    if getattr(args, "json", False):
        sys.stdout.write(instances.record_json(record))
    else:
        sys.stdout.write(human)


def cmd_validate(args):
    g = instances.load(args.file)
    t0 = time.perf_counter()
    rep = connectivity(g)
    wall = (time.perf_counter() - t0) * 1000
    record = instances.run_record(
        g,
        "validate",
        {
            "n": g.n,
            "edges": len(g.edges),
            "connected": rep.connected,
            "is_2_connected": rep.is_2_connected,
            "is_2_edge_connected": rep.is_2_edge_connected,
        },
        wall,
    )
    _emit(
        args,
        record,
        f"valid PSLG: {g.n} points, {len(g.edges)} edges, "
        f"connected={rep.connected}, 2vc={rep.is_2_connected}, "
        f"2ec={rep.is_2_edge_connected}\n",
    )
    return EXIT_OK


def cmd_augment(args):
    g = instances.load(args.file)
    mode, fn = AUGMENT_MODES[args.mode]
    t0 = time.perf_counter()
    res = fn(g)
    wall = (time.perf_counter() - t0) * 1000
    # the augmenter certified its own result; this catches a result changed
    # since, and otherwise reads the graph the augmenter built (pslg.build)
    rep = certify(verify(g, res.added, mode), args.mode)
    record = instances.run_record(
        g,
        args.mode,
        {
            "cost": res.total_added_length,
            "edges": [list(e) for e in res.added],
            "ratio": rep["ratio"],
            "verified": rep["ok"],
        },
        wall,
    )
    _emit(
        args,
        record,
        f"{args.mode}: added {len(res.added)} edges, cost "
        f"{res.total_added_length:.9g} (ratio {rep['ratio']:.4f})\n"
        + "".join(f"  {u} - {v}\n" for u, v in res.added),
    )
    return EXIT_OK


def cmd_transform(args):
    g = instances.load(args.file)
    t0 = time.perf_counter()
    final, poly, log = transform(g)
    wall = (time.perf_counter() - t0) * 1000
    if args.oplog:
        with open(args.oplog, "w", encoding="utf-8") as f:
            f.write(instances.oplog_to_jsonl(log.steps, assert_len_le=repr(log.stats["ceiling"])))
    record = instances.run_record(
        g,
        "transform",
        {
            "steps": len(log.steps),
            "cycle": poly.seq,
            "final_length": log.stats["final_length"],
            "mst_length": log.stats["mst_length"],
            "flips": log.stats["flips"],
        },
        wall,
    )
    _emit(
        args,
        record,
        f"transformed in {len(log.steps)} ops; cycle {poly.seq}; final length "
        f"{log.stats['final_length']:.9g} <= 2*MST = {2 * log.stats['mst_length']:.9g}\n",
    )
    return EXIT_OK


def cmd_oracle(args):
    if args.limit < 0:
        raise ValueError(f"--limit must be at least 0, not {args.limit}")
    g = instances.load(args.file)
    t0 = time.perf_counter()
    cost, edges = brute_force_optimal(g, args.mode, limit=args.limit)
    wall = (time.perf_counter() - t0) * 1000
    record = instances.run_record(
        g,
        f"oracle-{args.mode}",
        {"cost": cost, "edges": [list(e) for e in edges]},
        wall,
    )
    _emit(
        args,
        record,
        f"oracle {args.mode}: cost {cost:.9g}, edges {edges}\n",
    )
    return EXIT_OK


def cmd_replay(args):
    g = instances.load(args.file)
    with open(args.oplog, "r", encoding="utf-8") as f:
        steps = instances.oplog_from_jsonl(f.read())
    t0 = time.perf_counter()
    rep = replay(g, steps)
    wall = (time.perf_counter() - t0) * 1000
    record = instances.run_record(
        g,
        "replay",
        {
            "steps": rep["steps"],
            "max_intermediate_length": rep["max_intermediate_length"],
            "final_length": rep["final_length"],
        },
        wall,
    )
    _emit(
        args,
        record,
        f"replayed {rep['steps']} ops: max intermediate "
        f"{rep['max_intermediate_length']:.9g}, final {rep['final_length']:.9g}\n",
    )
    return EXIT_OK


def cmd_gen(args):
    seed = args.seed if args.seed is not None else instances.default_seed()
    g = instances.generate(args.n, seed, args.density)
    text = instances.serialize(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_render(args):
    g = instances.load(args.file)
    aug = None
    steps = None
    if args.overlay:
        with open(args.overlay, "r", encoding="utf-8") as f:
            text = f.read()
        doc = None
        try:
            doc = json.loads(text)
            aug = [tuple(e) for e in doc["edges"]]
        except (json.JSONDecodeError, RecursionError, KeyError, TypeError):
            if isinstance(doc, dict) and "edges" in doc:
                raise InvalidInstance("malformed augmentation record: edges "
                                      "must be a list of point id pairs") from None
            steps = instances.oplog_from_jsonl(text)
    svg = render_svg(g, aug_edges=aug, oplog_steps=steps)
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(svg)
    return EXIT_OK


def make_parser():
    p = argparse.ArgumentParser(
        prog="pslgaug",
        description="Connectivity augmentation and cycle morphing for PSLGs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate an instance file")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("augment", help="augment to 2-(edge-)connectivity")
    sp.add_argument("file")
    sp.add_argument("--mode", required=True, choices=sorted(AUGMENT_MODES))
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_augment)

    sp = sub.add_parser("transform", help="morph into a short Hamiltonian cycle")
    sp.add_argument("file")
    sp.add_argument("--oplog", help="write the op log as JSON lines")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_transform)

    sp = sub.add_parser("oracle", help="exhaustive optimal augmentation")
    sp.add_argument("file")
    sp.add_argument("--mode", required=True, choices=MODES)
    sp.add_argument("--limit", type=int, default=22)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("replay", help="re-validate an op log")
    sp.add_argument("file")
    sp.add_argument("oplog")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_replay)

    sp = sub.add_parser("gen", help="generate a seeded random instance")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--density", type=float, default=0.5)
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("render", help="render an instance (and overlay) as SVG")
    sp.add_argument("file")
    sp.add_argument("--overlay", help="augmentation JSON or op log JSONL")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(fn=cmd_render)

    return p


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ReplayViolation,) as e:
        print(f"replay violation: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (InfeasibleFace, Exhausted) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except LemmaViolation as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return EXIT_LEMMA
    except (PslgError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
