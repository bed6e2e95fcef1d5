"""Instance files, run records, OpLog serialization and seeded generation.

Instance JSON keeps coordinates as decimal strings so exact predicates
reproduce across platforms; parsing then serializing is the identity.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction

from .geom import MAX_EXPONENT, Point, collinear_pair
from .pslg import InvalidInstance, Pslg, _validated, build, kruskal
from .transform import OpStep
from .triangulate import delaunay

FORMAT_VERSION = 1

# decodes one op-log line: json.loads without its per-call type checks
_decode_line = json.JSONDecoder().decode


def fraction_to_decimal(x: Fraction) -> str:
    """Exact decimal string of a rational whose denominator divides 10^k."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    den = x.denominator
    k = 0
    while den % 2 == 0:
        den //= 2
        k += 1
    k2 = 0
    while den % 5 == 0:
        den //= 5
        k2 += 1
    if den != 1:
        raise InvalidInstance(f"coordinate {x} has no finite decimal form")
    digits = max(k, k2)
    scaled = x * 10**digits
    s = str(scaled.numerator)
    if digits == 0:
        return sign + s
    s = s.rjust(digits + 1, "0")
    whole, frac = s[:-digits], s[-digits:]
    frac = frac.rstrip("0")
    return sign + whole + ("." + frac if frac else "")


def serialize(g: Pslg) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "points": [
            {"id": p.id, "x": fraction_to_decimal(p.x), "y": fraction_to_decimal(p.y)}
            for p in sorted(g.points, key=lambda p: p.id)
        ],
        "edges": [list(e) for e in sorted(g.edges)],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def parse(text: str) -> Pslg:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deeply
        raise InvalidInstance(f"not valid JSON: {e}") from None
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if not _is_int(version) or version != FORMAT_VERSION:
        raise InvalidInstance("missing or unsupported format_version")
    try:
        entries = [(p["id"], p["x"], p["y"]) for p in doc["points"]]
        edges = [tuple(e) for e in doc["edges"]]
    except (KeyError, TypeError) as e:
        raise InvalidInstance(f"malformed instance document: {e}") from None
    pts = [_point(i, *entry) for i, entry in enumerate(entries)]
    for i, e in enumerate(edges):
        if len(e) != 2 or not all(map(_is_int, e)):
            raise InvalidInstance(f"edge entry {i} {list(e)!r} is not a pair of point ids")
    return build(pts, edges)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _point(i, pid, x, y):
    """Point entry i: an integer id, coordinates decimal strings or integers."""
    if _is_int(pid):
        try:
            return Point.make(pid, x, y)
        except (TypeError, ValueError):  # ValueError: off the grammar, or too many digits
            pass
    raise InvalidInstance(
        f"point entry {i} (id {pid!r}, x {x!r}, y {y!r}) needs an integer id and "
        f"coordinates that are integers or decimal strings with an exponent of at "
        f"most {MAX_EXPONENT} in magnitude"
    )


def load(path) -> Pslg:
    with open(path, "r", encoding="utf-8") as f:
        return parse(f.read())


def instance_hash(g: Pslg) -> str:
    return hashlib.sha256(serialize(g).encode()).hexdigest()[:16]


def default_seed() -> int:
    env = os.environ.get("PSLG_SEED")
    return int(env) if env else 0


# -- generation ---------------------------------------------------------

GRID = 1_000_000


def generate(n: int, seed: int, density: float) -> Pslg:
    """Seeded random connected PSLG: n grid points in general position,
    edges a random subgraph of their Delaunay triangulation repaired to
    connectivity with minimum-spanning-tree edges."""
    if not 3 <= n <= 2 * GRID:  # no three points of a grid row in general position
        raise InvalidInstance(f"need 3 <= n <= {2 * GRID}")
    if not 0 <= density <= 1:
        raise InvalidInstance(f"density {density!r} is not in [0, 1]")
    rng = random.Random(seed)
    coords = []
    while len(coords) < n:
        c = (rng.randrange(GRID), rng.randrange(GRID))
        if collinear_pair(c, coords) is None:
            coords.append(c)

    # the draw ran build's general-position scan, in id order, so build
    # takes the points as they are
    ix, iy = dict(enumerate(x for x, _ in coords)), dict(enumerate(y for _, y in coords))
    pts = _validated([Point(i, x, y) for i, (x, y) in enumerate(coords)], ix, iy)
    dt_edges = sorted(delaunay(pts)[0].edges())
    keep = [e for e in dt_edges if rng.random() < density]

    # Kruskal over DT edges gives the repair spanning tree
    keep += kruskal(dt_edges, pts, joined=keep)
    return build(pts, sorted(set(keep)))


# -- run records and op logs -------------------------------------------


def run_record(g: Pslg, mode: str, payload: dict, wall_ms: float) -> dict:
    return {"instance": instance_hash(g), "mode": mode, **payload, "wall_ms": round(wall_ms, 3)}


def record_json(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True) + "\n"


def oplog_to_jsonl(steps, assert_len_le=None) -> str:
    """One JSON object per step, its keys sorted as ``json.dumps`` sorts
    them: the optional length ceiling, then "op", "phase", "u" and "v".  The
    ceiling and each distinct op are encoded once; ids and phases are ints."""
    head = "{" if assert_len_le is None else f'{{"assert_len_le": {json.dumps(assert_len_le)}, '
    ops = {op: json.dumps(op) for op in {st.op for st in steps}}
    return "".join(
        f'{head}"op": {ops[st.op]}, "phase": {st.phase}, "u": {st.u}, "v": {st.v}}}\n'
        for st in steps
    )


def oplog_from_jsonl(text: str):
    steps = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = _decode_line(line)
            op, u, v, phase = doc["op"], doc["u"], doc["v"], doc.get("phase", 0)
            if not (_is_int(u) and _is_int(v) and _is_int(phase)):
                raise TypeError("point ids and the phase must be integers")
            ceil = doc.get("assert_len_le")
            if ceil is not None:
                if isinstance(ceil, bool) or not isinstance(ceil, (int, float, str)):
                    raise TypeError("the length ceiling must be a number")
                if math.isnan(ceil := float(ceil)):
                    raise ValueError("the length ceiling is NaN")
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
            # ValueError: bad JSON or number; RecursionError: JSON nested too deeply
            raise InvalidInstance(f"bad oplog line {ln}") from None
        if op not in ("insert", "delete"):
            raise InvalidInstance(f"bad op {op!r} on oplog line {ln}")
        steps.append(OpStep(op=op, u=u, v=v, phase=phase, assert_len_le=ceil))
    return steps
