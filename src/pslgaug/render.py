"""Deterministic SVG rendering of instances, augmentations and op logs.

Input edges are solid, augmentation edges dashed; an op log renders as one
layered group per phase with inserted and deleted edges styled separately.
The view box is the instance bounding box plus a five percent margin; output
is byte-stable for fixed input.
"""

from __future__ import annotations

from .geom import ekey
from .instances import _is_int
from .pslg import InvalidInstance, Pslg

_STYLE = (
    "  <style>\n"
    "    line.base { stroke: #222; stroke-width: 0.8; }\n"
    "    line.aug { stroke: #c22; stroke-width: 0.8; stroke-dasharray: 2.5 2; }\n"
    "    line.ins { stroke: #2a2; stroke-width: 0.8; stroke-dasharray: 2.5 2; }\n"
    "    line.del { stroke: #c22; stroke-width: 0.5; stroke-dasharray: 1 1.5; }\n"
    "    circle.pt { fill: #046; }\n"
    "    text.lbl { font-size: 3px; fill: #046; font-family: monospace; }\n"
    "  </style>\n"
)


def _fmt(x: float) -> str:
    return f"{x:.6f}".rstrip("0").rstrip(".")


class _View:
    def __init__(self, g: Pslg, size=220.0):
        # an instance with no points gets the view of one point at the origin
        xs = [float(p.x) for p in g.points] or [0.0]
        ys = [float(p.y) for p in g.points] or [0.0]
        w = max(xs) - min(xs) or 1.0
        h = max(ys) - min(ys) or 1.0
        margin = 0.05 * max(w, h)
        self.x0 = min(xs) - margin
        self.y0 = min(ys) - margin
        self.scale = size / max(w + 2 * margin, h + 2 * margin)
        self.height = (h + 2 * margin) * self.scale
        self.width = (max(xs) - self.x0) * self.scale  # up to the rightmost point

    def pt(self, p):
        # flip y so the drawing matches the usual orientation
        return (
            (float(p.x) - self.x0) * self.scale,
            self.height - (float(p.y) - self.y0) * self.scale,
        )


def _overlay_edge(g, e):
    """The overlay edge e, checked to join two distinct point ids of g."""
    if len(e) != 2 or e[0] == e[1] or not all(_is_int(x) and x in g.by_id for x in e):
        raise InvalidInstance(f"overlay edge {list(e)!r} does not join two point ids")
    return e


def _line(view, g, u, v, cls):
    x1, y1 = view.pt(g.by_id[u])
    x2, y2 = view.pt(g.by_id[v])
    return (
        f'  <line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}"'
        f' x2="{_fmt(x2)}" y2="{_fmt(y2)}" />\n'
    )


def render_svg(g: Pslg, aug_edges=None, oplog_steps=None) -> str:
    """SVG document for the instance, optionally overlaying an augmentation
    edge list or an op log (one group per phase)."""
    view = _View(g)
    w = view.width + 10
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="-5 -5 {_fmt(w + 10)} '
        f'{_fmt(view.height + 10)}">\n',
        _STYLE,
        '  <g id="base">\n',
    ]
    for u, v in sorted(g.edges):
        out.append("  " + _line(view, g, u, v, "base"))
    out.append("  </g>\n")

    if aug_edges:
        out.append('  <g id="augmentation">\n')
        for u, v in sorted(ekey(*_overlay_edge(g, e)) for e in aug_edges):
            out.append("  " + _line(view, g, u, v, "aug"))
        out.append("  </g>\n")

    if oplog_steps:
        by_phase = {}
        for st in oplog_steps:
            by_phase.setdefault(st.phase, []).append(st)
        for phase in sorted(by_phase):
            out.append(f'  <g id="phase-{phase}">\n')
            for st in by_phase[phase]:
                cls = "ins" if st.op == "insert" else "del"
                out.append("  " + _line(view, g, *_overlay_edge(g, (st.u, st.v)), cls))
            out.append("  </g>\n")

    out.append('  <g id="points">\n')
    for p in sorted(g.points, key=lambda p: p.id):
        x, y = view.pt(p)
        out.append(f'    <circle class="pt" cx="{_fmt(x)}" cy="{_fmt(y)}" r="1.4" />\n')
        out.append(f'    <text class="lbl" x="{_fmt(x + 2)}" y="{_fmt(y - 2)}">{p.id}</text>\n')
    out.append("  </g>\n")
    out.append("</svg>\n")
    return "".join(out)
