"""Shared fixture builders and oracles for the test suite."""

from pslgaug import DegenerateInput, build, facial_walks


def make_fig3(eps):
    """The four-vertex lower-bound family at a given epsilon (decimal str)."""
    pts = [(1, "0", "0"), (2, "0", eps), (3, "1", "0"), (4, "1", eps)]
    return build(pts, [(1, 2), (2, 3), (3, 4)])


def adjacency(edges):
    """Vertex -> list of neighbours over an iterable of vertex pairs."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def label_partition(faces):
    """The darts of a ``pslg.Faces`` grouped by face label."""
    groups = {}
    for d, label in faces.face.items():
        groups.setdefault(label, set()).add(d)
    return sorted(sorted(darts) for darts in groups.values())


def walk_partition(g):
    """The darts of g grouped by facial walk."""
    return sorted(sorted(zip(w.seq, w.seq[1:])) for w in facial_walks(g))


def in_ccw_sector(ux, uy, vx, vy, dx, dy) -> bool:
    """True iff direction d lies strictly inside the sector swept CCW from
    direction u to direction v, on exact scalars: the oracle of the batch
    sector test in ``optimal._in_sector_batch``.

    If u and v are the same direction the sector is the full angle (a leaf
    corner); d then only has to avoid the ray u itself.
    """
    cuv = ux * vy - uy * vx
    cud = ux * dy - uy * dx
    cdv = dx * vy - dy * vx
    if cuv == 0:
        duv = ux * vx + uy * vy
        if duv > 0:
            # u and v coincide: full sector minus the ray u
            return not (cud == 0 and ux * dx + uy * dy > 0)
        raise DegenerateInput("opposite boundary rays in sector test")
    if cuv > 0:
        return cud > 0 and cdv > 0
    # reflex sector: complement of the closed sector from v ccw to u
    cvd = -cdv
    cdu = -cud
    return not (cvd >= 0 and cdu >= 0)
