"""Shared fixture builders for the test suite."""

from pslgaug import build, facial_walks


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
