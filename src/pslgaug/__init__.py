"""Length-bounded connectivity augmentation and cycle morphing for planar
straight-line graphs."""

from .geom import DegenerateInput, Point, convex_hull
from .pslg import (
    CollinearTriple,
    ConnectivityReport,
    ConvexWalkSet,
    CrossingEdges,
    DuplicatePoint,
    EdgeThroughVertex,
    InvalidInstance,
    LemmaViolation,
    Pslg,
    PslgError,
    Walk,
    build,
    connectivity,
    convex_walk_decomposition,
    facial_walks,
)
from .geodesic import (
    GeodesicPath,
    WalkNotInFace,
    geodesic,
)
from .heuristic import (
    AugmentationResult,
    augment_2ec,
    augment_2vc,
    split_into_short_walks,
)
from .optimal import (
    IndexedWalk,
    InfeasibleFace,
    OptimalResult,
    dp_2ec,
    dp_2vc,
    feasibility,
    optimal_augment,
)
from .oracle import (
    CandidateSet,
    Exhausted,
    brute_force_optimal,
    verify,
)
from .transform import (
    OpLog,
    OpStep,
    ReplayViolation,
    WeaklySimplePolygon,
    euclidean_mst,
    replay,
    transform,
)
from .instances import generate, instance_hash, load, parse, serialize
from .render import render_svg

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
