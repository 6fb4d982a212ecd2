"""Nesting forests of overlap-free, possibly touching simple polygons.

The public surface re-exports the main types and operations; see README.md
for the CLI and the data formats.
"""

from .errors import (
    ContainmentCycle,
    DegenerateAllCollinear,
    DegeneratePolygon,
    DuplicateConsecutiveVertex,
    GenerationFailed,
    InputError,
    NestpolyError,
    OutOfDomain,
    OverlapDetected,
    ParityInconsistency,
    ParseError,
    SemanticError,
    TooFewVertices,
)
from .forest import NestingForest
from .generator import GenConfig, generate, transform
from .geometry import (
    Coord,
    Edge,
    Point,
    Polygon,
    coord,
    make_polygon,
)
from .instance_io import (
    forest_document,
    parse_instance,
    serialize_forest,
    serialize_instance,
)
from .oracle import (
    PointLocation,
    ValidationReport,
    brute_force_forest,
    interior_point,
    point_in_polygon,
    validate,
)
from .render import render_svg
from .segments import (
    MaxSegment,
    SegmentDecomposition,
    assign_parities,
    decompose,
)
from .sweep import (
    SweepStatus,
    advance_current_edge,
    build_events,
    nesting_forest,
    nesting_forest_with_stats,
)

__version__ = "1.0.0"
