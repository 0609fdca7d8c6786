"""Constructive tilings of integer intervals by parts sharing one gap sequence.

Given gaps (p, q, r) with r at or above an explicit threshold in p and q,
tile() partitions an integer interval into 4-sets whose consecutive
differences are exactly {p, q, r} in some order.  The construction stacks
verified 3-D block coverings and flattens them; an independent brute-force
oracle and standalone verifiers allow every emitted object to be checked
without trusting the builder.
"""

from .core import (
    GapSequence,
    InternalInconsistency,
    Part,
    Tiling,
    UnsupportedParameters,
    Verdict,
    tiling_from_json,
    tiling_to_json,
    verify_tiling,
)
from .blocks3d import (
    BASE_IDS,
    Block,
    Covering,
    axis_family,
    base_covering,
    covering_S3,
    covering_from_json,
    covering_to_json,
    skew_family,
    verify_covering,
)
from .layers import NiceLayer, layer_x1, layer_x2, layer_y1, layer_y2
from .assemble import (
    PlanParameters,
    plan,
    threshold,
    tile,
)
from .oracle import BUDGET_EXHAUSTED, SearchBudget, min_interval, solve_covering, solve_interval

__version__ = "0.1.0"

__all__ = [
    "BASE_IDS", "BUDGET_EXHAUSTED", "Block", "Covering", "GapSequence",
    "InternalInconsistency", "NiceLayer", "Part", "PlanParameters",
    "SearchBudget", "Tiling", "UnsupportedParameters", "Verdict",
    "axis_family", "base_covering", "covering_S3", "covering_from_json",
    "covering_to_json", "layer_x1", "layer_x2", "layer_y1", "layer_y2",
    "min_interval", "plan", "skew_family", "solve_covering",
    "solve_interval", "threshold", "tile", "tiling_from_json",
    "tiling_to_json", "verify_covering", "verify_tiling",
]
