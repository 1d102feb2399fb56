"""Finite metric spaces, dynamical metrics, and counting quantities."""

from .space import FiniteMetricSpace
from .counts import (CountBracket, ScaleGrid, max_separated, min_spanning,
                     min_ball_cover, min_diameter_cover,
                     SEPARATED, SPANNING, BALL_COVER, DIAMETER_COVER)
from .checks import CheckResult, verify_chain
from .cache import write_cache, read_cache
from .solvers import DEFAULT_BUDGET

__all__ = [
    "FiniteMetricSpace", "CountBracket", "ScaleGrid",
    "max_separated", "min_spanning", "min_ball_cover", "min_diameter_cover",
    "SEPARATED", "SPANNING", "BALL_COVER", "DIAMETER_COVER",
    "CheckResult", "verify_chain",
    "write_cache", "read_cache", "DEFAULT_BUDGET",
]
