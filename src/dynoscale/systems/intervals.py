"""Interval-borne nets: lattices, the null sequence, and the doubling map.

Coordinates are Fractions so the sweep counting layer compares exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..errors import ParameterError
from ..metric_core.space import FiniteMetricSpace
from .base import DynamicalSystem


def unit_lattice(points: int) -> FiniteMetricSpace:
    """Evenly spaced points of [0, 1] including both endpoints."""
    if points < 2:
        raise ParameterError("need at least two lattice points")
    coords = [Fraction(i, points - 1) for i in range(points)]
    return FiniteMetricSpace(coords=coords, name=f"unit-lattice({points})")


def null_sequence_space(k_max: int) -> FiniteMetricSpace:
    """{0} united with {1/k : k <= k_max}."""
    if k_max < 1:
        raise ParameterError("k_max must be >= 1")
    coords = [Fraction(0)] + [Fraction(1, k) for k in range(k_max, 0, -1)]
    return FiniteMetricSpace(coords=coords, name=f"null-seq({k_max})")


def doubling_grid(denominator: int = 64, horizon_cap: int = 8) -> DynamicalSystem:
    """x -> 2x mod 1 on the grid {k/denominator}, which is closed under the map."""
    if denominator < 2:
        raise ParameterError("denominator must be >= 2")
    coords = [Fraction(k, denominator) for k in range(denominator)]
    space = FiniteMetricSpace(coords=coords, name=f"doubling({denominator})")
    step = np.array([(2 * k) % denominator for k in range(denominator)])
    return DynamicalSystem(space, step, horizon_cap, name=space.name)


def random_space(points: int, seed: int) -> FiniteMetricSpace:
    """Random points of [0, 1] under |x - y| (deterministic per seed)."""
    from ..draws import default_rng
    rng = default_rng(seed)
    draws = sorted(rng.integers(0, 10**9, size=points).tolist())
    coords = [Fraction(int(v), 10**9) for v in draws]
    return FiniteMetricSpace(coords=coords, name=f"random({points},{seed})")
