"""The four counting quantities over a finite metric space.

Conventions (ties matter, so they are pinned here once):

* separated: pairwise distance strictly greater than the scale;
* spanning / ball cover: strictly less than the scale (open balls);
* diameter cover: set diameter strictly less than the scale.

Every operation returns a ``CountBracket``.  ``mode == "exact"`` certifies
``lower == upper``; heuristic brackets keep both bounds valid (greedy
witnesses on the lower side, greedy covers or clique covers on the upper
side) and never raise on budget exhaustion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from ..errors import BudgetExceededError, ParameterError
from .space import FiniteMetricSpace
from . import solvers
from .solvers import DEFAULT_BUDGET

SEPARATED = "separated"
SPANNING = "spanning"
BALL_COVER = "ball_cover"
DIAMETER_COVER = "diameter_cover"

# Slightly-off-one multiplier used to keep default grids away from the
# exact distances of rational systems (counts can jump at aligned scales).
IRRATIONAL_OFFSET = math.exp(-1.0 / 257.0)


@dataclass(frozen=True)
class CountBracket:
    """Lower/upper bracket on one counting quantity at a given cell."""

    quantity: str
    scale: float
    horizon: int
    lower: int
    upper: int
    mode: str  # "exact" | "heuristic"
    method: str = ""
    witness: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.lower > self.upper:
            raise ParameterError("bracket lower exceeds upper")
        if self.mode == "exact" and self.lower != self.upper:
            raise ParameterError("exact bracket must have lower == upper")
        if self.lower < 1:
            raise ParameterError("counts are positive")

    @property
    def value(self) -> int:
        if self.mode != "exact":
            raise ParameterError("value requested from a heuristic bracket")
        return self.lower


@dataclass(frozen=True)
class ScaleGrid:
    """Geometric grid eps_i = start * ratio**i, strictly decreasing."""

    start: float
    ratio: float
    count: int
    offset: bool = True

    def __post_init__(self):
        if not (self.start > 0 and 0 < self.ratio < 1 and self.count >= 1):
            raise ParameterError("need start > 0, ratio in (0,1), count >= 1")

    def scales(self) -> list[float]:
        s0 = self.start * (IRRATIONAL_OFFSET if self.offset else 1.0)
        return [s0 * self.ratio**i for i in range(self.count)]


# -- helpers ----------------------------------------------------------------


def _line_coords(space: FiniteMetricSpace):
    """Sorted (coords, original_index) view of a line space, else None."""
    if space.coords is None:
        return None
    order = sorted(range(space.size), key=lambda i: space.coords[i])
    return [space.coords[i] for i in order], order


def _as_cmp_scale(eps):
    """Scale for exact comparisons: float inputs become exact Fractions."""
    return eps if isinstance(eps, Fraction) else Fraction(float(eps))


# -- separated sets ---------------------------------------------------------


def max_separated(space: FiniteMetricSpace, eps, budget: int = DEFAULT_BUDGET,
                  horizon: int = 1) -> CountBracket:
    """Maximal cardinality of a strictly-eps-separated subset."""
    eps_f = float(eps)
    if eps_f >= space.diameter:
        return CountBracket(SEPARATED, eps_f, horizon, 1, 1, "exact",
                            method="diameter", witness=(0,))
    line = _line_coords(space)
    if line is not None:
        coords, order = line
        picked = solvers.line_max_separated(coords, _as_cmp_scale(eps))
        witness = tuple(order[i] for i in picked)
        return CountBracket(SEPARATED, eps_f, horizon, len(picked), len(picked),
                            "exact", method="line-sweep", witness=witness)
    conflict = space.close_mask(eps, strict=False)  # d <= eps violates separation
    np.fill_diagonal(conflict, False)
    try:
        picked = solvers.exact_max_independent_set(conflict, budget)
        return CountBracket(SEPARATED, eps_f, horizon, len(picked), len(picked),
                            "exact", method="mis-bnb", witness=tuple(picked))
    except BudgetExceededError:
        greedy = solvers.greedy_independent_set(conflict)
        upper = solvers.greedy_clique_cover(conflict)
        return CountBracket(SEPARATED, eps_f, horizon, len(greedy), upper,
                            "heuristic", method="greedy", witness=tuple(greedy))


# -- spanning sets / ball covers ---------------------------------------------


def _ball_masks(space: FiniteMetricSpace, eps) -> np.ndarray:
    return space.close_mask(eps, strict=True)  # row i: open ball around i


def min_spanning(space: FiniteMetricSpace, eps, budget: int = DEFAULT_BUDGET,
                 horizon: int = 1) -> CountBracket:
    """Minimum cardinality of a strictly-eps-spanning subset."""
    eps_f = float(eps)
    if eps_f > space.diameter:
        return CountBracket(SPANNING, eps_f, horizon, 1, 1, "exact",
                            method="diameter", witness=(0,))
    line = _line_coords(space)
    if line is not None:
        coords, order = line
        centers = solvers.line_min_ball_cover(coords, _as_cmp_scale(eps))
        witness = tuple(order[i] for i in centers)
        return CountBracket(SPANNING, eps_f, horizon, len(centers), len(centers),
                            "exact", method="line-sweep", witness=witness)
    masks = _ball_masks(space, eps)
    try:
        chosen = solvers.exact_min_set_cover(masks, budget)
        return CountBracket(SPANNING, eps_f, horizon, len(chosen), len(chosen),
                            "exact", method="cover-bnb", witness=tuple(chosen))
    except BudgetExceededError:
        greedy = solvers.greedy_set_cover(masks)
        lower = _spanning_lower(space, eps, greedy)
        return CountBracket(SPANNING, eps_f, horizon, lower, len(greedy),
                            "heuristic", method="greedy", witness=tuple(greedy))


def _spanning_lower(space: FiniteMetricSpace, eps, greedy: list[int]) -> int:
    # chain bound: any strictly-2eps-separated set lower-bounds the
    # diameter cover at 2eps, which lower-bounds the spanning count at eps
    conflict = space.close_mask(2 * _as_cmp_scale(eps), strict=False)
    np.fill_diagonal(conflict, False)
    sep = solvers.greedy_independent_set(conflict)
    return max(1, min(len(sep), len(greedy)))


def min_ball_cover(space: FiniteMetricSpace, eps, budget: int = DEFAULT_BUDGET,
                   horizon: int = 1) -> CountBracket:
    """Minimum number of open eps-balls covering the space.

    On a finite space every candidate centre is a point, so this coincides
    with the spanning count; the quantity tag differs for reporting.
    """
    return replace(min_spanning(space, eps, budget, horizon), quantity=BALL_COVER)


# -- diameter covers -----------------------------------------------------------


def min_diameter_cover(space: FiniteMetricSpace, eps, budget: int = DEFAULT_BUDGET,
                       horizon: int = 1) -> CountBracket:
    """Minimum number of diameter-<eps sets covering the space.

    A set has diameter < eps exactly when it is a clique of the d<eps
    graph, so the exact value is a minimum clique cover of that graph.
    Points pairwise >= eps apart lie in distinct sets (the lower bound);
    the greedy clique cover is the upper bound.  When the budget runs out
    these two bounds are the heuristic bracket.
    """
    eps_f = float(eps)
    if eps_f > space.diameter:
        return CountBracket(DIAMETER_COVER, eps_f, horizon, 1, 1, "exact",
                            method="diameter")
    line = _line_coords(space)
    if line is not None:
        count = solvers.line_min_diameter_cover(line[0], _as_cmp_scale(eps))
        return CountBracket(DIAMETER_COVER, eps_f, horizon, count, count,
                            "exact", method="line-sweep")
    near = space.close_mask(eps, strict=True)
    np.fill_diagonal(near, False)  # the clique-cover solver wants an irreflexive graph
    try:
        count = solvers.exact_min_clique_cover(near, budget)
        return CountBracket(DIAMETER_COVER, eps_f, horizon, count, count,
                            "exact", method="clique-cover-bnb")
    except BudgetExceededError:
        lower = len(solvers.greedy_independent_set(near))
        upper = solvers.greedy_clique_cover(near)
        return CountBracket(DIAMETER_COVER, eps_f, horizon, lower, upper,
                            "heuristic", method="greedy")


QUANTITY_OPS = {
    SEPARATED: max_separated,
    SPANNING: min_spanning,
    BALL_COVER: min_ball_cover,
    DIAMETER_COVER: min_diameter_cover,
}
