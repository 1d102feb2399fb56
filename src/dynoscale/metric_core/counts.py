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
        # near the float floor a rounded product can repeat or reach 0
        previous = math.inf
        for i in range(self.count):
            eps = self._scale(i)
            if not 0 < eps < previous:
                raise ParameterError(f"scale {i} is {eps!r}, not between 0 and "
                                     f"{previous!r}: the grid must strictly decrease")
            previous = eps

    def _scale(self, i: int) -> float:
        return self.start * (IRRATIONAL_OFFSET if self.offset else 1.0) * self.ratio**i

    def scales(self) -> list[float]:
        return [self._scale(i) for i in range(self.count)]


# -- the bracket pipeline ------------------------------------------------------
#
# Every graph count runs the same four stages, and the first that answers
# returns: (1) one set answers past the diameter; (2) coordinate spaces take
# the exact line sweep; (3) the budgeted exact solver runs on the threshold
# graph; (4) when its budget runs out, a heuristic fallback brackets the
# count.  Solvers are passed in as looked up on ``solvers`` at call time, so
# wrappers bound there see every call.  Diameter covers name no sets: their
# solvers return the count alone and their brackets carry no witness.  The
# LP quantization number enters at stage 3 with the partial-cover search.


def _as_cmp_scale(eps):
    """Scale for exact comparisons: float inputs become exact Fractions."""
    return eps if isinstance(eps, Fraction) else Fraction(float(eps))


def _loopless(space: FiniteMetricSpace, eps, strict: bool) -> np.ndarray:
    """Threshold graph d < eps (strict) or d <= eps, without self-loops."""
    graph = space.close_mask(eps, strict=strict)
    np.fill_diagonal(graph, False)
    return graph


def _exact(quantity: str, eps, horizon: int, found, method: str,
           order: list[int] | None = None) -> CountBracket:
    """Exact bracket from a solver's set, indexed through ``order`` if given."""
    if quantity == DIAMETER_COVER:
        return CountBracket(quantity, float(eps), horizon, found, found, "exact", method)
    witness = tuple(found) if order is None else tuple(order[i] for i in found)
    return CountBracket(quantity, float(eps), horizon, len(found), len(found), "exact",
                        method, witness)


def _closed_form(quantity: str, space: FiniteMetricSpace, eps, horizon: int,
                 line_solver) -> CountBracket | None:
    """Stages 1 and 2: the one-set answer, then the line sweep; else None."""
    eps_f, diameter = float(eps), space.diameter
    # no pair lies more than the diameter apart, while one open ball or one
    # diameter-<eps set takes the whole space only past the diameter
    if (eps_f >= diameter) if quantity == SEPARATED else (eps_f > diameter):
        return _exact(quantity, eps, horizon, 1 if quantity == DIAMETER_COVER else [0],
                      "diameter")
    if space.coords is None:
        return None
    order = sorted(range(space.size), key=lambda i: space.coords[i])
    found = line_solver([space.coords[i] for i in order], _as_cmp_scale(eps))
    return _exact(quantity, eps, horizon, found, "line-sweep", order)


def _independent_vs_clique_cover(graph: np.ndarray):
    """Greedy independent set (lower bound, witness) against greedy clique cover."""
    picked = solvers.greedy_independent_set(graph)
    return len(picked), solvers.greedy_clique_cover(graph), picked


def graph_bracket(quantity: str, eps, horizon: int, graph: np.ndarray, solver,
                  method: str, budget: int,
                  fallback=_independent_vs_clique_cover) -> CountBracket:
    """Stages 3 and 4: ``solver(graph, budget)`` exactly, else the heuristic
    bracket ``fallback(graph)`` returns as (lower, upper, witness)."""
    try:
        return _exact(quantity, eps, horizon, solver(graph, budget), method)
    except BudgetExceededError:
        lower, upper, picked = fallback(graph)
    witness = None if quantity == DIAMETER_COVER else tuple(picked)
    return CountBracket(quantity, float(eps), horizon, lower, upper, "heuristic",
                        "greedy", witness)


# -- the counts ----------------------------------------------------------------


def max_separated(space: FiniteMetricSpace, eps, budget: int = DEFAULT_BUDGET,
                  horizon: int = 1) -> CountBracket:
    """Maximal cardinality of a strictly-eps-separated subset."""
    return (_closed_form(SEPARATED, space, eps, horizon, solvers.line_max_separated)
            # d <= eps violates separation
            or graph_bracket(SEPARATED, eps, horizon, _loopless(space, eps, strict=False),
                             solvers.exact_max_independent_set, "mis-bnb", budget))


def min_spanning(space: FiniteMetricSpace, eps, budget: int = DEFAULT_BUDGET,
                 horizon: int = 1) -> CountBracket:
    """Minimum cardinality of a strictly-eps-spanning subset."""
    def fallback(balls):
        greedy = solvers.greedy_set_cover(balls)
        # chain bound: any strictly-2eps-separated set lower-bounds the
        # diameter cover at 2eps, which lower-bounds the spanning count at eps
        sep = solvers.greedy_independent_set(
            _loopless(space, 2 * _as_cmp_scale(eps), strict=False))
        return max(1, min(len(sep), len(greedy))), len(greedy), greedy

    return (_closed_form(SPANNING, space, eps, horizon, solvers.line_min_ball_cover)
            # row i: the open ball around i
            or graph_bracket(SPANNING, eps, horizon, space.close_mask(eps, strict=True),
                             solvers.exact_min_set_cover, "cover-bnb", budget, fallback))


def min_ball_cover(space: FiniteMetricSpace, eps, budget: int = DEFAULT_BUDGET,
                   horizon: int = 1) -> CountBracket:
    """Minimum number of open eps-balls covering the space.

    On a finite space every candidate centre is a point, so this coincides
    with the spanning count; the quantity tag differs for reporting.
    """
    return replace(min_spanning(space, eps, budget, horizon), quantity=BALL_COVER)


def min_diameter_cover(space: FiniteMetricSpace, eps, budget: int = DEFAULT_BUDGET,
                       horizon: int = 1) -> CountBracket:
    """Minimum number of diameter-<eps sets covering the space.

    A set has diameter < eps exactly when it is a clique of the d<eps
    graph, so the exact value is a minimum clique cover of that graph.
    Points pairwise >= eps apart lie in distinct sets (the lower bound);
    the greedy clique cover is the upper bound.  When the budget runs out
    these two bounds are the heuristic bracket.
    """
    return (_closed_form(DIAMETER_COVER, space, eps, horizon,
                         solvers.line_min_diameter_cover)
            or graph_bracket(DIAMETER_COVER, eps, horizon, _loopless(space, eps, strict=True),
                             solvers.exact_min_clique_cover, "clique-cover-bnb", budget))


QUANTITY_OPS = {
    SEPARATED: max_separated,
    SPANNING: min_spanning,
    BALL_COVER: min_ball_cover,
    DIAMETER_COVER: min_diameter_cover,
}
