"""Quantization numbers and orders of atomic measures.

Two metric kinds, matching the two reformulations of "the smallest support
size within eps of the measure":

* ``lp``: the least number of closed eps-balls (in the chosen dynamical
  metric) covering a subset of mass at least 1 - eps -- a partial set
  cover over candidate centres;
* ``wasserstein``: the minimal cardinality of a site set F with
  integral of d(x, F)^p dmu <= eps^p -- a p-median style search solved by
  growing k and certifying each level by enumeration when small.

Candidate sites default to the whole finite space; restricting them makes
the computed number an upper bound on the true one.  Every number is a
``CountBracket`` whose quantity is the kind and whose witness is the chosen
site set; its mode is ``exact`` only when the bracket closes.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np

from ..errors import BudgetExceededError, ParameterError
from ..metric_core import solvers
from ..metric_core.counts import CountBracket, graph_bracket
from ..metric_core.space import FiniteMetricSpace
from ..metric_core.solvers import DEFAULT_BUDGET, _Budget
from ..estimators.slopes import SlopeEstimate, fit
from ..estimators.quantities import abs_log, log_plus
from .atomic import AtomicMeasure

EXHAUSTIVE_SITES = 20
EXHAUSTIVE_K = 3

LP_KIND = "lp"
W_KIND = "wasserstein"


def quantization_number(space: FiniteMetricSpace, mu: AtomicMeasure, eps,
                        kind: str = LP_KIND, p: float = 1.0,
                        sites: list[int] | None = None,
                        budget: int = DEFAULT_BUDGET,
                        horizon: int = 1) -> CountBracket:
    """Bracket on the smallest admissible support size at scale eps over the site set."""
    if float(eps) <= 0:
        raise ParameterError("scale must be positive")
    sites = list(range(space.size)) if sites is None else sorted(set(sites))
    if not set(mu.atoms) <= set(sites):
        raise ParameterError("candidate sites must contain the support")
    if kind == LP_KIND:
        return _lp_number(space, mu, eps, sites, budget, horizon)
    if kind == W_KIND:
        if not p >= 1:
            raise ParameterError("order p must be >= 1")
        return _w_number(space, mu, eps, p, sites, budget, horizon)
    raise ParameterError(f"unknown quantization kind {kind!r}")


def partial_cover_bracket(balls: np.ndarray, weights, target, budget: int = DEFAULT_BUDGET,
                          horizon: int = 1) -> CountBracket:
    """Least number of rows of ``balls`` whose union carries mass >= target.

    The budgeted exact search, else the bracket [1, greedy cover]; the scale
    is 1 - target, the eps whose LP number this is.
    """
    def exact(graph, budget):
        return solvers.exact_min_partial_cover(graph, weights, target, budget)

    def fallback(graph):
        greedy = solvers.greedy_partial_cover(graph, weights, target)
        # the greedy stops 1e-15 short of the target, so a tiny target picks no row
        return 1, max(1, len(greedy)), greedy

    return graph_bracket(LP_KIND, 1 - target, horizon, balls, exact, "partial-cover-bnb",
                         budget, fallback)


def _lp_number(space, mu, eps, sites, budget, horizon) -> CountBracket:
    target = 1 - (eps if isinstance(eps, Fraction) else Fraction(float(eps)))
    if target <= 0:
        return CountBracket(LP_KIND, float(eps), horizon, 1, 1, "exact", "vacuous-target",
                            (int(mu.atoms[0]),))
    balls = space.as_matrix()[np.ix_(sites, list(mu.atoms))] <= float(eps)  # closed balls
    found = partial_cover_bracket(balls, list(mu.weights), target, budget, horizon)
    return replace(found, witness=tuple(sites[i] for i in found.witness))


def _w_number(space, mu, eps, p, sites, budget, horizon) -> CountBracket:
    dist = space.as_matrix()[np.ix_(sites, list(mu.atoms))] ** p
    w = np.array([float(x) for x in mu.weights])
    bound = float(eps) ** p + 1e-15
    spent = _Budget(budget)

    def cost(site_idx) -> float:
        spent.spend()  # one node per site set evaluated
        return float((dist[list(site_idx)].min(axis=0) * w).sum())

    def bracket(lower, witness, method):
        return CountBracket(W_KIND, float(eps), horizon, lower, len(witness),
                            "exact" if lower == len(witness) else "heuristic", method,
                            tuple(witness))

    # k grows until a site set is feasible, and each level the enumeration
    # finds infeasible raises the lower bound; the support itself is always
    # feasible (cost 0), so it is the upper bound once the budget runs out
    lower = 1
    try:
        for k in range(1, len(mu.atoms) + 1):
            if len(sites) <= EXHAUSTIVE_SITES or k <= EXHAUSTIVE_K:
                # ties go to the first site set in enumeration order
                best_cost, best = min((cost(c), c) for c in combinations(range(len(sites)), k))
                if best_cost <= bound:
                    return bracket(lower, [sites[i] for i in best], "k-enumeration")
                lower = k + 1
            else:
                found = _local_search(cost, len(sites), k, bound, seed=k)
                if found is not None:
                    return bracket(lower, [sites[i] for i in found], "local-search")
    except BudgetExceededError:
        pass
    return bracket(lower, mu.atoms, "support")


def _local_search(cost, n_sites, k, bound, seed, restarts: int = 4, iters: int = 60):
    """Seeded swap descent; deterministic, returns a feasible site set or None."""
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        current = list(rng.choice(n_sites, size=k, replace=False))
        cur_cost = cost(current)
        for _ in range(iters):
            improved = False
            for pos in range(k):
                for cand in range(n_sites):
                    if cand in current:
                        continue
                    trial = current[:pos] + [cand] + current[pos + 1:]
                    c = cost(trial)
                    if c < cur_cost - 1e-15:
                        current, cur_cost, improved = trial, c, True
            if cur_cost <= bound or not improved:
                break
        if cur_cost <= bound:
            return tuple(sorted(current))
    return None


# -- orders --------------------------------------------------------------------


def quantization_order(reports: list[CountBracket]) -> SlopeEstimate:
    """Regression of log log Q against |log eps| (log 0 = 0 at Q = 1), Q the upper bound."""
    if len(reports) < 2:
        raise ParameterError("need >= 2 scales")
    ys = [math.log(math.log(r.upper)) if r.upper > 1 else 0.0 for r in reports]
    clamped = sum(1 for r in reports if r.upper == 1)
    note = f"{clamped} unit counts contribute 0 (log 0 = 0)" if clamped else ""
    return fit([abs_log(r.scale) for r in reports], ys, window=len(ys),
               flagged=any(r.mode != "exact" for r in reports), note=note)


def dynamical_quantization_rate(per_horizon: list[CountBracket],
                                tail: int = 4) -> SlopeEstimate:
    """Per-scale growth rate of log Q over the horizon, Q the upper bound."""
    if len(per_horizon) < 2:
        raise ParameterError("need >= 2 horizons")
    return fit([r.horizon for r in per_horizon], [math.log(r.upper) for r in per_horizon],
               window=tail, flagged=any(r.mode != "exact" for r in per_horizon))


def dynamical_quantization_order(rates: list[tuple[float, SlopeEstimate]]) -> SlopeEstimate:
    """Regression of log+ of the per-scale rates against |log eps|."""
    if len(rates) < 2:
        raise ParameterError("need >= 2 scales")
    ys = [log_plus(max(est.value, 0.0)) for _, est in rates]
    note = "" if any(ys) else "all rates clamp to 0 under log+"
    return fit([abs_log(eps) for eps, _ in rates], ys, window=len(ys),
               flagged=any(est.flagged for _, est in rates), note=note)
