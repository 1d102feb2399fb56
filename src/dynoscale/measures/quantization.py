"""Quantization numbers and orders of atomic measures.

Two metric kinds, matching the two reformulations of "the smallest support
size within eps of the measure":

* ``lp``: the least number of closed eps-balls (in the chosen dynamical
  metric) covering a subset of mass at least 1 - eps -- a partial set
  cover over candidate centres;
* ``wasserstein``: the minimal cardinality of a site set F with
  integral of d(x, F)^p dmu <= eps^p -- a p-median problem.  Each site
  serves one group of atoms, so a dynamic program over the subsets of the
  support (Bjorklund, Husfeldt & Koivisto 2009) answers it exactly when its
  work fits the budget; otherwise k grows and each level is certified by
  enumeration when small.

Candidate sites default to the whole finite space; restricting them makes
the computed number an upper bound on the true one.  Every number is a
``CountBracket`` whose quantity is the kind and whose witness is the chosen
site set; its mode is ``exact`` only when the bracket closes.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from fractions import Fraction
from itertools import combinations

import numpy as np

from ..draws import default_rng
from ..errors import BudgetExceededError, ParameterError
from ..metric_core import solvers
from ..metric_core.counts import CountBracket, graph_bracket
from ..metric_core.space import pack_rows
from ..metric_core.solvers import DEFAULT_BUDGET, _Budget
from ..estimators.slopes import SlopeEstimate, fit
from ..estimators.quantities import abs_log, log_plus
from .atomic import AtomicMeasure

EXHAUSTIVE_SITES = 20
EXHAUSTIVE_K = 3
# a site set is feasible when its cost, in units of eps^p, is at most 1 + W_SLACK
W_SLACK = 1e-12
# the group DP holds (3^m - 1) / 2 splits of m atoms, about 0.1 GB at 14 atoms,
# whatever the budget
GROUP_DP_ATOMS = 14

LP_KIND = "lp"
W_KIND = "wasserstein"


def quantization_number(space, mu: AtomicMeasure, eps,
                        kind: str = LP_KIND, p: float = 1.0,
                        sites: list[int] | None = None,
                        budget: int = DEFAULT_BUDGET,
                        horizon: int = 1) -> CountBracket:
    """Bracket on the smallest admissible support size at scale eps over the site set.

    ``space`` is read only through ``size`` and ``distances(rows, cols)``,
    and only for the sites x atoms block: a ``FiniteMetricSpace``, or d_n
    as a ``systems.base.BowenGraphs`` view, which builds no d_n table.
    """
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
    is 1 - target, the eps whose LP number this is.  The greedy adds masses
    exactly, so its cover always reaches the target; a target no rows reach
    raises ValueError before any budget is spent.  ``balls`` is a boolean
    table, packed once for the solvers.
    """
    def exact(graph, budget):
        return solvers.exact_min_partial_cover(graph, weights, target, budget)

    def fallback(graph):
        greedy = solvers.greedy_partial_cover(graph, weights, target)
        return 1, len(greedy), greedy

    return graph_bracket(LP_KIND, 1 - target, horizon, pack_rows(balls), exact,
                         "partial-cover-bnb", budget, fallback)


def _lp_number(space, mu, eps, sites, budget, horizon) -> CountBracket:
    target = 1 - (eps if isinstance(eps, Fraction) else Fraction(float(eps)))
    if target <= 0:
        return CountBracket(LP_KIND, float(eps), horizon, 1, 1, "exact", "vacuous-target",
                            (int(mu.atoms[0]),))
    balls = space.distances(sites, mu.atoms) <= float(eps)  # closed balls
    found = partial_cover_bracket(balls, list(mu.weights), target, budget, horizon)
    return replace(found, witness=tuple(sites[i] for i in found.witness))


def _w_number(space, mu, eps, p, sites, budget, horizon) -> CountBracket:
    # in units of eps no power of a distance near eps under- or overflows
    with np.errstate(over="ignore"):
        dist = (space.distances(sites, mu.atoms) / float(eps)) ** p
    w = np.array([float(x) for x in mu.weights])
    bound = 1 + W_SLACK
    spent = _Budget(budget)

    def cost(site_idx) -> float:
        spent.spend()  # one node per site set evaluated
        return float((dist[list(site_idx)].min(axis=0) * w).sum())

    def bracket(lower, witness, method):
        return CountBracket(W_KIND, float(eps), horizon, lower, len(witness),
                            "exact" if lower == len(witness) else "heuristic", method,
                            tuple(witness))

    found = _group_dp(dist, w, bound, spent, cost)
    if found is not None:
        return bracket(len(found), [sites[i] for i in found], "group-dp")
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


def _group_dp(dist, w, bound, spent, cost):
    """The least feasible site set, by a dynamic program over atom groups, or None.

    price[T] is the cost of serving the atom set T from its best single
    site, and f_k[S] the least cost of serving S with at most k groups:
    f_k[S] = min(f_{k-1}[S], min price[T] + f_{k-1}[S - T] over the groups
    T in S holding the lowest atom of S).  The first k with f_k[full] <=
    bound is the answer, because any k sites split the atoms into at most k
    groups by nearest site.  The program runs only on at most GROUP_DP_ATOMS
    atoms and when its worst case fits the budget left (2^m |sites| prices,
    then every split of every set per level, then one node to re-check the
    witness), so it never stops part way; it spends nothing when it
    declines.  A witness whose cost() misses the bound on a float near-tie
    is dropped too.
    """
    n_sites, m = dist.shape
    n_splits = (3 ** m - 1) // 2
    if m > GROUP_DP_ATOMS or (1 << m) * n_sites + (m - 1) * n_splits + 1 > spent.left:
        return None
    spent.spend((1 << m) * n_sites)
    totals = np.zeros((1 << m, n_sites))
    for a, row in enumerate(dist.T * w[:, None]):  # the sets whose top atom is a
        totals[1 << a: 2 << a] = totals[:1 << a] + row
    price, best_site = totals.min(axis=1), totals.argmin(axis=1)
    group, rest, edges = _splits(m)
    full = (1 << m) - 1
    levels = [price]  # levels[k - 1] is f_k, and f_1 = price
    while levels[-1][full] > bound:  # f_m[full] is 0: each atom is a site
        spent.spend(n_splits)
        prev = levels[-1]
        f = prev.copy()
        split_cost = price[group]
        split_cost += prev[rest]
        f[1:] = np.minimum(prev[1:], np.minimum.reduceat(split_cost, edges[:-1]))
        levels.append(f)
    chosen, s = [], full
    for k in range(len(levels) - 1, 0, -1):
        f, prev = levels[k], levels[k - 1]
        if s and f[s] != prev[s]:  # s needs k + 1 groups: take the one at the first best split
            lo, hi = edges[s - 1], edges[s]
            i = lo + int(np.argmin(price[group[lo:hi]] + prev[rest[lo:hi]]))
            chosen.append(best_site[group[i]])
            s = int(rest[i])
    if s:
        chosen.append(best_site[s])
    witness = tuple(sorted({int(c) for c in chosen}))
    if len(witness) == len(levels) and cost(witness) <= bound:
        return witness
    return None


@lru_cache(maxsize=None)
def _splits(m):
    """Every split of a nonempty set S of m atoms into a group T holding its lowest
    atom and the rest S - T, as bitmask arrays (group, rest) sorted by S; the
    splits of S are rows edges[S - 1] to edges[S].
    """
    groups, rests = [], []
    for low in range(m):  # each atom above low is in T, in S - T or outside S
        group, rest = np.array([1 << low], np.int32), np.array([0], np.int32)
        for a in range(low + 1, m):
            group = np.concatenate([group, group | (1 << a), group])
            rest = np.concatenate([rest, rest, rest | (1 << a)])
        groups.append(group)
        rests.append(rest)
    group, rest = np.concatenate(groups), np.concatenate(rests)
    order = np.argsort(group | rest, kind="stable")
    group, rest = group[order], rest[order]
    edges = np.searchsorted(group | rest, np.arange(1, (1 << m) + 1))
    return group, rest, edges


def _local_search(cost, n_sites, k, bound, seed, restarts: int = 4, iters: int = 60):
    """Seeded swap descent; deterministic, returns a feasible site set or None."""
    rng = default_rng(seed)
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
