"""Exact Levy-Prokhorov distance between atomic measures.

The distance is the least eps such that, for every subset E, each side's
mass of E is dominated by the other side's mass of the closed
eps-neighbourhood of E plus eps.  For one fixed E the feasible eps form a
closed ray, whose endpoint is computable by walking the finite critical
scales (the pairwise distances); the distance is the max of those
endpoints over the subsets of each support.  Enlarging E beyond the
measure's own support only grows the neighbourhood, so restricting E to
the supports is lossless.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..metric_core.space import FiniteMetricSpace, distinct
from .atomic import AtomicMeasure

EXACT_SUPPORT_LIMIT = 15


def levy_prokhorov(space: FiniteMetricSpace, mu: AtomicMeasure,
                   nu: AtomicMeasure) -> float:
    """Exact LP distance over the given (possibly dynamical) metric space."""
    pts = sorted(set(mu.atoms) | set(nu.atoms))
    if len(pts) > EXACT_SUPPORT_LIMIT:
        raise ParameterError(
            f"combined support {len(pts)} exceeds the exact limit "
            f"{EXACT_SUPPORT_LIMIT}; use w1_upper_report instead")
    dm = space.distances(pts, pts)
    mu_w = np.array([float(mu.weight_of(p)) for p in pts])
    nu_w = np.array([float(nu.weight_of(p)) for p in pts])
    crit = distinct(np.concatenate([dm.reshape(-1), [0.0, 1.0]]))
    side1 = _one_side(dm, crit, inner=nu_w, outer=mu_w,
                      support=[i for i, p in enumerate(pts) if p in set(nu.atoms)])
    side2 = _one_side(dm, crit, inner=mu_w, outer=nu_w,
                      support=[i for i, p in enumerate(pts) if p in set(mu.atoms)])
    return max(side1, side2)


def _one_side(dm: np.ndarray, crit: np.ndarray, inner: np.ndarray,
              outer: np.ndarray, support: list[int]) -> float:
    """max over E of the least eps with inner(E) <= outer(V_eps(E)) + eps."""
    s = len(support)
    count = 1 << s
    sel = (np.arange(count)[:, None] >> np.arange(s)[None, :]) & 1  # (2^s, s)
    sel = sel.astype(bool)
    inner_mass = sel @ inner[support]
    best = np.full(count, np.inf)
    for idx, r in enumerate(crit):
        nb = dm[support, :] <= r            # closed neighbourhoods at scale r
        touched = sel.astype(np.int16) @ nb.astype(np.int16)
        outer_mass = (touched > 0) @ outer
        cand = np.maximum(r, inner_mass - outer_mass)
        nxt = crit[idx + 1] if idx + 1 < crit.size else np.inf
        feasible = cand < nxt
        best = np.where(feasible, np.minimum(best, cand), best)
    return float(best.max(initial=0.0))


def lp_condition_holds(space: FiniteMetricSpace, mu: AtomicMeasure,
                       nu: AtomicMeasure, eps: float) -> bool:
    """Brute check of the two-sided neighbourhood condition at one scale.

    Independent of the critical-walk solver; used as its certificate
    oracle: the condition must hold at the computed distance and fail just
    below it.
    """
    pts = sorted(set(mu.atoms) | set(nu.atoms))
    dm = space.distances(pts, pts)
    mu_w = [float(mu.weight_of(p)) for p in pts]
    nu_w = [float(nu.weight_of(p)) for p in pts]
    n = len(pts)
    for mask in range(1, 1 << n):
        e = [i for i in range(n) if mask >> i & 1]
        v = set()
        for i in e:
            v.update(j for j in range(n) if dm[i, j] <= eps)
        mu_e = sum(mu_w[i] for i in e)
        nu_e = sum(nu_w[i] for i in e)
        mu_v = sum(mu_w[i] for i in v)
        nu_v = sum(nu_w[i] for i in v)
        if nu_e > mu_v + eps + 1e-12 or mu_e > nu_v + eps + 1e-12:
            return False
    return True


def w1_upper_report(space: FiniteMetricSpace, mu: AtomicMeasure,
                    nu: AtomicMeasure) -> dict:
    """Documented upper bound via W_1 for supports too large for exact mode.

    On spaces of diameter <= 1 the square of the LP distance is dominated
    by W_1, so sqrt(W_1) is reported as an upper bound; never asserted.
    """
    from .wasserstein import wasserstein

    value, _ = wasserstein(space, mu, nu, p=1.0)
    report = {"w1": value, "asserted": False}
    if space.diameter <= 1.0 + 1e-12:
        report["lp_upper"] = float(np.sqrt(value))
    else:
        report["note"] = "diameter exceeds 1; no certified LP bound"
    return report
