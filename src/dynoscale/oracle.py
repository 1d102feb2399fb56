"""Exhaustive reference solvers for small instances.

Everything here trades time for unconditional correctness: subset
enumeration, partition search, and basic-solution enumeration over
spanning trees.  The main solvers are trusted only where they match these
oracles on randomized small instances.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .errors import ParameterError
from .metric_core.space import FiniteMetricSpace

ORACLE_POINT_LIMIT = 15
# subsets whose incidence matrices the coupling oracle tests or inverts at once
BASIS_BLOCK = 1024


def brute_max_separated(space: FiniteMetricSpace, eps) -> int:
    """Largest strictly-eps-separated subset by full subset enumeration."""
    n = space.size
    if n > ORACLE_POINT_LIMIT:
        raise ParameterError(f"oracle limited to {ORACLE_POINT_LIMIT} points")
    eps = float(eps)
    best = 1
    order = list(range(n))

    def extend(chosen: list[int], rest: list[int]) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for pos, cand in enumerate(rest):
            if len(chosen) + len(rest) - pos <= best:
                return
            if all(space.dist(cand, c) > eps for c in chosen):
                extend(chosen + [cand], rest[pos + 1:])

    extend([], order)
    return best


def brute_min_spanning(space: FiniteMetricSpace, eps,
                       limit: int = ORACLE_POINT_LIMIT) -> int:
    """Smallest strictly-eps-spanning subset by increasing-size enumeration."""
    n = space.size
    if n > limit:
        raise ParameterError(f"oracle limited to {limit} points")
    eps = float(eps)
    # bit x of balls[c] is set when x lies in the open ball around c
    balls = [sum(1 << x for x in range(n) if space.dist(x, c) < eps) for c in range(n)]
    everything = (1 << n) - 1
    for k in range(1, n + 1):
        for centers in itertools.combinations(balls, k):
            if functools.reduce(operator.or_, centers) == everything:
                return k
    raise ParameterError("no subset spans: eps must exceed every self-distance")


def brute_min_diameter_cover(space: FiniteMetricSpace, eps) -> int:
    """Minimum number of diameter-<eps parts in a full partition search."""
    n = space.size
    if n > 12:
        raise ParameterError("partition oracle limited to 12 points")
    eps = float(eps)
    best = [n]

    def place(i: int, parts: list[list[int]]) -> None:
        if len(parts) >= best[0]:
            return
        if i == n:
            best[0] = len(parts)
            return
        for part in parts:
            if all(space.dist(i, j) < eps for j in part):
                part.append(i)
                place(i + 1, parts)
                part.pop()
        parts.append([i])
        place(i + 1, parts)
        parts.pop()

    place(0, [])
    return best[0]


def brute_partial_cover(masks: np.ndarray, weights, target) -> int:
    """Fewest sets reaching the target mass, by increasing-size enumeration."""
    m = masks.shape[0]
    if m > ORACLE_POINT_LIMIT:
        raise ParameterError("partial-cover oracle limited to 15 sets")
    if masks.shape[1] != len(weights):
        raise ParameterError("each mask needs one entry per weight")
    if target <= 0:
        return 0
    for k in range(1, m + 1):
        for combo in itertools.combinations(range(m), k):
            mask = np.zeros(masks.shape[1], dtype=bool)
            for s in combo:
                mask |= masks[s]
            if sum(w for w, hit in zip(weights, mask) if hit) >= target:
                return k
    raise ParameterError("all sets together fall short of the target mass")


def brute_k_median_cost(dist_pow: np.ndarray, weights: np.ndarray, k: int) -> float:
    """Best integral of site distances over all k-subsets of rows."""
    n_sites = dist_pow.shape[0]
    best = np.inf
    for combo in itertools.combinations(range(n_sites), k):
        cost = float((dist_pow[list(combo)].min(axis=0) * weights).sum())
        best = min(best, cost)
    return best


# -- transport ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _bases(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every basis of the m x n transportation problem, built once per shape.

    A basis is a set of m+n-1 cells (flat, row-major) whose incidence
    matrix, one row per marginal with the last column's row dropped, is
    nonsingular; these sets are exactly the spanning trees of K_{m,n}.
    Returns the cells of each basis and the inverse of its matrix, integral
    because the matrix is totally unimodular.  Both passes, the determinant
    test of every subset and the inverse of every basis, run over blocks of
    ``BASIS_BLOCK`` subsets, so no temporary outgrows one block.
    """
    size = m + n - 1

    def incidence(cells: np.ndarray) -> np.ndarray:
        matrix = np.zeros((len(cells), m + n, size))
        subset, slot = np.arange(len(cells))[:, None], np.arange(size)
        matrix[subset, cells // n, slot] = 1.0
        matrix[subset, m + cells % n, slot] = 1.0
        return matrix[:, :size]

    subsets = itertools.combinations(range(m * n), size)
    kept = []
    while block := list(itertools.islice(subsets, BASIS_BLOCK)):
        cells = np.array(block, dtype=np.intp)
        kept.append(cells[np.abs(np.linalg.det(incidence(cells))) > 0.5])
    cells = np.concatenate(kept)
    inverses = np.empty((len(cells), size, size))
    for a in range(0, len(cells), BASIS_BLOCK):
        part = slice(a, a + BASIS_BLOCK)
        inverses[part] = np.rint(np.linalg.inv(incidence(cells[part])))
    cells.flags.writeable = inverses.flags.writeable = False  # shared by every call
    return cells, inverses


def brute_wasserstein(cost: np.ndarray, a: np.ndarray, b: np.ndarray,
                      p: float = 1.0) -> float:
    """Minimum transport cost over all basic feasible couplings.

    Every vertex of the transportation polytope is the unique flow on some
    basis; flows that are negative or miss a marginal are skipped.
    """
    if a.size > 4 or b.size > 4:
        raise ParameterError("coupling oracle limited to 4 atoms per side")
    if cost.shape != (a.size, b.size):
        raise ParameterError("cost must be len(a) x len(b)")
    if not p >= 1:
        raise ParameterError("order p must be >= 1")
    if p == math.inf:
        raise ParameterError("order p must be finite")
    m, n = cost.shape
    cells, inverses = _bases(m, n)
    flows = inverses @ np.concatenate([a, b]).astype(float)[:m + n - 1]
    basic = (flows >= -1e-12).all(axis=1)
    plans = np.zeros((np.count_nonzero(basic), m * n))
    np.put_along_axis(plans, cells[basic], np.maximum(flows[basic], 0.0), axis=1)
    grid = plans.reshape(-1, m, n)
    feasible = ((np.abs(grid.sum(axis=2) - a).max(axis=1) <= 1e-9)
                & (np.abs(grid.sum(axis=1) - b).max(axis=1) <= 1e-9))
    if not feasible.any():
        raise ParameterError("no coupling: marginals need equal mass, no negatives")
    with np.errstate(over="ignore"):
        cp = cost if p == 1.0 else cost**p
    if not np.isfinite(cp).all():
        raise ParameterError(f"cost**p overflows a float at p = {p}")
    if (cp[cost > 0] < np.finfo(float).tiny).any():
        raise ParameterError(f"cost**p underflows a float at p = {p}")
    return float((cp.ravel() * plans[feasible]).sum(axis=1).min()) ** (1.0 / p)
