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
# subsets the coupling oracle tests for spanning trees at once
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


def _reach(ends: np.ndarray, start: np.ndarray, skip: int = -1) -> np.ndarray:
    """For each edge set, a row of ``ends`` holding one node mask per edge,
    the mask of the nodes its edges join to those in ``start``, edge
    ``skip`` left out."""
    reach = start
    while True:
        grown = reach.copy()
        for e in range(ends.shape[1]):
            if e != skip:
                grown |= ends[:, e] * (ends[:, e] & grown != 0)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


@functools.lru_cache(maxsize=None)
def _bases(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every basis of the m x n transportation problem, built once per shape.

    A basis is a set of m+n-1 cells (flat, row-major) that connects all
    m+n nodes of K_{m,n}, row i as node i and column j as node m+j: the
    spanning trees, in ``itertools.combinations`` order.  Returns the cells
    of each tree and, per tree edge, the uint8 mask of the nodes left on
    the edge's row side when it is removed.  The flow a tree solution puts
    on an edge is the net supply of that side.  Subsets are tested by
    reachability in blocks of ``BASIS_BLOCK``, so no temporary outgrows
    one block.
    """
    size, full = m + n - 1, (1 << (m + n)) - 1
    subsets = itertools.combinations(range(m * n), size)
    kept_cells, kept_cuts = [], []
    while block := list(itertools.islice(subsets, BASIS_BLOCK)):
        cells = np.array(block, dtype=np.intp)
        row_ends = (1 << (cells // n)).astype(np.uint8)
        ends = row_ends | (1 << (m + cells % n)).astype(np.uint8)
        trees = _reach(ends, np.ones(len(cells), dtype=np.uint8)) == full
        row_ends, ends = row_ends[trees], ends[trees]
        kept_cells.append(cells[trees].astype(np.uint8))  # m * n <= 16 cells
        kept_cuts.append(np.stack([_reach(ends, row_ends[:, e], e) for e in range(size)],
                                  axis=1))
    cells = np.concatenate(kept_cells).astype(np.intp)
    cuts = np.concatenate(kept_cuts)
    cells.flags.writeable = cuts.flags.writeable = False  # shared by every call
    return cells, cuts


def brute_wasserstein(cost: np.ndarray, a: np.ndarray, b: np.ndarray,
                      p: float = 1.0) -> float:
    """Minimum transport cost over all basic feasible couplings.

    Every vertex of the transportation polytope is the unique flow on some
    spanning tree: an edge carries the mass of the rows on its row side
    less that of the columns there, read from one table of subset sums.
    Trees with a negative flow, or whose flows miss a marginal, are skipped;
    a tree costs the sum of flow times cost over its own cells.
    """
    if a.size > 4 or b.size > 4:
        raise ParameterError("coupling oracle limited to 4 atoms per side")
    if a.size == 0 or b.size == 0:
        raise ParameterError("coupling oracle needs an atom on each side")
    if cost.shape != (a.size, b.size):
        raise ParameterError("cost must be len(a) x len(b)")
    if not p >= 1:
        raise ParameterError("order p must be >= 1")
    if p == math.inf:
        raise ParameterError("order p must be finite")
    m, n = cost.shape
    cells, cuts = _bases(m, n)
    # entry rows | cols << m: the mass of those rows less that of those columns
    sums = (_subset_sums(a)[None, :] - _subset_sums(b)[:, None]).ravel()
    flows = sums[cuts]
    basic = (flows >= -1e-12).all(axis=1)
    cells, flows = cells[basic], flows[basic]
    np.maximum(flows, 0.0, out=flows)
    feasible = _meets(cells // n, flows, a) & _meets(cells % n, flows, b)
    if not feasible.any():
        raise ParameterError("no coupling: marginals need equal mass, no negatives")
    with np.errstate(over="ignore"):
        cp = cost if p == 1.0 else cost**p
    if not np.isfinite(cp).all():
        raise ParameterError(f"cost**p overflows a float at p = {p}")
    if (cp[cost > 0] < np.finfo(float).tiny).any():
        raise ParameterError(f"cost**p underflows a float at p = {p}")
    flows *= cp.ravel()[cells]
    return float(flows.sum(axis=1)[feasible].min()) ** (1.0 / p)


def _meets(ends: np.ndarray, flows: np.ndarray, marginal: np.ndarray) -> np.ndarray:
    """Whether each tree's flows, added up at their ``ends`` (the row or the
    column of each cell) in cell order, give ``marginal`` within 1e-9.
    ``ends`` is overwritten."""
    k = len(marginal)
    ends += np.arange(len(ends))[:, None] * k
    got = np.bincount(ends.ravel(), flows.ravel(), len(ends) * k).reshape(-1, k) - marginal
    return np.abs(got, out=got).max(axis=1) <= 1e-9


def _subset_sums(masses: np.ndarray) -> np.ndarray:
    """Float sum of ``masses`` over every subset, added in index order; bit
    k of the table index picks ``masses[k]``."""
    sums = [0.0]
    for mass in masses:
        sums += [total + float(mass) for total in sums]
    return np.array(sums)
