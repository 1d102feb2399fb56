"""Exhaustive reference solvers for small instances.

Everything here trades time for unconditional correctness: subset
enumeration, partition search, and basic-solution enumeration over
spanning trees.  The main solvers are trusted only where they match these
oracles on randomized small instances.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from .errors import ParameterError
from .metric_core.space import FiniteMetricSpace

ORACLE_POINT_LIMIT = 15


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


def coupling_vertices(a: np.ndarray, b: np.ndarray):
    """Basic feasible couplings: one per spanning tree of the bipartite graph.

    Every vertex of the transportation polytope is the unique flow on some
    spanning tree of K_{m,n}; infeasible (negative) tree flows are skipped.
    """
    m, n = a.size, b.size
    nodes = [("r", i) for i in range(m)] + [("c", j) for j in range(n)]
    edges = [(i, j) for i in range(m) for j in range(n)]
    for tree in _spanning_trees(m, n, edges):
        flow = _solve_tree_flow(a, b, tree, m, n)
        if flow is not None:
            yield flow


def _spanning_trees(m: int, n: int, edges):
    size = m + n - 1
    for combo in itertools.combinations(edges, size):
        parent = list(range(m + n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for i, j in combo:
            ri, rj = find(i), find(m + j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if ok:
            yield combo


def _solve_tree_flow(a, b, tree, m, n):
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for i, j in tree:
        adj.setdefault(i, []).append((m + j, (i, j)))
        adj.setdefault(m + j, []).append((i, (i, j)))
    need = np.concatenate([a, -b]).astype(float)
    flow: dict[tuple[int, int], float] = {}
    visited = set()

    def dfs(u: int, parent_edge) -> float:
        visited.add(u)
        total = need[u]
        for v, e in adj.get(u, []):
            if e == parent_edge or v in visited:
                continue
            total += dfs(v, e)
        if parent_edge is not None:
            # flow on parent_edge oriented row -> column
            i, j = parent_edge
            signed = total if u == m + j else -total
            flow[parent_edge] = flow.get(parent_edge, 0.0) + signed
        return total

    dfs(0, None)
    if len(visited) != m + n:
        return None
    plan = np.zeros((m, n))
    for (i, j), f in flow.items():
        val = -f
        if val < -1e-12:
            return None
        plan[i, j] = max(val, 0.0)
    if (np.abs(plan.sum(axis=1) - a).max() > 1e-9
            or np.abs(plan.sum(axis=0) - b).max() > 1e-9):
        return None
    return plan


def brute_wasserstein(cost: np.ndarray, a: np.ndarray, b: np.ndarray,
                      p: float = 1.0) -> float:
    """Minimum transport cost over all basic feasible couplings."""
    if a.size > 4 or b.size > 4:
        raise ParameterError("coupling oracle limited to 4 atoms per side")
    if cost.shape != (a.size, b.size):
        raise ParameterError("cost must be len(a) x len(b)")
    if not p >= 1:
        raise ParameterError("order p must be >= 1")
    best = np.inf
    cp = cost if p == 1.0 else cost**p
    found = False
    for plan in coupling_vertices(a, b):
        found = True
        best = min(best, float((cp * plan).sum()))
    if not found:
        raise ParameterError("no coupling: marginals need equal mass, no negatives")
    return best ** (1.0 / p)
