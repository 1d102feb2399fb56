"""Exact optimal-transport distances between atomic measures.

The general solver is the exact transportation simplex on the coupling
polytope; singleton marginals short-circuit to the integral formula, and a
vectorised closed form handles batches of (<= 2)-atom pairs, where the
coupling has one free parameter and the optimum sits at an endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..metric_core.space import FiniteMetricSpace
from .atomic import AtomicMeasure


@dataclass(frozen=True)
class CouplingPlan:
    """Optimal coupling returned as a witness: rows mu-atoms, columns nu-atoms."""

    mu_atoms: tuple[int, ...]
    nu_atoms: tuple[int, ...]
    matrix: np.ndarray

    def check_marginals(self, mu: AtomicMeasure, nu: AtomicMeasure,
                        tol: float = 1e-9) -> bool:
        row = self.matrix.sum(axis=1)
        col = self.matrix.sum(axis=0)
        return (np.abs(row - np.array([float(w) for w in mu.weights])).max() < tol
                and np.abs(col - np.array([float(w) for w in nu.weights])).max() < tol
                and (self.matrix >= -tol).all())


def wasserstein(space: FiniteMetricSpace, mu: AtomicMeasure, nu: AtomicMeasure,
                p: float = 1.0) -> tuple[float, CouplingPlan]:
    """W_p distance over the given (possibly dynamical) metric space."""
    if not p >= 1:
        raise ParameterError("order p must be >= 1")
    if p == math.inf:
        raise ParameterError("order p must be finite")
    cost = space.distances(mu.atoms, nu.atoms)
    scale = 1.0
    if p != 1.0:  # powers of costs of at most 1 do not overflow, nor all underflow
        scale = float(cost.max()) or 1.0
        cost = (cost / scale) ** p
    a = np.array([float(w) for w in mu.weights])
    b = np.array([float(w) for w in nu.weights])
    if len(mu.atoms) == 1:
        plan = b[None, :].copy()
    elif len(nu.atoms) == 1:
        plan = a[:, None].copy()
    else:
        plan = _transport(cost, a, b)
    value = float((cost * plan).sum()) ** (1.0 / p) * scale
    return value, CouplingPlan(mu.atoms, nu.atoms, plan)


def _transport(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Optimal coupling by the transportation simplex (Dantzig 1951).

    The basis is a spanning tree of K_{m,n}: nodes 0..m-1 are rows, m..m+n-1
    columns.  Flows are (value, eps) pairs compared lexicographically, the
    eps part from Orden's perturbation: every supply gains eps and the last
    demand m * eps.  No basic flow of the perturbed problem is zero, so
    every pivot lowers the objective and no basis comes back.
    """
    m, n = cost.shape
    c = cost.tolist()
    # least-cost start: fill the cheapest open cell, close one line per cell
    row_left = [(w, 1) for w in a.tolist()]
    col_left = [(w, 0) for w in b.tolist()]
    col_left[-1] = (col_left[-1][0], m)
    rows_open, cols_open = set(range(m)), set(range(n))
    flow = {}
    for cell in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(cell, n)
        if i not in rows_open or j not in cols_open:
            continue
        t = min(row_left[i], col_left[j])
        flow[i, j] = t
        row_left[i] = (row_left[i][0] - t[0], row_left[i][1] - t[1])
        col_left[j] = (col_left[j][0] - t[0], col_left[j][1] - t[1])
        if len(rows_open) > 1 and (len(cols_open) == 1 or row_left[i] <= col_left[j]):
            rows_open.remove(i)
        else:
            cols_open.remove(j)
            if not cols_open:
                break
    tol = 1e-12 * float(np.abs(cost).max())
    while True:
        adjacent = [[] for _ in range(m + n)]
        for i, j in flow:
            adjacent[i].append(m + j)
            adjacent[m + j].append(i)
        # MODI potentials u_i + v_j = c_ij on the tree, rooted at row 0
        pot = [0.0] * (m + n)
        parent = [-1] * (m + n)
        depth = [0] * (m + n)
        order = [0]
        for x in order:
            for y in adjacent[x]:
                if y != parent[x]:
                    parent[y], depth[y] = x, depth[x] + 1
                    pot[y] = (c[x][y - m] if x < m else c[y][x - m]) - pot[x]
                    order.append(y)
        reduced = cost - np.array(pot[:m])[:, None] - np.array(pot[m:])
        enter = int(reduced.argmin())
        if reduced.flat[enter] >= -tol:
            break
        r, s = divmod(enter, n)
        # the tree path from row r to column s closes the cycle; its cells
        # alternately lose and gain flow, starting with a loss at row r
        left, right = [r], [m + s]
        while left[-1] != right[-1]:
            side = left if depth[left[-1]] >= depth[right[-1]] else right
            side.append(parent[side[-1]])
        path = left + right[-2::-1]
        cells = [(x, y - m) if x < m else (y, x - m) for x, y in zip(path, path[1:])]
        leave = min(cells[::2], key=flow.__getitem__)
        t = flow[leave]
        for k, cell in enumerate(cells):
            x, e = flow[cell]
            flow[cell] = (x - t[0], e - t[1]) if k % 2 == 0 else (x + t[0], e + t[1])
        del flow[leave]
        flow[r, s] = t
    plan = np.zeros((m, n))
    for (i, j), (x, _) in flow.items():
        plan[i, j] = x
    return plan


def w1_pairs_two_atom(c11, c12, c21, c22, wa, wb) -> np.ndarray:
    """Vectorised W_1 for batches of measures with at most two atoms each.

    cij: ground cost from atom i of the first side to atom j of the second
    (pad phantom atoms arbitrarily), wa, wb: first-atom weights of each side
    (second atom carries the rest); all broadcast together.  With marginals
    fixed the coupling is pi11 = t on [max(0, wa+wb-1), min(wa, wb)] and the
    cost is affine in t.
    """
    t_lo = np.maximum(0.0, wa + wb - 1.0)
    t_hi = np.minimum(wa, wb)

    def cost_at(t):
        return c11 * t + c12 * (wa - t) + c21 * (wb - t) + c22 * (1 - wa - wb + t)

    return np.minimum(cost_at(t_lo), cost_at(t_hi))
