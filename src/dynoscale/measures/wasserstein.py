"""Exact optimal-transport distances between atomic measures.

The general solver is an exact linear program on the coupling polytope
(HiGHS); singleton marginals short-circuit to the integral formula, and a
vectorised closed form handles batches of (<= 2)-atom pairs, where the
coupling has one free parameter and the optimum sits at an endpoint.
"""

from __future__ import annotations

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
    if p < 1:
        raise ParameterError("order p must be >= 1")
    cost = _cost_matrix(space, mu.atoms, nu.atoms, p)
    a = np.array([float(w) for w in mu.weights])
    b = np.array([float(w) for w in nu.weights])
    if len(mu.atoms) == 1:
        plan = b[None, :].copy()
    elif len(nu.atoms) == 1:
        plan = a[:, None].copy()
    else:
        plan = _solve_lp(cost, a, b)
    value = float((cost * plan).sum()) ** (1.0 / p)
    return value, CouplingPlan(mu.atoms, nu.atoms, plan)


def _cost_matrix(space: FiniteMetricSpace, rows, cols, p: float) -> np.ndarray:
    m = space.as_matrix()
    sub = m[np.ix_(list(rows), list(cols))]
    return sub if p == 1.0 else sub**p


def _solve_lp(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    from scipy.optimize import linprog

    m, n = cost.shape
    a_eq = []
    b_eq = []
    for i in range(m):
        row = np.zeros(m * n)
        row[i * n:(i + 1) * n] = 1.0
        a_eq.append(row)
        b_eq.append(a[i])
    for j in range(n - 1):  # last column constraint is redundant
        col = np.zeros(m * n)
        col[j::n] = 1.0
        a_eq.append(col)
        b_eq.append(b[j])
    res = linprog(cost.reshape(-1), A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise ParameterError(f"transport LP failed: {res.message}")
    return res.x.reshape(m, n)


def w1_pairs_two_atom(cost_blocks: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Vectorised W_1 for batches of measures with at most two atoms each.

    cost_blocks: (k, 2, 2) ground costs (pad phantom atoms arbitrarily),
    wa, wb: (k,) first-atom weights of each side (second atom carries the
    rest).  With marginals fixed the coupling is pi11 = t on
    [max(0, wa+wb-1), min(wa, wb)] and the cost is affine in t.
    """
    c11 = cost_blocks[:, 0, 0]
    c12 = cost_blocks[:, 0, 1]
    c21 = cost_blocks[:, 1, 0]
    c22 = cost_blocks[:, 1, 1]
    t_lo = np.maximum(0.0, wa + wb - 1.0)
    t_hi = np.minimum(wa, wb)

    def cost_at(t):
        return c11 * t + c12 * (wa - t) + c21 * (wb - t) + c22 * (1 - wa - wb + t)

    return np.minimum(cost_at(t_lo), cost_at(t_hi))
