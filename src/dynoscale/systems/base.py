"""Dynamical systems over finite nets, and their dynamical metrics.

A system is a ``FiniteMetricSpace`` closed under one map f, carried by
``step``, the index of f(x) for every point x.  Iterating the step
certifies d_k for every horizon k <= ``horizon_cap``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

import numpy as np

from ..errors import ParameterError, RepresentationError
from ..metric_core.space import FiniteMetricSpace, block_rows


@dataclass
class DynamicalSystem:
    space: FiniteMetricSpace
    step: np.ndarray
    horizon_cap: int
    name: str = "system"
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        step = np.asarray(self.step, dtype=int)
        if step.shape != (self.space.size,):
            raise ParameterError("step must map every point index")
        if (step < 0).any() or (step >= self.space.size).any():
            raise RepresentationError("map image outside the represented set")
        if self.horizon_cap < 1:
            raise ParameterError("horizon cap must be >= 1")
        self.step = step

    @property
    def orbit_index(self) -> np.ndarray:
        """(horizon_cap, n) table of f^t indices, row 0 the identity."""
        rows = [np.arange(self.space.size)]
        for _ in range(self.horizon_cap - 1):
            rows.append(self.step[rows[-1]])
        return np.stack(rows)


def system_from_step(space: FiniteMetricSpace, step: np.ndarray,
                     horizon_cap: int, name: str = "system",
                     meta: dict | None = None) -> DynamicalSystem:
    """The system of a one-step index map."""
    return DynamicalSystem(space, step, horizon_cap, name=name, meta=meta or {})


def identity_system(space: FiniteMetricSpace, horizon_cap: int = 8) -> DynamicalSystem:
    return system_from_step(space, np.arange(space.size), horizon_cap,
                            name=f"id({space.name})",
                            meta={"omega_full": True})


def bowen_distance(system: DynamicalSystem, i: int, j: int, n: int) -> float:
    """max over 0 <= t < n of d(f^t i, f^t j); monotone nondecreasing in n."""
    if n < 1:
        raise ParameterError("horizon must be >= 1")
    if n > system.horizon_cap:
        raise ParameterError(f"horizon {n} beyond cap {system.horizon_cap}")
    if not (0 <= i < system.space.size and 0 <= j < system.space.size):
        raise IndexError("point index out of range")
    best = system.space.dist(i, j)
    for _ in range(n - 1):
        i, j = int(system.step[i]), int(system.step[j])
        best = max(best, system.space.dist(i, j))
    return best


def bowen_spaces(system: DynamicalSystem,
                 horizons: Iterable[int]) -> Iterator[FiniteMetricSpace]:
    """The space under each horizon-n dynamical metric, in the order given.

    ``d_n = max(d_{n-1}, d o f^{n-1})`` extends the previous table by one
    gather of the base space's level codes per horizon.  The gather runs
    over row blocks (``block_rows``) straight into the new table, so at
    every size only d_{n-1}, d_n and one block are alive besides the base
    codes.  Every ``d_n`` shares the base levels: codes are monotone in the
    distance, so the max of two codes is the code of the max, at one to
    four bytes per pair.  Max is exact, so every table is bitwise the one
    built anew.  A horizon below the last one starts again from ``d_1``,
    which is the space itself.
    """
    done, table = 1, None
    for n in horizons:
        if n < 1:
            raise ParameterError("horizon must be >= 1")
        if n > system.horizon_cap:
            raise ParameterError(f"horizon {n} beyond cap {system.horizon_cap}")
        if n < done:
            done, table = 1, None
        if n == 1:
            yield system.space
            continue
        levels, codes = system.space.level_codes()
        while done < n:
            # idx holds the indices of f^done
            idx = system.step if done == 1 else system.step[idx]
            table = _max_gather(codes, codes if done == 1 else table, idx)
            done += 1
        yield FiniteMetricSpace.from_codes(levels, table, labels=system.space.labels,
                                           name=f"{system.name}|d_{n}")


def _max_gather(codes: np.ndarray, prev: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``max(prev, codes[idx][:, idx])``, gathered by row blocks into a new table."""
    table = np.empty_like(codes)
    rows = block_rows(len(idx))
    for a in range(0, len(idx), rows):
        out = table[a:a + rows]
        # the indices are in range, so "clip" only skips the buffered bounds check
        np.take(codes.take(idx[a:a + rows], 0, mode="clip"), idx, 1, out=out, mode="clip")
        np.maximum(out, prev[a:a + rows], out=out)
    return table


def bowen_space(system: DynamicalSystem, n: int) -> FiniteMetricSpace:
    """The space under the horizon-n dynamical metric, as a metric space."""
    return next(bowen_spaces(system, [n]))
