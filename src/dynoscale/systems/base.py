"""Dynamical systems over finite nets, and their dynamical metrics.

A system couples a ``FiniteMetricSpace`` with exact point iteration.  Two
iteration carriers exist:

* ``orbit_index``: (H, n) table of point indices, row 0 the identity --
  used when the net is closed under the map (shifts, grids, products);
* ``orbit_values``: (H, n) table of real positions for 1-d systems whose
  exact orbits leave the sampled net (interval maps).

Either carrier certifies d_k for every horizon k <= H.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

import numpy as np

from ..errors import ParameterError, RepresentationError
from ..metric_core.space import FiniteMetricSpace


@dataclass
class DynamicalSystem:
    space: FiniteMetricSpace
    orbit_index: np.ndarray | None = None
    orbit_values: np.ndarray | None = None
    name: str = "system"
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.orbit_index is None and self.orbit_values is None:
            raise ParameterError("a system needs an orbit carrier")
        if self.orbit_index is not None:
            oi = np.asarray(self.orbit_index)
            if oi.ndim != 2 or oi.shape[1] != self.space.size:
                raise ParameterError("orbit_index shape mismatch")
            if (oi < 0).any() or (oi >= self.space.size).any():
                raise RepresentationError("map image outside the represented set")
            if not np.array_equal(oi[0], np.arange(self.space.size)):
                raise ParameterError("orbit_index row 0 must be the identity")
            self.orbit_index = oi

    @property
    def horizon_cap(self) -> int:
        table = self.orbit_index if self.orbit_index is not None else self.orbit_values
        return table.shape[0]

    @property
    def step(self) -> np.ndarray:
        """One-step index map (requires an index carrier)."""
        if self.orbit_index is None:
            raise RepresentationError("system has no index-closed map")
        if self.orbit_index.shape[0] < 2:
            raise ParameterError("horizon cap too small for a step map")
        return self.orbit_index[1]


def system_from_step(space: FiniteMetricSpace, step: np.ndarray,
                     horizon_cap: int, name: str = "system",
                     meta: dict | None = None) -> DynamicalSystem:
    """Build an index-carried system by composing a one-step map."""
    step = np.asarray(step, dtype=int)
    if step.shape != (space.size,):
        raise ParameterError("step must map every point index")
    if (step < 0).any() or (step >= space.size).any():
        raise RepresentationError("map image outside the represented set")
    rows = [np.arange(space.size)]
    for _ in range(horizon_cap - 1):
        rows.append(step[rows[-1]])
    return DynamicalSystem(space, orbit_index=np.stack(rows), name=name,
                           meta=meta or {})


def identity_system(space: FiniteMetricSpace, horizon_cap: int = 8,
                    name: str | None = None) -> DynamicalSystem:
    return system_from_step(space, np.arange(space.size), horizon_cap,
                            name=name or f"id({space.name})",
                            meta={"omega_full": True})


def bowen_distance(system: DynamicalSystem, i: int, j: int, n: int) -> float:
    """max over 0 <= t < n of d(f^t i, f^t j); monotone nondecreasing in n."""
    if n < 1:
        raise ParameterError("horizon must be >= 1")
    if n > system.horizon_cap:
        raise ParameterError(f"horizon {n} beyond cap {system.horizon_cap}")
    if not (0 <= i < system.space.size and 0 <= j < system.space.size):
        raise IndexError("point index out of range")
    if system.orbit_index is not None:
        return max(system.space.dist(int(system.orbit_index[t, i]),
                                     int(system.orbit_index[t, j]))
                   for t in range(n))
    v = system.orbit_values
    return float(max(abs(v[t, i] - v[t, j]) for t in range(n)))


def bowen_spaces(system: DynamicalSystem,
                 horizons: Iterable[int]) -> Iterator[FiniteMetricSpace]:
    """The space under each horizon-n dynamical metric, in the order given.

    ``d_n = max(d_{n-1}, d o f^{n-1})`` extends the previous table by one
    gather per horizon, written into the gathered buffer, so a run of
    increasing horizons costs one table per step.  Max is exact, so every
    table is bitwise the one built anew.  A horizon below the last
    one starts again from ``d_1``, which is the space itself.
    """
    done, table = 1, None
    for n in horizons:
        if n < 1:
            raise ParameterError("horizon must be >= 1")
        if n > system.horizon_cap:
            raise ParameterError(f"horizon {n} beyond cap {system.horizon_cap}")
        if n < done:
            done, table = 1, None
        while done < n:
            layer = _layer(system, done)
            previous = _layer(system, 0) if table is None else table
            table = np.maximum(layer, previous, out=layer)
            done += 1
        yield system.space if n == 1 else FiniteMetricSpace(
            matrix=table, labels=system.space.labels, name=f"{system.name}|d_{n}",
            check=False)


def _layer(system: DynamicalSystem, t: int) -> np.ndarray:
    """The table of d(f^t x, f^t y); a new buffer for t >= 1."""
    if system.orbit_index is None:
        v = system.orbit_values[t]
        return np.abs(v[:, None] - v[None, :])
    base = system.space.as_matrix()
    idx = system.orbit_index[t]
    return base if t == 0 else base[np.ix_(idx, idx)]


def bowen_space(system: DynamicalSystem, n: int) -> FiniteMetricSpace:
    """The space under the horizon-n dynamical metric, as a metric space."""
    return next(bowen_spaces(system, [n]))
