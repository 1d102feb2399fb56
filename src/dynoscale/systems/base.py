"""Dynamical systems over finite nets, and their dynamical metrics.

A system is a ``FiniteMetricSpace`` closed under one map f, carried by
``step``, the index of f(x) for every point x.  Iterating the step
certifies d_k for every horizon k <= ``horizon_cap``.
"""

from __future__ import annotations

import sys
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


# Before 3.14, CPython passes a local to a call as a new reference, so a
# count of two there is this name and the call's argument: nothing else
# holds the table.  3.14 may lend the local without a reference, so the
# count can read two while someone else holds it; there, and on other
# interpreters, the walk never writes into a table it has yielded.
_REFCOUNT_OWNS = sys.implementation.name == "cpython" and sys.version_info < (3, 14)


def bowen_spaces(system: DynamicalSystem,
                 horizons: Iterable[int]) -> Iterator[FiniteMetricSpace]:
    """The space under each horizon-n dynamical metric, in the order given.

    ``d_n = max(d_{n-1}, d o f^{n-1})`` extends the previous table by one
    gather of the base space's level codes per horizon, one row block at a
    time (``block_rows``).  When nothing but this walk holds the d_{n-1}
    table (no yielded space, caller or numpy view: the reference count test
    of ``ndarray.resize``), d_n is written into it in place; otherwise into
    a new table.  So a consumer that drops each space before asking for the
    next holds the base codes, one table and one block, and one that keeps
    a space or its codes keeps them intact.  The count is read only where
    it is known to mean this (``_REFCOUNT_OWNS``); elsewhere every d_n gets
    a new table, which is correct but holds d_{n-1} beside it.  Every d_n
    shares the base levels: codes are monotone in the distance, so the max
    of two codes is the code of the max, at one to four bytes per pair.
    Max is exact, so every table is bitwise the one built anew.  A horizon
    below the last one starts again from ``d_1``, which is the space itself.
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
            own = _REFCOUNT_OWNS and done > 1 and sys.getrefcount(table) == 2
            table = _max_gather(codes, codes if done == 1 else table, idx,
                                table if own else np.empty_like(codes))
            done += 1
        yield FiniteMetricSpace.from_codes(levels, table, labels=system.space.labels,
                                           name=f"{system.name}|d_{n}")


def _max_gather(codes: np.ndarray, prev: np.ndarray, idx: np.ndarray,
                table: np.ndarray) -> np.ndarray:
    """``max(prev, codes[idx][:, idx])`` written into ``table``, by row blocks.

    Each row block is gathered into one block-sized buffer before the max
    writes it, and a block of ``prev`` is read only for the rows it writes,
    so ``table`` may be ``prev`` itself.
    """
    n = len(idx)
    rows = block_rows(n)
    buf = np.empty((min(rows, n), n), dtype=codes.dtype)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        # the indices are in range, so "clip" only skips the buffered bounds check
        np.take(codes.take(idx[a:b], 0, mode="clip"), idx, 1, out=buf[:b - a], mode="clip")
        np.maximum(buf[:b - a], prev[a:b], out=table[a:b])
    return table


def bowen_space(system: DynamicalSystem, n: int) -> FiniteMetricSpace:
    """The space under the horizon-n dynamical metric, as a metric space."""
    return next(bowen_spaces(system, [n]))
