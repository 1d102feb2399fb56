"""Dynamical systems over finite nets, and their dynamical metrics.

A system is a ``FiniteMetricSpace`` closed under one map f, carried by
``step``, the index of f(x) for every point x.  Iterating the step
certifies d_k for every horizon k <= ``horizon_cap``: ``bowen_spaces``
builds each d_k in the base's form, a code table on a coded base and a
partition chain on an ultrametric base stored as one (every d_k of an
ultrametric is an ultrametric).  ``bowen_graphs`` carries only what a
count reads, the packed threshold graphs of a coded base or the chain of
each d_k, and reads values block by block (``BowenGraphs.distances``),
which is all a quantization number reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

import numpy as np

from ..errors import ParameterError, RepresentationError
from ..metric_core.space import FiniteMetricSpace, block_rows, pack_rows, refine


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


def identity_system(space: FiniteMetricSpace, horizon_cap: int = 8) -> DynamicalSystem:
    return DynamicalSystem(space, np.arange(space.size), horizon_cap,
                           name=f"id({space.name})", meta={"omega_full": True})


def _check_horizon(system: DynamicalSystem, n: int) -> None:
    if n < 1:
        raise ParameterError("horizon must be >= 1")
    if n > system.horizon_cap:
        raise ParameterError(f"horizon {n} beyond cap {system.horizon_cap}")


def bowen_distance(system: DynamicalSystem, i: int, j: int, n: int) -> float:
    """max over 0 <= t < n of d(f^t i, f^t j); monotone nondecreasing in n."""
    _check_horizon(system, n)
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

    d_1 is the space itself, and ``d_n = max(d_{n-1}, d o f^{n-1})``
    extends each d_n into a new space with the base levels, built in the
    base's own form.  On a coded base (a coordinate one is encoded first)
    that is one gather of the base codes per horizon, one row block at a
    time (``block_rows``): codes are monotone in the distance, so the max
    of two codes is the code of the max, at one to four bytes per pair.  On
    a chain-backed base every d_n is an ultrametric with a chain of its
    own: d_n < c joins x and y exactly when f^t x and f^t y share their
    base class at c for every t < n, so row c of d_n's chain is
    ``refine(row c of d_{n-1}'s, base row c at f^{n-1})``, N labels a row,
    and no N x N array is built nor the base's codes derived.  Max is
    exact, so every d_n is bitwise the one built anew, and a consumer that
    keeps a space keeps it intact.  A horizon below the last one starts
    again from d_1.  A consumer that only counts, or reads only some
    values, needs no table: see ``bowen_graphs``.
    """
    done, dn = 1, system.space
    for n in horizons:
        _check_horizon(system, n)
        if n < done:
            done, dn = 1, system.space
        while done < n:
            # idx holds the indices of f^done
            idx = system.step if done == 1 else system.step[idx]
            done += 1
            dn = _extend(system.space, dn, idx, f"{system.name}|d_{done}")
        yield dn


def _extend(base: FiniteMetricSpace, prev: FiniteMetricSpace, idx: np.ndarray,
            name: str) -> FiniteMetricSpace:
    """``max(prev, base o idx)`` as a new space in the base's form."""
    if base.chain is None:
        levels, codes = base.level_codes()
        table = _max_gather(codes, prev.level_codes()[1], idx)
        return FiniteMetricSpace.from_codes(levels, table, name=name)
    # row by row, so the rows keep the base chain's dtype
    chain = np.empty_like(base.chain)
    for c, row in enumerate(base.chain):
        chain[c] = refine(prev.chain[c], row[idx])
    return FiniteMetricSpace.from_chain(base.levels, chain, name=name)


def _orbit_blocks(codes: np.ndarray, idx: np.ndarray | None) -> Iterator[tuple[int, np.ndarray]]:
    """``(a, block)`` for each row block of ``codes[idx][:, idx]`` (of
    ``codes`` itself when ``idx`` is None), block starting at row a.

    Every block is gathered into the same block-sized buffer, so a block is
    read before the next one is asked for and never kept.
    """
    n = len(codes)
    rows = block_rows(n)
    if idx is None:
        for a in range(0, n, rows):
            yield a, codes[a:a + rows]
        return
    buf = np.empty((min(rows, n), n), dtype=codes.dtype)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        # the indices are in range, so "clip" only skips the buffered bounds check
        np.take(codes.take(idx[a:b], 0, mode="clip"), idx, 1, out=buf[:b - a], mode="clip")
        yield a, buf[:b - a]


def _max_gather(codes: np.ndarray, prev: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``max(prev, codes[idx][:, idx])`` as a new table, by row blocks."""
    table = np.empty_like(codes)
    for a, block in _orbit_blocks(codes, idx):
        b = a + len(block)
        np.maximum(block, prev[a:b], out=table[a:b])
    return table


class BowenGraphs:
    """d_n as the counts and the quantization numbers read it: its
    diameter, its threshold graphs at the level cutoffs of one walk, and
    float blocks (``distances``), without its code table.

    On a coded base, ``graphs`` maps each carried cutoff c to G_n(c), the
    rows of ``d_n codes < c`` as ``pack_rows`` packs them, and ``space`` is
    None.  The packed walk ANDs the next horizon into these same arrays, so
    a reader is done with them before the walk resumes and never writes
    them; ``close_mask`` at a cutoff the walk does not carry (the spanning
    fallback's graph at twice the scale) walks that one cutoff anew.  On a
    chain-backed base, ``space`` is d_n itself, a chain (``bowen_spaces``),
    and ``graphs`` is empty: the view carries every cutoff, and its classes
    and graphs are d_n's.  The counts close every cell of a chain-backed
    base on its classes, so there ``close_mask`` (which derives d_n's
    codes) serves only a caller that asks for the graph itself.  A
    coordinate base keeps its coordinates at horizon 1, so the counts take
    the line sweep there and never ask for a graph.  Every d_n has d_1's
    diameter, since d_1 <= d_n <= max d_1 pointwise.
    """

    def __init__(self, system: DynamicalSystem, horizon: int, graphs: dict[int, np.ndarray],
                 space: FiniteMetricSpace | None = None):
        self.system, self.horizon = system, horizon
        self.graphs, self.space = graphs, space
        base = system.space
        self.size, self.diameter = base.size, base.diameter
        self.coords = base.coords if horizon == 1 else None

    def distances(self, rows, cols) -> np.ndarray:
        """Float block ``d_n(rows[a], cols[b])``: the max over t < n of the
        base block at ``f^t rows`` and ``f^t cols``.  The levels ascend, so
        this max of floats is ``levels`` at the max of the codes: bitwise
        the block of ``bowen_space(system, n).distances``."""
        step, space = self.system.step, self.system.space
        rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
        block = space.distances(rows, cols)
        for _ in range(self.horizon - 1):
            rows, cols = step[rows], step[cols]
            np.maximum(block, space.distances(rows, cols), out=block)
        return block

    def cutoff(self, eps: float, strict: bool) -> int:
        """The level cutoff of ``eps``: the levels are d_1's, shared by every d_n."""
        return self.system.space.cutoff(eps, strict)

    def carries(self, cutoff: int) -> bool:
        """Whether this view holds the graph at ``cutoff``: a chain view
        carries every cutoff, a packed walk one group of them."""
        return self.space is not None or cutoff in self.graphs

    def classes(self, cutoff: int) -> np.ndarray | None:
        """Class labels of d_n < the level ``cutoff`` on a chain-backed base,
        else None (``FiniteMetricSpace.classes``)."""
        return None if self.space is None else self.space.classes(cutoff)

    def close_mask(self, eps: float, strict: bool) -> np.ndarray:
        """The packed graph of d_n < eps (strict) or d_n <= eps."""
        if self.space is not None:
            return self.space.close_mask(eps, strict)
        cutoff = self.cutoff(eps, strict)
        if cutoff in self.graphs:
            return self.graphs[cutoff]
        return next(_walk(self.system, [self.horizon], [cutoff])).graphs[cutoff]


def bowen_graphs(system: DynamicalSystem, horizons: Iterable[int],
                 cutoffs: Iterable[int]) -> Iterator[BowenGraphs]:
    """The threshold graphs of d_n at every level cutoff in ``cutoffs``, for
    each horizon n in ``horizons`` (ascending), with no d_n table.

    A walk carries G_n(c) = ``pack_rows(d_n codes < c)`` for its cutoffs
    from one horizon to the next: G_1(c) packs the base codes, and since
    ``d_n = max(d_{n-1}, d o f^{n-1})``, G_n(c) is G_{n-1}(c) AND the packed
    ``codes[f^(n-1) rows][:, f^(n-1)] < c``, one row block of that gather
    (``bowen_spaces``' own) shared by all the walk's graphs.  AND is exact,
    so every graph is bitwise ``bowen_space(system, n).close_mask``.

    A walk carries at most ``8 * codes.itemsize`` graphs, which together
    take no more bytes than one d_n table; more cutoffs are walked again
    per group of that size, so the views come group by group, each group
    through every horizon.  A walk that ends at horizon 1 carries nothing
    and takes one graph a group.  Without cutoffs, each horizon's view
    comes once and nothing is read, so a coordinate base is never encoded
    and a chain never refined.

    With cutoffs, a chain-backed base is walked by ``bowen_spaces``, once
    for all of them: each view holds that d_n's chain, and no codes are
    built.
    """
    horizons = list(horizons)
    for n in horizons:
        _check_horizon(system, n)
    if horizons != sorted(horizons):
        raise ParameterError("the walk takes its horizons in ascending order")
    if not horizons:
        return
    cutoffs = [int(c) for c in cutoffs]
    if system.space.chain is not None and cutoffs:
        for n, dn in zip(horizons, bowen_spaces(system, horizons)):
            yield BowenGraphs(system, n, {}, dn)
        return
    per_walk = 1
    if cutoffs and horizons[-1] > 1:
        per_walk = 8 * system.space.level_codes()[1].itemsize
    for a in range(0, max(len(cutoffs), 1), per_walk):
        yield from _walk(system, horizons, cutoffs[a:a + per_walk])


def _walk(system: DynamicalSystem, horizons: list[int],
          cutoffs: list[int]) -> Iterator[BowenGraphs]:
    """One walk of ``bowen_graphs`` over all of ``cutoffs``."""
    n_pts = system.space.size
    graphs = {c: np.full((n_pts, (n_pts + 7) // 8), 0xFF, dtype=np.uint8)
              for c in cutoffs}
    codes = system.space.level_codes()[1] if graphs else None
    done = 0
    for n in horizons:
        while graphs and done < n:
            # step 0 reads the base codes, step t the gather of f^t
            idx = None if done == 0 else system.step if done == 1 else system.step[idx]
            for a, block in _orbit_blocks(codes, idx):
                b = a + len(block)
                for c, graph in graphs.items():
                    # a Python int keeps the compare on the codes' dtype
                    graph[a:b] &= pack_rows(block < c)
            done += 1
        yield BowenGraphs(system, n, graphs)


def bowen_space(system: DynamicalSystem, n: int) -> FiniteMetricSpace:
    """The space under the horizon-n dynamical metric, as a metric space."""
    return next(bowen_spaces(system, [n]))
