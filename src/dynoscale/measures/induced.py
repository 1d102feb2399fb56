"""Lattices of measures and the induced dynamics on them.

A (k, q)-lattice holds every measure with at most k atoms on the net and
weights in multiples of 1/q.  It contains all point masses, is closed
under the pushforward of an index-closed map (supports can only merge),
and its transport distances make a finite metric space on which the
counting layer runs unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import ParameterError
from ..metric_core.space import FiniteMetricSpace, block_rows
from ..metric_core.counts import max_separated, min_diameter_cover, CountBracket
from ..metric_core.solvers import DEFAULT_BUDGET
from ..systems.base import DynamicalSystem, bowen_spaces
from .atomic import AtomicMeasure, pushforward
from .wasserstein import w1_pairs_two_atom
from .constructions import apart_count, padded_atoms

LATTICE_CAP = 2_000


def measure_lattice(size: int, max_atoms: int = 2, q: int = 4) -> list[AtomicMeasure]:
    """All measures with <= max_atoms atoms among ``size`` points, weights i/q."""
    if max_atoms < 1 or q < 1:
        raise ParameterError("need max_atoms >= 1 and q >= 1")
    if max_atoms >= 3:
        raise ParameterError("lattices beyond two atoms are not materialised")
    count = size if max_atoms == 1 else size + math.comb(size, 2) * (q - 1)
    if count > LATTICE_CAP:
        raise ParameterError(f"lattice of {count} measures exceeds cap {LATTICE_CAP}")
    out: list[AtomicMeasure] = [AtomicMeasure.dirac(i) for i in range(size)]
    if max_atoms >= 2:
        for i, j in itertools.combinations(range(size), 2):
            for num in range(1, q):
                out.append(AtomicMeasure((i, j),
                                         (Fraction(num, q), Fraction(q - num, q))))
    return out


def lattice_transport_space(space: FiniteMetricSpace,
                            measures: list[AtomicMeasure]) -> FiniteMetricSpace:
    """Finite metric space of exact W_1 distances, with ground costs read in ``space``.

    Each row block is priced against the columns from its first row on, from
    four ``distances`` gathers of the measures' (first, last) atoms; each row
    keeps its pairs from the diagonal on and mirrors them.  Every pair is thus
    read in (lower, higher) index order, so the table is exactly symmetric.
    """
    atoms = padded_atoms(measures).T
    if len(atoms) > 2:
        raise ParameterError("closed-form W_1 takes at most two atoms")
    ends, k = atoms[[0, -1]], len(measures)
    wa = np.array([float(mu.weights[0]) for mu in measures])
    dist = np.empty((k, k))
    step = block_rows(k)
    for a in range(0, k, step):
        r = np.arange(a, min(a + step, k))
        w = w1_pairs_two_atom(*(space.distances(x[r], y[a:]) for x in ends for y in ends),
                              wa[r, None], wa[a:])
        for p, i in enumerate(r):
            dist[i, i:] = dist[i:, i] = w[p, p:]
    return FiniteMetricSpace(matrix=dist, name=f"pmeasure({space.name})", check=False)


def induced_step(measures: list[AtomicMeasure], step: np.ndarray) -> np.ndarray:
    """Index map of the pushforward on the lattice."""
    index = {(mu.atoms, mu.weights): i for i, mu in enumerate(measures)}
    out = np.empty(len(measures), dtype=int)
    for i, mu in enumerate(measures):
        img = pushforward(mu, step)
        key = (img.atoms, img.weights)
        if key not in index:
            raise ParameterError("lattice is not closed under the pushforward")
        out[i] = index[key]
    return out


@dataclass(frozen=True)
class InducedCell:
    horizon: int
    eps: float
    base_separated: CountBracket      # points under d_n
    apart: CountBracket               # lattice measures pairwise apart
    lattice_cover: CountBracket       # diameter cover under W_{1,n}
    embedding_holds: bool             # separated <= apart (point masses embed)
    covering_diagnostic: dict


# exact covers of the lattice are diagnostic-only; keep their search short
DIAGNOSTIC_BUDGET = 20_000


def induced_sweep(system: DynamicalSystem, horizons: list[int], grid: list[float],
                  max_atoms: int = 2, q: int = 4,
                  budget: int = DEFAULT_BUDGET) -> list[InducedCell]:
    """Counts on the measure lattice against counts on the base system.

    The embedding check certifies separated(base) <= apart(lattice) through
    the point-mass family over the separated witness, which is pairwise
    apart by construction.  The covering diagnostic reports whether
    log log cover(lattice, eps) stays below log cover(base, eps/2) +
    log log (C / eps) with C twice the base diameter; the constant is not
    pinned down, so the comparison is reported and never asserted.
    """
    measures = measure_lattice(system.space.size, max_atoms, q)
    cells = []
    spaces = bowen_spaces(system, horizons)
    for n in horizons:
        base = next(spaces)
        lattice = lattice_transport_space(base, measures)
        for eps in grid:
            sep = max_separated(base, eps, budget, horizon=n)
            apart = apart_count(base, measures, eps, min(budget, DIAGNOSTIC_BUDGET),
                                horizon=n)
            cover = min_diameter_cover(lattice, eps, min(budget, DIAGNOSTIC_BUDGET),
                                       horizon=n)
            witness = sep.witness or ()
            dirac_family_apart = all(
                base.dist(i, j) > float(eps)
                for a, i in enumerate(witness) for j in witness[a + 1:])
            apart_floor = max(apart.lower,
                              len(witness) if dirac_family_apart else 0)
            holds = sep.mode == "exact" and sep.value <= apart_floor
            cells.append(InducedCell(
                n, float(eps), sep, apart, cover, holds,
                _covering_diagnostic(base, cover, eps,
                                     min(budget, DIAGNOSTIC_BUDGET), n)))
    return cells


def _covering_diagnostic(base: FiniteMetricSpace, cover: CountBracket, eps,
                         budget: int, n: int) -> dict:
    big_c = 2.0 * base.diameter
    base_cover = min_diameter_cover(base, float(eps) / 2.0, budget, horizon=n)
    out = {"constant": big_c, "asserted": False}
    usable = (cover.mode == "exact" and base_cover.mode == "exact"
              and cover.value > 1 and big_c > float(eps) * math.e)
    if usable:
        lhs = math.log(math.log(cover.value))
        rhs = math.log(base_cover.value) + math.log(math.log(big_c / float(eps)))
        out.update(lhs=lhs, rhs=rhs, within=bool(lhs <= rhs))
    else:
        out.update(note="needs exact covers and a scale well under the diameter")
    return out
