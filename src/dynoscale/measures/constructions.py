"""Measure constructions used by the variational lower-bound machinery.

The ladder construction stacks, for j = 1..J, uniform measures on maximal
separated sets at scales 4 * 2**-(j*j), weighted 2**-j; the tail mass
2**-J joins the last layer so the total stays exactly 1 while every layer
keeps nu >= 2**-j * mu_j, the domination the quantization bounds consume.

Also here: the two supporting checks (transport lower bound against a
uniform separated measure, and quantization monotonicity under measure
domination) and the pairwise-apart counting of measure families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from ..errors import ParameterError
from ..metric_core.space import FiniteMetricSpace, pack_rows
from ..metric_core import solvers
from ..metric_core.counts import max_separated, CountBracket, graph_bracket
from ..metric_core.solvers import DEFAULT_BUDGET
from ..systems.base import DynamicalSystem, bowen_space
from .atomic import AtomicMeasure
from .wasserstein import wasserstein


@dataclass(frozen=True)
class LadderLayer:
    level: int
    scale: Fraction              # 2**-(j*j)
    separated: tuple[int, ...]   # maximal (n, 4*scale)-separated witness
    measure: AtomicMeasure
    coefficient: Fraction


@dataclass(frozen=True)
class LadderMeasure:
    measure: AtomicMeasure
    layers: tuple[LadderLayer, ...]
    horizon: int


def ladder_scale(j: int) -> Fraction:
    return Fraction(1, 2 ** (j * j))


def ladder_construction(system: DynamicalSystem, horizon: int, j_max: int,
                      budget: int = DEFAULT_BUDGET) -> LadderMeasure:
    """The stacked separated-set measure at a reference horizon."""
    if j_max < 1:
        raise ParameterError("need at least one layer")
    if 2.0 ** (-(j_max**2)) == 0.0:
        raise ParameterError("layer scale underflows")
    dn = bowen_space(system, horizon)
    layers = []
    for j in range(1, j_max + 1):
        eps_j = ladder_scale(j)
        bracket = max_separated(dn, 4 * eps_j, budget, horizon=horizon)
        if bracket.mode != "exact":
            raise ParameterError(f"layer {j} separated set not exact within budget")
        coeff = Fraction(1, 2**j)
        if j == j_max:
            coeff += Fraction(1, 2**j_max)  # absorb the series tail
        layers.append(LadderLayer(j, eps_j, bracket.witness,
                                  AtomicMeasure.uniform(bracket.witness), coeff))
    acc: dict[int, Fraction] = {}
    for layer in layers:
        for a, w in zip(layer.measure.atoms, layer.measure.weights):
            acc[a] = acc.get(a, Fraction(0)) + layer.coefficient * w
    atoms = tuple(sorted(acc))
    mu0 = AtomicMeasure(atoms, tuple(acc[a] for a in atoms))
    return LadderMeasure(mu0, tuple(layers), horizon)


def dominated_layer(ladder: LadderMeasure, j: int) -> tuple[Fraction, AtomicMeasure]:
    """(t, mu_j) with ladder.measure >= t * mu_j; t = 2**-j by construction."""
    layer = ladder.layers[j - 1]
    return Fraction(1, 2**j), layer.measure


def transport_lower_bound(count: int, smaller_support: int, eps) -> Fraction:
    """(C - C_nu + 1)/C * eps/2: the floor under W_1 against a uniform
    measure on C points pairwise more than eps apart."""
    if smaller_support >= count:
        raise ParameterError("bound applies only to strictly smaller supports")
    return Fraction(count - smaller_support + 1, count) * Fraction(eps) / 2


def check_transport_lower_bound(space: FiniteMetricSpace, separated: tuple[int, ...],
                                eps, nu: AtomicMeasure) -> dict:
    """Exact W_1 against the bound; returns the comparison, never asserts."""
    mu = AtomicMeasure.uniform(separated)
    bound = transport_lower_bound(len(separated), nu.support_size, eps)
    value, _ = wasserstein(space, mu, nu, p=1.0)
    return {"w1": value, "bound": float(bound),
            "holds": value >= float(bound) - 1e-12}


def padded_atoms(measures: list[AtomicMeasure]) -> np.ndarray:
    """(k, width) atoms of k measures, each padded with its last atom to the widest."""
    width = max(mu.support_size for mu in measures)
    return np.array([mu.atoms + mu.atoms[-1:] * (width - mu.support_size)
                     for mu in measures])


def support_cross_min(space: FiniteMetricSpace,
                      measures: list[AtomicMeasure]) -> np.ndarray:
    """Level codes of the pairwise minimum distance between supports: padding a
    support with its last atom keeps its distances, and codes are monotone in
    them, so this is one code gather per pair of atom positions."""
    codes, atoms = space.level_codes()[1], padded_atoms(measures).T
    return reduce(np.minimum, (codes[np.ix_(x, y)] for x in atoms for y in atoms))


def apart_count(space: FiniteMetricSpace, measures: list[AtomicMeasure],
                eps, budget: int = DEFAULT_BUDGET, horizon: int = 1) -> CountBracket:
    """Maximal family of measures with pairwise support distance >= eps.

    Apartness fails when the support gap sits strictly below eps (its code
    below the strict cutoff), so the family is a maximum independent set of
    that violation graph.  When the budget runs out, the greedy independent
    set and the greedy clique cover of that graph bracket it.
    """
    if not measures:
        raise ParameterError("need candidate measures")
    gaps = support_cross_min(space, measures)
    return graph_bracket("apart", eps, horizon, pack_rows(gaps < space.cutoff(eps, True)),
                         solvers.exact_max_independent_set, "mis-bnb", budget)
