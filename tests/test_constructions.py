"""Ladder measures, transport floors, domination, apartness."""

import numpy as np
import pytest
from fractions import Fraction

from dynoscale.errors import BudgetExceededError, ParameterError
from dynoscale.measures.atomic import AtomicMeasure
from dynoscale.measures.constructions import (apart_count, check_transport_lower_bound,
                                              dominated_layer, ladder_scale,
                                              ladder_construction, transport_lower_bound)
from dynoscale.measures.constructions import support_cross_min
from dynoscale.metric_core.counts import max_separated
from dynoscale.metric_core import solvers
from dynoscale.systems.base import bowen_space
from dynoscale.systems.intervals import random_space


def test_ladder_scales_square_exponent():
    assert ladder_scale(1) == Fraction(1, 2)
    assert ladder_scale(2) == Fraction(1, 16)
    assert ladder_scale(3) == Fraction(1, 512)


def test_single_layer_ladder_is_its_own_measure(shift6):
    ladder = ladder_construction(shift6, horizon=2, j_max=1)
    assert ladder.measure == ladder.layers[0].measure


def test_ladder_mass_and_domination(shift6):
    ladder = ladder_construction(shift6, horizon=3, j_max=3)
    assert sum(ladder.measure.weights) == 1
    for j in (1, 2, 3):
        t, mu_j = dominated_layer(ladder, j)
        assert t == Fraction(1, 2**j)
        assert ladder.measure.dominates(mu_j, t)
    # layer coefficients: tail mass folded into the last layer
    assert ladder.layers[-1].coefficient == Fraction(1, 4)


def test_ladder_layers_are_maximal_separated_sets(shift6):
    ladder = ladder_construction(shift6, horizon=2, j_max=2)
    for layer in ladder.layers:
        dn = bowen_space(shift6, 2)
        expect = max_separated(dn, 4 * layer.scale, horizon=2)
        assert len(layer.separated) == expect.value


def test_ladder_rejects_underflowing_levels(shift6):
    with pytest.raises(ParameterError):
        ladder_construction(shift6, horizon=1, j_max=40)


def test_transport_floor_formula():
    assert transport_lower_bound(4, 1, Fraction(1, 2)) == Fraction(1, 4)
    assert transport_lower_bound(5, 3, 1.0) == Fraction(3, 10)
    with pytest.raises(ParameterError):
        transport_lower_bound(3, 3, 0.5)


def test_transport_floor_never_violated_on_constructions(shift6):
    rng = np.random.default_rng(0)
    dn = bowen_space(shift6, 2)
    bracket = max_separated(dn, 0.3, horizon=2)
    atoms = bracket.witness
    for _ in range(25):
        k = int(rng.integers(1, len(atoms)))
        nu_atoms = sorted(rng.choice(dn.size, k, replace=False).tolist())
        nu = AtomicMeasure.uniform(nu_atoms)
        out = check_transport_lower_bound(dn, atoms, 0.3, nu)
        assert out["holds"]


def test_apart_count_of_dirac_family_matches_separated(shift6):
    dn = bowen_space(shift6, 2)
    sep = max_separated(dn, 0.3, horizon=2)
    family = [AtomicMeasure.dirac(i) for i in sep.witness]
    got = apart_count(dn, family, 0.3)
    assert got.mode == "exact"
    assert got.value == len(family)


def test_overlapping_supports_are_never_apart(shift6):
    mu = AtomicMeasure.uniform([0, 1])
    nu = AtomicMeasure.uniform([1, 2])
    got = apart_count(shift6.space, [mu, nu], 0.01)
    assert got.value == 1


def test_apart_count_matches_exhaustive_on_random_families():
    import itertools
    sp = random_space(10, seed=5)
    dense_m = sp.as_matrix()
    rng = np.random.default_rng(1)
    measures = []
    for _ in range(8):
        atoms = sorted(rng.choice(10, int(rng.integers(1, 3)),
                                  replace=False).tolist())
        measures.append(AtomicMeasure.uniform(atoms))
    eps = 0.22
    got = apart_count(sp, measures, eps)

    def pair_ok(a, b):
        return dense_m[np.ix_(a.atoms, b.atoms)].min() >= eps

    best = 1
    for r in range(len(measures), 0, -1):
        hit = False
        for combo in itertools.combinations(measures, r):
            if all(pair_ok(a, b) for a, b in itertools.combinations(combo, 2)):
                hit = True
                break
        if hit:
            best = r
            break
    assert got.value == best


def test_apart_count_exhausted_budget_brackets_the_exhaustive_count(monkeypatch):
    import itertools

    def exhausted(*args, **kwargs):
        raise BudgetExceededError("forced")

    # the instance and the exhaustive count of the random-family test above
    sp = random_space(10, seed=5)
    dense_m = sp.as_matrix()
    rng = np.random.default_rng(1)
    measures = [AtomicMeasure.uniform(sorted(
        rng.choice(10, int(rng.integers(1, 3)), replace=False).tolist()))
        for _ in range(8)]
    eps = 0.22

    def apart(family):
        return all(dense_m[np.ix_(a.atoms, b.atoms)].min() >= eps
                   for a, b in itertools.combinations(family, 2))

    best = max(r for r in range(1, len(measures) + 1)
               if any(apart(c) for c in itertools.combinations(measures, r)))
    monkeypatch.setattr(solvers, "exact_max_independent_set", exhausted)
    got = apart_count(sp, measures, eps)
    assert got.mode == "heuristic" and got.method == "greedy"
    assert got.lower <= best <= got.upper <= len(measures)
    assert got.lower == len(got.witness)


def test_support_cross_min_and_apart_count_on_wide_supports():
    import itertools
    sp = random_space(12, seed=3)
    dense_m = sp.as_matrix()
    rng = np.random.default_rng(7)
    measures = [AtomicMeasure.uniform(sorted(
        rng.choice(12, int(rng.integers(1, 5)), replace=False).tolist()))
        for _ in range(7)]
    assert max(mu.support_size for mu in measures) > 2  # past the two-atom shortcut

    def gap(i, j):
        return min(dense_m[a, b] for a in measures[i].atoms for b in measures[j].atoms)

    levels, codes = sp.level_codes()
    cross = support_cross_min(sp, measures)
    assert cross.dtype == codes.dtype
    k = len(measures)
    assert all(levels[cross[i, j]] == gap(i, j)
               for i, j in itertools.product(range(k), repeat=2))
    eps = 0.05
    best = max(r for r in range(1, k + 1)
               if any(all(gap(i, j) >= eps for i, j in itertools.combinations(c, 2))
                      for c in itertools.combinations(range(k), r)))
    got = apart_count(sp, measures, eps)
    assert got.mode == "exact" and got.value == best
