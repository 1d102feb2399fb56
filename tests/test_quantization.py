"""Quantization numbers and their orders."""

import math
import time

import numpy as np
import pytest
from fractions import Fraction

from dynoscale.measures import (AtomicMeasure, LP_KIND, W_KIND,
                                dynamical_quantization_order,
                                dynamical_quantization_rate,
                                quantization_number, quantization_order)
from dynoscale.metric_core import min_diameter_cover, max_separated
from dynoscale.oracle import brute_k_median_cost, brute_partial_cover
from dynoscale.systems import bowen_space, doubling_grid


@pytest.fixture(scope="module")
def system():
    return doubling_grid(32, horizon_cap=5)


def test_dirac_needs_one_site(system):
    mu = AtomicMeasure.dirac(5)
    for kind in (LP_KIND, W_KIND):
        rep = quantization_number(system.space, mu, 0.2, kind=kind)
        assert rep.count == 1 and rep.mode == "exact"


@pytest.mark.parametrize("p", [0.0, 0.5, -1.0, math.nan])
def test_wasserstein_order_below_one_is_rejected(system, p):
    from dynoscale.errors import ParameterError
    with pytest.raises(ParameterError):
        quantization_number(system.space, AtomicMeasure.dirac(5), 0.2, kind=W_KIND, p=p)


def test_candidate_sites_must_contain_support(system):
    mu = AtomicMeasure.uniform([1, 2])
    from dynoscale.errors import ParameterError
    with pytest.raises(ParameterError):
        quantization_number(system.space, mu, 0.1, sites=[5, 6])


def test_lp_kind_matches_partial_cover_oracle(system):
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        dn = bowen_space(system, n)
        support = sorted(rng.choice(12, int(rng.integers(2, 6)),
                                    replace=False).tolist())
        raw = [int(x) for x in rng.integers(1, 6, len(support))]
        mu = AtomicMeasure.from_weights(support,
                                        [Fraction(r, sum(raw)) for r in raw])
        eps = float(rng.choice([0.3, 0.15, 0.08]))
        sites = sorted(set(support) | set(rng.choice(32, 6, replace=False).tolist()))
        rep = quantization_number(dn, mu, eps, kind=LP_KIND, sites=sites)
        balls = dn.as_matrix()[np.ix_(sites, list(mu.atoms))] <= eps
        want = brute_partial_cover(balls, list(mu.weights), 1 - Fraction(eps))
        assert rep.mode == "exact" and rep.count == max(1, want)


def test_w_kind_matches_k_median_enumeration(system):
    rng = np.random.default_rng(3)
    dn = bowen_space(system, 2)
    m = dn.as_matrix()
    for _ in range(15):
        support = sorted(rng.choice(10, 4, replace=False).tolist())
        mu = AtomicMeasure.uniform(support)
        sites = sorted(set(support) | set(rng.choice(32, 5, replace=False).tolist()))
        eps = float(rng.choice([0.2, 0.1, 0.05]))
        rep = quantization_number(dn, mu, eps, kind=W_KIND, sites=sites)
        dist = m[np.ix_(sites, support)]
        w = np.array([float(x) for x in mu.weights])
        # the reported count is feasible and the next-smaller count is not
        assert brute_k_median_cost(dist, w, rep.count) <= eps + 1e-12
        if rep.count > 1:
            assert brute_k_median_cost(dist, w, rep.count - 1) > eps
        assert rep.mode == "exact"


def test_uniform_separated_points_need_full_support(system):
    sep = max_separated(system.space, 0.2)
    pts = sep.witness[:5]
    mu = AtomicMeasure.uniform(pts)
    gap = min(system.space.dist(i, j)
              for k, i in enumerate(pts) for j in pts[k + 1:])
    scale = 0.9 * (gap / 2) / len(pts)
    # exhaustive site enumeration certifies every level up to C = 5
    sites = sorted(set(pts) | set(range(0, 32, 3)))
    assert len(sites) <= 20
    rep = quantization_number(system.space, mu, scale, kind=W_KIND, sites=sites)
    assert rep.count == len(pts)
    assert rep.mode == "exact"


def test_quantization_below_cover_on_exact_cells(system):
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        dn = bowen_space(system, n)
        for eps in (0.4, 0.17, 0.08):
            cover = min_diameter_cover(dn, eps, horizon=n)
            support = sorted(rng.choice(32, 6, replace=False).tolist())
            mu = AtomicMeasure.uniform(support)
            for kind in (LP_KIND, W_KIND):
                rep = quantization_number(dn, mu, eps, kind=kind, horizon=n)
                if rep.mode == cover.mode == "exact":
                    assert rep.count <= cover.value


def test_count_monotone_in_scale_and_horizon(system):
    mu = AtomicMeasure.uniform([0, 7, 13, 21, 28])
    prev = None
    for eps in (0.4, 0.2, 0.1, 0.05):
        rep = quantization_number(system.space, mu, eps, kind=LP_KIND)
        if prev is not None:
            assert rep.count >= prev
        prev = rep.count
    per_n = [quantization_number(bowen_space(system, n), mu, 0.12,
                                 kind=LP_KIND, horizon=n) for n in (1, 2, 3)]
    counts = [r.count for r in per_n]
    assert counts == sorted(counts)


def test_orders_and_conventions(system):
    mu = AtomicMeasure.dirac(3)
    reports = [quantization_number(system.space, mu, eps, kind=LP_KIND)
               for eps in (0.4, 0.2, 0.1, 0.05)]
    order = quantization_order(reports)
    assert order.value == 0.0  # unit counts clamp through log 0 = 0
    assert "unit counts" in order.note

    mu2 = AtomicMeasure.uniform(list(range(0, 32, 2)))
    per_eps = []
    for eps in (0.31, 0.17, 0.09):
        per_n = [quantization_number(bowen_space(system, n), mu2, eps,
                                     kind=LP_KIND, horizon=n) for n in (1, 2, 3, 4)]
        per_eps.append((eps, dynamical_quantization_rate(per_n)))
    order = dynamical_quantization_order(per_eps)
    assert math.isfinite(order.value)


def test_w_kind_budget_bounds_the_site_search():
    # k <= 3 is enumerated on any site set: C(256, 3) site sets without a budget
    space = doubling_grid(256).space
    mu = AtomicMeasure.from_weights([0, 40, 90, 130, 180, 230], [Fraction(1, 6)] * 6)
    start = time.perf_counter()
    rep = quantization_number(space, mu, 0.1, kind=W_KIND, budget=1000)
    assert time.perf_counter() - start < 2.0
    assert rep.mode == "heuristic" and rep.count == 6 and rep.witness_sites == mu.atoms
