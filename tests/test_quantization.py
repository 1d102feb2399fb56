"""Quantization numbers and their orders."""

import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from dynoscale.measures.atomic import AtomicMeasure
from dynoscale.measures.quantization import (LP_KIND, W_KIND,
                                             dynamical_quantization_order,
                                             dynamical_quantization_rate,
                                             quantization_number, quantization_order)
from dynoscale.errors import BudgetExceededError
from dynoscale.harness import run_quantize
from dynoscale.measures import quantization
from dynoscale.metric_core.counts import min_diameter_cover, max_separated
from dynoscale.metric_core import solvers
from dynoscale.metric_core.space import pack_rows
from dynoscale.oracle import brute_k_median_cost, brute_partial_cover
from dynoscale.measures.wasserstein import wasserstein
from dynoscale.systems.base import bowen_space
from dynoscale.systems.intervals import doubling_grid
from dynoscale.systems.shifts import binary_exp_shift


@pytest.fixture(scope="module")
def system():
    return doubling_grid(32, horizon_cap=5)


def test_dirac_needs_one_site(system):
    mu = AtomicMeasure.dirac(5)
    for kind in (LP_KIND, W_KIND):
        rep = quantization_number(system.space, mu, 0.2, kind=kind)
        assert rep.upper == 1 and rep.mode == "exact"


@pytest.mark.parametrize("horizon", [1, 2])
def test_value_reads_gather_blocks_not_the_float_table(horizon):
    system = binary_exp_shift(11, horizon_cap=2)
    size = system.space.size
    dn = bowen_space(system, horizon)
    mu = AtomicMeasure.uniform([0, 300, 700, 1500, 2047])
    nu = AtomicMeasure.uniform([5, 1024, 1999])
    tracemalloc.start()
    try:
        for kind in (LP_KIND, W_KIND):
            assert quantization_number(dn, mu, 0.3, kind=kind, horizon=horizon).mode == "exact"
        wasserstein(dn, mu, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float64 table of the net would be 8 * size**2 bytes
    assert peak < size**2, peak / size**2
    assert not [v for v in vars(dn).values() if isinstance(v, np.ndarray)
                and v.dtype == np.float64 and v.size == size**2]


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
        assert rep.mode == "exact" and rep.upper == max(1, want)


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
        assert brute_k_median_cost(dist, w, rep.upper) <= eps + 1e-12
        if rep.upper > 1:
            assert brute_k_median_cost(dist, w, rep.upper - 1) > eps
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
    assert rep.upper == len(pts)
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
                    assert rep.upper <= cover.value


def test_count_monotone_in_scale_and_horizon(system):
    mu = AtomicMeasure.uniform([0, 7, 13, 21, 28])
    prev = None
    for eps in (0.4, 0.2, 0.1, 0.05):
        rep = quantization_number(system.space, mu, eps, kind=LP_KIND)
        if prev is not None:
            assert rep.upper >= prev
        prev = rep.upper
    per_n = [quantization_number(bowen_space(system, n), mu, 0.12,
                                 kind=LP_KIND, horizon=n) for n in (1, 2, 3)]
    counts = [r.upper for r in per_n]
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
    # level 1 is refuted, level 2 runs out of budget: [2, support size]
    assert (rep.lower, rep.upper, rep.mode) == (2, 6, "heuristic")
    assert rep.method == "support" and rep.witness == mu.atoms


def _no_group_dp(monkeypatch):
    monkeypatch.setattr(quantization, "_group_dp", lambda *args: None)


def test_w_kind_search_hit_after_refuted_levels_is_exact(system, monkeypatch):
    _no_group_dp(monkeypatch)
    # 32 sites: levels 1..3 are enumerated, level 4 is the local search
    mu = AtomicMeasure.uniform([0, 3, 7, 12, 19, 25, 30])
    eps = 0.08
    rep = quantization_number(system.space, mu, eps, kind=W_KIND)
    assert rep.method == "local-search" and len(rep.witness) == 4
    assert (rep.lower, rep.upper, rep.mode) == (4, 4, "exact")
    dist = system.space.as_matrix()[:, list(mu.atoms)]
    w = np.array([float(x) for x in mu.weights])
    assert brute_k_median_cost(dist, w, rep.upper - 1) > eps
    assert brute_k_median_cost(dist, w, rep.upper) <= eps + 1e-12


def test_w_kind_search_hit_past_an_open_level_stays_heuristic(system, monkeypatch):
    _no_group_dp(monkeypatch)
    mu = AtomicMeasure.uniform([0, 3, 7, 12, 19, 25, 30])
    rep = quantization_number(bowen_space(system, 2), mu, 0.1, kind=W_KIND, horizon=2)
    # the search missed level 4, which nothing refutes
    assert (rep.lower, rep.upper, rep.mode) == (4, 5, "heuristic")
    assert rep.method == "local-search" and len(rep.witness) == 5


@pytest.mark.parametrize("n, eps, count", [(1, 0.08, 4), (2, 0.1, 5)])
def test_w_kind_group_dp_closes_what_the_search_left(system, n, eps, count):
    # the instances of the two fallback tests above, on the default path
    mu = AtomicMeasure.uniform([0, 3, 7, 12, 19, 25, 30])
    dn = bowen_space(system, n)
    rep = quantization_number(dn, mu, eps, kind=W_KIND, horizon=n)
    assert (rep.lower, rep.upper, rep.mode, rep.method) == (count, count, "exact", "group-dp")
    dist = dn.as_matrix()[:, list(mu.atoms)]
    w = np.array([float(x) for x in mu.weights])
    assert len(rep.witness) == count
    assert brute_k_median_cost(dist[list(rep.witness)], w, count) <= eps
    assert brute_k_median_cost(dist, w, count - 1) > eps


def test_w_kind_matches_k_median_oracle_on_weighted_measures(system):
    rng = np.random.default_rng(11)
    for _ in range(60):
        dn = bowen_space(system, int(rng.integers(1, 4)))
        support = sorted(rng.choice(32, int(rng.integers(1, 10)), replace=False).tolist())
        raw = [int(x) for x in rng.integers(1, 9, len(support))]
        mu = AtomicMeasure.from_weights(support, [Fraction(r, sum(raw)) for r in raw])
        sites = sorted(set(support) | set(rng.choice(32, 3, replace=False).tolist()))
        p = float(rng.choice([1.0, 2.0]))
        eps = float(rng.choice([0.3, 0.15, 0.08, 0.04]))
        rep = quantization_number(dn, mu, eps, kind=W_KIND, p=p, sites=sites)
        dist = dn.as_matrix()[np.ix_(sites, support)] ** p
        w = np.array([float(x) for x in mu.weights])
        bound = eps ** p * (1 + quantization.W_SLACK)
        assert rep.mode == "exact" and rep.lower == rep.upper == len(rep.witness)
        assert set(rep.witness) <= set(sites)
        assert brute_k_median_cost(dist, w, rep.upper) <= bound
        if rep.upper > 1:
            assert brute_k_median_cost(dist, w, rep.upper - 1) > bound


def test_w_kind_group_dp_declines_past_its_budget(system):
    # 16 atoms need 15 levels of (3^16 - 1) / 2 splits, past the default budget,
    # so the enumeration and local search answer as they did before the program
    mu = AtomicMeasure.uniform(list(range(0, 32, 2)))
    rep = quantization_number(system.space, mu, 0.05, kind=W_KIND)
    assert (rep.lower, rep.upper, rep.mode, rep.method) == (4, 5, "heuristic", "local-search")
    assert rep.witness == (4, 10, 16, 22, 28)


def test_w_kind_group_dp_runs_only_when_its_worst_case_fits(system, monkeypatch):
    # 5 atoms at 32 sites: 2^5 * 32 prices, 4 levels of 121 splits, one re-check
    mu = AtomicMeasure.uniform([0, 3, 7, 12, 19])
    need = 32 * 32 + 4 * 121 + 1
    rep = quantization_number(system.space, mu, 0.05, kind=W_KIND, budget=need)
    assert (rep.upper, rep.mode, rep.method) == (3, "exact", "group-dp")
    declined = quantization_number(system.space, mu, 0.05, kind=W_KIND, budget=need - 1)
    assert declined.method != "group-dp"
    # declining spends nothing: the site search gets the whole budget
    _no_group_dp(monkeypatch)
    assert quantization_number(system.space, mu, 0.05, kind=W_KIND, budget=need - 1) == declined


def test_w_kind_group_dp_declines_past_its_atom_cap(system):
    # the splits of 15 atoms hold about 0.3 GB, so no budget starts the program
    mu = AtomicMeasure.uniform(list(range(0, 30, 2)))
    assert mu.support_size > quantization.GROUP_DP_ATOMS
    rep = quantization_number(system.space, mu, 0.2, kind=W_KIND, budget=10**12)
    assert (rep.upper, rep.mode, rep.method) == (2, "exact", "k-enumeration")


def test_w_kind_slack_is_relative_to_the_bound():
    # one site costs 0.0625^13 / 2 = 1.1e-16, far above eps^13 = 1e-26
    mu = AtomicMeasure.uniform([0, 1])
    rep = quantization_number(doubling_grid(16).space, mu, 0.01, kind=W_KIND, p=13)
    assert (rep.lower, rep.upper, rep.mode) == (2, 2, "exact")


def test_lp_kind_fallback_brackets_with_the_greedy_cover(system, monkeypatch):
    def exhausted(*args, **kwargs):
        raise BudgetExceededError("forced")

    monkeypatch.setattr(solvers, "exact_min_partial_cover", exhausted)
    mu = AtomicMeasure.uniform([2, 9, 15, 22, 30])
    sites = [0, 2, 5, 9, 15, 17, 22, 26, 30]
    eps = 0.1
    rep = quantization_number(system.space, mu, eps, kind=LP_KIND, sites=sites)
    balls = system.space.as_matrix()[np.ix_(sites, list(mu.atoms))] <= eps
    greedy = solvers.greedy_partial_cover(pack_rows(balls), list(mu.weights),
                                          1 - Fraction(eps))
    assert (rep.lower, rep.upper, rep.mode, rep.method) == (1, len(greedy), "heuristic",
                                                            "greedy")
    assert rep.witness == tuple(sites[i] for i in greedy)
    assert rep.upper > 1
    assert rep.lower <= brute_partial_cover(balls, list(mu.weights),
                                            1 - Fraction(eps)) <= rep.upper


def test_partial_cover_bracket_contains_the_count_at_every_budget():
    # targets 1 - Fraction(float(k / s)) sit within a rounding error of a
    # sum of weights, where a float mass sum lands on the wrong side
    rng = np.random.default_rng(14)
    for _ in range(500):
        m, n = (int(x) for x in rng.integers(3, 9, size=2))
        masks = rng.random((m, n)) < 0.5
        masks[rng.integers(m), ~masks.any(axis=0)] = True  # every atom coverable
        raw = [int(x) for x in rng.integers(1, 9, size=n)]
        s = sum(raw)
        weights = [Fraction(r, s) for r in raw]
        target = 1 - Fraction(float(int(rng.integers(1, s)) / s))
        count = quantization.partial_cover_bracket(masks, weights, target).value
        for budget in (1, 2, 3, 5):
            got = quantization.partial_cover_bracket(masks, weights, target, budget)
            assert got.lower <= count <= got.upper, (masks, raw, target, budget)


def _quantize(tmp_path, system, kind, atoms, weights, count, horizons) -> str:
    """The text of ``quantization.csv`` for one config."""
    config = tmp_path / "q.json"
    config.write_text(json.dumps({
        "system": system, "kind": kind,
        "measure": {"atoms": atoms, "weights": weights},
        "grid": {"start": 0.45, "ratio": 0.5, "count": count}, "horizons": horizons}))
    return run_quantize(config, tmp_path).read_text()


@pytest.mark.parametrize("kind", [LP_KIND, W_KIND])
def test_quantize_holds_no_d_n_table(kind, tmp_path):
    # the 2048-point exp shift: a one-byte d_n table would be size**2 bytes,
    # and a walk over d_2 and d_3 tables peaks at about two of them
    size = 2048
    system = {"kind": "shift", "symbols": 2, "depth": 11, "horizon_cap": 3}
    tracemalloc.start()
    try:
        _quantize(tmp_path, system, kind, [0, 300, 700, 1500, 2047], ["1/5"] * 5, 4,
                  [1, 2, 3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * size**2, peak / size**2


QUANTIZE_SYSTEMS = {
    "doubling": {"kind": "doubling", "grid": 16},
    "product-shift": {"kind": "shift", "metric": "product", "symbols": 3, "depth": 3},
    "exp-shift": {"kind": "shift", "symbols": 3, "depth": 3},
}

PINNED_CSV = {
    ("doubling", LP_KIND): """\
eps,n,kind,Q,mode
0.448252429385,1,lp,1,exact
0.224126214693,1,lp,2,exact
0.112063107346,1,lp,4,exact
0.448252429385,2,lp,1,exact
0.224126214693,2,lp,3,exact
0.112063107346,2,lp,4,exact
0.448252429385,3,lp,2,exact
0.224126214693,3,lp,3,exact
0.112063107346,3,lp,4,exact
""",
    ("doubling", W_KIND): """\
eps,n,kind,Q,mode
0.448252429385,1,wasserstein,1,exact
0.224126214693,1,wasserstein,2,exact
0.112063107346,1,wasserstein,2,exact
0.448252429385,2,wasserstein,1,exact
0.224126214693,2,wasserstein,2,exact
0.112063107346,2,wasserstein,3,exact
0.448252429385,3,wasserstein,1,exact
0.224126214693,3,wasserstein,2,exact
0.112063107346,3,wasserstein,3,exact
""",
    ("product-shift", LP_KIND): """\
eps,n,kind,Q,mode
0.448252429385,1,lp,1,exact
0.224126214693,1,lp,3,exact
0.112063107346,1,lp,4,exact
0.448252429385,2,lp,2,exact
0.224126214693,2,lp,3,exact
0.112063107346,2,lp,4,exact
0.448252429385,3,lp,2,exact
0.224126214693,3,lp,3,exact
0.112063107346,3,lp,4,exact
""",
    ("product-shift", W_KIND): """\
eps,n,kind,Q,mode
0.448252429385,1,wasserstein,1,exact
0.224126214693,1,wasserstein,2,exact
0.112063107346,1,wasserstein,2,exact
0.448252429385,2,wasserstein,1,exact
0.224126214693,2,wasserstein,2,exact
0.112063107346,2,wasserstein,3,exact
0.448252429385,3,wasserstein,1,exact
0.224126214693,3,wasserstein,2,exact
0.112063107346,3,wasserstein,3,exact
""",
    ("exp-shift", LP_KIND): """\
eps,n,kind,Q,mode
0.448252429385,1,lp,1,exact
0.224126214693,1,lp,3,exact
0.112063107346,1,lp,4,exact
0.448252429385,2,lp,2,exact
0.224126214693,2,lp,3,exact
0.112063107346,2,lp,4,exact
0.448252429385,3,lp,2,exact
0.224126214693,3,lp,3,exact
0.112063107346,3,lp,4,exact
""",
    ("exp-shift", W_KIND): """\
eps,n,kind,Q,mode
0.448252429385,1,wasserstein,1,exact
0.224126214693,1,wasserstein,2,exact
0.112063107346,1,wasserstein,3,exact
0.448252429385,2,wasserstein,2,exact
0.224126214693,2,wasserstein,3,exact
0.112063107346,2,wasserstein,4,exact
0.448252429385,3,wasserstein,2,exact
0.224126214693,3,wasserstein,3,exact
0.112063107346,3,wasserstein,4,exact
""",
}


def test_quantize_csv_bytes_are_pinned(tmp_path):
    # a coordinate, a coded and a chain-backed base; horizons out of order
    for (name, kind), want in PINNED_CSV.items():
        got = _quantize(tmp_path, QUANTIZE_SYSTEMS[name], kind, [0, 3, 9, 14],
                        ["1/2", "1/4", "1/8", "1/8"], 3, [3, 1, 2])
        assert got == want, (name, kind)
