"""Counting operations: pinned example values and bracket semantics."""

import functools
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from dynoscale.errors import BudgetExceededError, ParameterError
from dynoscale.metric_core.checks import verify_chain
from dynoscale.metric_core.counts import (CountBracket, ScaleGrid, max_separated,
                                          min_ball_cover, min_diameter_cover,
                                          min_spanning)
from dynoscale.metric_core import solvers
from dynoscale.metric_core.counts import IRRATIONAL_OFFSET
from dynoscale.metric_core.space import FiniteMetricSpace
from dynoscale.oracle import (brute_max_separated, brute_min_diameter_cover,
                              brute_min_spanning)
from dynoscale.systems.base import bowen_space
from dynoscale.systems.intervals import doubling_grid, null_sequence_space, random_space
from dynoscale.systems.shifts import binary_exp_shift


def _one_point():
    return FiniteMetricSpace(coords=[Fraction(0)], check=False)


def _two_points():
    return FiniteMetricSpace(coords=[Fraction(0), Fraction(1)], check=False)


def test_one_point_space_counts_are_one():
    sp = _one_point()
    for op in (max_separated, min_spanning, min_diameter_cover):
        assert op(sp, 0.5).value == 1
    assert min_ball_cover(sp, 0.5).value == 1


def test_scale_above_diameter_gives_one():
    sp = random_space(6, seed=0)
    assert max_separated(sp, sp.diameter).value == 1
    assert min_spanning(sp, sp.diameter * 1.01).value == 1
    assert min_diameter_cover(sp, sp.diameter * 1.01).value == 1


def test_two_points_ball_cover_at_04():
    assert min_ball_cover(_two_points(), 0.4).value == 2


def test_two_points_diameter_cover_at_05():
    # each covering set must be a singleton at scale 1/2
    assert min_diameter_cover(_two_points(), 0.5).value == 2


def test_five_random_points_separated_matches_brute():
    sp = random_space(5, seed=12)
    got = max_separated(sp, 0.2)
    assert got.mode == "exact"
    assert got.value == brute_max_separated(sp, 0.2)


def test_six_point_diameter_cover_matches_partition_search():
    sp = random_space(6, seed=5)
    dense = FiniteMetricSpace(matrix=sp.as_matrix(), check=False)
    got = min_diameter_cover(dense, 0.3)
    assert got.mode == "exact"
    assert got.value == brute_min_diameter_cover(sp, 0.3)


def test_null_sequence_cover_matches_brute_at_small_k():
    sp = null_sequence_space(20)
    eps = Fraction(1, 100)
    got = min_ball_cover(sp, eps)
    assert got.mode == "exact"
    assert got.value == brute_min_spanning(sp, eps, limit=sp.size)


def test_null_sequence_large_is_fast_and_exact():
    sp = null_sequence_space(200)
    got = min_ball_cover(sp, Fraction(1, 100))
    assert got.mode == "exact" and got.method == "line-sweep"


def test_chain_on_random_space_all_grid_scales():
    sp = random_space(8, seed=3)
    dense = FiniteMetricSpace(matrix=sp.as_matrix(), check=False)
    for eps in ScaleGrid(0.4, 0.5, 4).scales():
        results = verify_chain(dense, eps)
        assert all(r.status == "pass" for r in results), results


def test_greedy_separated_lies_between_spanning_and_separated():
    # a maximal separated set is simultaneously spanning at the same scale
    from dynoscale.metric_core.solvers import greedy_independent_set
    sp = random_space(10, seed=8)
    dense = FiniteMetricSpace(matrix=sp.as_matrix(), check=False)
    for eps in (0.1, 0.22, 0.37):
        greedy = len(greedy_independent_set(dense.close_mask(eps, strict=False)))
        r = min_spanning(dense, eps).value
        s = max_separated(dense, eps).value
        assert r <= greedy <= s


def test_separated_matches_brute_at_fifteen_points():
    sp = random_space(15, seed=31)
    dense = FiniteMetricSpace(matrix=sp.as_matrix(), check=False)
    for eps in (0.12, 0.33):
        got = max_separated(dense, eps)
        assert got.mode == "exact"
        assert got.value == brute_max_separated(sp, eps)


def _exhausted(*args, **kwargs):
    raise BudgetExceededError("forced")


@pytest.mark.parametrize("seed", range(6))
def test_heuristic_fallback_sandwiches_the_oracle(seed, monkeypatch):
    monkeypatch.setattr(solvers, "exact_max_independent_set", _exhausted)
    monkeypatch.setattr(solvers, "exact_min_set_cover", _exhausted)
    monkeypatch.setattr(solvers, "exact_min_clique_cover", _exhausted)
    sp = random_space(6 + seed % 3, seed=40 + seed)
    dense = FiniteMetricSpace(matrix=sp.as_matrix(), check=False)
    for frac in (0.15, 0.3, 0.6):
        eps = frac * sp.diameter
        for op, brute in [(max_separated, brute_max_separated),
                          (min_spanning, brute_min_spanning),
                          (min_ball_cover, brute_min_spanning),
                          (min_diameter_cover, brute_min_diameter_cover)]:
            got = op(dense, eps)
            assert got.mode == "heuristic" and got.method == "greedy"
            assert got.lower <= brute(sp, eps) <= got.upper, (op.__name__, eps)


def test_diameter_cover_budget_bounds_clique_enumeration():
    # the greedy bounds meet, so the small budget is never spent
    dn = bowen_space(doubling_grid(256, horizon_cap=5), 3)
    got = min_diameter_cover(dn, 0.5 * IRRATIONAL_OFFSET, budget=1000)
    assert got.mode == "exact"
    assert got.value == 8


def test_doubling_256_diameter_covers_are_exact():
    system = doubling_grid(256, horizon_cap=5)
    scales = ScaleGrid(0.5, 0.6, 6).scales()
    cells = [min_diameter_cover(bowen_space(system, n), eps, horizon=n)
             for n in range(1, 6) for eps in scales]
    assert len(cells) == 30
    assert all(c.mode == "exact" for c in cells)


@functools.cache
def _d3_count_peak():
    # d_3 of the 2048-point exp shift is a partition chain, built before
    # tracing, so the separated, spanning and diameter counts close on its
    # class labels and build no graph. Returns the tracemalloc peak over
    # N**2, measured once for both tests below
    dn = bowen_space(binary_exp_shift(11, horizon_cap=3), 3)
    size = dn.size
    tracemalloc.start()
    try:
        for eps in ScaleGrid(0.5, 0.6, 6).scales():
            for op in (max_separated, min_spanning, min_diameter_cover):
                assert op(dn, eps, horizon=3).mode == "exact"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / size**2


def test_graph_counts_hold_under_half_a_code_table_beside_d_n():
    ratio = _d3_count_peak()
    assert ratio < 0.45, ratio


def test_partition_certificate_holds_no_table_sized_temporary():
    # no temporary sized like a table: what is left is a few label rows
    ratio = _d3_count_peak()
    assert ratio < 0.3, ratio


def _pentagon():
    # neighbours on the circle are 1.18 apart, the other pairs 1.90, so the
    # d < 1.5 graph is the 5-cycle, whose greedy bounds 2 and 3 do not meet
    angles = 2 * np.pi * np.arange(5) / 5
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return FiniteMetricSpace(
        matrix=np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)), check=False)


def test_diameter_cover_exhausted_budget_brackets_the_oracle():
    sp = _pentagon()
    assert min_diameter_cover(sp, 1.5).value == brute_min_diameter_cover(sp, 1.5) == 3
    got = min_diameter_cover(sp, 1.5, budget=1)
    assert got.mode == "heuristic" and got.method == "greedy"
    assert got.lower <= 3 <= got.upper


def test_bracket_invariants():
    with pytest.raises(ParameterError):
        CountBracket("separated", 0.1, 1, 3, 2, "exact")
    with pytest.raises(ParameterError):
        CountBracket("separated", 0.1, 1, 2, 3, "exact")
    with pytest.raises(ParameterError):
        CountBracket("separated", 0.1, 1, 0, 1, "heuristic")
    heur = CountBracket("separated", 0.1, 1, 2, 3, "heuristic")
    with pytest.raises(ParameterError):
        heur.value


def test_scale_grid_decreasing_and_offset():
    grid = ScaleGrid(0.5, 0.5, 4)
    vals = grid.scales()
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] != 0.5  # irrational offset applied
    assert ScaleGrid(0.5, 0.5, 4, offset=False).scales()[0] == 0.5
    with pytest.raises(ParameterError):
        ScaleGrid(0.0, 0.5, 4)
    with pytest.raises(ParameterError):
        ScaleGrid(0.5, 1.5, 4)
