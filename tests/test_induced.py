"""Measure lattices and the induced dynamics."""

import time
import tracemalloc

import numpy as np
import pytest

from dynoscale.errors import ParameterError
from dynoscale.measures.atomic import AtomicMeasure, pushforward
from dynoscale.measures.induced import (induced_step, induced_sweep,
                                        lattice_transport_space, measure_lattice)
from dynoscale.measures.wasserstein import wasserstein
from dynoscale.measures.constructions import apart_count, support_cross_min
from dynoscale.measures.induced import DIAGNOSTIC_BUDGET
from dynoscale.measures.wasserstein import w1_pairs_two_atom
from dynoscale.metric_core.space import FiniteMetricSpace
from dynoscale.systems.base import bowen_space, identity_system
from dynoscale.systems.intervals import doubling_grid, random_space
from dynoscale.systems.shifts import binary_exp_shift


@pytest.fixture(scope="module")
def shift4():
    return binary_exp_shift(depth=4, horizon_cap=4)


def test_lattice_contains_point_masses_and_pairs():
    mus = measure_lattice(5, max_atoms=2, q=4)
    diracs = [m for m in mus if m.support_size == 1]
    assert len(diracs) == 5
    assert len(mus) == 5 + 10 * 3


def test_lattice_cap_enforced():
    with pytest.raises(ParameterError):
        measure_lattice(100, max_atoms=2, q=8)


@pytest.mark.parametrize("size, max_atoms", [(300, 2), (40, 3)])
def test_lattice_limits_are_checked_before_any_measure_is_built(size, max_atoms):
    # 300 points and q = 4 would build 134,850 measures
    start = time.perf_counter()
    with pytest.raises(ParameterError):
        measure_lattice(size, max_atoms, 4)
    assert time.perf_counter() - start < 0.5


def test_lattice_closed_under_pushforward(shift4):
    mus = measure_lattice(shift4.space.size)
    step_map = induced_step(mus, shift4.step)
    for i, mu in enumerate(mus):
        assert mus[int(step_map[i])] == pushforward(mu, shift4.step)


def test_identity_induces_identity():
    system = identity_system(random_space(4, 2), horizon_cap=3)
    mus = measure_lattice(4)
    step_map = induced_step(mus, system.step)
    assert np.array_equal(step_map, np.arange(len(mus)))


def test_lattice_distances_match_direct_transport(shift4):
    mus = measure_lattice(shift4.space.size)
    for n in (1, 3):
        dn = bowen_space(shift4, n)
        lat = lattice_transport_space(dn, mus)
        rng = np.random.default_rng(0)
        for _ in range(25):
            i, j = rng.integers(0, len(mus), 2)
            direct, _ = wasserstein(dn, mus[i], mus[j])
            assert lat.dist(int(i), int(j)) == pytest.approx(direct, abs=1e-9)


def test_induced_sweep_embedding_and_diagnostics(shift4):
    cells = induced_sweep(shift4, horizons=[1, 2], grid=[0.4, 0.15])
    assert all(c.embedding_holds for c in cells)
    for c in cells:
        assert c.covering_diagnostic["asserted"] is False
        assert c.apart.lower >= c.base_separated.value or c.embedding_holds


def test_induced_sweep_reports_the_apart_count_at_its_horizon():
    cells = induced_sweep(doubling_grid(16, horizon_cap=2), [2], [0.3])
    assert [(c.horizon, c.apart.horizon, c.base_separated.horizon) for c in cells] == [
        (2, 2, 2)]


def _all_pairs_lattice(dn: FiniteMetricSpace, measures) -> FiniteMetricSpace:
    """The lattice as first built: the four cost arrays over the upper
    triangle of the float table, priced, mirrored, then encoded."""
    m = dn.as_matrix()
    k = len(measures)
    a0 = np.array([mu.atoms[0] for mu in measures])
    a1 = np.array([mu.atoms[-1] for mu in measures])
    wa = np.array([float(mu.weights[0]) for mu in measures])
    ii, jj = np.triu_indices(k, 1)
    dist = np.zeros((k, k))
    dist[ii, jj] = w1_pairs_two_atom(m[a0[ii], a0[jj]], m[a0[ii], a1[jj]],
                                     m[a1[ii], a0[jj]], m[a1[ii], a1[jj]], wa[ii], wa[jj])
    dist += dist.T
    return FiniteMetricSpace(matrix=dist, check=False)


@pytest.mark.parametrize("system, n", [
    *((doubling_grid(24), n) for n in (1, 2, 3)),
    *((binary_exp_shift(depth=4, horizon_cap=4), n) for n in (1, 2, 3, 4))])
def test_row_block_lattice_codes_are_bitwise_the_all_pairs_ones(system, n):
    dn = bowen_space(system, n)
    mus = measure_lattice(dn.size, 2, 4)
    levels, codes = lattice_transport_space(dn, mus).level_codes()
    want_levels, want_codes = _all_pairs_lattice(dn, mus).level_codes()
    assert levels.tobytes() == want_levels.tobytes()
    assert codes.dtype == want_codes.dtype
    assert np.array_equal(codes, want_codes)


def test_lattice_of_1520_measures_peaks_below_50_mib():
    # the all-pairs construction peaked at 114.5 MiB here
    system = doubling_grid(32)
    mus = measure_lattice(32, 2, 4)
    assert len(mus) == 1520
    tracemalloc.start()
    try:
        lattice_transport_space(bowen_space(system, 2), mus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_support_gaps_and_an_apart_count_on_1520_measures_peak_below_16_mib():
    # the float64 gap table alone peaked at 72.8 MiB here
    dn = bowen_space(doubling_grid(32), 2)
    mus = measure_lattice(32, 2, 4)
    tracemalloc.start()
    try:
        gaps = support_cross_min(dn, mus)
        apart_count(dn, mus, 0.4, DIAGNOSTIC_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert gaps.dtype == dn.level_codes()[1].dtype


def test_lattice_rejects_measures_with_three_atoms():
    mus = [AtomicMeasure.dirac(0), AtomicMeasure.uniform([0, 1, 2])]
    with pytest.raises(ParameterError):
        lattice_transport_space(random_space(4, 2), mus)
