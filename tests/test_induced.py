"""Measure lattices and the induced dynamics."""

import time

import numpy as np
import pytest

from dynoscale.errors import ParameterError
from dynoscale.measures import (induced_step, induced_sweep,
                                lattice_transport_space, measure_lattice,
                                pushforward, wasserstein)
from dynoscale.systems import binary_exp_shift, bowen_space, identity_system, random_space


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
        lat = lattice_transport_space(shift4, mus, n)
        dn = bowen_space(shift4, n)
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
