"""Dynamical metrics: iteration examples, monotonicity, validity."""

import numpy as np
import pytest

from dynoscale.errors import ParameterError, RepresentationError
from dynoscale.metric_core import max_separated
from dynoscale.systems import (KolyadaSnohaMap, binary_exp_shift, bowen_distance,
                               bowen_space, bowen_spaces, doubling_grid, full_shift,
                               identity_system, random_space, system_from_step)


def test_horizon_one_is_base_metric(doubling64):
    for i, j in ((1, 2), (5, 40), (0, 63)):
        assert bowen_distance(doubling64, i, j, 1) == doubling64.space.dist(i, j)
    assert bowen_space(doubling64, 1) is doubling64.space


def test_identity_map_all_horizons_agree():
    sp = random_space(6, seed=1)
    system = identity_system(sp, horizon_cap=5)
    for n in (1, 3, 5):
        assert bowen_distance(system, 0, 4, n) == sp.dist(0, 4)


def test_doubling_orbit_example(doubling64):
    # points 1/64 and 2/64 separate to 4/64 after three steps
    assert bowen_distance(doubling64, 1, 2, 3) == pytest.approx(4 / 64)


def test_monotone_in_horizon(doubling64):
    for i, j in ((3, 17), (9, 40)):
        prev = 0.0
        for n in range(1, 7):
            d = bowen_distance(doubling64, i, j, n)
            assert d >= prev
            prev = d


def test_bowen_space_is_valid_metric(doubling64):
    dn = bowen_space(doubling64, 4)
    m = dn.as_matrix()
    assert np.allclose(np.diag(m), 0)
    assert np.array_equal(m, m.T)
    # spot triangle check
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, j, k = rng.integers(0, dn.size, 3)
        assert m[i, j] <= m[i, k] + m[k, j] + 1e-12


def test_counts_monotone_in_horizon_and_scale(shift6):
    values = {}
    for n in (1, 2, 3):
        dn = bowen_space(shift6, n)
        for eps in (0.4, 0.15):
            values[(n, eps)] = max_separated(dn, eps, horizon=n).value
    assert values[(1, 0.4)] <= values[(2, 0.4)] <= values[(3, 0.4)]
    assert values[(2, 0.4)] <= values[(2, 0.15)]


def test_invalid_indices_and_horizons(doubling64):
    with pytest.raises(IndexError):
        bowen_distance(doubling64, 0, 99, 2)
    with pytest.raises(ParameterError):
        bowen_distance(doubling64, 0, 1, 0)
    with pytest.raises(ParameterError):
        bowen_space(doubling64, doubling64.horizon_cap + 1)


def test_map_image_outside_space_rejected():
    sp = random_space(4, seed=0)
    with pytest.raises(RepresentationError):
        system_from_step(sp, np.array([0, 1, 2, 9]), 3)


def _max_anew(system, n):
    """max over t < n of d(f^t x, f^t y), every layer built anew."""
    if system.orbit_index is not None:
        base = system.space.as_matrix()
        layers = [base[np.ix_(idx, idx)] for idx in system.orbit_index[:n]]
    else:
        layers = [np.abs(v[:, None] - v[None, :]) for v in system.orbit_values[:n]]
    return np.max(layers, axis=0)


BOWEN_SYSTEMS = {
    "exp-shift": lambda: binary_exp_shift(5, horizon_cap=5),
    "product-shift": lambda: full_shift(2, 4, metric="product", horizon_cap=4),
    "doubling": lambda: doubling_grid(32, horizon_cap=5),
    "interval-values": lambda: KolyadaSnohaMap.family_f1(2).validation_net(
        1, per_branch=6, horizon=4),
}


@pytest.mark.parametrize("horizons", [[1, 2, 3, 4], [2, 3], [1, 3], [4], [3, 1, 2], [2, 2]],
                         ids=str)
@pytest.mark.parametrize("name", BOWEN_SYSTEMS)
def test_bowen_spaces_match_a_max_built_anew_bitwise(name, horizons):
    system = BOWEN_SYSTEMS[name]()
    # all tables are compared after the last step, so a step that wrote
    # into a table it had already yielded would show here
    spaces = list(bowen_spaces(system, horizons))
    assert len(spaces) == len(horizons)
    for n, dn in zip(horizons, spaces):
        assert dn.as_matrix().tobytes() == _max_anew(system, n).tobytes(), n
        assert dn.name == (system.space.name if n == 1 else f"{system.name}|d_{n}")


def test_bowen_spaces_reject_a_horizon_beyond_the_cap(doubling64):
    with pytest.raises(ParameterError):
        list(bowen_spaces(doubling64, [1, doubling64.horizon_cap + 1]))
