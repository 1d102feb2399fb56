"""Exact Levy-Prokhorov distances with certificate oracles."""

import numpy as np
import pytest
from fractions import Fraction

from dynoscale.errors import ParameterError
from dynoscale.measures.atomic import AtomicMeasure
from dynoscale.measures.prokhorov import (levy_prokhorov, lp_condition_holds,
                                          w1_upper_report)
from dynoscale.systems.base import bowen_space
from dynoscale.systems.intervals import doubling_grid


@pytest.fixture(scope="module")
def system():
    return doubling_grid(20, horizon_cap=4)


def test_identical_measures_distance_zero(system):
    mu = AtomicMeasure.uniform([2, 7, 13])
    assert levy_prokhorov(system.space, mu, mu) == 0.0


def test_point_masses_clip_at_one(system):
    for n in (1, 2):
        dn = bowen_space(system, n)
        for i, j in ((0, 9), (4, 15)):
            got = levy_prokhorov(dn, AtomicMeasure.dirac(i), AtomicMeasure.dirac(j))
            assert got == pytest.approx(min(dn.dist(i, j), 1.0), abs=1e-12)
            assert lp_condition_holds(dn, AtomicMeasure.dirac(i),
                                      AtomicMeasure.dirac(j), got)


def test_symmetry_on_random_pairs(system):
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        dn = bowen_space(system, n)
        a = sorted(rng.choice(20, int(rng.integers(1, 5)), replace=False).tolist())
        b = sorted(rng.choice(20, int(rng.integers(1, 5)), replace=False).tolist())
        ra = [int(x) for x in rng.integers(1, 5, len(a))]
        rb = [int(x) for x in rng.integers(1, 5, len(b))]
        mu = AtomicMeasure.from_weights(a, [Fraction(r, sum(ra)) for r in ra])
        nu = AtomicMeasure.from_weights(b, [Fraction(r, sum(rb)) for r in rb])
        assert levy_prokhorov(dn, mu, nu) == pytest.approx(
            levy_prokhorov(dn, nu, mu), abs=1e-12)


def test_certificate_tightness(system):
    rng = np.random.default_rng(21)
    dn = bowen_space(system, 2)
    for _ in range(40):
        a = sorted(rng.choice(20, int(rng.integers(2, 5)), replace=False).tolist())
        b = sorted(rng.choice(20, int(rng.integers(2, 5)), replace=False).tolist())
        mu = AtomicMeasure.uniform(a)
        nu = AtomicMeasure.uniform(b)
        v = levy_prokhorov(dn, mu, nu)
        assert lp_condition_holds(dn, mu, nu, v)
        if v > 1e-9:
            assert not lp_condition_holds(dn, mu, nu, v * 0.999 - 1e-9)


def test_exact_mode_refuses_large_supports(system):
    mu = AtomicMeasure.uniform(list(range(12)))
    nu = AtomicMeasure.uniform(list(range(8, 20)))
    with pytest.raises(ParameterError):
        levy_prokhorov(system.space, mu, nu)
    report = w1_upper_report(system.space, mu, nu)
    assert report["asserted"] is False and "w1" in report
