"""Spanning lattices for the weighted-sup cube."""

import pytest
from fractions import Fraction

from dynoscale.errors import ParameterError
from dynoscale.systems.banach import (banach_spanning_set, min_separation,
                                      verify_separated, audit_spanning)


def test_parameter_domain():
    with pytest.raises(ParameterError):
        banach_spanning_set(Fraction(1))
    with pytest.raises(ParameterError):
        banach_spanning_set(Fraction(0))


def test_free_coordinate_count_brackets_scale():
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 10)):
        lat = banach_spanning_set(eps)
        n0 = lat.coord_count
        assert Fraction(1, n0 + 1) < eps / 2 <= Fraction(1, n0)


def test_cardinality_is_grid_power():
    for eps in (Fraction(1, 2), Fraction(1, 4)):
        lat = banach_spanning_set(eps)
        m = int(2 / eps)
        assert lat.cardinality == m ** lat.coord_count


def test_point_decode_roundtrip():
    lat = banach_spanning_set(Fraction(1, 2))
    pts = {lat.point(i) for i in range(lat.cardinality)}
    assert len(pts) == lat.cardinality
    assert all(all(abs(c) <= 1 for c in p) for p in pts)


def test_half_scale_min_separation_literal_vs_structural():
    # at eps = 1/2 the lattice is small enough for the literal pair scan,
    # which min_separation cross-validates internally
    lat = banach_spanning_set(Fraction(1, 2))
    value, pair = min_separation(lat)
    assert value == Fraction(1, 8)
    p, q = lat.point(pair[0]), lat.point(pair[1])
    assert lat.norm_distance(p, q) == value


def test_separation_certificate_beats_quarter_square():
    for eps in (Fraction(1, 2), Fraction(1, 4)):
        lat = banach_spanning_set(eps)
        assert verify_separated(lat, eps * eps / 4)


def test_spanning_audit_stays_below_scale():
    for eps in (Fraction(1, 2), Fraction(1, 4)):
        lat = banach_spanning_set(eps)
        worst = audit_spanning(lat, samples=200, seed=7)
        assert worst < eps


def test_audit_is_deterministic():
    lat = banach_spanning_set(Fraction(1, 2))
    assert audit_spanning(lat, 50, seed=3) == audit_spanning(lat, 50, seed=3)
