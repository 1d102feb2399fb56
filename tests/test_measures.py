"""Atomic measures: invariants, pushforward, file format."""

import numpy as np
import pytest
from fractions import Fraction

from dynoscale.errors import ParameterError, RepresentationError
from dynoscale.measures.atomic import (AtomicMeasure, measure_from_json, measure_to_json,
                                       pushforward)


def test_weights_must_be_positive_and_sum_to_one():
    with pytest.raises(ParameterError):
        AtomicMeasure((0, 1), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ParameterError):
        AtomicMeasure((0, 1), (Fraction(1), Fraction(0)))
    with pytest.raises(ParameterError):
        AtomicMeasure((0, 0), (Fraction(1, 2), Fraction(1, 2)))


def test_from_weights_rejects_mismatched_lengths():
    with pytest.raises(ParameterError):
        AtomicMeasure.from_weights([0, 5, 9], [1])
    with pytest.raises(ParameterError):
        AtomicMeasure.from_weights([0], [Fraction(1, 2), Fraction(1, 2)])


def test_float_weights_renormalise_within_tolerance():
    mu = AtomicMeasure.from_weights([0, 1, 2], [0.2, 0.3, 0.5 + 1e-13])
    assert sum(mu.weights) == 1
    with pytest.raises(ParameterError):
        AtomicMeasure.from_weights([0, 1], [0.2, 0.3])


def test_rational_weights_must_sum_to_exactly_one():
    with pytest.raises(ParameterError):
        AtomicMeasure.from_weights([0, 1], [Fraction(1, 3), Fraction(1, 3)])
    with pytest.raises(ParameterError):
        measure_from_json('{"atoms": [0, 1], "weights": ["1/3", "1/3"]}')


def test_fraction_weights_over_different_denominators_sum_exactly():
    mu = AtomicMeasure((0, 1, 2), (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)))
    assert mu.support_size == 3
    with pytest.raises(ParameterError, match="^weights must sum to exactly 1$"):
        AtomicMeasure((0, 1, 2), (Fraction(1, 3), Fraction(1, 3),
                                  Fraction(1, 3) + Fraction(1, 10**40)))


def test_json_float_weights_keep_the_float_tolerance():
    mu = measure_from_json('{"atoms": [0, 1, 2], "weights": [0.2, 0.3, 0.5]}')
    assert mu.weights == (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))
    mu = measure_from_json('{"atoms": [0, 1], "weights": [0.25, 0.75000000000001]}')
    assert sum(mu.weights) == 1
    with pytest.raises(ParameterError):
        measure_from_json('{"atoms": [0, 1], "weights": [0.2, 0.3]}')


def test_uniform_and_dirac():
    assert AtomicMeasure.dirac(3).support_size == 1
    mu = AtomicMeasure.uniform([4, 2, 2])
    assert mu.atoms == (2, 4)
    assert mu.weights == (Fraction(1, 2), Fraction(1, 2))


def test_mix_and_domination():
    mu = AtomicMeasure.uniform([0, 1])
    nu = AtomicMeasure.dirac(2)
    mixed = mu.mix(nu, Fraction(1, 4))
    assert mixed.mass([0, 1]) == Fraction(1, 4)
    assert mixed.dominates(mu, Fraction(1, 4))
    assert not mixed.dominates(mu, Fraction(1, 2))


def test_pushforward_identity_and_constant():
    mu = AtomicMeasure.uniform([0, 3, 5])
    ident = np.arange(6)
    assert pushforward(mu, ident) == mu
    const = np.zeros(6, dtype=int)
    out = pushforward(mu, const)
    assert out == AtomicMeasure.dirac(0)


def test_pushforward_doubling_merges_collisions(doubling64):
    # 2*(1/8) = 1/4 and 2*(5/8) mod 1 = 1/4: both atoms land together
    labels = [float(c) for c in doubling64.space.coords]
    i8 = labels.index(1 / 8)
    i58 = labels.index(5 / 8)
    mu = AtomicMeasure.uniform([i8, i58])
    out = pushforward(mu, doubling64.step)
    assert out.support_size == 1
    assert labels[out.atoms[0]] == 1 / 4
    assert out.weights == (Fraction(1),)


def test_pushforward_mass_is_exactly_preserved():
    mu = AtomicMeasure.from_weights([0, 1, 2], [Fraction(1, 3)] * 3)
    step = np.array([1, 1, 0])
    out = pushforward(mu, step)
    assert sum(out.weights) == 1


def test_pushforward_rejects_out_of_range_atom():
    mu = AtomicMeasure.dirac(10)
    with pytest.raises(RepresentationError):
        pushforward(mu, np.arange(4))


def test_measure_json_roundtrip():
    mu = AtomicMeasure.from_weights([3, 1], [Fraction(2, 5), Fraction(3, 5)])
    text = measure_to_json(mu)
    assert measure_from_json(text) == mu
    with pytest.raises(ParameterError):
        measure_from_json('{"atoms": [0], "weights": ["1"], "extra": 1}')
