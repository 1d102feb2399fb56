"""Products and powers of systems."""

import tracemalloc

import numpy as np
import pytest

from dynoscale.errors import ParameterError
from dynoscale.metric_core.counts import max_separated, min_spanning
from dynoscale.metric_core.space import FiniteMetricSpace, product_codes
from dynoscale.systems.base import bowen_space, identity_system
from dynoscale.systems.combine import power_system, product_system
from dynoscale.systems.intervals import doubling_grid, random_space
from dynoscale.systems.shifts import full_shift


def test_product_metric_is_coordinate_max():
    a = identity_system(random_space(4, 0), horizon_cap=3)
    b = doubling_grid(5, horizon_cap=3)
    z = product_system(a, b)
    for i in range(a.space.size):
        for j in range(b.space.size):
            for k in range(a.space.size):
                for l in range(b.space.size):
                    expect = max(a.space.dist(i, k), b.space.dist(j, l))
                    got = z.space.dist(i * b.space.size + j, k * b.space.size + l)
                    assert got == expect


def _kron_max(a, b):
    # reference: the pair table as the max of two Kronecker float tables
    na, nb = a.space.size, b.space.size
    return np.maximum(np.kron(a.space.as_matrix(), np.ones((nb, nb))),
                      np.kron(np.ones((na, na)), b.space.as_matrix()))


@pytest.mark.parametrize("factors, dtype", [
    (lambda: (doubling_grid(6), identity_system(random_space(6, 0), horizon_cap=4)), np.uint8),
    (lambda: (doubling_grid(16), full_shift(2, 4, metric="product")), np.uint8),
    # the exp shift lists base**-depth, a level no pair of distinct words takes
    (lambda: (full_shift(3, 2), full_shift(2, 5, metric="product")), np.uint8),
    (lambda: (identity_system(random_space(20, 1), horizon_cap=4),
              identity_system(random_space(20, 2), horizon_cap=4)),
     np.uint16),
], ids=["grid-random", "grid-product-shift", "unused-level", "uint16"])
def test_product_codes_equal_the_encoded_kron_max_table_bitwise(factors, dtype):
    a, b = factors()
    want = _kron_max(a, b)
    z = product_system(a, b)
    assert z.space.as_matrix().tobytes() == want.tobytes()
    levels, codes = z.space.level_codes()
    ref_levels, ref_codes = FiniteMetricSpace(matrix=want, check=False).level_codes()
    assert levels.tobytes() == ref_levels.tobytes()
    assert codes.dtype == ref_codes.dtype == dtype
    assert np.array_equal(codes, ref_codes)


@pytest.mark.parametrize("factors", [
    lambda: (full_shift(2, 3), full_shift(2, 4)),
    lambda: (full_shift(2, 6), full_shift(2, 6)),
    # e**-k and 2**-k levels interleave, and a power shares its base's space
    lambda: (full_shift(3, 3, base=2.0), power_system(full_shift(2, 5), 2)),
], ids=["3x4", "6x6", "shift-x-power"])
def test_a_product_of_chains_is_a_chain_with_the_product_codes_bitwise(factors):
    a, b = factors()
    z = product_system(a, b)
    assert z.space.chain is not None and z.space._codes is None
    want_levels, want_codes = product_codes(a.space.level_codes(), b.space.level_codes(),
                                            np.maximum)
    levels, codes = z.space.level_codes()
    assert levels.tobytes() == want_levels.tobytes()
    assert codes.dtype == want_codes.dtype and codes.tobytes() == want_codes.tobytes()


def _traced_peak(build):
    tracemalloc.start()
    try:
        system = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return system.space.size, peak


def test_product_of_grids_allocates_about_its_code_table():
    a, b = doubling_grid(64), doubling_grid(64)
    size, peak = _traced_peak(lambda: product_system(a, b))
    # one-byte codes, N**2 bytes; a float table would take 8 * N**2
    assert peak < 1.5 * size**2, peak / size**2


def test_product_metric_shift_allocates_a_few_bytes_a_pair():
    size, peak = _traced_peak(lambda: full_shift(2, 12, metric="product"))
    # 4096 levels, so two-byte codes, beside the last step's factor codes
    assert peak < 3 * size**2, peak / size**2


def test_power_one_is_identity_on_counts(doubling64):
    powered = power_system(doubling64, 1)
    for n in (1, 2, 3):
        for eps in (0.3, 0.1):
            lhs = max_separated(bowen_space(powered, n), eps, horizon=n)
            rhs = max_separated(bowen_space(doubling64, n), eps, horizon=n)
            assert lhs.value == rhs.value


def test_power_counts_below_stretched_horizon(doubling64):
    powered = power_system(doubling64, 2)
    for n in (1, 2, 3):
        for eps in (0.25, 0.09):
            lhs = max_separated(bowen_space(powered, n), eps, horizon=n)
            rhs = max_separated(bowen_space(doubling64, 2 * n), eps, horizon=2 * n)
            assert lhs.mode == rhs.mode == "exact"
            assert lhs.value <= rhs.value


def test_product_spanning_submultiplicative():
    a = identity_system(random_space(6, 3), horizon_cap=4)
    b = doubling_grid(6, horizon_cap=4)
    z = product_system(a, b)
    for n in (1, 2, 3):
        for eps in (0.3, 0.12):
            rz = min_spanning(bowen_space(z, n), eps, horizon=n)
            ra = min_spanning(bowen_space(a, n), eps, horizon=n)
            rb = min_spanning(bowen_space(b, n), eps, horizon=n)
            assert rz.value <= ra.value * rb.value


def test_power_exponent_validated(doubling64):
    with pytest.raises(ParameterError):
        power_system(doubling64, 0)
