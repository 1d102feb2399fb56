"""Shift spaces: pinned counts, prefix metric, truncation certificates."""

import math

import numpy as np
import pytest

from dynoscale.errors import ParameterError, ShapeError
from dynoscale.metric_core.counts import max_separated, min_diameter_cover, min_spanning
from dynoscale.systems.base import bowen_space
from dynoscale.systems.intervals import unit_lattice
from dynoscale.systems.shifts import discrete_alphabet, full_shift, rho_distance
from dynoscale.metric_core.space import code_dtype
from dynoscale.systems.shifts import _prefixes


def test_exp_shift_separated_counts(shift12):
    for m in (1, 4, 7, 10):
        got = max_separated(shift12.space, math.exp(-m))
        assert got.mode == "exact"
        assert got.value == 2**m


def test_exp_shift_spanning_counts(shift12):
    # balls at scale e^(-m+1/2) are the m-prefix classes
    for m in (1, 3, 6):
        got = min_spanning(shift12.space, math.exp(-m + 0.5))
        assert got.mode == "exact"
        assert got.value == 2**m


def test_exp_shift_dynamical_counts(shift6):
    # one extra horizon step doubles the separated count
    for n in (1, 2, 3):
        dn = bowen_space(shift6, n)
        got = max_separated(dn, math.exp(-2), horizon=n)
        assert got.value == 2 ** (n + 1)


def test_subadditive_cover_equality_on_full_shift(shift6):
    # diameter covers at scale 1/2 are exactly the n-prefix classes
    vals = {}
    for n in (2, 4):
        dn = bowen_space(shift6, n)
        vals[n] = min_diameter_cover(dn, 0.5, horizon=n).value
    assert vals[2] == 4 and vals[4] == 16
    assert vals[4] <= vals[2] * vals[2]


def test_shift_map_drops_first_symbol():
    s = full_shift(2, 4, metric="exp")
    lab = [tuple(w) for w in _prefixes(2, 4).tolist()]
    i = lab.index((1, 0, 1, 1))
    assert lab[int(s.step[i])] == (0, 1, 1, 0)  # tail symbol appended


def test_rho_distance_equal_prefixes_only_remainder():
    alph = discrete_alphabet(2)
    value, bound = rho_distance((0, 1, 0), (0, 1, 0), alph)
    assert value == 0.0
    assert bound == pytest.approx(2.0**-3 * alph.diameter)


def test_rho_distance_first_coordinate_term():
    alph = discrete_alphabet(2)
    value, _ = rho_distance((1, 0), (0, 0), alph)
    assert value == pytest.approx(0.5)


def test_rho_distance_alternating_sum_matches_direct():
    alph = unit_lattice(11)  # points i/10 on [0,1]
    x = tuple([10, 0] * 5)
    y = tuple([0, 10] * 5)
    value, bound = rho_distance(x, y, alph)
    direct = sum(2.0 ** -(k + 1) * 1.0 for k in range(10))
    assert value == pytest.approx(direct)
    assert bound == pytest.approx(2.0**-10)


def test_rho_distance_depth_mismatch():
    with pytest.raises(ShapeError):
        rho_distance((0, 1), (0, 1, 0), discrete_alphabet(2))


def test_product_metric_matches_rho_and_stores_truncation():
    s = full_shift(2, 5, metric="product")
    alph = s.meta["alphabet"]
    i, j = 3, 19
    words = _prefixes(2, 5).tolist()
    value, _ = rho_distance(words[i], words[j], alph)
    assert s.space.dist(i, j) == pytest.approx(value)
    assert s.meta["truncation_bound"] == pytest.approx(2.0**-5 * alph.diameter)


def test_prefix_iteration_commutes_with_shift():
    # distances of iterated prefixes match the re-truncated direct formula
    # within the stored truncation remainder
    s = full_shift(2, 6, metric="product", horizon_cap=6)
    alph = s.meta["alphabet"]
    bound = s.meta["truncation_bound"]
    lab = _prefixes(2, 6).tolist()
    for i, j in ((3, 44), (10, 57)):
        for t in (1, 2, 3):
            it, jt = int(s.orbit_index[t, i]), int(s.orbit_index[t, j])
            direct, _ = rho_distance(lab[i][t:], lab[j][t:], alph)
            assert abs(s.space.dist(it, jt) - direct) <= bound + 1e-12


def test_point_cap_enforced():
    with pytest.raises(ParameterError):
        full_shift(2, 14)


def test_tail_symbol_validated():
    with pytest.raises(ParameterError):
        full_shift(2, 4, tail=5)


def test_alphabet_rejected_under_the_exp_metric():
    with pytest.raises(ParameterError):
        full_shift(2, 4, metric="exp", alphabet=discrete_alphabet(2))


@pytest.mark.parametrize("symbols, depth", [(2, 1), (2, 5), (3, 4), (4, 3), (5, 2)])
def test_exp_shift_table_matches_a_per_pair_scan(symbols, depth):
    words = _prefixes(symbols, depth)
    n = len(words)
    scan = np.zeros((n, n), dtype=np.int16)
    for i in range(n):
        for j in range(n):
            k = 0
            while k < depth and words[i, k] == words[j, k]:
                k += 1
            scan[i, j] = k
    want_codes = (depth + 1 - scan).astype(code_dtype(depth + 2))
    np.fill_diagonal(want_codes, 0)
    for base in (math.e, 2.0):
        # the codes are derived from the partition chain on demand
        codes = full_shift(symbols, depth, base=base).space.level_codes()[1]
        assert codes.dtype == want_codes.dtype and codes.tobytes() == want_codes.tobytes()
        # the distances are exp(-k ln base) entry by entry, bit for bit
        want = np.exp(-math.log(base) * scan.astype(float))
        np.fill_diagonal(want, 0.0)
        got = full_shift(symbols, depth, base=base).space.as_matrix()
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("symbols, depth, tail", [(2, 12, 0), (3, 7, 2), (2, 12, 1)])
def test_shift_step_and_labels_match_the_label_based_construction(symbols, depth, tail):
    labels = [tuple(int(s) for s in w) for w in _prefixes(symbols, depth)]
    index_of = {lab: i for i, lab in enumerate(labels)}
    step = [index_of[lab[1:] + (tail,)] for lab in labels]
    s = full_shift(symbols, depth, tail=tail, horizon_cap=2)
    # the words of the points are the rows of _prefixes
    assert s.step.tolist() == step


@pytest.mark.parametrize("symbols, depth, points", [(2, 9, None), (3, 5, None), (2, 4, 5)])
def test_product_table_matches_a_sum_over_coordinates_bitwise(symbols, depth, points):
    alphabet = unit_lattice(points) if points else None
    s = full_shift(symbols, depth, metric="product", alphabet=alphabet)
    amat = s.meta["alphabet"].as_matrix()
    words = _prefixes(amat.shape[0], depth)
    want = np.zeros((len(words), len(words)))
    for t in range(depth):
        col = words[:, t]
        want += 2.0 ** (-(t + 1)) * amat[np.ix_(col, col)]
    assert s.space.as_matrix().tobytes() == want.tobytes()
