"""Metric-space container: axioms, tie layer, cache file, reindexing."""

import json

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from dynoscale.cli import main
from dynoscale.errors import InvalidMetricError, ParameterError
from dynoscale.metric_core.cache import write_cache, read_cache
from dynoscale.metric_core.counts import max_separated
from dynoscale.metric_core.space import FiniteMetricSpace
from dynoscale.metric_core import space as space_module
from dynoscale.metric_core.space import code_dtype, distinct, pack_rows, unpack_rows
from dynoscale.systems.intervals import doubling_grid, random_space
from dynoscale.systems.shifts import full_shift


def test_requires_exactly_one_backend():
    with pytest.raises(ParameterError):
        FiniteMetricSpace()
    with pytest.raises(ParameterError):
        FiniteMetricSpace(matrix=np.zeros((2, 2)), coords=[0, 1])


def test_empty_space_rejected():
    with pytest.raises(ParameterError):
        FiniteMetricSpace(coords=[])


def test_triangle_violation_detected():
    m = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(InvalidMetricError):
        FiniteMetricSpace(matrix=m)


def test_asymmetry_detected():
    m = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InvalidMetricError):
        FiniteMetricSpace(matrix=m)


# asymmetric by 1e-13 across the diagonal: between the two, the codes of
# (0, 1) and (1, 0) would sit on either side of a scale, and the searches,
# which read a point's row as its column, would count a set the oracle
# does not (exact 2 against brute force 3 at eps 0.5 + 5e-14)
NEARLY_SYMMETRIC = [[0, .5, 1], [.5 + 1e-13, 0, .6], [1, .6, 0]]


def test_a_table_asymmetric_by_any_amount_is_refused(tmp_path, capsys):
    with pytest.raises(InvalidMetricError, match="asymmetric"):
        FiniteMetricSpace(matrix=np.array(NEARLY_SYMMETRIC))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "separated", "eps": 0.5 + 5e-14,
                                "matrix": NEARLY_SYMMETRIC}))
    assert main(["oracle", "--instance", str(inst)]) == 2
    assert "asymmetric" in capsys.readouterr().err


def test_line_space_basics():
    sp = FiniteMetricSpace(coords=[Fraction(0), Fraction(1, 3), Fraction(1)])
    assert sp.dist(0, 2) == 1.0
    assert sp.dist_exact(0, 1) == Fraction(1, 3)
    assert sp.diameter == 1.0


def test_diameter_matches_max_pair():
    sp = random_space(9, seed=4)
    m = sp.as_matrix()
    assert sp.diameter == pytest.approx(m.max())


def test_close_mask_strictness():
    sp = FiniteMetricSpace(coords=[Fraction(0), Fraction(1, 2), Fraction(1)])
    le = unpack_rows(sp.close_mask(Fraction(1, 2), strict=False), 3)
    lt = unpack_rows(sp.close_mask(Fraction(1, 2), strict=True), 3)
    assert le[0, 1] and not lt[0, 1]  # tie at exactly 1/2


def test_cache_roundtrip(tmp_path):
    sp = random_space(7, seed=2)
    path = tmp_path / "space.dyno"
    write_cache(path, sp)
    back = read_cache(path)
    assert back.size == sp.size
    assert np.allclose(back.as_matrix(), sp.as_matrix())


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.dyno"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(ParameterError):
        read_cache(path)


def test_cache_rejects_bad_version(tmp_path):
    sp = random_space(4, seed=1)
    path = tmp_path / "space.dyno"
    write_cache(path, sp)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(ParameterError):
        read_cache(path)


def _seed0_triangle_break(n: int) -> np.ndarray:
    """All distances 1 but d(i, j) = 3 on the first triple (i, j, k) that the
    seed-0 triangle spot check draws, so d(i, j) > d(i, k) + d(k, j)."""
    i, j, k = np.random.default_rng(0).integers(0, n, size=3)
    assert len({i, j, k}) == 3
    m = 1.0 - np.eye(n)
    m[i, j] = m[j, i] = 3.0
    return m


@pytest.mark.parametrize("table", [
    np.array([[0.0, -1, 2], [-1, 0, 5], [2, 5, 0]]),  # lower triangle [-1, 2, 5]
    _seed0_triangle_break(20),
], ids=["negative", "spot-checked-triangle"])
def test_cache_rejects_a_table_that_is_not_a_metric(table, tmp_path):
    path = tmp_path / "space.dyno"
    write_cache(path, FiniteMetricSpace(matrix=table, check=False))
    with pytest.raises(InvalidMetricError):
        read_cache(path)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), perm_seed=st.integers(0, 10**6))
def test_exact_counts_invariant_under_reindexing(seed, perm_seed):
    sp = random_space(7, seed=seed)
    dense = FiniteMetricSpace(matrix=sp.as_matrix(), check=False)
    rng = np.random.default_rng(perm_seed)
    perm = rng.permutation(7)
    eps = 0.3 * sp.diameter
    a = max_separated(dense, eps)
    b = max_separated(dense.permuted(perm), eps)
    assert a.mode == b.mode == "exact"
    assert a.value == b.value


def _float_tables(space):
    """The float64 arrays of n x n entries that ``space`` holds."""
    return [v for v in vars(space).values() if isinstance(v, np.ndarray)
            and v.dtype == np.float64 and v.size == space.size**2]


def _assert_blocks(space, m):
    """``distances`` gathers blocks of ``m`` bitwise, in any row and column order."""
    n = m.shape[0]
    for rows, cols in [([5, 0, 5, n - 1, 2, 2], [n - 1, 3, 0, 3, 7]),
                       (np.arange(n)[::-1], [1]), (range(n), range(n))]:
        got = space.distances(rows, cols)
        assert got.tobytes() == m[np.ix_(rows, cols)].tobytes()


def test_chain_distances_count_their_block_and_leave_the_codes_underived():
    space = full_shift(3, 4).space
    m = full_shift(3, 4).space.as_matrix()
    _assert_blocks(space, m)
    assert space._codes is None
    blocks = [(rows, cols, space.distances(rows, cols))
              for rows, cols in [([7, 0, 7, 80], [80, 2, 2]), (range(81), range(81))]]
    levels, codes = space.level_codes()
    for rows, cols, got in blocks:
        assert got.tobytes() == levels[codes[np.ix_(rows, cols)]].tobytes()


def _float_graph(m, eps, strict):
    return (m < eps) if strict else (m <= eps)


def _assert_packed_graph(packed, graph):
    """``packed`` is ``graph`` packed bit for bit, its padding bits zero."""
    n = graph.shape[0]
    assert packed.dtype == np.uint8 and packed.shape == (n, (n + 7) // 8)
    assert packed.tobytes() == pack_rows(graph).tobytes()
    assert not unpack_rows(packed, 8 * packed.shape[1])[:, n:].any()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("points, draws, dtype, block", [
    (12, 4, np.uint8, None), (30, None, np.uint16, None), (61, 3, np.uint8, 8 * 61 * 3)],
    ids=["ties-uint8", "wide-uint16", "blocks-uint8"])
def test_code_thresholds_equal_the_float_compare(seed, points, draws, dtype, block,
                                                 monkeypatch):
    if block:  # 3 rows a block: 20 blocks and a last one of one row
        monkeypatch.setattr(space_module, "ENCODE_BLOCK", block)
        assert space_module.block_rows(points) == 3
    rng = np.random.default_rng(seed)
    if draws:  # a few distinct draws: many tied distances
        values = rng.integers(1, draws + 1, size=(points, points)) / draws
    else:  # continuous draws: 436 levels, past the 256 a one-byte code can index
        values = rng.uniform(0.5, 1.0, size=(points, points))
    m = np.triu(values, 1)
    m = m + m.T
    space = FiniteMetricSpace(matrix=m, check=False)
    assert not _float_tables(space)  # the matrix is encoded, not kept
    levels, codes = space.level_codes()
    assert codes.dtype == dtype and levels[codes].tobytes() == m.tobytes()
    _assert_blocks(space, m)
    assert points % 8  # the last byte of each packed row has padding bits
    mids = (levels[1:] + levels[:-1]) / 2
    scales = [*levels, *mids, -1.0, levels[-1] + 1, np.inf, -np.inf, np.nan]
    perm = rng.permutation(points)
    # a space that holds codes only, as every d_n does, then reindexed
    moved = FiniteMetricSpace.from_codes(levels, codes).permuted(perm)
    moved_m = m[np.ix_(perm, perm)]
    assert moved.as_matrix().tobytes() == moved_m.tobytes()
    for eps in scales:
        for strict in (True, False):
            _assert_packed_graph(space.close_mask(eps, strict), _float_graph(m, eps, strict))
            _assert_packed_graph(moved.close_mask(eps, strict),
                                 _float_graph(moved_m, eps, strict))
            _assert_packed_graph(space.close_mask(eps, strict),
                                 codes < space.cutoff(eps, strict))
    assert not space.close_mask(np.nan, strict=False).any()
    assert space.cutoff(np.nan, True) == space.cutoff(np.nan, False) == 0


@pytest.mark.parametrize("values", [
    [0.5, 0.25, 0.5, 0.25, 0.75, 0.5],
    [0.0, -0.0, 1.0, -0.0, 0.0],
    [-0.0, 0.0],
    [np.inf, 0.5, np.inf, 0.0, 0.5],
    np.random.default_rng(3).integers(0, 7, (9, 11)) / 4,
    [0.3],
    []], ids=["repeats", "signed-zeros", "negative-zero-first", "inf", "table", "single",
              "empty"])
def test_distinct_is_bitwise_np_unique(values):
    values = np.asarray(values, dtype=float)
    before = values.copy()
    got, want = distinct(values), np.unique(values)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert values.tobytes() == before.tobytes()  # sorted in a copy


@pytest.mark.parametrize("make", [
    lambda: doubling_grid(203).space,
    lambda: FiniteMetricSpace(coords=np.random.default_rng(5).random(211).tolist()),
    lambda: random_space(190, seed=3)], ids=["doubling", "random-floats", "random-fractions"])
def test_coordinate_codes_equal_the_encoded_float_table(make, monkeypatch):
    # 1024 entries a block: 5 or 4 rows, so each encode pass takes many blocks
    monkeypatch.setattr(space_module, "ENCODE_BLOCK", 1 << 10)
    space = make()
    levels, codes = space.level_codes()
    m = make().as_matrix()
    _assert_blocks(space, m)
    _assert_blocks(FiniteMetricSpace.from_codes(levels, codes), m)
    want_levels = np.unique(m)
    want_codes = np.searchsorted(want_levels, m).astype(code_dtype(len(want_levels)))
    assert levels.tobytes() == want_levels.tobytes()
    assert codes.dtype == want_codes.dtype and codes.tobytes() == want_codes.tobytes()
    # the float table still materialises on demand, bitwise, and is not kept
    assert space.as_matrix().tobytes() == m.tobytes()
    assert not _float_tables(space)
