"""The circle-cover stage of the set-cover solver, and the paths it shortens."""

import itertools
import random

import numpy as np
import pytest

from dynoscale import harness, oracle, verify
from dynoscale.metric_core.counts import ScaleGrid, min_spanning
from dynoscale.metric_core import solvers
from dynoscale.metric_core import space
from dynoscale.metric_core.space import pack_rows, unpack_rows
from dynoscale.systems.base import bowen_spaces
from dynoscale.systems.intervals import doubling_grid


def _brute_cover(masks):
    """Fewest rows covering every column, by increasing-size enumeration."""
    balls = [sum(1 << j for j in np.flatnonzero(row)) for row in masks]
    everything = (1 << masks.shape[1]) - 1
    for k in range(1, len(balls) + 1):
        for combo in itertools.combinations(balls, k):
            if np.bitwise_or.reduce(combo) == everything:
                return k
    raise AssertionError("uncoverable")


def _arc(n, start, length):
    row = np.zeros(n, dtype=bool)
    row[(start + np.arange(length)) % n] = True
    return row


def _arc_family(rng, n, rows):
    """Random arcs of a circle of n points, wrapping ones included, with
    some empty and some duplicate rows, made coverable by one more arc."""
    masks = np.array([_arc(n, int(rng.integers(n)), int(rng.integers(1, n + 1)))
                      for _ in range(rows)])
    masks[rng.random(rows) < 0.1] = False
    for i in np.flatnonzero(rng.random(rows) < 0.1):
        masks[i] = masks[int(rng.integers(rows))]
    gap = np.flatnonzero(~masks.any(axis=0))
    if gap.size:
        # the shortest arc holding every uncovered point, inserted at a random row
        ends = np.append(gap, gap[0] + n)
        widest = int(np.diff(ends).argmax())
        arc = _arc(n, int(ends[widest + 1]) % n, n - int(np.diff(ends)[widest]) + 1)
        masks = np.insert(masks, int(rng.integers(rows + 1)), arc, axis=0)
    return masks


def _stage_off(monkeypatch, solve, *args):
    """``solve(*args)`` with the arc stage switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_arc_cover", lambda table, columns: None)
        return solve(*args)


def _arc_cover(masks):
    return solvers._arc_cover(pack_rows(masks), masks.shape[1])


def _set_cover(balls):
    return solvers.exact_min_set_cover(pack_rows(balls))


def _circle_balls(rng, n):
    """The open balls of n sorted random points on a circle of length 1, at
    a random scale, under the distance along the circle: every ball is one
    circular run of the points."""
    at = np.sort(rng.random(n))
    gap = np.abs(np.subtract.outer(at, at))
    return np.minimum(gap, 1 - gap) < rng.uniform(0.05, 0.6)


def _spy_search(monkeypatch):
    calls = []
    search = solvers._cover_search
    monkeypatch.setattr(solvers, "_cover_search",
                        lambda *args: calls.append(args) or search(*args))
    return calls


@pytest.mark.parametrize("seed", range(40))
def test_circle_cover_matches_brute_and_the_stage_off_run(seed, monkeypatch):
    rng = np.random.default_rng(700 + seed)
    n = seed + 1
    for rows in (1, 2, 5, 11):
        masks = _arc_family(rng, n, rows)
        assert masks.any(axis=0).all()
        got = _arc_cover(masks)
        assert got is not None
        assert got == sorted(set(got))
        assert masks[got].any(axis=0).all()
        assert len(got) == _brute_cover(masks)
    balls = _circle_balls(rng, n)
    got = _arc_cover(balls)
    assert got is not None
    assert balls[got].any(axis=0).all()
    if n <= 12:
        assert len(got) == _brute_cover(balls)
    assert _set_cover(balls) == got
    assert len(_stage_off(monkeypatch, _set_cover, balls)) == len(got)


def test_full_row_answers_alone():
    masks = np.array([_arc(6, 4, 3), _arc(6, 0, 6), _arc(6, 1, 2), _arc(6, 0, 6)])
    assert _arc_cover(masks) == [1]


def test_wrapping_arcs_are_counted_once():
    # three arcs of a 12-point circle, two of them wrapping past point 0
    masks = np.array([_arc(12, 10, 5), _arc(12, 3, 4), _arc(12, 2, 2),
                      _arc(12, 6, 6), _arc(12, 7, 2)])
    assert _arc_cover(masks) == [0, 1, 3]
    assert _brute_cover(masks) == 3


def test_a_table_with_a_split_row_falls_through(monkeypatch):
    # the balls of the line points 0, 2, 1, 3 at scale 1.5: the ball of the
    # first holds the first and the third, two runs of the index order
    at = np.array([0, 2, 1, 3])
    balls = np.abs(np.subtract.outer(at, at)) < 1.5
    assert _arc_cover(balls) is None
    calls = _spy_search(monkeypatch)
    assert len(_set_cover(balls)) == 2
    assert len(calls) == 1


# symmetric tables with a point in no row, so neither stage can cover it
@pytest.mark.parametrize("rows", [[[1, 1, 0], [1, 1, 0], [0, 0, 0]],
                                  [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 1, 1], [1, 0, 1, 1]],
                                  [[0]]])
def test_a_point_no_arc_covers_still_raises(rows):
    masks = np.array(rows, dtype=bool)
    assert _arc_cover(masks) is None
    with pytest.raises(ValueError):
        _set_cover(masks)


@pytest.mark.parametrize("seed", range(10))
def test_circle_cover_reads_the_same_rows_one_block_at_a_time(seed, monkeypatch):
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(4, 40))
    masks = _arc_family(rng, n, 11)
    row = np.zeros(n, dtype=bool)
    row[[0, 2]] = True  # two runs, in one more row after the arcs
    split = np.vstack([masks, row])
    whole = [_arc_cover(masks), _arc_cover(split)]
    monkeypatch.setattr(space, "ENCODE_BLOCK", 8 * n)  # one row a block
    assert space.block_rows(n) == 1
    assert [_arc_cover(masks), _arc_cover(split)] == whole
    assert whole[0] is not None and whole[1] is None


# the six scales of the benchmark's sweeps (start inside their start band)
BENCH_SCALES = ScaleGrid(0.4990, 0.6, 6).scales()


@pytest.mark.parametrize("points", [64, 128, 256])
def test_doubling_spanning_brackets_match_the_stage_off_run(points, monkeypatch):
    system = doubling_grid(points, horizon_cap=5)
    for n, dn in zip(range(1, 6), bowen_spaces(system, range(1, 6))):
        for eps in BENCH_SCALES:
            on = min_spanning(dn, eps, horizon=n)
            balls = unpack_rows(dn.close_mask(eps, strict=True), dn.size)
            assert balls[list(on.witness)].any(axis=0).all()
            off = _stage_off(monkeypatch, min_spanning, dn, eps, solvers.DEFAULT_BUDGET, n)
            assert (on.lower, on.upper, on.mode, on.method) == \
                (off.lower, off.upper, off.mode, off.method), (points, n, eps)


def test_oracle_equivalence_makes_no_milp_call(monkeypatch):
    calls = _spy_search(monkeypatch)
    assert verify.oracle_equivalence_suite(0).passed
    assert calls == []


def test_only_the_non_arc_sweep_cover_cells_reach_the_milp(tmp_path, monkeypatch):
    # the benchmark's seed-1 sweep-cover config
    start = 0.4975 + 0.003 * random.Random(1).random()
    config = harness.parse_config({
        "system": {"kind": "doubling", "grid": 128, "horizon_cap": 5},
        "quantities": ["separated", "spanning", "diameter_cover"],
        "grid": {"start": start, "ratio": 0.6, "count": 6},
        "horizons": [1, 2, 3, 4, 5]})
    calls = _spy_search(monkeypatch)
    cells, reached = [], []
    spanning = harness.QUANTITY_OPS["spanning"]

    def traced(dn, eps, budget, horizon):
        cells.append((horizon, eps))
        before = len(calls)
        bracket = spanning(dn, eps, budget, horizon=horizon)
        reached.extend([(horizon, eps)] * (len(calls) - before))
        return bracket

    monkeypatch.setitem(harness.QUANTITY_OPS, "spanning", traced)
    harness.run_sweep(config, tmp_path)
    top = config.grid.scales()[0]
    assert top == pytest.approx(0.496, abs=1e-3)
    assert len(cells) == 30
    assert reached == [(n, top) for n in (2, 3, 4, 5)]


def test_oracle_equivalence_builds_each_basis_table_once():
    oracle._bases.cache_clear()
    report = verify.run_suite("oracle-equivalence", 0)
    assert report.passed
    info = oracle._bases.cache_info()
    transport = [c for c in report.checks if c.name == "transport-vs-oracle"]
    assert info.hits + info.misses == len(transport)
    assert info.misses == info.currsize <= 16
