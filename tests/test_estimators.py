"""Slope estimates: invariants, staircase handling, named quantities."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dynoscale.errors import ParameterError
from dynoscale.estimators.quantities import (box_dimension_estimate, entropy_at_scale,
                                             log_plus, mdim_estimate, mdim_mo_estimate,
                                             mean_box_dimension_estimate,
                                             metric_order_estimate)
from dynoscale.estimators.slopes import (_ls, rank_corrected_fit, staircase_envelope,
                                         tail_regression)
from dynoscale.harness import parse_config, run_estimates, run_sweep
from dynoscale.metric_core.counts import CountBracket, ScaleGrid
from test_estimator_golden import CASES


def _exact(quantity, scale, horizon, value):
    return CountBracket(quantity, scale, horizon, value, value, "exact")


def test_proxies_bracket_value_on_noisy_data():
    rng = np.random.default_rng(0)
    xs = np.arange(1, 11, dtype=float)
    ys = 2.0 * xs + rng.normal(0, 0.05, 10)
    est = tail_regression(xs, ys, window=8)
    assert est.liminf_proxy <= est.value <= est.limsup_proxy


def test_linear_data_has_zero_residual_and_no_flag():
    xs = np.arange(1, 8, dtype=float)
    est = tail_regression(xs, 3.0 * xs + 1.0)
    assert est.value == pytest.approx(3.0)
    assert est.residual < 1e-12 and not est.flagged


def test_log_plus_conventions():
    assert log_plus(0.0) == 0.0
    assert log_plus(0.5) == 0.0
    assert log_plus(math.e) == 1.0


def test_staircase_envelope_collapses_plateaus():
    xs = [1.0, 2.0, 2.5, 3.0, 4.0]
    ys = [1.0, 2.0, 2.001, 2.002, 3.0]
    ex, ey = staircase_envelope(xs, ys)
    assert ex == [1.0, 2.0, 4.0]
    assert ey == [1.0, 2.0, 3.0]


def test_rank_corrected_fit_recovers_polynomial_ladder():
    # x_k = k + 2 log k, y_k = k: the correction restores slope 1
    ks = np.arange(1, 8, dtype=float)
    xs = ks + 2 * np.log(ks)
    est = rank_corrected_fit(xs, ks)
    assert est.value == pytest.approx(1.0, abs=1e-6)
    assert est.plain_value < 0.9
    assert est.liminf_proxy <= est.value <= est.limsup_proxy


def test_rank_corrected_fit_matches_plain_on_linear_data():
    xs = np.arange(1.0, 9.0)
    est = rank_corrected_fit(xs, 0.5 * xs + 2.0)
    assert est.value == pytest.approx(0.5, abs=1e-9)


def test_entropy_at_scale_requires_exact_cells():
    rows = [(1, _exact("separated", 0.3, 1, 2)),
            (2, CountBracket("separated", 0.3, 2, 3, 9, "heuristic")),
            (3, _exact("separated", 0.3, 3, 8))]
    est = entropy_at_scale(rows)
    assert est.flagged and "heuristic" in est.note
    with pytest.raises(ParameterError):
        entropy_at_scale(rows[1:2])


def test_box_dimension_on_synthetic_power_law():
    rows = [(eps, _exact("ball_cover", eps, 1, round(1.0 / eps**0.75)))
            for eps in ScaleGrid(0.05, 0.5, 7).scales()]
    est = box_dimension_estimate(rows, tail=7)
    assert est.value == pytest.approx(0.75, abs=0.02)


def test_metric_order_excludes_unit_counts():
    rows = [(0.5, _exact("separated", 0.5, 1, 1)),
            (0.25, _exact("separated", 0.25, 1, 4)),
            (0.1, _exact("separated", 0.1, 1, 19)),
            (0.05, _exact("separated", 0.05, 1, 380))]
    est = metric_order_estimate(rows)
    assert "excluded 1" in est.note


def test_mdim_estimators_on_flat_entropy():
    rows = [(eps, tail_regression([1, 2, 3], [0.0, 0.0, 0.0]))
            for eps in (0.4, 0.2, 0.1, 0.05)]
    assert mdim_estimate(rows).value == pytest.approx(0.0, abs=1e-9)
    mo = mdim_mo_estimate(rows)
    assert mo.value == 0.0 and "clamp" in mo.note


def test_mean_box_dimension_contraction_trend():
    per_n = [(n, tail_regression([1.0, 2.0, 3.0],
                                 [1.0 * x + 0.3 for x in (1.0, 2.0, 3.0)]))
             for n in (1, 2, 3, 4)]
    out = mean_box_dimension_estimate(per_n)
    normalized = [v for _, v in out.normalized]
    assert normalized == sorted(normalized, reverse=True)  # dim/n decays
    assert out.estimate.value < 0


def test_separated_and_cover_based_box_estimates_agree():
    # the chain squeezes both count families, so the slopes must match
    from dynoscale.metric_core.counts import max_separated, min_ball_cover
    from dynoscale.systems.shifts import binary_exp_shift
    system = binary_exp_shift(depth=10)
    scales = [math.exp(-m) * 0.97 for m in range(1, 8)]
    via_cover = box_dimension_estimate(
        [(eps, min_ball_cover(system.space, eps)) for eps in scales], tail=7)
    via_sep = box_dimension_estimate(
        [(eps, max_separated(system.space, eps)) for eps in scales], tail=7)
    assert via_cover.value == pytest.approx(via_sep.value, abs=0.02)


def test_mean_box_sequence_dominates_mean_dimension_proxy():
    from dynoscale.metric_core.counts import min_spanning
    from dynoscale.systems.base import bowen_space
    from dynoscale.systems.shifts import binary_exp_shift
    system = binary_exp_shift(depth=8, horizon_cap=4)
    scales = [math.exp(-m) * 0.97 for m in range(1, 5)]
    per_n = []
    h_rows = {eps: [] for eps in scales}
    for n in (1, 2, 3, 4):
        dn = bowen_space(system, n)
        rows = [(eps, min_spanning(dn, eps, horizon=n)) for eps in scales]
        per_n.append((n, box_dimension_estimate(rows, tail=4)))
        for eps, br in rows:
            h_rows[eps].append((n, br))
    out = mean_box_dimension_estimate(per_n)
    entropy_rows = [(eps, entropy_at_scale(h_rows[eps], tail=4)) for eps in scales]
    mdim_proxy = mdim_estimate(entropy_rows, corrected=False)
    # finite entropy: the mean-dimension proxy vanishes and every
    # n-normalised box value sits above it
    assert abs(mdim_proxy.value) < 0.05
    assert all(v >= mdim_proxy.value - 0.05 for _, v in out.normalized)


def test_cube_lattice_metric_order_window():
    # certified lattice counts put the cube's metric order between 1/2 and 1
    from fractions import Fraction
    from dynoscale.systems.banach import banach_spanning_set
    upper_pts = []
    lower_pts = []
    for t in range(1, 10):
        eps = Fraction(1, 2**t)
        lat = banach_spanning_set(eps)
        loglog = math.log(lat.coord_count * math.log(len(lat.axis_values)))
        # spanning: ball covers at eps are at most the lattice size
        upper_pts.append((abs(math.log(eps)), loglog))
        # separation: counts at eps^2/4 are at least the lattice size
        lower_pts.append((abs(math.log(eps * eps / 4)), loglog))
    upper = rank_corrected_fit(*zip(*upper_pts))
    lower = rank_corrected_fit(*zip(*lower_pts))
    assert 0.4 <= lower.value <= upper.value <= 1.1
    assert lower.value == pytest.approx(0.5, abs=0.1)
    assert upper.value == pytest.approx(1.0, abs=0.1)


def test_log_plus_quotient_never_exceeds_entropy_quotient():
    # pointwise: log+(h)/|log eps| <= h/|log eps| whenever h >= 1
    for h in (1.0, 1.7, 4.2, 30.0):
        for eps in (0.3, 0.01):
            x = abs(math.log(eps))
            assert log_plus(h) / x <= h / x + 1e-15


def test_estimates_stable_under_grid_subsampling():
    scales = ScaleGrid(0.1, 0.6, 12).scales()
    rows = [(eps, _exact("ball_cover", eps, 1, round(3.0 / eps))) for eps in scales]
    full = box_dimension_estimate(rows, tail=12)
    half = box_dimension_estimate(rows[::2], tail=6)
    assert abs(full.value - half.value) <= max(2 * full.residual, 0.02)


# five points, so the rank-corrected fit runs its three-column design
BAD_POINTS = {
    "nan-y": ([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, math.nan, 2.0, 3.0, 4.0]),
    "inf-x": ([1.0, math.inf, 3.0, 4.0, 5.0], [1.0, 2.0, 2.0, 3.0, 4.0]),
    "minus-inf-y": ([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, -math.inf, 3.0, 4.0]),
    "nan-x": ([1.0, 2.0, 3.0, 4.0, math.nan], [1.0, 2.0, 2.0, 3.0, 4.0]),
    "constant-x": ([2.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]),
}


@pytest.mark.parametrize("fit", [tail_regression, rank_corrected_fit])
@pytest.mark.parametrize("xs, ys", BAD_POINTS.values(), ids=list(BAD_POINTS))
def test_a_fit_rejects_points_it_cannot_fit(fit, xs, ys):
    with pytest.raises(ParameterError):
        fit(xs, ys)


_COORD = st.floats(-8, 8, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(2, 3), st.integers(2, 8))
def test_the_exact_fit_agrees_with_lapack(data, width, points):
    assume(points >= width)
    column = st.lists(_COORD, min_size=points, max_size=points)
    design = np.column_stack([np.array(data.draw(column)) for _ in range(width - 1)]
                             + [np.ones(points)])
    assume(np.linalg.cond(design) < 50)
    coefficients = np.array(data.draw(st.lists(
        st.one_of(st.floats(-8, -0.5), st.floats(0.5, 8)), min_size=width, max_size=width)))
    noise = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=points,
                                        max_size=points)))
    ys = design @ coefficients + noise
    want = np.linalg.lstsq(design, ys, rcond=None)[0]
    got = np.array(_ls(design.T, ys))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


_DYADIC = st.integers(-64, 64).map(lambda k: k / 8)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(2, 3), st.integers(3, 8))
def test_points_on_a_dyadic_line_fit_it_bit_for_bit(data, width, points):
    xs = data.draw(st.lists(_DYADIC, min_size=points, max_size=points, unique=True))
    columns = [np.array(xs)] + [np.array(data.draw(st.lists(
        _DYADIC, min_size=points, max_size=points))) for _ in range(width - 2)]
    columns.append(np.ones(points))
    assume(np.linalg.matrix_rank(np.column_stack(columns)) == width)
    coefficients = data.draw(st.lists(_DYADIC, min_size=width, max_size=width))
    # small dyadics: every product and sum below is exact in floats
    ys = sum(c * col for c, col in zip(coefficients, columns))
    assert _ls(columns, ys) == coefficients
    slope, intercept = coefficients[0], coefficients[-1]
    line = tail_regression(xs, slope * np.array(xs) + intercept, window=points)
    assert line.value == slope and line.residual == 0.0
    if points >= 4:  # the log(rank) coefficient comes out exactly 0
        ranked = rank_corrected_fit(xs, slope * np.array(xs) + intercept)
        assert ranked.value == slope and ranked.residual == 0.0


SMALL_EXP = {"system": {"kind": "shift", "symbols": 2, "depth": 8, "metric": "exp"},
             "quantities": ["separated", "spanning"], "horizons": [1, 2, 3],
             "grid": {"start": 0.5, "ratio": 0.6, "count": 6}}


def test_no_estimate_reaches_numpy_linalg(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("an estimate called numpy.linalg")
    for name in ("lstsq", "solve", "pinv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for case in CASES.values():
        case()
    config = parse_config(SMALL_EXP)
    run_sweep(config, tmp_path)
    run_estimates(config, tmp_path)


# constant-entropy data: each entropy slope prints as log 2, and its residual
# is 0 or one ulp of a rounded log(count)
SMALL_EXP_ESTIMATES = """\
quantity,system,x,estimate,liminf,limsup,residual,flag
box-dimension,shift2x8-exp,0,0.736611243665,0,1.35691544886,0.217846256747,flagged
metric-order,shift2x8-exp,0,0.478403803014,0,1.35691544886,0.231416345594,flagged
entropy-at-scale,shift2x8-exp,0.498058254872,0.69314718056,0.69314718056,0.69314718056,4.4408920985e-16,ok
entropy-at-scale,shift2x8-exp,0.298834952923,0.69314718056,0.69314718056,0.69314718056,0,ok
entropy-at-scale,shift2x8-exp,0.179300971754,0.69314718056,0.69314718056,0.69314718056,0,ok
entropy-at-scale,shift2x8-exp,0.107580583052,0.69314718056,0.69314718056,0.69314718056,0,ok
entropy-at-scale,shift2x8-exp,0.0645483498315,0.69314718056,0.69314718056,0.69314718056,0,ok
entropy-at-scale,shift2x8-exp,0.0387290098989,0.69314718056,0.69314718056,0.69314718056,4.4408920985e-16,ok
mdim,shift2x8-exp,0,2.48387366417e-17,-4.3467789123e-16,2.17338945615e-16,2.22044604925e-16,ok
mdim-mo,shift2x8-exp,0,0,0,0,0,ok
"""


def test_small_exp_shift_estimates_are_pinned_byte_for_byte(tmp_path):
    # an exact fit rounds once, so no BLAS kernel choice can move these bytes
    config = parse_config(SMALL_EXP)
    run_sweep(config, tmp_path)
    assert run_estimates(config, tmp_path).read_text() == SMALL_EXP_ESTIMATES
