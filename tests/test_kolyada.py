"""Horseshoe-ladder maps: construction, exact evaluation, block counts."""

import math

import pytest
from fractions import Fraction

from dynoscale.errors import OutOfRealizationError, ParameterError
from dynoscale.systems.base import bowen_space
from dynoscale.systems.kolyada import (KolyadaSnohaMap, nonadjacent_lower_count,
                                       symbolic_separated_count)
from dynoscale.systems.probe import (horseshoe_entropy_probe, entropy_scale_table,
                                     ladder_grid)
from dynoscale.systems.kolyada import HorseshoeBlock
from dynoscale.metric_core.counts import max_separated


@pytest.fixture(scope="module")
def f1():
    return KolyadaSnohaMap.family_f1(6)


def test_standing_conditions_all_families():
    for tmap in (KolyadaSnohaMap.family_f1(8),
                 KolyadaSnohaMap.family_f2(Fraction(1, 2), 8),
                 KolyadaSnohaMap.family_f3(8)):
        rights = [b.right for b in tmap.blocks]
        gaps = [b.length for b in tmap.blocks]
        branches = [b.branches for b in tmap.blocks]
        assert all(a < b for a, b in zip(rights, rights[1:]))
        assert rights[-1] < 1
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(b % 2 == 1 for b in branches)
        assert all(a < b for a, b in zip(branches, branches[1:]))


def test_bad_custom_ladder_rejected():
    with pytest.raises(ParameterError):  # even branch count
        KolyadaSnohaMap([HorseshoeBlock(1, Fraction(0), Fraction(1, 2), 4)])
    with pytest.raises(ParameterError):  # growing gaps
        KolyadaSnohaMap([
            HorseshoeBlock(1, Fraction(0), Fraction(1, 4), 3),
            HorseshoeBlock(2, Fraction(1, 4), Fraction(3, 4), 5),
        ])


def test_family_sequence_values(f1):
    a1, b1, e1 = f1.sequences(1)
    assert b1 == 3
    assert abs(float(a1) - 6 / math.pi**2) < 1e-9
    assert e1 == a1 / 3


def test_f2_ratio_tends_to_beta():
    tmap = KolyadaSnohaMap.family_f2(Fraction(1, 2), 10)
    ratios = []
    for k in (4, 7, 10):
        _, b, eps = tmap.sequences(k)
        ratios.append(math.log(b) / math.log(1 / float(eps)))
    assert abs(ratios[-1] - 0.5) < 0.02
    assert abs(ratios[-1] - 0.5) <= abs(ratios[0] - 0.5) + 1e-12


def test_f1_ratio_increases_toward_one(f1):
    # monotone growth starts at k = 2: the polynomial correction term in
    # |log eps_k| vanishes at k = 1, inflating the very first quotient
    ratios = [math.log(f1.sequences(k)[1]) / math.log(1 / float(f1.sequences(k)[2]))
              for k in range(2, 7)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1


def test_f2_requires_beta_in_unit_interval():
    with pytest.raises(ParameterError):
        KolyadaSnohaMap.family_f2(Fraction(3, 2), 4)


def test_eval_fixes_endpoints(f1):
    assert f1.eval(1) == 1
    for blk in f1.blocks:
        assert f1.eval(blk.left) == blk.left


def test_eval_first_branch_midpoint(f1):
    blk = f1.blocks[0]
    x = blk.left + blk.length / 6  # midpoint of the first injectivity domain
    # increasing full branch maps it to the block midpoint
    assert f1.eval(x) == blk.left + blk.length / 2


def test_eval_rejects_unrealized_tail(f1):
    with pytest.raises(OutOfRealizationError):
        f1.eval(f1.blocks[-1].right + Fraction(1, 10**9))
    with pytest.raises(ParameterError):
        f1.eval(Fraction(3, 2))


def test_eval_is_exact_rational(f1):
    x = Fraction(1, 7)
    y = f1.eval(x)
    assert isinstance(y, Fraction)
    assert 0 <= y <= 1


@pytest.mark.parametrize("branches,n", [(3, 2), (3, 6), (5, 3), (9, 2), (9, 3)])
def test_branch_cylinders_realize_full_branches(branches, n):
    tmap = KolyadaSnohaMap._from_gaps(
        [Fraction(1, 2)], [branches], "custom")
    cyls = tmap.branch_cylinders(1, n)
    assert len(cyls) == branches**n
    blk = tmap.blocks[0]
    for lo, hi in cyls[:10]:
        assert hi - lo == blk.length / branches**n
        # the n-th iterate maps each cylinder onto the whole block
        images = {tmap.orbit(lo, n)[-1], tmap.orbit(hi, n)[-1]}
        assert images == {blk.left, blk.right}
    # cylinders tile the block
    assert cyls[0][0] == blk.left and cyls[-1][1] == blk.right


def test_symbolic_counts_match_generic_search_on_word_model():
    # materialise the width-graded word metric and let the generic solver count
    import itertools

    import numpy as np

    from dynoscale.metric_core.space import FiniteMetricSpace
    from dynoscale.metric_core.counts import max_separated as generic_max_separated

    length, b, depth = Fraction(1, 2), 3, 3
    words = list(itertools.product(range(b), repeat=depth))
    for n, eps in ((1, Fraction(1, 16)), (2, Fraction(1, 5)), (2, Fraction(1, 20))):
        mat = np.zeros((len(words), len(words)))
        for i, x in enumerate(words):
            for j in range(i + 1, len(words)):
                y = words[j]
                k = next((t for t, (a, c) in enumerate(zip(x, y)) if a != c), depth)
                d = float(length) / float(b) ** max(0, k - n + 1)
                mat[i, j] = mat[j, i] = d
        sp = FiniteMetricSpace(matrix=mat, check=False)
        got = generic_max_separated(sp, float(eps))
        sym = symbolic_separated_count(length, b, n, eps)
        assert got.mode == "exact"
        assert got.value == min(sym, b**depth)


def test_symbolic_count_upper_bounds_interval_net():
    tmap = KolyadaSnohaMap._from_gaps([Fraction(1, 2)], [3], "custom")
    blk = tmap.blocks[0]
    net = tmap.validation_net(1, per_branch=24, horizon=4)
    for n in (1, 2, 3):
        dn = bowen_space(net, n)
        for eps in (blk.branch_scale / 2, blk.branch_scale / 5):
            exact = max_separated(dn, float(eps), horizon=n)
            sym = symbolic_separated_count(blk.length, 3, n, Fraction(eps))
            low = nonadjacent_lower_count(blk.length, 3, n, Fraction(eps))
            assert exact.mode == "exact"
            # net counts sit inside the certified block bracket
            assert exact.value <= sym + 1  # +1 for the appended fixed point
            assert low <= exact.value + 1


def test_probe_slope_settles_at_log_branches():
    tmap = KolyadaSnohaMap.family_f3(4)  # branch counts 3,5,7,9
    for k, b in ((1, 3), (2, 5), (4, 9)):
        eps_k = tmap.blocks[k - 1].branch_scale
        rows = horseshoe_entropy_probe(tmap, k, [eps_k / 4, eps_k / 16])
        for row in rows:
            assert abs(row.slope.value - math.log(b)) <= 0.05 * math.log(b)
            assert not row.inconclusive


def test_probe_small_horizon_flags_inconclusive():
    tmap = KolyadaSnohaMap.family_f1(2)
    rows = horseshoe_entropy_probe(tmap, 1, [Fraction(1, 100)], n_max=2)
    assert rows[0].inconclusive


def test_entropy_table_staircase(f1):
    rows = entropy_scale_table(f1, ladder_grid(f1))
    values = [est.value for _, est in rows]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    # at the k-th rung the slope sits near log b_k
    for k in (2, 4, 6):
        eps_k = float(f1.blocks[k - 1].branch_scale)
        hit = [est for eps, est in rows if abs(eps - eps_k) < 1e-15]
        assert hit and abs(hit[0].value - k * math.log(3)) < 0.25


def test_separated_bracket_contains_truth_on_small_net():
    tmap = KolyadaSnohaMap._from_gaps(
        [Fraction(1, 2), Fraction(1, 4)], [3, 5], "custom")
    bracket = tmap.separated_bracket(2, Fraction(1, 40))
    assert bracket.lower <= bracket.upper
    assert bracket.mode == "heuristic"
