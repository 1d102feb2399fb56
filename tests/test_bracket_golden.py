"""Golden values: the repr of every graph-count bracket, witnesses included.

Three fixed planar spaces and the 2x5 exp shift at horizons 1 and 2, two
scales each, at budgets 1, 50 and the default, and with the three exact
solvers forced to run out of budget.  The shift's threshold graphs are
equivalence relations, so its entries pin the partition certificate.
The small budgets stop the searches part-way, so a change in branching
order, bounds or budget accounting shows up as a changed witness or bracket.
Each entry is (method, lower, upper, witness) for the separated, spanning
and diameter-cover brackets, in that order.
"""

import numpy as np
import pytest

from dynoscale.errors import BudgetExceededError
from dynoscale.metric_core import solvers
from dynoscale.metric_core.counts import max_separated, min_diameter_cover, min_spanning
from dynoscale.metric_core.solvers import DEFAULT_BUDGET
from dynoscale.metric_core.space import FiniteMetricSpace
from dynoscale.systems import binary_exp_shift, bowen_space

QUANTITIES = {"separated": max_separated, "spanning": min_spanning,
              "diameter_cover": min_diameter_cover}
EXACT_SOLVERS = ("exact_max_independent_set", "exact_min_set_cover",
                 "exact_min_clique_cover")

GOLDEN = {
    (1, 12, 0.25, 1): [
        ("greedy", 5, 6, (0, 1, 2, 3, 4)),
        ("cover-bnb", 4, 4, (2, 3, 4, 6)),
        ("clique-cover-bnb", 6, 6, None),
    ],
    (1, 12, 0.25, 50): [
        ("mis-bnb", 6, 6, (0, 1, 2, 4, 5, 10)),
        ("cover-bnb", 4, 4, (2, 3, 4, 6)),
        ("clique-cover-bnb", 6, 6, None),
    ],
    (1, 12, 0.25, "default"): [
        ("mis-bnb", 6, 6, (0, 1, 2, 4, 5, 10)),
        ("cover-bnb", 4, 4, (2, 3, 4, 6)),
        ("clique-cover-bnb", 6, 6, None),
    ],
    (1, 12, 0.25, "forced"): [
        ("greedy", 5, 6, (0, 1, 2, 3, 4)),
        ("greedy", 3, 4, (2, 6, 3, 4)),
        ("greedy", 5, 6, None),
    ],
    (1, 12, 0.5, 1): [
        ("greedy", 3, 4, (0, 2, 3)),
        ("cover-bnb", 2, 2, (4, 6)),
        ("greedy", 3, 4, None),
    ],
    (1, 12, 0.5, 50): [
        ("mis-bnb", 4, 4, (1, 4, 5, 8)),
        ("cover-bnb", 2, 2, (4, 6)),
        ("clique-cover-bnb", 4, 4, None),
    ],
    (1, 12, 0.5, "default"): [
        ("mis-bnb", 4, 4, (1, 4, 5, 8)),
        ("cover-bnb", 2, 2, (4, 6)),
        ("clique-cover-bnb", 4, 4, None),
    ],
    (1, 12, 0.5, "forced"): [
        ("greedy", 3, 4, (0, 2, 3)),
        ("greedy", 1, 3, (2, 0, 3)),
        ("greedy", 3, 4, None),
    ],
    (2, 20, 0.25, 1): [
        ("greedy", 9, 10, (0, 1, 2, 3, 4, 5, 8, 12, 17)),
        ("cover-bnb", 7, 7, (0, 1, 9, 11, 15, 17, 18)),
        ("greedy", 9, 10, None),
    ],
    (2, 20, 0.25, 50): [
        ("mis-bnb", 9, 9, (0, 1, 2, 3, 4, 5, 8, 12, 17)),
        ("cover-bnb", 7, 7, (0, 1, 9, 11, 15, 17, 18)),
        ("clique-cover-bnb", 9, 9, None),
    ],
    (2, 20, 0.25, "default"): [
        ("mis-bnb", 9, 9, (0, 1, 2, 3, 4, 5, 8, 12, 17)),
        ("cover-bnb", 7, 7, (0, 1, 9, 11, 15, 17, 18)),
        ("clique-cover-bnb", 9, 9, None),
    ],
    (2, 20, 0.25, "forced"): [
        ("greedy", 9, 10, (0, 1, 2, 3, 4, 5, 8, 12, 17)),
        ("greedy", 3, 7, (18, 9, 11, 12, 0, 1, 17)),
        ("greedy", 9, 10, None),
    ],
    (2, 20, 0.5, 1): [
        ("greedy", 3, 4, (0, 1, 2)),
        ("cover-bnb", 2, 2, (9, 18)),
        ("greedy", 3, 4, None),
    ],
    (2, 20, 0.5, 50): [
        ("mis-bnb", 4, 4, (1, 3, 6, 8)),
        ("cover-bnb", 2, 2, (9, 18)),
        ("clique-cover-bnb", 4, 4, None),
    ],
    (2, 20, 0.5, "default"): [
        ("mis-bnb", 4, 4, (1, 3, 6, 8)),
        ("cover-bnb", 2, 2, (9, 18)),
        ("clique-cover-bnb", 4, 4, None),
    ],
    (2, 20, 0.5, "forced"): [
        ("greedy", 3, 4, (0, 1, 2)),
        ("greedy", 1, 2, (18, 5)),
        ("greedy", 3, 4, None),
    ],
    (3, 30, 0.35, 1): [
        ("greedy", 7, 9, (0, 1, 3, 5, 7, 10, 23)),
        ("cover-bnb", 4, 4, (11, 14, 21, 29)),
        ("greedy", 7, 9, None),
    ],
    (3, 30, 0.35, 50): [
        ("mis-bnb", 8, 8, (2, 10, 12, 15, 16, 18, 23, 28)),
        ("cover-bnb", 4, 4, (11, 14, 21, 29)),
        ("greedy", 7, 9, None),
    ],
    (3, 30, 0.35, "default"): [
        ("mis-bnb", 8, 8, (2, 10, 12, 15, 16, 18, 23, 28)),
        ("cover-bnb", 4, 4, (11, 14, 21, 29)),
        ("clique-cover-bnb", 8, 8, None),
    ],
    (3, 30, 0.35, "forced"): [
        ("greedy", 7, 9, (0, 1, 3, 5, 7, 10, 23)),
        ("greedy", 3, 5, (28, 13, 0, 24, 10)),
        ("greedy", 7, 9, None),
    ],
    (3, 30, 0.5, 1): [
        ("greedy", 3, 5, (0, 1, 10)),
        ("cover-bnb", 2, 2, (3, 22)),
        ("greedy", 3, 5, None),
    ],
    (3, 30, 0.5, 50): [
        ("greedy", 3, 5, (0, 1, 10)),
        ("cover-bnb", 2, 2, (3, 22)),
        ("clique-cover-bnb", 4, 4, None),
    ],
    (3, 30, 0.5, "default"): [
        ("mis-bnb", 4, 4, (0, 7, 10, 28)),
        ("cover-bnb", 2, 2, (3, 22)),
        ("clique-cover-bnb", 4, 4, None),
    ],
    (3, 30, 0.5, "forced"): [
        ("greedy", 3, 5, (0, 1, 10)),
        ("greedy", 1, 3, (6, 1, 8)),
        ("greedy", 3, 5, None),
    ],
    ("shift", 1, 0.3, 1): [
        ("mis-bnb", 4, 4, (0, 8, 16, 24)),
        ("cover-bnb", 4, 4, (0, 8, 16, 24)),
        ("clique-cover-bnb", 4, 4, None),
    ],
    ("shift", 1, 0.3, 50): [
        ("mis-bnb", 4, 4, (0, 8, 16, 24)),
        ("cover-bnb", 4, 4, (0, 8, 16, 24)),
        ("clique-cover-bnb", 4, 4, None),
    ],
    ("shift", 1, 0.3, "default"): [
        ("mis-bnb", 4, 4, (0, 8, 16, 24)),
        ("cover-bnb", 4, 4, (0, 8, 16, 24)),
        ("clique-cover-bnb", 4, 4, None),
    ],
    ("shift", 1, 0.3, "forced"): [
        ("greedy", 4, 4, (0, 8, 16, 24)),
        ("greedy", 2, 4, (0, 8, 16, 24)),
        ("greedy", 4, 4, None),
    ],
    ("shift", 1, 0.1, 1): [
        ("mis-bnb", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("cover-bnb", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("clique-cover-bnb", 8, 8, None),
    ],
    ("shift", 1, 0.1, 50): [
        ("mis-bnb", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("cover-bnb", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("clique-cover-bnb", 8, 8, None),
    ],
    ("shift", 1, 0.1, "default"): [
        ("mis-bnb", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("cover-bnb", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("clique-cover-bnb", 8, 8, None),
    ],
    ("shift", 1, 0.1, "forced"): [
        ("greedy", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("greedy", 4, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("greedy", 8, 8, None),
    ],
    ("shift", 2, 0.3, 1): [
        ("mis-bnb", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("cover-bnb", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("clique-cover-bnb", 8, 8, None),
    ],
    ("shift", 2, 0.3, 50): [
        ("mis-bnb", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("cover-bnb", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("clique-cover-bnb", 8, 8, None),
    ],
    ("shift", 2, 0.3, "default"): [
        ("mis-bnb", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("cover-bnb", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("clique-cover-bnb", 8, 8, None),
    ],
    ("shift", 2, 0.3, "forced"): [
        ("greedy", 8, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("greedy", 4, 8, (0, 4, 8, 12, 16, 20, 24, 28)),
        ("greedy", 8, 8, None),
    ],
    ("shift", 2, 0.1, 1): [
        ("mis-bnb", 16, 16, (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30)),
        ("cover-bnb", 16, 16, (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30)),
        ("clique-cover-bnb", 16, 16, None),
    ],
    ("shift", 2, 0.1, 50): [
        ("mis-bnb", 16, 16, (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30)),
        ("cover-bnb", 16, 16, (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30)),
        ("clique-cover-bnb", 16, 16, None),
    ],
    ("shift", 2, 0.1, "default"): [
        ("mis-bnb", 16, 16, (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30)),
        ("cover-bnb", 16, 16, (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30)),
        ("clique-cover-bnb", 16, 16, None),
    ],
    ("shift", 2, 0.1, "forced"): [
        ("greedy", 16, 16, (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30)),
        ("greedy", 8, 16, (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30)),
        ("greedy", 16, 16, None),
    ],
}


def _planar(seed, n):
    pts = np.random.default_rng(seed).random((n, 2))
    return FiniteMetricSpace(matrix=np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)),
                             check=False)


def _out_of_budget(*args, **kwargs):
    raise BudgetExceededError("forced")


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda key: "-".join(map(str, key)))
def test_bracket_reprs_match_golden(key, monkeypatch):
    seed, n, eps, budget = key
    if budget == "forced":
        for name in EXACT_SOLVERS:
            monkeypatch.setattr(solvers, name, _out_of_budget)
    # planar keys are (seed, points, ...), shift keys ("shift", horizon, ...)
    horizon = n if seed == "shift" else 1
    space = bowen_space(binary_exp_shift(5), n) if seed == "shift" else _planar(seed, n)
    for (quantity, count), (method, lower, upper, witness) in zip(QUANTITIES.items(),
                                                                  GOLDEN[key]):
        mode = "heuristic" if method == "greedy" else "exact"
        want = (f"CountBracket(quantity={quantity!r}, scale={eps!r}, horizon={horizon}, "
                f"lower={lower}, upper={upper}, mode={mode!r}, method={method!r}, "
                f"witness={witness!r})")
        got = count(space, eps, budget if isinstance(budget, int) else DEFAULT_BUDGET,
                    horizon)
        assert repr(got) == want, quantity
