"""Verification suites: everything shipped passes; failures carry payloads."""

import inspect

import pytest

from dynoscale.errors import BudgetExceededError
from dynoscale.metric_core import solvers
from dynoscale.metric_core.checks import CheckResult, FAIL, INCONCLUSIVE, exact_check
from dynoscale.metric_core.counts import CountBracket
from dynoscale.verify import VerificationReport, run_suite

# every suite's seed-0 pass count, so a suite that drops checks shows
SEED0_PASSES = {"chain": 288, "subadditivity": 60, "power": 44, "product": 12,
                "nonwandering": 36, "shift-bounds": 30, "quantization-bounds": 108,
                "transport-floor": 200, "domination": 100, "oracle-equivalence": 600}


@pytest.mark.parametrize("name, passes", SEED0_PASSES.items(), ids=list(SEED0_PASSES))
def test_suite_passes(name, passes):
    report = run_suite(name, seed=0)
    assert report.passed, report.failures()
    assert report.counts() == {"pass": passes, "fail": 0, "inconclusive": 0}


def test_sampled_suites_pass_with_reduced_instance_counts():
    from dynoscale.verify import transport_floor_suite, domination_suite
    assert transport_floor_suite(seed=1, instances=40).passed
    assert domination_suite(seed=1, pairs=25).passed


EXACT_SOLVERS = ["exact_max_independent_set", "exact_min_set_cover",
                 "exact_min_clique_cover", "exact_min_partial_cover"]


def test_budget_reaches_sampled_suites(monkeypatch):
    from dynoscale.verify import oracle_equivalence_suite
    budgets = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            budgets.append((fn.__name__,
                            inspect.signature(fn).bind(*args, **kwargs).arguments["budget"]))
            return fn(*args, **kwargs)
        return wrapped

    for name in EXACT_SOLVERS:
        monkeypatch.setattr(solvers, name, spy(getattr(solvers, name)))
    report = oracle_equivalence_suite(seed=0, budget=1, instances=20)
    assert report.passed, report.failures()
    assert {name for name, _ in budgets} == set(EXACT_SOLVERS)
    assert all(budget == 1 for _, budget in budgets)

    # an exhausted budget turns exact comparisons inconclusive, never failed
    def exhausted(*args, **kwargs):
        raise BudgetExceededError("forced")

    monkeypatch.setattr(solvers, "exact_min_clique_cover", exhausted)
    report = oracle_equivalence_suite(seed=0, budget=1, instances=20)
    assert report.passed, report.failures()
    statuses = {c.status for c in report.checks if c.name == "counts-vs-oracle"}
    assert statuses == {"inconclusive"}


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_failures_carry_replayable_payload():
    report = VerificationReport("demo")
    report.checks.append(CheckResult("demo-check", FAIL,
                                     {"system": "x", "n": 2, "eps": 0.5}))
    assert not report.passed
    failure = report.failures()[0]
    assert {"system", "n", "eps"} <= set(failure.detail)


def test_inconclusive_check_names_its_open_operands():
    exact = CountBracket("spanning", 0.5, 1, 3, 3, "exact", "cover-bnb", (0, 1, 2))
    open_ = CountBracket("wasserstein", 0.5, 1, 2, 4, "heuristic", "local-search", (0, 1, 2, 3))
    check = exact_check("demo", {"eps": 0.5}, lambda a, b: a <= b, q=open_, cover=exact)
    assert check.status == INCONCLUSIVE
    assert check.detail == {"eps": 0.5, "open": {"q": "local-search"}}
    passed = exact_check("demo", {"eps": 0.5}, lambda a, b: a <= b, q=exact, cover=exact)
    assert passed.detail == {"eps": 0.5, "q": 3, "cover": 3}
