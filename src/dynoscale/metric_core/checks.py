"""Cell-level inequality checks between the counting quantities.

A check runs only on exact brackets; any heuristic input downgrades the
result to "inconclusive" rather than asserting anything.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from .space import FiniteMetricSpace
from .counts import BALL_COVER, max_separated, min_spanning, min_diameter_cover
from .solvers import DEFAULT_BUDGET

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class CheckResult:
    name: str
    status: str
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != FAIL


def exact_check(name: str, detail: dict, holds: Callable[..., bool],
                **operands) -> CheckResult:
    """PASS or FAIL by ``holds(*values)`` once every operand is exact.

    Operands are count brackets, passed by keyword; any heuristic operand
    makes the check inconclusive, and the methods of the heuristic operands
    join a copy of ``detail`` under ``open``.  Otherwise the exact values
    join it under their keywords, in order.
    """
    open_ops = {key: op.method for key, op in operands.items() if op.mode != "exact"}
    if open_ops:
        return CheckResult(name, INCONCLUSIVE, dict(detail, open=open_ops))
    values = {key: op.value for key, op in operands.items()}
    status = PASS if holds(*values.values()) else FAIL
    return CheckResult(name, status, dict(detail, **values))


def verify_chain(space: FiniteMetricSpace, eps, budget: int = DEFAULT_BUDGET,
                 horizon: int = 1) -> list[CheckResult]:
    """The six chain inequalities at scale eps on one (already dynamical) space.

    cover(2e) <= span(e) <= sep(e) <= cover(e) and, reading the same space
    statically, sep(2e) <= balls(e) <= sep(e).
    """
    detail = {"space": space.name, "eps": float(eps), "horizon": horizon}
    sep_e = max_separated(space, eps, budget, horizon)
    sep_2e = max_separated(space, 2 * eps, budget, horizon)
    span_e = min_spanning(space, eps, budget, horizon)
    cov_e = min_diameter_cover(space, eps, budget, horizon)
    cov_2e = min_diameter_cover(space, 2 * eps, budget, horizon)
    # on a finite space the ball cover is the spanning count under another tag
    balls_e = replace(span_e, quantity=BALL_COVER)
    le = operator.le
    return [
        exact_check("cover(2e)<=span(e)", detail, le, lhs=cov_2e, rhs=span_e),
        exact_check("span(e)<=sep(e)", detail, le, lhs=span_e, rhs=sep_e),
        exact_check("sep(e)<=cover(e)", detail, le, lhs=sep_e, rhs=cov_e),
        exact_check("sep(2e)<=balls(e)", detail, le, lhs=sep_2e, rhs=balls_e),
        exact_check("balls(e)<=sep(e)", detail, le, lhs=balls_e, rhs=sep_e),
        exact_check("cover(2e)<=cover(e)", detail, le, lhs=cov_2e, rhs=cov_e),
    ]
