"""Inequality suites over the shipped desk-scale systems.

Each suite returns a ``VerificationReport`` whose failed checks carry a
replayable payload (system name, horizon, scale, operands).  Heuristic
cells yield "inconclusive" entries, never failures.  Exit-code semantics
live in the CLI: any failure is a verification failure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .draws import default_rng
from .metric_core.checks import (CheckResult, PASS, FAIL, INCONCLUSIVE, exact_check,
                                 verify_chain)
from .metric_core.counts import max_separated, min_spanning, min_diameter_cover
from .metric_core.solvers import DEFAULT_BUDGET
from .metric_core.space import FiniteMetricSpace
from .systems.base import DynamicalSystem, bowen_spaces, identity_system
from .systems.combine import power_system, product_system
from .systems.intervals import doubling_grid, random_space
from .systems.shifts import binary_exp_shift, full_shift
from .measures.atomic import AtomicMeasure
from .measures.quantization import (quantization_number, partial_cover_bracket, LP_KIND,
                                    W_KIND)
from .measures.constructions import check_transport_lower_bound
from .measures.wasserstein import wasserstein
from . import oracle


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == FAIL]

    def inconclusive(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == INCONCLUSIVE]


def _shipped_systems(seed: int) -> list[DynamicalSystem]:
    return [
        binary_exp_shift(depth=6, horizon_cap=6),
        full_shift(2, 5, metric="product", horizon_cap=5),
        doubling_grid(64, horizon_cap=8),
        identity_system(random_space(8, seed), horizon_cap=4),
    ]


def _grid_for(system: DynamicalSystem) -> list[float]:
    diam = system.space.diameter
    # irrational-step grid away from the systems' rational distance values
    return [diam * 0.43 * 0.57**i for i in range(4)]


def _spaces(system: DynamicalSystem, horizons) -> dict[int, FiniteMetricSpace]:
    """d_n by n for the given horizons within the system's cap, from one walk."""
    ns = sorted({n for n in horizons if n <= system.horizon_cap})
    return dict(zip(ns, bowen_spaces(system, ns)))


def _below_product(whole: int, left: int, right: int) -> bool:
    return whole <= left * right


def chain_suite(seed: int = 0, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """The count chain and the ball/separated bracket on every shipped system."""
    report = VerificationReport("chain")
    for system in _shipped_systems(seed):
        for n, dn in _spaces(system, (1, 2, 3)).items():
            for eps in _grid_for(system):
                for res in verify_chain(dn, eps, budget, horizon=n):
                    res.detail["system"] = system.name
                    res.detail["horizon"] = n
                    report.checks.append(res)
    return report


def subadditivity_suite(seed: int = 0, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """cover(n+m) <= cover(n) * cover(m) on shipped systems."""
    report = VerificationReport("subadditivity")
    for system in _shipped_systems(seed):
        spaces = _spaces(system, range(1, 6))
        for n, m in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            if n + m not in spaces:
                continue
            dn, dm, dnm = (spaces[k] for k in (n, m, n + m))
            for eps in _grid_for(system):
                a = min_diameter_cover(dn, eps, budget, n)
                b = min_diameter_cover(dm, eps, budget, m)
                ab = min_diameter_cover(dnm, eps, budget, n + m)
                detail = {"system": system.name, "n": n, "m": m, "eps": eps}
                report.checks.append(exact_check(
                    "subadditivity", detail, _below_product,
                    combined=ab, left=a, right=b))
    return report


def power_suite(seed: int = 0, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """separated(map^l, n, e) <= separated(map, l*n, e) for l in {2, 3}."""
    report = VerificationReport("power")
    systems = [binary_exp_shift(depth=6, horizon_cap=7),
               doubling_grid(64, horizon_cap=10)]
    for system in systems:
        spaces = _spaces(system, range(1, 10))
        for ell in (2, 3):
            for n, powered_n in _spaces(power_system(system, ell), (1, 2, 3)).items():
                if ell * n not in spaces:
                    continue
                system_ln = spaces[ell * n]
                for eps in _grid_for(system):
                    lhs = max_separated(powered_n, eps, budget, n)
                    rhs = max_separated(system_ln, eps, budget, ell * n)
                    detail = {"system": system.name, "power": ell, "n": n, "eps": eps}
                    report.checks.append(exact_check(
                        "power", detail, operator.le, lhs=lhs, rhs=rhs))
    return report


def product_suite(seed: int = 0, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """spanning(product) <= spanning(a) * spanning(b) under the max metric."""
    report = VerificationReport("product")
    a = identity_system(random_space(6, seed), horizon_cap=4)
    b = doubling_grid(6, horizon_cap=4)
    z = product_system(a, b)
    spaces = [_spaces(system, (1, 2, 3)) for system in (a, b, z)]
    for n in (1, 2, 3):
        an, bn, zn = (d[n] for d in spaces)
        for eps in _grid_for(z):
            ra = min_spanning(an, eps, budget, n)
            rb = min_spanning(bn, eps, budget, n)
            rz = min_spanning(zn, eps, budget, n)
            detail = {"system": z.name, "n": n, "eps": eps}
            report.checks.append(exact_check(
                "product", detail, _below_product, combined=rz, left=ra, right=rb))
    return report


def nonwandering_suite(seed: int = 0, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """separated(X, n, 2e) <= separated(Omega, n, e) where Omega is declared.

    Runs only on systems whose nonwandering set is declared the whole space
    (the exp shift, the product shift and the static random net), where the
    restriction is the identity.
    """
    report = VerificationReport("nonwandering")
    for system in _shipped_systems(seed):
        if not system.meta.get("omega_full"):
            continue
        for n, dn in _spaces(system, (1, 2, 3)).items():
            for eps in _grid_for(system):
                big = max_separated(dn, 2 * eps, budget, n)
                small = max_separated(dn, eps, budget, n)
                detail = {"system": system.name, "n": n, "eps": eps}
                report.checks.append(exact_check(
                    "nonwandering", detail, operator.le, lhs=big, rhs=small))
    return report


def scale_cap(eps: float) -> float:
    """Exponent cap N(e) = log2 floor(4/e) used by the shift spanning bound."""
    return math.log2(math.floor(4.0 / eps))


def shift_bounds_suite(seed: int = 0, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Shift-versus-alphabet bounds from the explicit constructions.

    separated(shift, n, e) >= separated(alphabet, e)^n and
    spanning(shift, n, e) <= spanning(alphabet, e)^(n + N(e)).  On the
    summed product metric the separated construction only certifies scales
    below half the alphabet separation, so the grid stays there.
    """
    report = VerificationReport("shift-bounds")
    cases = [
        (binary_exp_shift(depth=7, horizon_cap=5), [0.43, 0.18, 0.08]),
        (full_shift(2, 5, metric="product", horizon_cap=5), [0.43, 0.21]),
    ]
    for system, raw_grid in cases:
        alphabet = system.meta["alphabet"]
        for n, dn in _spaces(system, (1, 2, 3)).items():
            for eps in raw_grid:
                sep_alpha = max_separated(alphabet, eps, budget)
                span_alpha = min_spanning(alphabet, eps, budget)
                sep_shift = max_separated(dn, eps, budget, n)
                span_shift = min_spanning(dn, eps, budget, n)
                # net truncation caps the realized prefix count
                cap = system.meta["symbols"] ** system.meta["depth"]
                exponent = n + scale_cap(eps)
                detail = {"system": system.name, "n": n, "eps": eps}
                report.checks.append(exact_check(
                    "shift-separated-bound", dict(detail, cap=cap),
                    lambda shift, alpha: shift >= min(alpha**n, cap),
                    sep_shift=sep_shift, sep_alpha=sep_alpha))
                report.checks.append(exact_check(
                    "shift-spanning-bound", dict(detail, exponent=exponent),
                    lambda shift, alpha: (math.log(shift)
                                          <= exponent * math.log(max(alpha, 2)) + 1e-9),
                    span_shift=span_shift, span_alpha=span_alpha))
    return report


def quantization_bounds_suite(seed: int = 0, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Q(mu, e) <= cover(X, e) for both metric kinds, on every exact cell."""
    report = VerificationReport("quantization-bounds")
    rng = default_rng(seed)
    for system in _shipped_systems(seed)[:3]:
        size = system.space.size
        measures = [AtomicMeasure.dirac(int(rng.integers(size)))]
        support = sorted(rng.choice(size, size=min(5, size), replace=False).tolist())
        measures.append(AtomicMeasure.uniform(support))
        raw = sorted(rng.integers(1, 10, size=len(support)).tolist())
        measures.append(AtomicMeasure.from_weights(
            support, [Fraction(r, sum(raw)) for r in raw]))
        for n, dn in _spaces(system, (1, 2)).items():
            for eps in _grid_for(system)[:3]:
                cover = min_diameter_cover(dn, eps, budget, n)
                for kind in (LP_KIND, W_KIND):
                    for mu in measures:
                        q = quantization_number(dn, mu, eps, kind=kind,
                                                budget=budget, horizon=n)
                        detail = {"system": system.name, "n": n, "eps": eps,
                                  "kind": kind, "support": mu.support_size}
                        report.checks.append(exact_check(
                            "q-below-cover", detail, operator.le, q=q, cover=cover))
    return report


def transport_floor_suite(seed: int = 0, budget: int = DEFAULT_BUDGET,
                          instances: int = 200) -> VerificationReport:
    """W_1 against the uniform-separated floor on constructed instances."""
    report = VerificationReport("transport-floor")
    rng = default_rng(seed)
    spaces = _spaces(binary_exp_shift(depth=6, horizon_cap=4), (1, 2, 3))
    for t in range(instances):
        n = int(rng.integers(1, 4))
        dn = spaces[n]
        eps = float(rng.choice([0.9, 0.3, 0.12, 0.04]))
        # a heuristic bracket still witnesses an eps-separated set
        atoms = max_separated(dn, eps, budget, horizon=n).witness
        if len(atoms) < 2:
            continue
        c_nu = int(rng.integers(1, len(atoms)))
        nu_atoms = sorted(rng.choice(dn.size, size=c_nu, replace=False).tolist())
        raw = [int(x) for x in rng.integers(1, 8, size=c_nu)]
        nu = AtomicMeasure.from_weights(nu_atoms,
                                        [Fraction(r, sum(raw)) for r in raw])
        out = check_transport_lower_bound(dn, atoms, eps, nu)
        detail = {"instance": t, "n": n, "eps": eps, "count": len(atoms),
                  "smaller": c_nu, **out}
        report.checks.append(CheckResult(
            "transport-floor", PASS if out["holds"] else FAIL, detail))
    return report


def domination_suite(seed: int = 0, budget: int = DEFAULT_BUDGET,
                     pairs: int = 100) -> VerificationReport:
    """Q(nu, t*e) >= Q(eta, e) whenever nu dominates t * eta."""
    report = VerificationReport("domination")
    rng = default_rng(seed)
    system = doubling_grid(32, horizon_cap=4)
    size, spaces = system.space.size, _spaces(system, (1, 2, 3))
    for t_idx in range(pairs):
        n = int(rng.integers(1, 4))
        dn = spaces[n]
        support = sorted(rng.choice(size, size=int(rng.integers(2, 6)),
                                    replace=False).tolist())
        eta = AtomicMeasure.uniform(support)
        t = Fraction(int(rng.integers(1, 4)), 4)
        other = AtomicMeasure.uniform(
            sorted(rng.choice(size, size=int(rng.integers(1, 5)),
                              replace=False).tolist()))
        nu = eta.mix(other, t)  # t * eta + (1 - t) * other >= t * eta
        assert nu.dominates(eta, t)
        eps = float(rng.choice([0.4, 0.2, 0.1]))
        kind = LP_KIND if t_idx % 2 == 0 else W_KIND
        q_eta = quantization_number(dn, eta, eps, kind=kind, budget=budget, horizon=n)
        q_nu = quantization_number(dn, nu, float(t) * eps, kind=kind, budget=budget,
                                   horizon=n)
        detail = {"pair": t_idx, "n": n, "eps": eps, "t": str(t), "kind": kind}
        report.checks.append(exact_check(
            "domination", detail, operator.le, q_eta=q_eta, q_nu=q_nu))
    return report


def oracle_equivalence_suite(seed: int = 0, budget: int = DEFAULT_BUDGET,
                             instances: int = 200) -> VerificationReport:
    """Main solvers against the exhaustive oracles on random small instances."""
    report = VerificationReport("oracle-equivalence")
    rng = default_rng(seed)

    for t in range(instances):
        pts = int(rng.integers(4, 9))
        space = random_space(pts, int(rng.integers(1 << 30)))
        dense = FiniteMetricSpace.from_codes(*space.level_codes(), name="dense")
        eps = float(rng.uniform(0.05, 0.8)) * space.diameter
        sep = max_separated(dense, eps, budget)
        span = min_spanning(dense, eps, budget)
        cover = min_diameter_cover(dense, eps, budget)
        brute = (oracle.brute_max_separated(space, eps),
                 oracle.brute_min_spanning(space, eps),
                 oracle.brute_min_diameter_cover(space, eps))
        detail = {"instance": t, "points": pts, "eps": eps, "brute": brute}
        report.checks.append(exact_check(
            "counts-vs-oracle", detail, lambda *got: got == brute,
            sep=sep, span=span, cover=cover))

    spaces = _spaces(doubling_grid(16, horizon_cap=3), (1, 2, 3))
    for t in range(instances):
        na, nb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        atoms_a = sorted(rng.choice(16, size=na, replace=False).tolist())
        atoms_b = sorted(rng.choice(16, size=nb, replace=False).tolist())
        wa = [int(x) for x in rng.integers(1, 6, size=na)]
        wb = [int(x) for x in rng.integers(1, 6, size=nb)]
        mu = AtomicMeasure.from_weights(atoms_a, [Fraction(w, sum(wa)) for w in wa])
        nu = AtomicMeasure.from_weights(atoms_b, [Fraction(w, sum(wb)) for w in wb])
        dn = spaces[int(rng.integers(1, 4))]
        value, plan = wasserstein(dn, mu, nu)
        cost = dn.distances(mu.atoms, nu.atoms)
        brute = oracle.brute_wasserstein(
            cost, np.array([float(w) for w in mu.weights]),
            np.array([float(w) for w in nu.weights]))
        ok = abs(value - brute) < 1e-9 and plan.check_marginals(mu, nu)
        report.checks.append(CheckResult(
            "transport-vs-oracle", PASS if ok else FAIL,
            {"instance": t, "value": value, "brute": brute}))

    for t in range(instances):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(3, 9))
        masks = rng.random((m, n)) < 0.5
        masks[0] = True
        raw = [int(x) for x in rng.integers(1, 9, size=n)]
        weights = [Fraction(r, sum(raw)) for r in raw]
        target = Fraction(int(rng.integers(1, 10)), 10)
        want = oracle.brute_partial_cover(masks, weights, target)
        got = partial_cover_bracket(masks, weights, target, budget)
        report.checks.append(exact_check(
            "partial-cover-vs-oracle", {"instance": t, "want": want},
            lambda value: value == want, got=got))
    return report


SUITES = {
    "chain": chain_suite,
    "subadditivity": subadditivity_suite,
    "power": power_suite,
    "product": product_suite,
    "nonwandering": nonwandering_suite,
    "shift-bounds": shift_bounds_suite,
    "quantization-bounds": quantization_bounds_suite,
    "transport-floor": transport_floor_suite,
    "domination": domination_suite,
    "oracle-equivalence": oracle_equivalence_suite,
}


def run_suite(name: str, seed: int = 0, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    if name == "all":
        merged = VerificationReport("all")
        for key in SUITES:
            merged.checks.extend(run_suite(key, seed, budget).checks)
        return merged
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; have {sorted(SUITES)} and 'all'")
    return SUITES[name](seed=seed, budget=budget)
