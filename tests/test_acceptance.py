"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each test prints one PASS line on success (pytest -s shows them); a failed
assertion marks the criterion red.  Tolerances are pinned here and nowhere
else.
"""

import math
import time

import numpy as np
import pytest
from fractions import Fraction

from dynoscale.estimators.quantities import (box_dimension_estimate, entropy_at_scale,
                                             mdim_estimate, mdim_mo_estimate)
from dynoscale.measures.atomic import AtomicMeasure
from dynoscale.measures.constructions import ladder_construction
from dynoscale.measures.induced import induced_sweep
from dynoscale.measures.prokhorov import levy_prokhorov, lp_condition_holds
from dynoscale.measures.quantization import (LP_KIND, dynamical_quantization_order,
                                             dynamical_quantization_rate,
                                             quantization_number)
from dynoscale.measures.wasserstein import wasserstein
from dynoscale.metric_core.counts import (ScaleGrid, max_separated, min_ball_cover,
                                          min_diameter_cover)
from dynoscale.oracle import brute_wasserstein
from dynoscale.systems.banach import audit_spanning, banach_spanning_set, min_separation
from dynoscale.systems.base import bowen_space
from dynoscale.systems.intervals import doubling_grid, null_sequence_space, unit_lattice
from dynoscale.systems.kolyada import KolyadaSnohaMap
from dynoscale.systems.probe import (entropy_scale_table, horseshoe_entropy_probe,
                                     ladder_grid)
from dynoscale.systems.shifts import binary_exp_shift, full_shift
from dynoscale.verify import run_suite
from dynoscale.harness import parse_config, run_sweep


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_exact_shift_counts():
    start = time.time()
    system = binary_exp_shift(depth=12)
    for m in range(1, 11):
        got = max_separated(system.space, math.exp(-m))
        assert got.mode == "exact" and got.value == 2**m, (m, got)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"separated counts 2^m for m=1..10 in {elapsed:.1f}s")


def test_criterion_02_box_dimensions():
    start = time.time()
    rows = [(eps, min_ball_cover(null_sequence_space(10_000), eps))
            for eps in ScaleGrid(0.1, 0.56, 12).scales()]
    null_est = box_dimension_estimate(rows, tail=12)
    t_null = time.time() - start
    assert abs(null_est.value - 0.5) <= 0.05 and t_null < 60

    start = time.time()
    lattice = unit_lattice(100_001)
    rows = [(eps, min_ball_cover(lattice, eps))
            for eps in ScaleGrid(1 / 60, 0.56, 8).scales()]
    lattice_est = box_dimension_estimate(rows, tail=8)
    t_lat = time.time() - start
    assert abs(lattice_est.value - 1.0) <= 0.03 and t_lat < 60

    start = time.time()
    shift = binary_exp_shift(depth=12)
    rows = [(eps, min_ball_cover(shift.space, eps))
            for eps in [math.exp(-m) * 0.97 for m in range(1, 11)]]
    shift_est = box_dimension_estimate(rows, tail=10)
    t_shift = time.time() - start
    assert abs(shift_est.value - math.log(2)) <= 0.05 and t_shift < 60
    _report(2, "box dims: null-seq %.3f, lattice %.3f, shift %.4f "
               "(%.0fs/%.0fs/%.0fs)" % (null_est.value, lattice_est.value,
                                        shift_est.value, t_null, t_lat, t_shift))


def test_criterion_03_entropy_at_scale():
    for symbols, depth in ((2, 8), (3, 6), (5, 5)):
        system = full_shift(symbols, depth, metric="exp", horizon_cap=depth)
        rows = []
        for n in range(1, depth - 1):
            dn = bowen_space(system, n)
            rows.append((n, max_separated(dn, 0.6, horizon=n)))
        est = entropy_at_scale(rows, tail=len(rows))
        assert est.value == pytest.approx(math.log(symbols), abs=1e-9)
        assert est.residual < 1e-9

    ladder = KolyadaSnohaMap.family_f3(4)  # branch counts 3, 5, 7, 9
    for k, branches in ((1, 3), (2, 5), (3, 7), (4, 9)):
        eps_k = ladder.blocks[k - 1].branch_scale
        for row in horseshoe_entropy_probe(ladder, k, [eps_k / 4, eps_k / 32]):
            assert abs(row.slope.value - math.log(branches)) \
                <= 0.05 * math.log(branches)
    _report(3, "entropy log m exact (zero residual) for m=2,3,5; "
               "ladder block slopes within 5% of log b_k up to b_k=9")


def test_criterion_04_mean_dimension_families():
    start = time.time()
    results = {}
    for family, target in (("F1", 1.0), ("F2", 0.5)):
        per_kmax = []
        for k_max in (4, 5, 6):
            if family == "F1":
                tmap = KolyadaSnohaMap.family_f1(k_max)
            else:
                tmap = KolyadaSnohaMap.family_f2(Fraction(1, 2), k_max)
            grid = ladder_grid(tmap, below=2)  # reaches eps_kmax / 4
            assert min(grid) == tmap.blocks[-1].branch_scale / 4
            h_rows = entropy_scale_table(tmap, grid)
            per_kmax.append(mdim_estimate(h_rows))
        est = per_kmax[-1]
        assert abs(est.value - target) <= 0.15, (family, est.value)
        # finite-scale (uncorrected) proxies approach the target from below
        plains = [e.plain_value for e in per_kmax]
        gaps = [abs(p - target) for p in plains]
        assert all(b <= a + 0.01 for a, b in zip(gaps, gaps[1:])), plains
        results[family] = (est.value, plains)
    elapsed = time.time() - start
    assert elapsed < 300
    _report(4, "mean-dimension estimates F1=%.3f F2=%.3f with plain trends "
               "%s / %s in %.1fs" % (results["F1"][0], results["F2"][0],
                                     ["%.3f" % p for p in results["F1"][1]],
                                     ["%.3f" % p for p in results["F2"][1]],
                                     elapsed))


def test_criterion_05_inequality_suites():
    tallies = {}
    for name in ("chain", "subadditivity", "power", "product", "shift-bounds"):
        report = run_suite(name, seed=0)
        assert report.passed, report.failures()
        counts = report.counts()
        assert counts["pass"] > 0
        tallies[name] = counts["pass"]
    _report(5, "suites pass with zero failures: " +
               ", ".join(f"{k}={v}" for k, v in tallies.items()))


def test_criterion_06_transport_exactness():
    rng = np.random.default_rng(606)
    system = doubling_grid(24, horizon_cap=4)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        dn = bowen_space(system, n)
        ka, kb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        atoms_a = sorted(rng.choice(24, ka, replace=False).tolist())
        atoms_b = sorted(rng.choice(24, kb, replace=False).tolist())
        ra = [int(x) for x in rng.integers(1, 7, ka)]
        rb = [int(x) for x in rng.integers(1, 7, kb)]
        mu = AtomicMeasure.from_weights(atoms_a, [Fraction(r, sum(ra)) for r in ra])
        nu = AtomicMeasure.from_weights(atoms_b, [Fraction(r, sum(rb)) for r in rb])
        got, _ = wasserstein(dn, mu, nu)
        cost = dn.as_matrix()[np.ix_(mu.atoms, nu.atoms)]
        want = brute_wasserstein(cost, np.array([float(w) for w in mu.weights]),
                                 np.array([float(w) for w in nu.weights]))
        worst = max(worst, abs(got - want))
    assert worst < 1e-9

    lp_fails = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        dn = bowen_space(system, n)
        ka, kb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        atoms_a = sorted(rng.choice(24, ka, replace=False).tolist())
        atoms_b = sorted(rng.choice(24, kb, replace=False).tolist())
        ra = [int(x) for x in rng.integers(1, 7, ka)]
        rb = [int(x) for x in rng.integers(1, 7, kb)]
        mu = AtomicMeasure.from_weights(atoms_a, [Fraction(r, sum(ra)) for r in ra])
        nu = AtomicMeasure.from_weights(atoms_b, [Fraction(r, sum(rb)) for r in rb])
        value = levy_prokhorov(dn, mu, nu)
        ok_at = lp_condition_holds(dn, mu, nu, value)
        ok_below = value <= 1e-12 or not lp_condition_holds(
            dn, mu, nu, value * 0.999 - 1e-9)
        if not (ok_at and ok_below):
            lp_fails += 1
    assert lp_fails == 0
    _report(6, f"transport matches vertex oracle to {worst:.1e}; "
               "Prokhorov certificates tight on 200 instances")


def test_criterion_07_quantization_bounds():
    report = run_suite("quantization-bounds", seed=0)
    assert report.passed and report.counts()["pass"] > 0
    floor = run_suite("transport-floor", seed=0)
    assert floor.passed
    floor_count = sum(1 for c in floor.checks if c.status == "pass")
    assert floor_count >= 190  # a few instances degenerate to single atoms
    from dynoscale.verify import domination_suite
    dom = domination_suite(seed=0, pairs=100)
    assert dom.passed
    assert sum(1 for c in dom.checks if c.status == "pass") >= 80
    _report(7, "Q below cover on every exact cell; transport floor holds on "
               f"{floor_count} constructed instances; domination never violated")


def test_criterion_08_ladder_sandwich():
    system = binary_exp_shift(depth=6, horizon_cap=5)
    ladder = ladder_construction(system, horizon=4, j_max=3)
    horizons = [1, 2, 3, 4]
    grid = [math.exp(-m) * 0.93 for m in (1, 2, 3, 4)]
    rates = []
    h_rows = []
    for eps in grid:
        per_n = []
        for n in horizons:
            dn = bowen_space(system, n)
            q = quantization_number(dn, ladder.measure, eps, kind=LP_KIND,
                                    horizon=n)
            cover = min_diameter_cover(dn, eps, horizon=n)
            assert q.mode == "exact" and cover.mode == "exact"
            balls = dn.as_matrix()[:, list(ladder.measure.atoms)] <= eps
            masses = balls @ np.array([float(w) for w in ladder.measure.weights])
            greedy_floor = int(np.ceil((1 - eps) / masses.max()))
            assert greedy_floor <= q.upper <= cover.value
            per_n.append(q)
        rates.append((eps, dynamical_quantization_rate(per_n)))
        sep_rows = [(n, max_separated(bowen_space(system, n), eps, horizon=n))
                    for n in horizons]
        h_rows.append((eps, entropy_at_scale(sep_rows, tail=4)))
    order = dynamical_quantization_order(rates)
    system_proxy = mdim_mo_estimate(h_rows)
    assert order.value >= 0.8 * system_proxy.value - 1e-9
    _report(8, "ladder rates inside [mass floor, cover] on every cell; "
               f"order proxy {order.value:.3f} vs 0.8x system {system_proxy.value:.3f}")


def test_criterion_09_banach_lattice():
    for eps in (Fraction(1, 2), Fraction(1, 4)):
        lat = banach_spanning_set(eps)
        m = int(2 / eps)
        assert lat.cardinality == m ** lat.coord_count
        separation, witness = min_separation(lat)
        assert separation > eps * eps / 4
        p, q = lat.point(witness[0]), lat.point(witness[1])
        assert lat.norm_distance(p, q) == separation
        worst = audit_spanning(lat, samples=1000, seed=909)
        assert worst < eps
    _report(9, "lattices exactly floor(2/eps)^n0, strictly eps^2/4-separated, "
               "eps-spanning on 1000-point audits at eps=1/2, 1/4")


def test_criterion_10_lattice_embedding():
    system = binary_exp_shift(depth=4, horizon_cap=4)
    cells = induced_sweep(system, horizons=[1, 2, 3, 4],
                          grid=[0.43, 0.2, 0.09], max_atoms=2, q=4)
    assert all(c.embedding_holds for c in cells)
    tracked = [c.covering_diagnostic for c in cells
               if "within" in c.covering_diagnostic]
    assert tracked, "diagnostic never evaluated"
    within = sum(1 for d in tracked if d["within"])
    _report(10, f"point-mass embedding holds on all {len(cells)} cells; "
                f"covering diagnostic reported on {len(tracked)} "
                f"(within bound on {within})")


def test_criterion_11_determinism(tmp_path):
    config = parse_config({
        "system": {"kind": "shift", "symbols": 2, "depth": 6, "metric": "exp"},
        "quantities": ["separated", "spanning", "diameter_cover"],
        "grid": {"start": 0.5, "ratio": 0.6, "count": 4},
        "horizons": [1, 2, 3],
    })
    first = run_sweep(config, tmp_path / "a")
    second = run_sweep(config, tmp_path / "b")
    assert [p.name for p in first] == [p.name for p in second]
    for pa, pb in zip(first, second):
        assert pa.read_bytes() == pb.read_bytes()
    _report(11, f"reruns byte-identical across {len(first)} artifacts")
