"""Exact transport distances: pinned values, metric axioms, oracle parity."""

import functools
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from dynoscale import oracle, verify
from dynoscale.errors import ParameterError
from dynoscale.measures.atomic import AtomicMeasure
from dynoscale.measures.wasserstein import wasserstein, w1_pairs_two_atom
from dynoscale.metric_core.space import FiniteMetricSpace
from dynoscale.oracle import brute_wasserstein
from dynoscale.systems.base import bowen_space
from dynoscale.systems.intervals import doubling_grid


@pytest.fixture(scope="module")
def system():
    return doubling_grid(16, horizon_cap=4)


def test_point_masses_recover_the_metric(system):
    for n in (1, 2, 3):
        dn = bowen_space(system, n)
        for i, j in ((0, 5), (3, 11)):
            v, _ = wasserstein(dn, AtomicMeasure.dirac(i), AtomicMeasure.dirac(j))
            assert v == pytest.approx(dn.dist(i, j), abs=1e-12)


def test_identical_measures_have_zero_distance(system):
    mu = AtomicMeasure.uniform([1, 6, 9])
    v, plan = wasserstein(system.space, mu, mu)
    assert v == pytest.approx(0.0, abs=1e-10)
    assert plan.check_marginals(mu, mu)


def test_a_large_order_keeps_the_distance_of_point_masses():
    # 0.25**1000 underflows to 0, so unscaled costs would give W_p = 0
    space = doubling_grid(64).space
    v, _ = wasserstein(space, AtomicMeasure.dirac(0), AtomicMeasure.dirac(16), p=1000)
    assert v == 0.25


def test_two_by_two_closed_form_matches_lp(system):
    dn = bowen_space(system, 2).as_matrix()
    rng = np.random.default_rng(1)
    for _ in range(60):
        a = sorted(rng.choice(16, 2, replace=False).tolist())
        b = sorted(rng.choice(16, 2, replace=False).tolist())
        wa = Fraction(int(rng.integers(1, 4)), 4)
        wb = Fraction(int(rng.integers(1, 4)), 4)
        mu = AtomicMeasure(tuple(a), (wa, 1 - wa))
        nu = AtomicMeasure(tuple(b), (wb, 1 - wb))
        from dynoscale.metric_core.space import FiniteMetricSpace
        sp = FiniteMetricSpace(matrix=dn, check=False)
        lp_value, _ = wasserstein(sp, mu, nu)
        closed = w1_pairs_two_atom(dn[a[0], b[0]], dn[a[0], b[1]], dn[a[1], b[0]],
                                   dn[a[1], b[1]], float(wa), float(wb))
        assert closed == pytest.approx(lp_value, abs=1e-9)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10**6))
def test_metric_axioms_on_random_triples(seed):
    system = doubling_grid(12, horizon_cap=3)
    rng = np.random.default_rng(seed)
    dn = bowen_space(system, int(rng.integers(1, 4)))

    def rand_measure():
        k = int(rng.integers(1, 4))
        atoms = sorted(rng.choice(12, k, replace=False).tolist())
        raw = [int(x) for x in rng.integers(1, 5, k)]
        return AtomicMeasure.from_weights(atoms, [Fraction(r, sum(raw)) for r in raw])

    mu, nu, rho = rand_measure(), rand_measure(), rand_measure()
    d_mn, _ = wasserstein(dn, mu, nu)
    d_nm, _ = wasserstein(dn, nu, mu)
    d_mr, _ = wasserstein(dn, mu, rho)
    d_rn, _ = wasserstein(dn, rho, nu)
    assert d_mn == pytest.approx(d_nm, abs=1e-9)
    assert d_mn <= d_mr + d_rn + 1e-9
    if mu == nu:
        assert d_mn < 1e-9


def test_higher_order_dominates_first(system):
    # W_p is nondecreasing in p by Jensen
    mu = AtomicMeasure.uniform([0, 3, 7])
    nu = AtomicMeasure.uniform([2, 9])
    v1, _ = wasserstein(system.space, mu, nu, p=1.0)
    v2, _ = wasserstein(system.space, mu, nu, p=2.0)
    assert v2 >= v1 - 1e-12


def test_against_vertex_enumeration_oracle(system):
    rng = np.random.default_rng(4)
    dn = bowen_space(system, 2)
    for _ in range(40):
        ka, kb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = sorted(rng.choice(16, ka, replace=False).tolist())
        b = sorted(rng.choice(16, kb, replace=False).tolist())
        ra = [int(x) for x in rng.integers(1, 6, ka)]
        rb = [int(x) for x in rng.integers(1, 6, kb)]
        mu = AtomicMeasure.from_weights(a, [Fraction(r, sum(ra)) for r in ra])
        nu = AtomicMeasure.from_weights(b, [Fraction(r, sum(rb)) for r in rb])
        got, plan = wasserstein(dn, mu, nu)
        cost = dn.as_matrix()[np.ix_(mu.atoms, nu.atoms)]
        want = brute_wasserstein(cost, np.array([float(w) for w in mu.weights]),
                                 np.array([float(w) for w in nu.weights]))
        assert got == pytest.approx(want, abs=1e-9)
        assert plan.check_marginals(mu, nu)


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", range(1, 5))
def test_basis_table_holds_every_spanning_tree(m, n):
    # Scoins: K_{m,n} has m**(n-1) * n**(m-1) spanning trees
    cells, inverses = oracle._bases(m, n)
    assert len(cells) == len(inverses) == m**(n - 1) * n**(m - 1)
    assert len({tuple(c) for c in cells}) == len(cells)


@functools.lru_cache(maxsize=None)
def _all_subsets_bases(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis table as first built: one incidence stack over every
    subset, one determinant and one inverse call over all of it."""
    size = m + n - 1
    cells = np.array(list(itertools.combinations(range(m * n), size)), dtype=np.intp)
    matrix = np.zeros((len(cells), m + n, size))
    subset, slot = np.arange(len(cells))[:, None], np.arange(size)
    matrix[subset, cells // n, slot] = 1.0
    matrix[subset, m + cells % n, slot] = 1.0
    matrix = matrix[:, :size]
    nonsingular = np.abs(np.linalg.det(matrix)) > 0.5
    return cells[nonsingular], np.rint(np.linalg.inv(matrix[nonsingular]))


def _inverse_price(cost, a, b, p):
    """The coupling oracle as first priced: each basis's flows from the
    inverse of its matrix, scattered into a plan over all m x n cells."""
    m, n = cost.shape
    cells, inverses = _all_subsets_bases(m, n)
    flows = inverses @ np.concatenate([a, b])[:m + n - 1]
    basic = (flows >= -1e-12).all(axis=1)
    plans = np.zeros((np.count_nonzero(basic), m * n))
    np.put_along_axis(plans, cells[basic], np.maximum(flows[basic], 0.0), axis=1)
    grid = plans.reshape(-1, m, n)
    feasible = ((np.abs(grid.sum(axis=2) - a).max(axis=1) <= 1e-9)
                & (np.abs(grid.sum(axis=1) - b).max(axis=1) <= 1e-9))
    return float(((cost**p).ravel() * plans[feasible]).sum(axis=1).min()) ** (1.0 / p)


def _dyadic(rng, k):
    """k positive multiples of 1/64 summing to 1."""
    cuts = np.sort(rng.choice(np.arange(1, 64), k - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [64]])) / 64


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", range(1, 5))
def test_block_basis_table_is_bitwise_the_all_subsets_one(m, n):
    cells, cuts = oracle._bases(m, n)
    want_cells, inverses = _all_subsets_bases(m, n)
    assert cells.dtype == want_cells.dtype and cells.shape == want_cells.shape
    assert cells.tobytes() == want_cells.tobytes()
    assert cuts.dtype == np.uint8 and cuts.shape == cells.shape
    # on multiples of 1/64 every float sum is exact, so a tree edge's cut
    # sum is bit for bit the flow the inverse of its basis matrix gives
    bits = (cuts[..., None] >> np.arange(m + n)) & 1
    rng = np.random.default_rng(10 * m + n)
    for _ in range(5):
        a, b = _dyadic(rng, m), _dyadic(rng, n)
        flows = bits[..., :m] @ a - bits[..., m:] @ b
        want = inverses @ np.concatenate([a, b])[:m + n - 1]
        assert flows.tobytes() == want.tobytes()


def test_basis_table_build_peaks_near_its_own_size():
    # the 4 x 4 table keeps 4096 trees of 7 cells and cut masks, about
    # 0.26 MiB; the all-subsets build holds a stack of all 11,440 seven-cell
    # subsets and peaks at 9 MiB
    oracle._bases.cache_clear()
    tracemalloc.start()
    try:
        oracle._bases(4, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak / 2**20


def test_oracle_equivalence_from_cold_tables_peaks_below_1_5_mib():
    np.random.default_rng(0)  # the suite's first use imports numpy.random
    oracle._bases.cache_clear()
    tracemalloc.start()
    try:
        report = verify.run_suite("oracle-equivalence", 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 1.5 * 2**20, peak / 2**20


def test_a_4x4_coupling_oracle_call_peaks_below_1_mib():
    cost = np.random.default_rng(3).random((4, 4))
    uniform = np.full(4, 0.25)
    oracle._bases(4, 4)  # the cached table is not the call's own memory
    tracemalloc.start()
    try:
        got = brute_wasserstein(cost, uniform, uniform)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(_inverse_price(cost, uniform, uniform, 1.0), abs=1e-15)
    assert peak < 2**20, peak / 2**20


def _edge_case(case, m, n, rng):
    """Cost table and Fraction marginals of one named edge case."""
    if case == "uniform":
        # the most degenerate marginals: many trees share each vertex
        return rng.random((m, n)), _weights(rng, m, True), _weights(rng, n, True)
    cost = {"random": rng.random((m, n)), "zero": np.zeros((m, n)),
            "tied": rng.integers(0, 2, (m, n)).astype(float)}[case]
    return cost, _weights(rng, m, False), _weights(rng, n, False)


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("case", ["uniform", "random", "zero", "tied"])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_cut_sum_prices_match_the_inverse_ones(m, n, case, p):
    # shapes with m or n equal to 1 are the one-atom sides
    rng = np.random.default_rng(100 * m + 10 * n + len(case))
    for _ in range(3):
        cost, wa, wb = _edge_case(case, m, n, rng)
        a = np.array([float(w) for w in wa])
        b = np.array([float(w) for w in wb])
        got = brute_wasserstein(cost, a, b, p)
        assert got == pytest.approx(_inverse_price(cost, a, b, p), abs=1e-15)
        _, _, (value, _) = _transport_instance(cost, wa, wb, p)
        assert got == pytest.approx(value, abs=1e-9)


NO_COUPLING = "no coupling: marginals need equal mass, no negatives"


@pytest.mark.parametrize("cost, a, b, p, message", [
    (np.ones((2, 2)), [0.5, 0.5], [0.5, 0.6], 1.0, NO_COUPLING),
    (np.ones((2, 2)), [1.5, -0.5], [0.5, 0.5], 1.0, NO_COUPLING),
    (np.ones((2, 3)), [0.5, 0.5], [0.5, 0.5], 1.0, "cost must be len(a) x len(b)"),
    (np.ones((5, 1)), [0.2] * 5, [1.0], 1.0, "coupling oracle limited to 4 atoms per side"),
    (np.ones((2, 2)), [0.5, 0.5], [0.5, 0.5], 0.5, "order p must be >= 1"),
    (np.ones((1, 0)), [1.0], [], 1.0, "coupling oracle needs an atom on each side"),
    (np.ones((0, 0)), [], [], 1.0, "coupling oracle needs an atom on each side"),
])
def test_coupling_oracle_rejects_bad_instances(cost, a, b, p, message, monkeypatch):
    built = []
    bases = oracle._bases
    monkeypatch.setattr(oracle, "_bases", lambda *shape: built.append(shape) or bases(*shape))
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        brute_wasserstein(cost, np.array(a), np.array(b), p)
    # only a well-formed instance reaches the basis table
    assert bool(built) == (message == NO_COUPLING)


def test_coupling_oracle_on_a_hand_computed_instance():
    # the cheapest plan moves 0.2 across at cost 1: [[0.3, 0.2], [0, 0.5]]
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = brute_wasserstein(cost, np.array([0.5, 0.5]), np.array([0.3, 0.7]), p=2)
    assert got == pytest.approx(0.2 ** 0.5, abs=1e-15)
    got = brute_wasserstein(cost, np.array([0.5, 0.5]), np.array([0.3, 0.7]), p=1)
    assert got == pytest.approx(0.2, abs=1e-15)


def _transport_instance(cost, a, b, p=1.0):
    """Space, measures and order-p W for an arbitrary m x n cost table.

    Rows become points 0..m-1 and columns points m..m+n-1 of an unchecked
    space whose off-diagonal blocks hold the table.
    """
    m, n = cost.shape
    table = np.zeros((m + n, m + n))
    table[:m, m:] = cost
    table[m:, :m] = cost.T
    space = FiniteMetricSpace(matrix=table, check=False)
    mu = AtomicMeasure.from_weights(range(m), a)
    nu = AtomicMeasure.from_weights(range(m, m + n), b)
    return mu, nu, wasserstein(space, mu, nu, p=p)


def _assert_coupling(plan, mu, nu):
    assert plan.check_marginals(mu, nu, tol=1e-9)
    assert plan.matrix.min() >= -1e-12


def _weights(rng, k, uniform):
    raw = [1] * k if uniform else [int(x) for x in rng.integers(1, 6, k)]
    return [Fraction(r, sum(raw)) for r in raw]


def test_transport_simplex_matches_the_coupling_oracle_on_ties():
    # costs in {0, 1, 2} tie often; uniform marginals such as 1/2 = 2/4 have
    # coinciding partial sums, so the least-cost start is degenerate
    rng = np.random.default_rng(13)
    for t in range(2000):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        cost = rng.integers(0, 3, (m, n)).astype(float)
        uniform = t % 2 == 0
        mu, nu, (value, plan) = _transport_instance(
            cost, _weights(rng, m, uniform), _weights(rng, n, uniform))
        a = np.array([float(w) for w in mu.weights])
        b = np.array([float(w) for w in nu.weights])
        assert value == pytest.approx(brute_wasserstein(cost, a, b), abs=1e-12)
        _assert_coupling(plan, mu, nu)


def test_transport_simplex_matches_linprog_on_large_tied_tables():
    from scipy.optimize import linprog

    rng = np.random.default_rng(7)
    for t in range(20):
        m, n = int(rng.integers(20, 71)), int(rng.integers(20, 71))
        cost = np.exp(-rng.integers(0, 12, (m, n)).astype(float))
        mu, nu, (value, plan) = _transport_instance(
            cost, _weights(rng, m, t % 2 == 0), _weights(rng, n, t % 3 == 0))
        a = np.array([float(w) for w in mu.weights])
        b = np.array([float(w) for w in nu.weights])
        rows = np.kron(np.eye(m), np.ones(n))
        cols = np.kron(np.ones(m), np.eye(n))
        ref = linprog(cost.ravel(), A_eq=np.vstack([rows, cols[:-1]]),
                      b_eq=np.concatenate([a, b[:-1]]), bounds=(0, None), method="highs")
        assert ref.success
        assert value == pytest.approx(ref.fun, abs=1e-9)
        _assert_coupling(plan, mu, nu)


@pytest.mark.parametrize("p, message", [(float("inf"), "order p must be finite"),
                                        (float("nan"), "order p must be >= 1")])
def test_wasserstein_rejects_a_non_finite_order(system, p, message):
    mu, nu = AtomicMeasure.uniform([0, 3]), AtomicMeasure.uniform([1, 2])
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        wasserstein(system.space, mu, nu, p=p)


@pytest.mark.parametrize("p, message", [(float("inf"), "order p must be finite"),
                                        (float("nan"), "order p must be >= 1")])
def test_coupling_oracle_rejects_a_non_finite_order(p, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        brute_wasserstein(np.ones((2, 2)), np.array([0.5, 0.5]), np.array([0.5, 0.5]), p)


def test_transport_leaves_scipy_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dynoscale
    env = dict(os.environ, PYTHONPATH=str(Path(dynoscale.__file__).parents[1]))
    code = ("import sys\n"
            "from dynoscale.measures.atomic import AtomicMeasure\n"
            "from dynoscale.measures.wasserstein import wasserstein\n"
            "from dynoscale.systems.intervals import doubling_grid\n"
            "space = doubling_grid(8, horizon_cap=1).space\n"
            "mu = AtomicMeasure.from_weights([0, 2, 5], [0.5, 0.25, 0.25])\n"
            "nu = AtomicMeasure.uniform([1, 4, 7])\n"
            "print(wasserstein(space, mu, nu)[0] > 0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True", "[]"]
