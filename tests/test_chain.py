"""Chain-backed spaces: the exp shift stored as a partition chain.

Its codes are derived on demand, every float read goes through them, and
the counts on the chains of its ``d_n`` equal the counts on coded copies.
"""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from dynoscale import harness
from dynoscale.errors import BudgetExceededError
from dynoscale.harness import _count, parse_config, run_estimates, run_sweep
from dynoscale.metric_core import solvers
from dynoscale.metric_core.counts import (QUANTITY_OPS, max_separated, min_diameter_cover,
                                          min_spanning)
from dynoscale.metric_core.space import FiniteMetricSpace
from dynoscale.systems.base import bowen_distance, bowen_spaces, identity_system
from dynoscale.systems.combine import power_system, product_system
from dynoscale.systems.shifts import binary_exp_shift, discrete_alphabet, full_shift
from dynoscale.systems.base import bowen_graphs
from dynoscale.systems.descriptor import resolve_system
from dynoscale.systems.shifts import _prefixes

# the sweep-dense benchmark's system, at a grid start in its band
DENSE = {"system": {"kind": "shift", "symbols": 2, "depth": 12, "metric": "exp"},
         "quantities": ["separated", "spanning"],
         "grid": {"start": 0.5, "ratio": 0.6, "count": 6}, "horizons": [1, 2, 3]}
# a 4096-point product of two exp shifts, with every count
SHIFT6 = {"kind": "shift", "depth": 6}
PRODUCT = {"system": {"kind": "product", "a": SHIFT6, "b": SHIFT6},
           "quantities": ["separated", "spanning", "diameter_cover"],
           "grid": {"start": 0.5, "ratio": 0.6, "count": 6}, "horizons": [1, 2, 3]}
# sha256 of each file of the PRODUCT sweep, as written when the product
# was stored as level codes
PRODUCT_SWEEP = {
    "sweep_(shift2x6-exp)x(shift2x6-exp)_separated.csv":
        "5c11c89b6da066c42d8b352c78c20436d74d4333657571a6e16414261b043997",
    "sweep_(shift2x6-exp)x(shift2x6-exp)_spanning.csv":
        "6373fe053505a20226843eb10aa95b9d6a00c7eec8a5e591026cf93c925530b7",
    "sweep_(shift2x6-exp)x(shift2x6-exp)_diameter_cover.csv":
        "03938276c63e8082b26ae388f4ed8c7fb8fa03f19b195970772974d8b4f5dfd3",
    "trace.jsonl": "fe49c931a9359b061205a730de279ec21fcbbc22e055dd4ca0cec838d9e791d8",
}


def _scan(symbols, depth, base):
    """The exp distances of a shift net, one pair of words at a time."""
    words = _prefixes(symbols, depth)
    n = len(words)
    agree = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            k = 0
            while k < depth and words[i, k] == words[j, k]:
                k += 1
            agree[i, j] = k
    want = np.exp(-math.log(base) * agree)
    np.fill_diagonal(want, 0.0)
    return want


@pytest.mark.parametrize("base", [math.e, 2.0])
@pytest.mark.parametrize("symbols, depth", [(2, 5), (3, 3)])
def test_each_float_read_of_a_fresh_chain_space_is_the_per_pair_scan(symbols, depth, base):
    want = _scan(symbols, depth, base)
    n = len(want)

    def fresh():
        space = full_shift(symbols, depth, base=base).space
        assert space.chain is not None and space._codes is None
        return space

    assert fresh().as_matrix().tobytes() == want.tobytes()
    space = fresh()
    got = np.array([[space.dist(i, j) for j in range(n)] for i in range(n)])
    assert got.tobytes() == want.tobytes()
    rows, cols = [n - 1, 0, 3], [2, n - 1, 1, 0]
    assert fresh().distances(rows, cols).tobytes() == want[np.ix_(rows, cols)].tobytes()
    # the diameter and the level cutoffs read the levels and the chain alone
    space = fresh()
    assert space.diameter == want.max()
    assert space.cutoff(want.max(), False) == len(space.chain) + 1
    assert space._codes is None


def test_a_pair_read_of_a_chain_space_counts_its_labels():
    system = binary_exp_shift(12, horizon_cap=3)
    tracemalloc.start()
    try:
        got = bowen_distance(system, 0, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # words 0 and 1 first differ in letter 11, and their images 0 and 2 in letter 10
    assert got == pytest.approx(math.exp(-10), rel=1e-12)
    assert system.space._codes is None
    assert peak < 2**20, peak / 2**20


def test_pair_reads_of_a_chain_space_are_its_matrix_entries():
    want = full_shift(3, 3).space.as_matrix()
    space = full_shift(3, 3).space
    n = space.size
    got = np.array([[space.dist(i, j) for j in range(n)] for i in range(n)])
    assert space._codes is None
    assert got.tobytes() == want.tobytes()
    # once the codes exist the pair is read from them
    space.level_codes()
    assert all(space.dist(i, j) == want[i, j] for i in range(n) for j in range(n))


def _out_of_budget(*args, **kwargs):
    raise BudgetExceededError("forced")


CHAIN_SYSTEMS = {
    "2x5-tail0": lambda: full_shift(2, 5),
    "2x5-tail1": lambda: full_shift(2, 5, tail=1),
    "3x3-tail0": lambda: full_shift(3, 3),
    "3x3-tail1": lambda: full_shift(3, 3, tail=1),
    "2x6-squared": lambda: power_system(full_shift(2, 6), 2),
    "2x3-by-3x2": lambda: product_system(full_shift(2, 3), full_shift(3, 2, tail=1)),
}


@pytest.mark.parametrize("name", CHAIN_SYSTEMS)
def test_counts_on_labels_equal_counts_on_codes(name, monkeypatch):
    coded = CHAIN_SYSTEMS[name]()
    horizons = list(range(1, coded.horizon_cap + 1))
    levels = coded.space.level_codes()[0]
    diameter = coded.space.diameter
    # every positive level (where strict and non-strict graphs differ), the
    # gaps between them, a scale below the smallest positive level, the
    # diameter and a scale past it
    scales = [*levels[1:], *((levels[1:-1] + levels[2:]) / 2), levels[1] / 2,
              diameter, 2 * diameter]
    # a coded copy of each d_n, so the reference counts reach the graph solvers
    want = {(n, q, eps): count(FiniteMetricSpace.from_codes(*dn.level_codes()), eps, horizon=n)
            for n, dn in zip(horizons, bowen_spaces(coded, horizons))
            for q, count in QUANTITY_OPS.items() for eps in scales}
    # the chains answer every cell: a solver reached would end heuristic
    for solver in ("exact_max_independent_set", "exact_min_set_cover",
                   "exact_min_clique_cover"):
        monkeypatch.setattr(solvers, solver, _out_of_budget)
    system = CHAIN_SYSTEMS[name]()
    cutoffs = sorted({system.space.cutoff(eps, strict) for eps in scales
                      for strict in (True, False)})
    got = {}
    for dn in bowen_graphs(system, horizons, cutoffs):
        for q, count in QUANTITY_OPS.items():
            for eps in scales:
                got[(dn.horizon, q, eps)] = count(dn, eps, horizon=dn.horizon)
    for q, count in QUANTITY_OPS.items():
        for eps in scales:
            assert count(system.space, eps, horizon=1) == want[(1, q, eps)], (q, eps)
    assert got == want
    assert system.space._codes is None


def test_counting_the_dense_sweep_builds_no_square_table():
    # resolving the sweep-dense system and counting its cells at horizons
    # 1-3 stay below half of one packed graph of the net
    config = parse_config(DENSE)
    tracemalloc.start()
    try:
        system = resolve_system(config.system)
        sweeps = _count(system, config.quantities, config, config.horizons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = system.space.size
    assert size == 4096 and all(br.mode == "exact" for s in sweeps.values() for br in s.rows)
    assert system.space._codes is None
    assert peak < size**2 / 16, peak / size**2


def test_counting_on_bowen_spaces_builds_no_square_table():
    system = binary_exp_shift(12, horizon_cap=3)
    size = system.space.size
    scales = [0.5 * 0.6**i for i in range(6)]
    tracemalloc.start()
    try:
        for n, dn in enumerate(bowen_spaces(system, [1, 2, 3]), start=1):
            assert (dn is system.space) if n == 1 else (dn.chain is not None)
            for count in (max_separated, min_spanning, min_diameter_cover):
                for eps in scales:
                    assert count(dn, eps, horizon=n).mode == "exact"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.space._codes is None
    assert peak < size**2 / 16, peak / size**2


def _spy_resolved(monkeypatch):
    """The systems that ``harness.resolve_system`` returns from now on."""
    resolved = []

    def spy(descriptor, real=harness.resolve_system):
        resolved.append(real(descriptor))
        return resolved[-1]

    monkeypatch.setattr(harness, "resolve_system", spy)
    return resolved


def test_sweep_and_estimate_of_the_dense_shift_build_no_codes(tmp_path, monkeypatch):
    resolved = _spy_resolved(monkeypatch)
    config = parse_config(DENSE)
    run_sweep(config, tmp_path)
    run_estimates(config, tmp_path)  # reads every cell from the sweep's trace
    assert len(resolved) == 2
    assert all(system.space._codes is None for system in resolved)


def test_the_sweep_of_a_product_of_shifts_is_unchanged_and_builds_no_codes(
        tmp_path, monkeypatch):
    resolved = _spy_resolved(monkeypatch)
    written = run_sweep(parse_config(PRODUCT), tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in written} == PRODUCT_SWEEP
    # at the k-th scale, d_n joins two pairs of words exactly when both
    # words of each factor agree on their first n + (k + 1) // 2 letters, so
    # every count is the number of those classes
    rows = [json.loads(line) for line in (tmp_path / "trace.jsonl").open()][1:]
    assert len(rows) == 3 * 3 * 6
    for k, row in enumerate(rows):
        horizon, step = 1 + k // 6 % 3, k % 6
        want = 4 ** (horizon + (step + 1) // 2)
        assert (row["lower"], row["upper"], row["mode"]) == (want, want, "exact"), row
    assert len(resolved) == 1 and resolved[0].space.chain is not None
    assert resolved[0].space._codes is None


def test_every_ultrametric_builder_yields_a_chain():
    shift = full_shift(3, 3)
    letters = identity_system(discrete_alphabet(4))
    systems = {
        "exp-shift": shift,
        "binary-exp-shift": binary_exp_shift(5),
        "discrete-alphabet": letters,
        "identity": identity_system(shift.space),
        "power": power_system(shift, 2),
        "product": product_system(shift, letters),
        "product-of-products": product_system(product_system(shift, letters),
                                              power_system(binary_exp_shift(3), 3)),
        "descriptor": resolve_system({"kind": "power", "exponent": 2, "base": {
            "kind": "product", "a": SHIFT6, "b": {"kind": "shift", "symbols": 3,
                                                  "depth": 2}}}),
    }
    for name, system in systems.items():
        assert system.space.chain is not None, name
        assert system.space._codes is None, name
