"""Combinatorial solvers against exhaustive oracles on random smalls."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from dynoscale.errors import BudgetExceededError
from dynoscale.metric_core.counts import min_spanning
from dynoscale.metric_core import solvers
from dynoscale.metric_core.solvers import (
    dedupe_masks, exact_max_independent_set, exact_min_clique_cover,
    exact_min_partial_cover, exact_min_set_cover, greedy_clique_cover,
    greedy_independent_set, greedy_partial_cover, line_max_separated,
    line_min_ball_cover, line_min_diameter_cover, maximal_cliques)
from dynoscale.metric_core.space import FiniteMetricSpace, pack_rows
from dynoscale.oracle import brute_min_diameter_cover, brute_partial_cover
from dynoscale.systems.base import bowen_space
from dynoscale.systems.combine import product_system
from dynoscale.systems.intervals import doubling_grid, unit_lattice
from dynoscale.systems.shifts import full_shift


def _random_graph(rng, n, p):
    adj = rng.random((n, n)) < p
    adj = np.triu(adj, 1)
    return adj | adj.T


def _brute_mis(adj):
    n = adj.shape[0]
    best = 0
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if not any(adj[i, j] for i, j in itertools.combinations(combo, 2)):
                return r
    return best


def _disjoint_union(*graphs):
    n = sum(g.shape[0] for g in graphs)
    adj = np.zeros((n, n), dtype=bool)
    at = 0
    for g in graphs:
        adj[at:at + g.shape[0], at:at + g.shape[0]] = g
        at += g.shape[0]
    return adj


def _equivalence(k, cut=False):
    """A reflexive equivalence table on 6-10 points with a class of at least
    three, its points shuffled; with ``cut``, one pair of that class is
    unjoined, so the table is no longer transitive."""
    rng = np.random.default_rng(700 + k)
    n = int(rng.integers(6, 11))
    labels = rng.permutation(np.r_[[0, 0, 0], rng.integers(0, 4, n - 3)])
    table = labels[:, None] == labels[None, :]
    if cut:
        a, b = np.flatnonzero(labels == 0)[-2:]
        table[a, b] = table[b, a] = False
    return table


# reflexive but not symmetric: every row holds its point and its first member,
# yet rows 0 and 1 share point 2, so the rows are no partition
ASYMMETRIC = np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1]], dtype=bool)
# equivalence relations, which close at the root bounds, and the cut ones and
# the asymmetric table, which are no partitions: all must match the oracle
FIXED_TABLES = {**{f"equivalence-{k}": _equivalence(k) for k in range(5)},
                **{f"equivalence-cut-{k}": _equivalence(k, cut=True) for k in range(5)},
                "asymmetric": ASYMMETRIC}


# unions of two random graphs: several components, some closing at the root
# (greedy set meets clique cover) and some needing the search.  Each graph is
# also given with every point joined to itself, as close_mask builds it, and
# must give the same set.
@pytest.mark.parametrize("seed", [*range(30), *(f"union-{k}" for k in range(10)),
                                  *FIXED_TABLES])
def test_mis_matches_brute(seed):
    if seed in FIXED_TABLES:
        adj = FIXED_TABLES[seed] & ~np.eye(len(FIXED_TABLES[seed]), dtype=bool)
    elif isinstance(seed, str):
        rng = np.random.default_rng(500 + int(seed.split("-")[1]))
        adj = _disjoint_union(*(_random_graph(rng, int(rng.integers(4, 8)),
                                              rng.uniform(0.2, 0.7)) for _ in range(2)))
    else:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        adj = _random_graph(rng, n, rng.uniform(0.1, 0.8))
    got = exact_max_independent_set(pack_rows(adj))
    assert len(got) == _brute_mis(adj)
    assert not any(adj[i, j] for i, j in itertools.combinations(got, 2))
    assert exact_max_independent_set(pack_rows(adj | np.eye(len(adj), dtype=bool))) == got


def test_mis_budget_exhaustion_raises():
    rng = np.random.default_rng(0)
    adj = _random_graph(rng, 30, 0.4)
    with pytest.raises(BudgetExceededError):
        exact_max_independent_set(pack_rows(adj), budget=3)


def test_greedy_bounds_bracket_mis():
    rng = np.random.default_rng(3)
    adj = _random_graph(rng, 12, 0.5)
    packed = pack_rows(adj)
    lower = len(greedy_independent_set(packed))
    upper = greedy_clique_cover(packed)
    exact = len(exact_max_independent_set(packed))
    assert lower <= exact <= upper


def _brute_cover(masks):
    m, n = masks.shape
    for k in range(1, m + 1):
        for combo in itertools.combinations(range(m), k):
            u = np.zeros(n, dtype=bool)
            for s in combo:
                u |= masks[s]
            if u.all():
                return k
    raise AssertionError


# points 2 and 4 have the balls of points 0 and 1: only the first of equal
# rows is tried, so the cover takes neither copy; the ball of point 3 is two
# runs, so only the search answers
DUPLICATE_ROWS_COVER = [[1, 1, 1, 1, 1, 0], [1, 1, 1, 0, 1, 1], [1, 1, 1, 1, 1, 0],
                        [1, 0, 1, 1, 0, 1], [1, 1, 1, 0, 1, 1], [0, 1, 0, 1, 1, 1]]
# the equivalence tables and their cut copies, all symmetric ball tables
FIXED_COVERS = {"duplicate-rows": DUPLICATE_ROWS_COVER,
                **{k: v for k, v in FIXED_TABLES.items() if k.startswith("equivalence")}}


@pytest.mark.parametrize("seed", [*range(30), *FIXED_COVERS])
def test_set_cover_matches_brute(seed):
    if seed in FIXED_COVERS:
        balls = np.array(FIXED_COVERS[seed], dtype=bool)
    else:
        # the balls of a metric at distances 1 (the edges) and 2, at scale 1.5
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 10))
        balls = _random_graph(rng, n, rng.uniform(0.2, 0.6)) | np.eye(n, dtype=bool)
    got = exact_min_set_cover(pack_rows(balls))
    assert got == sorted(set(got))
    assert balls[got].any(axis=0).all()
    assert len(got) == _brute_cover(balls)
    if seed == "duplicate-rows":
        assert not {2, 4} & set(got)


def test_set_cover_uncoverable_raises():
    # symmetric, and point 2 is in no ball
    balls = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=bool)
    with pytest.raises(ValueError):
        exact_min_set_cover(pack_rows(balls))


def test_the_budget_bounds_the_set_cover_search(monkeypatch):
    # the ball family of d_3 on the 81-point lattice shift: its root bound is
    # 4, its optimum 8, so only the search can close it
    space = bowen_space(full_shift(2, 4, metric="product", alphabet=unit_lattice(3)), 3)
    spent = []  # the nodes spent before the budget ran out
    spend = solvers._Budget.spend
    monkeypatch.setattr(solvers._Budget, "spend",
                        lambda self, k=1: spend(self, k) or spent.append(k))
    with pytest.raises(BudgetExceededError):
        exact_min_set_cover(space.close_mask(0.3387, strict=True), budget=1)
    assert spent == [1]
    assert min_spanning(space, 0.3387, 1, 3).method == "greedy"
    bracket = min_spanning(space, 0.3387, horizon=3)
    assert (bracket.mode, bracket.lower, bracket.upper) == ("exact", 8, 8)


def test_the_set_cover_search_reads_its_ball_table_without_a_copy(monkeypatch):
    # the 4096-point product of two doubling(64) grids at scale 0.3: neither a
    # partition nor arcs, so it reaches the search.  Its packed ball table
    # is 2 MiB, and the search keeps one int per row and no other table
    grid = doubling_grid(64, 1)
    table = product_system(grid, grid).space.close_mask(0.3, True)
    calls = []
    search = solvers._cover_search
    monkeypatch.setattr(solvers, "_cover_search",
                        lambda *args: calls.append(args) or search(*args))
    tracemalloc.start()
    try:
        got = exact_min_set_cover(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == 1 and len(got) == 4
    assert peak < 6 * 2**20, peak


@pytest.mark.parametrize("seed", range(25))
def test_partial_cover_matches_brute(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(3, 9))
    m = int(rng.integers(2, 8))
    masks = rng.random((m, n)) < 0.5
    masks[0] = True  # everything coverable
    raw = [int(x) for x in rng.integers(1, 9, size=n)]
    weights = [Fraction(r, sum(raw)) for r in raw]
    target = Fraction(int(rng.integers(1, 10)), 10)
    got = exact_min_partial_cover(pack_rows(masks), weights, target)
    assert len(got) == brute_partial_cover(masks, weights, target)


def test_dedupe_drops_subsets_and_duplicates():
    masks = np.array([
        [1, 1, 0, 0],
        [1, 0, 0, 0],  # subset of row 0
        [1, 1, 0, 0],  # duplicate
        [0, 0, 1, 1],
    ], dtype=bool)
    work, kept = dedupe_masks(pack_rows(masks))
    assert work.shape[0] == 2
    assert set(map(int, kept)) == {0, 3}


def test_maximal_cliques_triangle_plus_edge():
    adj = np.zeros((4, 4), dtype=bool)
    for i, j in [(0, 1), (1, 2), (0, 2), (2, 3)]:
        adj[i, j] = adj[j, i] = True
    cliques = maximal_cliques(adj)
    as_sets = {frozenset(np.flatnonzero(c)) for c in cliques}
    assert as_sets == {frozenset({0, 1, 2}), frozenset({2, 3})}


def _planar(seed, lo, hi):
    rng = np.random.default_rng(seed)
    pts = rng.random((int(rng.integers(lo, hi + 1)), 2))
    return np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))


def _near(dist, eps):
    near = dist < eps
    np.fill_diagonal(near, False)
    return near


def _root_closes(adj):
    packed = pack_rows(adj)
    return len(greedy_independent_set(packed)) == greedy_clique_cover(packed)


def test_five_cycle_clique_cover_searches_within_budget():
    # independent sets of C5 have 2 vertices; covering it takes 3 edges
    c5 = np.roll(np.eye(5, dtype=bool), 1, axis=1)
    c5 |= c5.T
    assert not _root_closes(c5)
    assert exact_min_clique_cover(pack_rows(c5)) == 3
    with pytest.raises(BudgetExceededError):
        exact_min_clique_cover(pack_rows(c5), budget=1)


def test_clique_cover_matches_brute_where_the_root_does_not_close():
    searched = 0
    for seed in range(40):
        dist = _planar(seed, 7, 9)
        sp = FiniteMetricSpace(matrix=dist, check=False)
        for eps in (0.2, 0.35, 0.5):
            near = _near(dist, eps)
            if _root_closes(near):
                continue
            searched += 1
            want = brute_min_diameter_cover(sp, eps)
            # the d < eps graph without and with each point in its own row
            for graph in (near, dist < eps):
                assert exact_min_clique_cover(pack_rows(graph)) == want, (seed, eps)
    assert searched >= 20


def _milp_cover(masks):
    """Fewest rows covering every column, by scipy's MILP."""
    from scipy.optimize import LinearConstraint, milp

    m = masks.shape[0]
    found = milp(np.ones(m), integrality=np.ones(m), bounds=(0, 1),
                 constraints=LinearConstraint(masks.T.astype(float), lb=1))
    assert found.success
    return round(found.fun)


@pytest.mark.parametrize("seed", range(10))
def test_clique_cover_matches_set_cover_over_maximal_cliques(seed):
    dist = _planar(1000 + seed, 30, 30)
    for eps in (0.2, 0.35, 0.5):
        near = _near(dist, eps)
        want = _milp_cover(np.stack(maximal_cliques(near)))
        assert exact_min_clique_cover(pack_rows(near)) == want, eps


def _is_equivalence(table):
    """Reflexive, symmetric and transitive: R . R == R for a reflexive R."""
    square = table.astype(int)
    return (table.diagonal().all() and np.array_equal(table, table.T)
            and np.array_equal(square @ square > 0, table))


def _check_classes(table, minima):
    """At budget 0, so without a search node, the three exact solvers answer
    the equivalence relation ``table`` with its class minima, ascending, and
    the clique cover with their number."""
    packed = pack_rows(table)
    assert exact_max_independent_set(packed, budget=0) == minima
    assert exact_min_set_cover(packed, budget=0) == minima
    assert exact_min_clique_cover(packed, budget=0) == len(minima)


def _check_partition(table):
    """``_check_classes`` on every equivalence relation; whether ``table`` is one."""
    if not _is_equivalence(table):
        return False
    _check_classes(table, sorted({int(np.flatnonzero(row)[0]) for row in table}))
    return True


def test_partition_certifies_only_minimum_covers_on_every_small_table():
    closed = 0
    for n in range(1, 4):
        for bits in itertools.product([False, True], repeat=n * n):
            closed += _check_partition(np.array(bits).reshape(n, n))
    # the 1 + 2 + 5 equivalence relations
    assert closed == 8


def _near_partition(seed):
    """A 4-8 point table: an equivalence relation, the classes with each
    class's lowest point holding its own class and every other point any
    class, or random bits; then up to two entries flipped (half of the time
    with their mirror)."""
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(4, 9))
    labels = rng.integers(0, int(rng.integers(1, n + 1)), n)
    kind = seed % 3
    if kind == 0:
        table = labels[:, None] == labels[None, :]
    elif kind == 1:
        held = labels[rng.integers(0, n, n)]
        lowest = np.unique(labels, return_index=True)[1]
        held[lowest] = labels[lowest]
        table = held[:, None] == labels[None, :]
    else:
        table = rng.random((n, n)) < rng.uniform(0.2, 0.8)
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.integers(0, n, 2)
        table[i, j] = not table[i, j]
        if rng.random() < 0.5:
            table[j, i] = table[i, j]
    return table


@pytest.mark.parametrize("seed", range(60))
def test_partition_certifies_only_minimum_covers_on_seeded_tables(seed):
    _check_partition(_near_partition(seed))


def test_partitions_of_many_row_blocks_close_at_the_root():
    # 2048 points in classes of four: 256 packed columns, so the circle
    # cover unpacks its rows in four blocks
    labels = np.arange(2048) // 4
    _check_classes(labels[:, None] == labels[None, :], list(range(0, 2048, 4)))


def test_line_sweeps_match_generic_on_random_sets():
    rng = np.random.default_rng(9)
    for _ in range(25):
        coords = sorted(Fraction(int(v), 1000) for v in rng.integers(0, 1000, 9))
        coords = sorted(set(coords))
        eps = Fraction(int(rng.integers(20, 400)), 1000)
        from dynoscale.metric_core.space import FiniteMetricSpace
        from dynoscale.oracle import (brute_max_separated, brute_min_spanning,
                                      brute_min_diameter_cover)
        sp = FiniteMetricSpace(coords=coords, check=False)
        assert len(line_max_separated(coords, eps)) == brute_max_separated(sp, eps)
        assert len(line_min_ball_cover(coords, eps)) == brute_min_spanning(sp, eps)
        assert line_min_diameter_cover(coords, eps) == brute_min_diameter_cover(sp, eps)


def test_partial_cover_search_improves_on_its_greedy():
    masks = np.array([[1, 1, 1, 1, 0, 0],
                      [1, 1, 0, 0, 1, 0],
                      [0, 0, 1, 1, 0, 1]], dtype=bool)
    weights = [Fraction(1, 6)] * 6
    # the greedy takes the heaviest row first and then needs both others
    assert greedy_partial_cover(pack_rows(masks), weights, 1) == [0, 1, 2]
    got = exact_min_partial_cover(pack_rows(masks), weights, 1)
    assert sorted(got) == [1, 2]
    assert len(got) == brute_partial_cover(masks, weights, 1)


def _greedy_partial_cover_every_row(masks, weights, target):
    """The greedy partial cover, summing every row's uncovered mass at each pick."""
    zero = type(weights[0])(0)
    covered = np.zeros(masks.shape[1], dtype=bool)
    have, picked = zero, []
    while have < target:
        gains = [sum((weights[j] for j in np.flatnonzero(row & ~covered)), start=zero)
                 for row in masks]
        best = max(range(len(gains)), key=gains.__getitem__)
        if gains[best] <= 0:
            break
        picked.append(best)
        covered |= masks[best]
        have += gains[best]
    return picked


@pytest.mark.parametrize("seed", range(40))
def test_greedy_partial_cover_matches_an_every_row_recompute(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 16))
    masks = rng.random((rows, cols)) < rng.uniform(0.1, 0.6)
    raw = rng.integers(1, 6, size=cols)
    exact = [Fraction(int(r), int(raw.sum())) for r in raw]
    floats = list(rng.random(cols))
    for weights, target in ((exact, Fraction(int(rng.integers(1, 10)), 10)),
                            (floats, float(rng.uniform(0.1, 1.0)) * sum(floats))):
        assert (greedy_partial_cover(pack_rows(masks), weights, target)
                == _greedy_partial_cover_every_row(masks, weights, target))


def test_partial_covers_on_oracle_equivalence_shaped_instances():
    # Fraction weights and targets as the oracle-equivalence suite draws them
    rng = np.random.default_rng(2024)
    for _ in range(200):
        m, n = int(rng.integers(2, 9)), int(rng.integers(3, 9))
        masks = rng.random((m, n)) < 0.5
        masks[0] = True
        raw = [int(x) for x in rng.integers(1, 9, size=n)]
        weights = [Fraction(r, sum(raw)) for r in raw]
        target = Fraction(int(rng.integers(1, 10)), 10)
        assert (greedy_partial_cover(pack_rows(masks), weights, target)
                == _greedy_partial_cover_every_row(masks, weights, target))
        got = exact_min_partial_cover(pack_rows(masks), weights, target)
        assert len(got) == brute_partial_cover(masks, weights, target)


def test_partial_cover_overlapping_rows_short_of_the_target_raise():
    masks = np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=bool)
    with pytest.raises(ValueError, match="cannot reach the target"):
        exact_min_partial_cover(pack_rows(masks), [Fraction(1, 4)] * 4, Fraction(9, 10))


def _greedy_cover_every_row(rows, universe):
    """The greedy set cover, recounting every row's gain at each pick."""
    covered, picked = 0, []
    while covered != universe:
        gains = [(row & ~covered).bit_count() for row in rows]
        best = max(range(len(rows)), key=gains.__getitem__)
        if gains[best] == 0:
            raise ValueError("universe not coverable by the given sets")
        picked.append(best)
        covered |= rows[best]
    return picked


@pytest.mark.parametrize("seed", range(40))
def test_greedy_cover_matches_an_every_row_recount(seed):
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(1, 40))
    # rows drawn from a few patterns, some repeated, so gains tie often
    patterns = rng.random((int(rng.integers(1, 6)), n)) < rng.uniform(0.1, 0.5)
    table = patterns[rng.integers(0, len(patterns), int(rng.integers(1, 30)))]
    table = table | (rng.random(table.shape) < 0.05)
    rows = solvers._ints(pack_rows(table))
    coverable = sum(1 << int(j) for j in np.flatnonzero(table.any(axis=0)))
    assert (solvers._greedy_cover(rows, coverable)
            == _greedy_cover_every_row(rows, coverable))
    full = (1 << n) - 1
    if coverable != full:
        with pytest.raises(ValueError):
            solvers._greedy_cover(rows, full)


def test_greedy_cover_breaks_ties_on_the_lowest_row():
    rows = solvers._ints(pack_rows(np.eye(6, dtype=bool)[[3, 1, 3, 0, 5, 4, 2]]))
    assert solvers._greedy_cover(rows, (1 << 6) - 1) == [0, 1, 3, 4, 5, 6]


def _guarded_tables():
    """Packed graphs as ``close_mask`` builds them, one for every stage:
    partitions, circle arcs, the searches and their fallbacks."""
    for k in range(5):
        yield pack_rows(_equivalence(k)), pack_rows(_equivalence(k, cut=True))
    grid = doubling_grid(32, 1).space
    yield grid.close_mask(0.1, True), grid.close_mask(0.2, False)
    for seed in range(8):
        dist = _planar(seed, 12, 20)
        yield pack_rows(dist < 0.3), pack_rows(dist <= 0.45)


GUARDED = [exact_max_independent_set, exact_min_clique_cover, exact_min_set_cover]


def test_every_solver_leaves_its_packed_graph_as_it_was():
    # the sweep's walk ANDs the next horizon into the same graphs, so no
    # solver or fallback may write into the table it is given
    for tables in _guarded_tables():
        for table in tables:
            before = table.tobytes()
            for solve in GUARDED:
                for budget in (1, 10**6):
                    try:
                        solve(table, budget)
                    except BudgetExceededError:
                        pass
            greedy_independent_set(table)
            greedy_clique_cover(table)
            solvers.greedy_set_cover(table)
            dedupe_masks(table)
            assert table.tobytes() == before


def _search_inputs():
    """A 40-point random graph and a 6 x 8 partial cover, each beyond its root."""
    rng = np.random.default_rng(0)
    graph = pack_rows(_random_graph(rng, 40, 0.15) | np.eye(40, dtype=bool))
    masks = pack_rows(np.random.default_rng(0).random((6, 8)) < 0.4)
    weights = [Fraction(1, 8)] * 8
    return [lambda budget: exact_max_independent_set(graph, budget),
            lambda budget: exact_min_set_cover(graph, budget),
            lambda budget: exact_min_partial_cover(masks, weights, 1, budget)]


def test_each_search_frees_its_state_when_it_returns():
    # a search whose state sat in a reference cycle would hold its rows until
    # the cyclic collector ran; reference counting alone must free them
    searches = _search_inputs()
    for search in searches:
        with pytest.raises(BudgetExceededError):
            search(1)  # the search goes past its root
    gc.collect()
    gc.disable()
    try:
        for search in searches:
            search(10**6)
            assert gc.collect() == 0
            try:
                search(1)
            except BudgetExceededError:
                pass
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_maximal_cliques_frees_its_state_when_it_returns():
    adj = _random_graph(np.random.default_rng(0), 40, 0.15)
    gc.collect()
    gc.disable()
    try:
        assert len(maximal_cliques(adj)) > 1
        assert gc.collect() == 0
    finally:
        gc.enable()
