"""Combinatorial solvers against exhaustive oracles on random smalls."""

import itertools

import numpy as np
import pytest
from fractions import Fraction

from dynoscale.errors import BudgetExceededError
from dynoscale.metric_core.solvers import (
    dedupe_masks, exact_max_independent_set, exact_min_clique_cover,
    exact_min_partial_cover, exact_min_set_cover, greedy_clique_cover,
    greedy_independent_set, line_max_separated, line_min_ball_cover,
    line_min_diameter_cover, maximal_cliques)
from dynoscale.metric_core.space import FiniteMetricSpace
from dynoscale.oracle import brute_min_diameter_cover, brute_partial_cover


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
# equivalence relations close by the partition certificate; the cut ones and
# the asymmetric table must fail it and still match the oracle
FIXED_TABLES = {**{f"equivalence-{k}": _equivalence(k) for k in range(5)},
                **{f"equivalence-cut-{k}": _equivalence(k, cut=True) for k in range(5)},
                "asymmetric": ASYMMETRIC}


# unions of two random graphs: several components, some closing at the root
# (greedy set meets clique cover) and some needing the search
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
    got = exact_max_independent_set(adj)
    assert len(got) == _brute_mis(adj)
    assert not any(adj[i, j] for i, j in itertools.combinations(got, 2))


def test_mis_budget_exhaustion_raises():
    rng = np.random.default_rng(0)
    adj = _random_graph(rng, 30, 0.4)
    with pytest.raises(BudgetExceededError):
        exact_max_independent_set(adj, budget=3)


def test_greedy_bounds_bracket_mis():
    rng = np.random.default_rng(3)
    adj = _random_graph(rng, 12, 0.5)
    lower = len(greedy_independent_set(adj))
    upper = greedy_clique_cover(adj)
    exact = len(exact_max_independent_set(adj))
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


# disjoint once the empty row is dropped; kept, it would count as a third set
EMPTY_ROW_COVER = [[1, 1, 0], [0, 0, 1], [0, 0, 0]]
# duplicates of rows 0 and 1; the first occurrences cover, the copies add nothing
DUPLICATE_ROWS_COVER = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1],
                        [0, 1, 1, 0], [1, 0, 0, 1]]
FIXED_COVERS = {"empty-row": EMPTY_ROW_COVER, "duplicate-rows": DUPLICATE_ROWS_COVER,
                **FIXED_TABLES}


@pytest.mark.parametrize("seed", [*range(30), *FIXED_COVERS])
def test_set_cover_matches_brute(seed):
    if seed in FIXED_COVERS:
        masks = np.array(FIXED_COVERS[seed], dtype=bool)
        n = masks.shape[1]
    else:
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 10))
        m = int(rng.integers(3, 9))
        masks = rng.random((m, n)) < 0.45
        masks[rng.integers(m), :] |= ~masks.any(axis=0)  # make coverable
    got = exact_min_set_cover(masks)
    union = np.zeros(n, dtype=bool)
    for s in got:
        union |= masks[s]
    assert union.all()
    assert len(got) == _brute_cover(masks)


def test_set_cover_uncoverable_raises():
    masks = np.array([[True, False, False]])
    with pytest.raises(ValueError):
        exact_min_set_cover(masks)


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
    got = exact_min_partial_cover(masks, weights, target)
    assert len(got) == brute_partial_cover(masks, weights, target)


def test_dedupe_drops_subsets_and_duplicates():
    masks = np.array([
        [1, 1, 0, 0],
        [1, 0, 0, 0],  # subset of row 0
        [1, 1, 0, 0],  # duplicate
        [0, 0, 1, 1],
    ], dtype=bool)
    work, kept = dedupe_masks(masks)
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
    return len(greedy_independent_set(adj)) == greedy_clique_cover(adj)


def test_five_cycle_clique_cover_searches_within_budget():
    # independent sets of C5 have 2 vertices; covering it takes 3 edges
    c5 = np.roll(np.eye(5, dtype=bool), 1, axis=1)
    c5 |= c5.T
    assert not _root_closes(c5)
    assert exact_min_clique_cover(c5) == 3
    with pytest.raises(BudgetExceededError):
        exact_min_clique_cover(c5, budget=1)


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
            assert exact_min_clique_cover(near) == brute_min_diameter_cover(sp, eps), \
                (seed, eps)
    assert searched >= 20


@pytest.mark.parametrize("seed", range(10))
def test_clique_cover_matches_set_cover_over_maximal_cliques(seed):
    dist = _planar(1000 + seed, 30, 30)
    for eps in (0.2, 0.35, 0.5):
        near = _near(dist, eps)
        want = len(exact_min_set_cover(np.stack(maximal_cliques(near))))
        assert exact_min_clique_cover(near) == want, eps


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
