"""Dynamical metrics: iteration examples, monotonicity, validity."""

import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dynoscale.errors import ParameterError, RepresentationError
from dynoscale.harness import _count, parse_config
from dynoscale.metric_core.counts import max_separated
from dynoscale.metric_core.counts import QUANTITY_OPS
from dynoscale.systems.base import (DynamicalSystem, bowen_distance, bowen_space,
                                    bowen_spaces, identity_system)
from dynoscale.systems.combine import power_system, product_system
from dynoscale.systems.intervals import doubling_grid, random_space, unit_lattice
from dynoscale.systems.kolyada import KolyadaSnohaMap
from dynoscale.systems.shifts import binary_exp_shift, full_shift
from dynoscale.metric_core.space import pack_rows
from dynoscale.systems.base import bowen_graphs


def test_horizon_one_is_base_metric(doubling64):
    for i, j in ((1, 2), (5, 40), (0, 63)):
        assert bowen_distance(doubling64, i, j, 1) == doubling64.space.dist(i, j)
    assert bowen_space(doubling64, 1) is doubling64.space


def test_identity_map_all_horizons_agree():
    sp = random_space(6, seed=1)
    system = identity_system(sp, horizon_cap=5)
    for n in (1, 3, 5):
        assert bowen_distance(system, 0, 4, n) == sp.dist(0, 4)


def test_doubling_orbit_example(doubling64):
    # points 1/64 and 2/64 separate to 4/64 after three steps
    assert bowen_distance(doubling64, 1, 2, 3) == pytest.approx(4 / 64)


def test_monotone_in_horizon(doubling64):
    for i, j in ((3, 17), (9, 40)):
        prev = 0.0
        for n in range(1, 7):
            d = bowen_distance(doubling64, i, j, n)
            assert d >= prev
            prev = d


def test_bowen_space_is_valid_metric(doubling64):
    dn = bowen_space(doubling64, 4)
    m = dn.as_matrix()
    assert np.allclose(np.diag(m), 0)
    assert np.array_equal(m, m.T)
    # spot triangle check
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, j, k = rng.integers(0, dn.size, 3)
        assert m[i, j] <= m[i, k] + m[k, j] + 1e-12


def test_counts_monotone_in_horizon_and_scale(shift6):
    values = {}
    for n in (1, 2, 3):
        dn = bowen_space(shift6, n)
        for eps in (0.4, 0.15):
            values[(n, eps)] = max_separated(dn, eps, horizon=n).value
    assert values[(1, 0.4)] <= values[(2, 0.4)] <= values[(3, 0.4)]
    assert values[(2, 0.4)] <= values[(2, 0.15)]


def test_invalid_indices_and_horizons(doubling64):
    with pytest.raises(IndexError):
        bowen_distance(doubling64, 0, 99, 2)
    with pytest.raises(ParameterError):
        bowen_distance(doubling64, 0, 1, 0)
    with pytest.raises(ParameterError):
        bowen_space(doubling64, doubling64.horizon_cap + 1)


def test_map_image_outside_space_rejected():
    sp = random_space(4, seed=0)
    with pytest.raises(RepresentationError):
        DynamicalSystem(sp, np.array([0, 1, 2, 9]), 3)


@pytest.mark.parametrize("cap", [0, -3])
def test_horizon_cap_below_one_rejected(cap):
    with pytest.raises(ParameterError):
        DynamicalSystem(random_space(4, seed=0), np.arange(4), cap)


def _max_anew(system, n):
    """max over t < n of d(f^t x, f^t y), every layer built anew."""
    base = system.space.as_matrix()
    layers = [base[np.ix_(idx, idx)] for idx in system.orbit_index[:n]]
    return np.max(layers, axis=0)


BOWEN_SYSTEMS = {
    "exp-shift": lambda: binary_exp_shift(5, horizon_cap=5),
    "product-shift": lambda: full_shift(2, 4, metric="product", horizon_cap=4),
    # 512 levels: d_n gathers two-byte codes
    "product-shift-uint16": lambda: full_shift(2, 9, metric="product", horizon_cap=4),
    "doubling": lambda: doubling_grid(32, horizon_cap=5),
    "doubling-power": lambda: power_system(doubling_grid(32, horizon_cap=9), 2),
    "static-x-doubling": lambda: product_system(
        identity_system(random_space(4, seed=0), horizon_cap=4), doubling_grid(5, horizon_cap=4)),
    "interval-values": lambda: KolyadaSnohaMap.family_f1(2).validation_net(
        1, per_branch=6, horizon=4),
}


@pytest.mark.parametrize("horizons", [[1, 2, 3, 4], [2, 3], [1, 3], [4], [3, 1, 2], [2, 2]],
                         ids=str)
@pytest.mark.parametrize("name", BOWEN_SYSTEMS)
def test_bowen_spaces_match_a_max_built_anew_bitwise(name, horizons):
    system = BOWEN_SYSTEMS[name]()
    # all tables are compared after the last step, so a step that wrote
    # into a table it had already yielded would show here
    spaces = list(bowen_spaces(system, horizons))
    assert len(spaces) == len(horizons)
    for n, dn in zip(horizons, spaces):
        assert dn.as_matrix().tobytes() == _max_anew(system, n).tobytes(), n
        assert dn.name == (system.space.name if n == 1 else f"{system.name}|d_{n}")


DISTANCE_SYSTEMS = {
    "doubling": lambda: doubling_grid(32, horizon_cap=5),
    "product-shift": lambda: full_shift(2, 4, metric="product", horizon_cap=4),
    "exp-shift": lambda: binary_exp_shift(5, horizon_cap=5),
}


@pytest.mark.parametrize("name", DISTANCE_SYSTEMS)
def test_bowen_graphs_distances_are_the_blocks_of_bowen_space_bitwise(name):
    system, reference = DISTANCE_SYSTEMS[name](), DISTANCE_SYSTEMS[name]()
    size = system.space.size
    blocks = [([5, 0, 5, size - 1, 2, 2], [size - 1, 3, 0, 3, 7, 7]),
              (np.arange(size)[::-1], [1, 1]), (range(size), range(size))]
    horizons = list(range(1, system.horizon_cap + 1))
    want = dict(zip(horizons, bowen_spaces(reference, horizons)))
    for dn in bowen_graphs(system, horizons, []):
        for rows, cols in blocks:
            got = dn.distances(rows, cols)
            assert got.tobytes() == want[dn.horizon].distances(rows, cols).tobytes()
    # only the coded base has codes: the others built no table
    assert (system.space._codes is None) == (name != "product-shift")


def test_bowen_spaces_reject_a_horizon_beyond_the_cap(doubling64):
    with pytest.raises(ParameterError):
        list(bowen_spaces(doubling64, [1, doubling64.horizon_cap + 1]))


@pytest.mark.parametrize("depth", [10, 11])
def test_counting_dense_horizons_holds_less_than_one_code_table_beside_the_base(depth):
    system = binary_exp_shift(depth, horizon_cap=3)
    size = system.space.size
    config = parse_config({"system": {}, "quantities": ["separated", "spanning"],
                           "grid": {"start": 0.5, "ratio": 0.6, "count": 6},
                           "horizons": [1, 2, 3]})
    tracemalloc.start()
    try:
        sweeps = _count(system, config.quantities, config, config.horizons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(len(sweep.rows) == 18 for sweep in sweeps.values())
    # the exp shift is counted on each d_n's partition chain, N labels per
    # level, and builds no code table, gather block or packed graph: the six
    # packed graphs of the grid alone would take 3/4 of a one-byte table
    assert peak < 0.75 * size**2, peak / size**2


def test_a_kept_view_of_the_codes_keeps_its_values_when_the_walk_resumes():
    system = binary_exp_shift(5, horizon_cap=5)
    spaces = bowen_spaces(system, [2, 3, 4])
    view = next(spaces).level_codes()[1][1:]  # the space itself is dropped
    kept = view.copy()
    for n in (3, 4):
        assert next(spaces).as_matrix().tobytes() == _max_anew(system, n).tobytes()
    assert np.array_equal(view, kept)
    levels = system.space.level_codes()[0]
    assert levels[view].tobytes() == _max_anew(system, 2)[1:].tobytes()


def _class_graph(labels, n):
    """The packed graph joining the points that share a label; None joins none."""
    if labels is None:
        return np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    return pack_rows(labels[:, None] == labels)


GRAPH_SYSTEMS = {
    "exp-shift": lambda: binary_exp_shift(6, horizon_cap=5),
    "unit-lattice-product-shift": lambda: full_shift(
        2, 4, metric="product", alphabet=unit_lattice(3), horizon_cap=5),
    "doubling": lambda: doubling_grid(64, horizon_cap=5),
}


@pytest.mark.parametrize("name", GRAPH_SYSTEMS)
def test_bowen_graphs_are_the_threshold_graphs_of_bowen_spaces_bitwise(name):
    system = GRAPH_SYSTEMS[name]()
    levels, codes = system.space.level_codes()
    # scale levels[c] holds c levels strictly below it, and inf all of them
    scales = [*levels.tolist(), np.inf]
    horizons = [1, 2, 3, 4, 5]
    want = {n: [dn.close_mask(eps, True) for eps in scales]
            for n, dn in zip(horizons, bowen_spaces(system, horizons))}
    seen = []
    for dn in bowen_graphs(system, horizons, range(len(scales))):
        assert len(dn.graphs) <= 8 * codes.itemsize
        # a chain-backed base is walked once, on d_n's chain, for every cutoff
        for c in [c for c in range(len(scales)) if dn.carries(c)]:
            assert dn.cutoff(scales[c], True) == c
            if c in dn.graphs:
                graph = dn.graphs[c]
                assert dn.close_mask(scales[c], True) is graph
            else:
                graph = _class_graph(dn.classes(c), system.space.size)
            assert graph.tobytes() == want[dn.horizon][c].tobytes(), (dn.horizon, c)
            seen.append((dn.horizon, c))
    assert sorted(seen) == [(n, c) for n in horizons for c in range(len(scales))]
    assert (system.space.chain is None) == all(dn.classes(1) is None for dn in
                                                bowen_graphs(system, horizons, [1]))


def _assert_uncarried_graphs_are_walked_anew(system, carried):
    dn = next(bowen_graphs(system, [4], [3]))
    assert [c for c in range(len(system.space.levels) + 1) if dn.carries(c)] == carried
    for eps in (0.1, 0.3, 0.9):
        want = pack_rows(_max_anew(system, 4) <= eps).tobytes()
        assert dn.close_mask(eps, False).tobytes() == want
        if dn.classes(1) is not None:
            assert _class_graph(dn.classes(dn.cutoff(eps, False)), dn.size).tobytes() == want


def test_a_graph_the_walk_does_not_carry_is_walked_anew():
    # the exp shift is chain-backed: its view is d_n's chain, which carries
    # every cutoff, and its graphs are d_n's own
    system = binary_exp_shift(6, horizon_cap=5)
    _assert_uncarried_graphs_are_walked_anew(system, list(range(len(system.space.levels) + 1)))


def test_a_graph_a_packed_walk_does_not_carry_is_walked_anew():
    _assert_uncarried_graphs_are_walked_anew(GRAPH_SYSTEMS["unit-lattice-product-shift"](), [3])


def test_a_horizon_one_walk_leaves_a_coordinate_base_unencoded():
    system = doubling_grid(64, horizon_cap=5)
    (dn,) = bowen_graphs(system, [1], [])
    assert dn.coords == system.space.coords and dn.diameter == system.space.diameter
    assert system.space._codes is None


def test_bowen_graphs_reject_descending_or_capped_horizons(doubling64):
    with pytest.raises(ParameterError):
        list(bowen_graphs(doubling64, [2, 1], [3]))
    with pytest.raises(ParameterError):
        list(bowen_graphs(doubling64, [doubling64.horizon_cap + 1], [3]))


@pytest.mark.parametrize("budget", [1, 50, 10**6])
def test_counts_and_their_fallbacks_leave_the_carried_graphs_as_they_were(budget):
    # the walk ANDs the next horizon into the graphs it carries, so a count
    # must not write them; at budget 1 most cells end in a fallback
    system = full_shift(2, 4, metric="product", alphabet=unit_lattice(3), horizon_cap=3)
    levels = system.space.level_codes()[0]
    scales = levels[1::7].tolist()
    cutoffs = sorted({system.space.cutoff(eps, strict) for eps in scales
                      for strict in (True, False)})
    methods = set()
    for dn in bowen_graphs(system, [1, 2, 3], cutoffs):
        before = {c: graph.tobytes() for c, graph in dn.graphs.items()}
        for count in QUANTITY_OPS.values():
            for eps in scales:
                methods.add(count(dn, eps, budget, horizon=dn.horizon).method)
        assert {c: graph.tobytes() for c, graph in dn.graphs.items()} == before
    assert "greedy" in methods or budget > 1


# The exp shift is chain-backed, so the dense counts above run on its chains.  These
# copies run the packed graph walk (``_walk``, ``_orbit_blocks``) on a coded
# shift whose graphs are not partitions: under the product metric the
# distance of two binary words sums 2**-(k+1) over the letters where they
# differ, which is no ultrametric, over 2**depth levels, so its codes are
# two bytes a pair and a code table is 2 * size**2 bytes.  Budget 1 keeps
# the counts quick; every spanning fallback walks its 2 eps graph anew.


@functools.lru_cache(maxsize=None)
def _coded_count(depth):
    """(size, code itemsize, _count's tracemalloc peak, methods) on the coded shift."""
    system = full_shift(2, depth, metric="product", alphabet=unit_lattice(2),
                        horizon_cap=3)
    assert system.space.chain is None
    codes = system.space.level_codes()[1]
    config = parse_config({"system": {}, "quantities": ["separated", "spanning"],
                           "grid": {"start": 0.5, "ratio": 0.6, "count": 6},
                           "horizons": [1, 2, 3], "budget": 1})
    tracemalloc.start()
    try:
        sweeps = _count(system, config.quantities, config, config.horizons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(len(sweep.rows) == 18 for sweep in sweeps.values())
    methods = {br.method for sweep in sweeps.values() for br in sweep.rows}
    return system.space.size, codes.itemsize, peak, methods


def test_counting_coded_horizons_allocates_less_than_one_float_table():
    size, itemsize, peak, methods = _coded_count(10)
    assert itemsize == 2 and {"mis-bnb", "greedy"} <= methods
    assert peak < 8 * size**2, peak


@pytest.mark.parametrize("depth", [10, 11])
def test_counting_coded_horizons_holds_two_code_tables_and_one_block(depth):
    # besides the graphs and one block, the solvers hold their rows as ints
    size, itemsize, peak, _ = _coded_count(depth)
    assert peak < 2.5 * itemsize * size**2, peak / (itemsize * size**2)


def test_counting_coded_horizons_holds_one_code_table_beside_the_base():
    # six cutoffs: six packed graphs are 3/8 of a two-byte table, and a d_n
    # table or a table-sized boolean temporary would pass the bound
    size, itemsize, peak, _ = _coded_count(11)
    assert peak < 1.5 * itemsize * size**2, peak / (itemsize * size**2)


def test_walking_coded_horizons_holds_less_than_one_code_table_beside_the_base():
    # the walk alone: six packed graphs and the gather blocks, no d_n table
    system = full_shift(2, 11, metric="product", alphabet=unit_lattice(2), horizon_cap=3)
    size, itemsize = system.space.size, system.space.level_codes()[1].itemsize
    scales = [0.5 * 0.6**i for i in range(6)]
    cutoffs = sorted({system.space.cutoff(eps, strict) for eps in scales
                      for strict in (True, False)})
    tracemalloc.start()
    try:
        horizons = [dn.horizon for dn in bowen_graphs(system, [1, 2, 3], cutoffs)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert horizons == [1, 2, 3]
    assert peak < 0.75 * itemsize * size**2, peak / (itemsize * size**2)


LADDERS = {
    "F1": lambda: KolyadaSnohaMap.family_f1(3),
    "F2": lambda: KolyadaSnohaMap.family_f2(Fraction(1, 2), 3),
    "F3": lambda: KolyadaSnohaMap.family_f3(3),
    "custom": lambda: KolyadaSnohaMap._from_gaps(
        [Fraction(1, 2), Fraction(1, 4)], [3, 5], "custom"),
}


@pytest.mark.parametrize("name", LADDERS)
def test_validation_net_steps_to_the_exact_image(name):
    tmap = LADDERS[name]()
    horizon = 4
    net = tmap.validation_net(2, per_branch=3, horizon=horizon)
    seeds = net.space.coords
    assert net.step.tolist() == [seeds.index(tmap.eval(x)) for x in seeds]
    # d_n from the exact orbits, as floats: max over t of |f^t x - f^t y|
    values = np.array([[float(y) for y in tmap.orbit(x, horizon - 1)]
                       for x in seeds]).T
    for n, dn in enumerate(bowen_spaces(net, range(1, horizon + 1)), start=1):
        anew = np.max([np.abs(v[:, None] - v[None, :]) for v in values[:n]], axis=0)
        assert dn.as_matrix().tobytes() == anew.tobytes(), n
