"""A sweep counts each (quantity, horizon, scale) cell once.

The sweep lists the level cutoffs of its cells and carries their threshold
graphs from horizon to horizon, in more than one walk when one walk cannot
carry them all; each cell is counted in the walk that carries its graph.
Each test compares against cells counted one by one.
"""

import pytest

from dynoscale import harness
from dynoscale.estimators.sweep import ScaleSweep
from dynoscale.harness import parse_config, run_sweep
from dynoscale.metric_core.counts import QUANTITY_OPS, SPANNING, graph_cutoff
from dynoscale.systems.base import bowen_spaces
from dynoscale.systems.descriptor import resolve_system

ALL = ["separated", "spanning", "ball_cover", "diameter_cover"]
# levels e^-k: scales 0.50 to 0.40 lie in one gap and 0.36 to 0.29 in the next
EXP = {"system": {"kind": "shift", "symbols": 2, "depth": 6, "metric": "exp"},
       "quantities": ALL, "grid": {"start": 0.5, "ratio": 0.9, "count": 6},
       "horizons": [1, 2, 3]}
LATTICE_SHIFT = {"kind": "shift", "symbols": 2, "depth": 4, "metric": "product",
                 "alphabet": {"type": "unit_lattice", "points": 3}}
LATTICE_30 = {"system": LATTICE_SHIFT, "quantities": ALL,
              "grid": {"start": 0.9, "ratio": 0.9, "count": 30},
              "horizons": [1, 2, 3], "budget": 3}


def _per_cell(system, config):
    """Every cell counted on its own, in the sweep's row order."""
    rows = {q: [] for q in config.quantities}
    for n, dn in zip(config.horizons, bowen_spaces(system, config.horizons)):
        for q in config.quantities:
            rows[q] += [QUANTITY_OPS[q](dn, eps, config.budget, horizon=n)
                        for eps in config.grid.scales()]
    return rows


def _cutoffs(system, config):
    """(quantity, horizon, cutoff) of every cell that a solver counts: past
    the largest code one set answers."""
    cells = []
    for n, dn in zip(config.horizons, bowen_spaces(system, config.horizons)):
        top = int(dn.level_codes()[1].max())
        cells += [(q, n, c) for q in config.quantities for eps in config.grid.scales()
                  if (c := graph_cutoff(q, dn, eps)) <= top]
    return cells


def _assert_sweep_writes_what_per_cell_counts_write(system, config, tmp_path):
    got = run_sweep(config, tmp_path / "got")
    want = tmp_path / "want"
    want.mkdir()
    sweeps = []
    for quantity, rows in _per_cell(system, config).items():
        sweeps.append(ScaleSweep(system.name, quantity))
        for br in rows:
            sweeps[-1].add(br)
        sweeps[-1].write_csv(want / f"sweep_{system.name}_{quantity}.csv")
    harness._write_trace(want / harness.TRACE, config, sweeps)
    assert sorted(p.name for p in got) == sorted(p.name for p in want.iterdir())
    for path in got:
        assert path.read_bytes() == (want / path.name).read_bytes(), path.name


def test_sweep_writes_what_per_cell_counts_write(tmp_path):
    config = parse_config(EXP)
    system = resolve_system(config.system)
    cells = _cutoffs(system, config)
    assert len(set(cells)) < len(cells)  # some scales share a graph
    _assert_sweep_writes_what_per_cell_counts_write(system, config, tmp_path)


@pytest.mark.parametrize("budget", [3, 300])
def test_a_grid_with_more_graphs_than_one_walk_carries_is_walked_per_group(
        tmp_path, monkeypatch, budget):
    # one-byte codes, so a walk carries eight graphs beside the base codes
    config = parse_config({**LATTICE_30, "budget": budget})
    system = resolve_system(config.system)
    assert system.space.level_codes()[1].itemsize == 1
    cutoffs = {c for _, _, c in _cutoffs(system, config)}
    assert len(cutoffs) > 2 * 8
    walked = []
    real = harness.bowen_graphs

    def spy(system, horizons, cutoffs):
        for dn in real(system, horizons, cutoffs):
            walked.append((dn.horizon, sorted(dn.graphs)))
            yield dn

    monkeypatch.setattr(harness, "bowen_graphs", spy)
    _assert_sweep_writes_what_per_cell_counts_write(system, config, tmp_path)
    groups = [graphs for n, graphs in walked if n == 1]
    assert len(groups) > 2 and all(len(graphs) <= 8 for graphs in groups)
    assert sorted(c for graphs in groups for c in graphs) == sorted(cutoffs)


@pytest.mark.parametrize("data, cells", [(EXP, 72), (LATTICE_30, 360)],
                         ids=["exp-shared-cutoffs", "lattice-walk-groups"])
def test_each_cell_is_counted_once(monkeypatch, data, cells):
    # EXP's scales share cutoffs; LATTICE_30 needs several walks
    counted = []

    def spy(quantity, real):
        def count(dn, eps, budget, horizon):
            counted.append((quantity, horizon, eps))
            return real(dn, eps, budget, horizon=horizon)
        return count

    monkeypatch.setattr(harness, "QUANTITY_OPS",
                        {q: spy(q, op) for q, op in QUANTITY_OPS.items()})
    config = parse_config(data)
    system = resolve_system(config.system)
    harness._count(system, config.quantities, config, config.horizons)
    want = [(q, n, eps) for n in config.horizons for q in config.quantities
            for eps in config.grid.scales()]
    assert len(counted) == cells
    assert sorted(counted) == sorted(want)


def test_heuristic_spanning_cells_keep_their_own_chain_bound():
    # at budget 1 the fallback's lower bound reads the graph at 2 eps, which
    # the cutoff at eps does not fix
    config = parse_config({"system": LATTICE_SHIFT, "quantities": [SPANNING],
                           "grid": {"start": 0.34, "ratio": 0.93, "count": 2},
                           "horizons": [3], "budget": 1})
    system = resolve_system(config.system)
    want = _per_cell(system, config)[SPANNING]
    lowers = {}
    for n, dn in zip(config.horizons, bowen_spaces(system, config.horizons)):
        for br in want:
            if br.horizon == n and br.mode == "heuristic":
                key = (n, graph_cutoff(SPANNING, dn, br.scale))
                lowers.setdefault(key, set()).add(br.lower)
    assert any(len(found) > 1 for found in lowers.values())
    got = harness._count(system, [SPANNING], config, config.horizons)[SPANNING].rows
    assert got == want


def test_doubling_sweep_builds_no_matrix_at_horizon_one():
    config = parse_config({"system": {"kind": "doubling", "grid": 64}, "quantities": ALL,
                           "grid": {"start": 0.5, "ratio": 0.6, "count": 6},
                           "horizons": [1]})
    system = resolve_system(config.system)
    sweeps = harness._count(system, config.quantities, config, config.horizons)
    assert {br.method for s in sweeps.values() for br in s.rows} <= {"line-sweep",
                                                                   "diameter"}
    assert system.space._codes is None
