"""Configuration-driven experiment runner.

A config JSON names a system descriptor, the quantities to count, a scale
grid, a horizon range and a budget.  ``run_sweep`` is deterministic:
same config, byte-identical CSV outputs and trace.  A sweep holds no d_n
table: it lists the level cutoffs its cells need and carries those
threshold graphs from one horizon to the next (``bowen_graphs``), each
built once per horizon and shared by every quantity; on a chain-backed
base (the exp shift) each d_n is its partition chain instead of packed
graphs, and no N x N array is built.  Each cell goes through its count
once, in the walk that carries its graph.  ``run_estimates`` takes the
exact cells of a matching trace in its output directory and counts the
rest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .errors import ConfigError, ParameterError
from .schema import (boolean, build, check, choice, integer, list_of, load_json,
                     number)
from .metric_core.counts import (QUANTITY_OPS, STRICT, CountBracket, ScaleGrid,
                                 SEPARATED, SPANNING, BALL_COVER, graph_cutoff,
                                 passes_diameter)
from .metric_core.solvers import DEFAULT_BUDGET
from .estimators.sweep import ScaleSweep, format_float, write_estimates_csv
from .systems.base import DynamicalSystem, bowen_graphs
from .systems.descriptor import resolve_system


@dataclass
class ExperimentConfig:
    system: dict
    quantities: list[str]
    grid: ScaleGrid
    horizons: list[int]
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        self.quantities = list(dict.fromkeys(self.quantities))  # first-seen order
        self.horizons = sorted(set(self.horizons))


_GRID = build(ScaleGrid, {"start": number, "ratio": number, "count": integer(),
                         "offset": (boolean, True)})
_HORIZONS = list_of(integer(1))
_BUDGET = (integer(1), DEFAULT_BUDGET)

_CONFIG = build(ExperimentConfig, {
    "system": lambda value, path: value,  # resolved when the sweep runs
    "quantities": list_of(choice(*QUANTITY_OPS)), "grid": _GRID,
    "horizons": _HORIZONS, "budget": _BUDGET})


def parse_config(data) -> ExperimentConfig:
    return _CONFIG(data, "config")


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(load_json(path))


def _check_horizons(system: DynamicalSystem, horizons: list[int], path: str) -> None:
    """A horizon beyond the system's cap is a config error, never a skipped row."""
    for n in horizons:
        if n > system.horizon_cap:
            raise ConfigError(path, f"horizon {n} beyond cap {system.horizon_cap}")


Cells = dict[tuple[str, int, float], CountBracket]


def _count(system: DynamicalSystem, quantities: list[str], config: ExperimentConfig,
           horizons: list[int], known: Cells | None = None) -> dict[str, ScaleSweep]:
    """One sweep per quantity, counted on d_n's threshold graphs, with no
    d_n table.

    A (quantity, horizon, eps) cell in ``known`` is taken as it is.  The
    level cutoffs of every other cell that reaches a solver are listed
    before the walk: not a horizon-1 cell of a coordinate base (the line
    sweep), nor one that one set answers (every d_n has d_1's diameter).
    ``bowen_graphs`` then carries each listed graph (or, on a chain-backed
    base, each d_n's partition chain) from horizon to horizon, for the
    horizons that still miss a cell, and the quantities share it.  Each
    cell not in ``known`` goes through ``QUANTITY_OPS`` once, in the walk
    that carries its graph (``graph_cutoff`` names it), and the rows are
    written in horizon, then scale order, as if counted one by one.
    """
    known = known or {}
    scales = config.grid.scales()
    todo = [(q, n, eps) for n in horizons for q in quantities for eps in scales
            if (q, n, eps) not in known]
    base = system.space
    cutoffs = {base.cutoff(eps, STRICT[q]) for q, n, eps in todo
               if not ((n == 1 and base.coords is not None)
                       or passes_diameter(q, eps, base.diameter))}
    cells = dict(known)
    missing = sorted({n for _, n, _ in todo})
    for dn in bowen_graphs(system, missing, sorted(cutoffs)):
        for quantity, n, eps in todo:
            if n != dn.horizon or (quantity, n, eps) in cells:
                continue
            cutoff = graph_cutoff(quantity, dn, eps)
            if cutoff in cutoffs and not dn.carries(cutoff):
                continue  # another walk carries its graph
            cells[(quantity, n, eps)] = QUANTITY_OPS[quantity](dn, eps, config.budget,
                                                               horizon=n)
    sweeps = {q: ScaleSweep(system.name, q) for q in quantities}
    for n in horizons:
        for quantity, sweep in sweeps.items():
            for eps in scales:
                sweep.add(cells[(quantity, n, eps)])
    return sweeps


# -- the sweep trace -------------------------------------------------------------
#
# ``trace.jsonl`` holds the fingerprint line, then one line per counted cell
# with its deterministic fields only, so a rerun writes the same bytes.  An
# exact count depends on the space alone, so the fingerprint is the package
# version and the canonical descriptor (a system name does not pin the
# space), and cells are keyed by their exact eps, which a JSON float
# round-trips; budget, grid and horizons stay out of it.

TRACE = "trace.jsonl"


def _fingerprint(config: ExperimentConfig) -> str:
    return json.dumps({"dynoscale": __version__, "system": config.system}, sort_keys=True)


def _write_trace(path: Path, config: ExperimentConfig, sweeps) -> None:
    lines = [_fingerprint(config)]
    for sweep in sweeps:
        lines += [json.dumps({"quantity": br.quantity, "horizon": br.horizon,
                              "eps": br.scale, "lower": br.lower, "upper": br.upper,
                              "mode": br.mode, "method": br.method})
                  for br in sweep.rows]
    path.write_text("\n".join(lines) + "\n")


def _text(value, path: str) -> str:
    if type(value) is not str:
        raise ConfigError(path, f"must be a string, got {value!r}")
    return value


_TRACE_CELL = build(lambda eps, **fields: CountBracket(scale=eps, **fields), {
    "quantity": choice(*QUANTITY_OPS), "horizon": integer(1), "eps": number,
    "lower": integer(1), "upper": integer(1), "mode": choice("exact", "heuristic"),
    "method": _text})


def _read_trace(path: Path, config: ExperimentConfig) -> Cells:
    """The exact cells of the trace at ``path`` by (quantity, horizon, eps).

    A trace that is absent, unreadable or malformed, or that was written for
    another descriptor or package version, gives no cells.  Heuristic cells
    are left out: they depend on the budget and the code.
    """
    try:
        first, *lines = path.read_text().splitlines() or [""]
        if first != _fingerprint(config):
            return {}
        cells = [_TRACE_CELL(json.loads(line), f"{path}:{i}")
                 for i, line in enumerate(lines, start=2)]
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ConfigError):
        return {}
    known: Cells = {}
    for br in cells:
        if br.mode == "exact":
            known[(br.quantity, br.horizon, br.scale)] = br
            if br.quantity == SPANNING:  # min_ball_cover is min_spanning retagged
                known[(BALL_COVER, br.horizon, br.scale)] = replace(br, quantity=BALL_COVER)
    return known


def run_sweep(config: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """Counts over the (horizon, scale) grid; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = resolve_system(config.system)
    if not isinstance(resolved, DynamicalSystem):  # a ladder map
        return _run_kolyada_sweep(config, resolved, out)
    system: DynamicalSystem = resolved
    _check_horizons(system, config.horizons, "config.horizons")
    written: list[Path] = []
    sweeps = _count(system, config.quantities, config, config.horizons)
    for quantity in config.quantities:
        path = out / f"sweep_{system.name}_{quantity}.csv"
        sweeps[quantity].write_csv(path)
        written.append(path)
    _write_trace(out / TRACE, config, sweeps.values())
    return written + [out / TRACE]


def _run_kolyada_sweep(config: ExperimentConfig, tmap, out: Path) -> list[Path]:
    """Ladder maps sweep through per-block symbolic brackets."""
    for i, quantity in enumerate(config.quantities):
        if quantity != SEPARATED:
            raise ConfigError(f"config.quantities[{i}]",
                              f"ladder maps count only {SEPARATED!r} sets")
    sweep = ScaleSweep(f"kolyada-{tmap.family}", SEPARATED)
    for n in config.horizons:
        for eps in config.grid.scales():
            sweep.add(tmap.separated_bracket(n, eps))
    # F2 names carry beta as a fraction, and a "/" would name a subdirectory
    path = out / f"sweep_kolyada_{tmap.family.replace('/', '-')}_{SEPARATED}.csv"
    sweep.write_csv(path)
    return [path]


def run_estimates(config: ExperimentConfig, out_dir: str | Path) -> Path:
    """Dimension/order/entropy estimates for the configured system.

    Exact cells of a matching sweep trace in ``out_dir`` are taken from it;
    every other cell is counted.
    """
    from .estimators.quantities import mdim_estimate, mdim_mo_estimate
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = resolve_system(config.system)
    if not isinstance(resolved, DynamicalSystem):  # a ladder map
        from .systems.probe import entropy_scale_table, ladder_grid
        name, rows, corrected = resolved.family, [], True
        h_rows = entropy_scale_table(resolved, ladder_grid(resolved))
    else:
        name, corrected = resolved.name, False
        rows, h_rows = _net_estimates(resolved, config, _read_trace(out / TRACE, config))
    rows += [_row("entropy-at-scale", name, eps, est) for eps, est in h_rows]
    if len(h_rows) >= 2:
        rows.append(_row("mdim", name, 0.0, mdim_estimate(h_rows, corrected=corrected)))
        rows.append(_row("mdim-mo", name, 0.0, mdim_mo_estimate(h_rows)))
    path = out / "estimates.csv"
    write_estimates_csv(path, rows)
    return path


def _net_estimates(system: DynamicalSystem, config: ExperimentConfig, known: Cells):
    """Box dimension and metric order rows, and the per-scale entropies."""
    from .estimators.quantities import (box_dimension_estimate, entropy_at_scale,
                                        metric_order_estimate)
    _check_horizons(system, config.horizons, "config.horizons")
    rows = []
    # the box dimension is a horizon-1 quantity
    balls = _count(system, [BALL_COVER], config, [n for n in config.horizons if n == 1],
                   known)
    seps = _count(system, [SEPARATED], config, config.horizons, known)[SEPARATED]
    # a row with too few exact or usable scales is left out, not an error
    for quantity, estimate, counts in (
            ("box-dimension", box_dimension_estimate, balls[BALL_COVER]),
            ("metric-order", metric_order_estimate, seps)):
        try:
            rows.append(_row(quantity, system.name, 0.0, estimate(counts.at_horizon(1))))
        except ParameterError:
            pass
    h_rows = []
    for eps in config.grid.scales():
        per_n = seps.at_scale(eps)
        if sum(br.mode == "exact" for _, br in per_n) >= 2:
            h_rows.append((eps, entropy_at_scale(per_n)))
    return rows, h_rows


def _row(quantity: str, system: str, x: float, est) -> dict:
    return {"quantity": quantity, "system": system, "x": x,
            "estimate": est.value, "liminf": est.liminf_proxy,
            "limsup": est.limsup_proxy, "residual": est.residual,
            "flag": est.flagged}


def run_quantize(config_path: str | Path, out_dir: str | Path) -> Path:
    """Quantization numbers over a grid for a measure file + system descriptor."""
    from .measures.atomic import MEASURE
    from .measures.quantization import quantization_number, LP_KIND, W_KIND
    fields = {
        "system": resolve_system, "measure": MEASURE, "grid": _GRID,
        "horizons": (_HORIZONS, [1]), "kind": (choice(LP_KIND, W_KIND), LP_KIND),
        "p": (number, 1.0), "budget": _BUDGET}
    data = load_json(config_path)
    q = check(data, fields, "quantize")
    if not isinstance(q["system"], DynamicalSystem):
        raise ConfigError("quantize.system", "ladder maps have no quantization grid")
    size = q["system"].space.size
    # the measure sorts its atoms, so the key path indexes the list as written
    for i, atom in enumerate(data["measure"]["atoms"]):
        if atom >= size:
            raise ConfigError(f"quantize.measure.atoms[{i}]",
                              f"atom {int(atom)} outside the {size}-point space")
    if q["kind"] == W_KIND and q["p"] < 1:
        raise ConfigError("quantize.p", f"the W_p order must be >= 1, got {q['p']}")
    horizons = sorted(set(q["horizons"]))  # as ExperimentConfig orders them
    _check_horizons(q["system"], horizons, "quantize.horizons")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["eps,n,kind,Q,mode"]
    # each number reads only d_n(sites, atoms), so no d_n table is built
    for dn in bowen_graphs(q["system"], horizons, []):
        for eps in q["grid"].scales():
            br = quantization_number(dn, q["measure"], eps, kind=q["kind"], p=q["p"],
                                     budget=q["budget"], horizon=dn.horizon)
            lines.append(f"{format_float(br.scale)},{br.horizon},{br.quantity},"
                         f"{br.upper},{br.mode}")
    path = out / "quantization.csv"
    path.write_text("\n".join(lines) + "\n")
    return path
