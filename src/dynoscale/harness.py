"""Configuration-driven experiment runner.

A config JSON names a system descriptor, the quantities to count, a scale
grid, a horizon range, budgets and a seed.  ``run_sweep`` is deterministic:
same config, byte-identical CSV and cache outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, ParameterError
from .schema import (boolean, build, check, choice, integer, list_of, load_json,
                     number)
from .metric_core.counts import (QUANTITY_OPS, ScaleGrid, max_separated,
                                 min_ball_cover, SEPARATED, BALL_COVER)
from .metric_core.cache import write_cache
from .metric_core.solvers import DEFAULT_BUDGET
from .estimators.sweep import ScaleSweep, write_estimates_csv
from .estimators.quantities import (entropy_at_scale, box_dimension_estimate,
                                    metric_order_estimate, mdim_estimate,
                                    mdim_mo_estimate)
from .systems.base import DynamicalSystem, bowen_space
from .systems.descriptor import resolve_system
from .systems.kolyada import KolyadaSnohaMap
from .systems.probe import entropy_scale_table, ladder_grid
from .measures.atomic import MEASURE
from .measures.quantization import quantization_number, LP_KIND, W_KIND


@dataclass
class ExperimentConfig:
    system: dict
    quantities: list[str]
    grid: ScaleGrid
    horizons: list[int]
    budget: int = DEFAULT_BUDGET
    seed: int = 0  # accepted and overridable by --seed; nothing reads it yet
    cache: bool = True

    def __post_init__(self):
        self.horizons = sorted(set(self.horizons))


_GRID = build(ScaleGrid, {"start": number, "ratio": number, "count": integer(),
                         "offset": (boolean, True)})
_HORIZONS = list_of(integer(1))
_BUDGET = (integer(1), DEFAULT_BUDGET)

_CONFIG = build(ExperimentConfig, {
    "system": lambda value, path: value,  # resolved when the sweep runs
    "quantities": list_of(choice(*QUANTITY_OPS)), "grid": _GRID,
    "horizons": _HORIZONS, "budget": _BUDGET, "seed": (integer(), 0),
    "cache": (boolean, True)})


def parse_config(data) -> ExperimentConfig:
    return _CONFIG(data, "config")


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(load_json(path))


def run_sweep(config: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """Counts over the (horizon, scale) grid; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = resolve_system(config.system)
    written: list[Path] = []
    if isinstance(resolved, KolyadaSnohaMap):
        return _run_kolyada_sweep(config, resolved, out)
    system: DynamicalSystem = resolved
    scales = config.grid.scales()
    for quantity in config.quantities:
        sweep = ScaleSweep(system.name, quantity)
        for n in config.horizons:
            if n > system.horizon_cap:
                continue
            dn = bowen_space(system, n)
            for eps in scales:
                sweep.add(QUANTITY_OPS[quantity](dn, eps, config.budget, horizon=n))
        path = out / f"sweep_{system.name}_{quantity}.csv"
        sweep.write_csv(path)
        written.append(path)
    if config.cache and system.space.size <= 4096:
        cache_path = out / f"{system.name}.dyno"
        write_cache(cache_path, system.space)
        written.append(cache_path)
    return written


def _run_kolyada_sweep(config: ExperimentConfig, tmap: KolyadaSnohaMap,
                       out: Path) -> list[Path]:
    """Ladder maps sweep through per-block symbolic brackets."""
    sweep = ScaleSweep(f"kolyada-{tmap.family}", SEPARATED)
    for n in config.horizons:
        for eps in config.grid.scales():
            sweep.add(tmap.separated_bracket(n, eps))
    # F2 names carry beta as a fraction, and a "/" would name a subdirectory
    path = out / f"sweep_kolyada_{tmap.family.replace('/', '-')}_{SEPARATED}.csv"
    sweep.write_csv(path)
    return [path]


def run_estimates(config: ExperimentConfig, out_dir: str | Path) -> Path:
    """Dimension/order/entropy estimates for the configured system."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = resolve_system(config.system)
    rows = []
    if isinstance(resolved, KolyadaSnohaMap):
        h_rows = entropy_scale_table(resolved, ladder_grid(resolved))
        for eps, est in h_rows:
            rows.append(_row("entropy-at-scale", resolved.family, eps, est))
        md = mdim_estimate(h_rows)
        rows.append(_row("mdim", resolved.family, 0.0, md))
        rows.append(_row("mdim-mo", resolved.family, 0.0, mdim_mo_estimate(h_rows)))
    else:
        system = resolved
        scales = config.grid.scales()
        balls = ScaleSweep(system.name, BALL_COVER)
        seps = ScaleSweep(system.name, SEPARATED)
        for n in config.horizons:
            if n > system.horizon_cap:
                continue
            dn = bowen_space(system, n)
            for eps in scales:
                if n == 1:
                    balls.add(min_ball_cover(dn, eps, config.budget))
                seps.add(max_separated(dn, eps, config.budget, horizon=n))
        if balls.rows:
            box = box_dimension_estimate(balls.at_horizon(1))
            rows.append(_row("box-dimension", system.name, 0.0, box))
        try:
            mo = metric_order_estimate(seps.at_horizon(1))
            rows.append(_row("metric-order", system.name, 0.0, mo))
        except (ParameterError, KeyError):
            pass  # all-unit counts or no horizon-1 rows: nothing to regress
        h_rows = []
        for eps in scales:
            per_n = seps.at_scale(eps)
            if len([1 for _, b in per_n if b.mode == "exact"]) >= 2:
                est = entropy_at_scale(per_n)
                h_rows.append((eps, est))
                rows.append(_row("entropy-at-scale", system.name, eps, est))
        if len(h_rows) >= 2:
            rows.append(_row("mdim", system.name, 0.0,
                             mdim_estimate(h_rows, corrected=False)))
            rows.append(_row("mdim-mo", system.name, 0.0, mdim_mo_estimate(h_rows)))
    path = out / "estimates.csv"
    write_estimates_csv(path, rows)
    return path


def _row(quantity: str, system: str, x: float, est) -> dict:
    return {"quantity": quantity, "system": system, "x": x,
            "estimate": est.value, "liminf": est.liminf_proxy,
            "limsup": est.limsup_proxy, "residual": est.residual,
            "flag": est.flagged}


_QUANTIZE = {
    "system": resolve_system, "measure": MEASURE, "grid": _GRID,
    "horizons": (_HORIZONS, [1]), "kind": (choice(LP_KIND, W_KIND), LP_KIND),
    "p": (number, 1.0), "budget": _BUDGET}


def run_quantize(config_path: str | Path, out_dir: str | Path) -> Path:
    """Quantization numbers over a grid for a measure file + system descriptor."""
    q = check(load_json(config_path), _QUANTIZE, "quantize")
    if isinstance(q["system"], KolyadaSnohaMap):
        raise ConfigError("quantize.system", "ladder maps have no quantization grid")
    if q["kind"] == W_KIND and q["p"] < 1:
        raise ConfigError("quantize.p", f"the W_p order must be >= 1, got {q['p']}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["eps,n,kind,Q,mode"]
    for n in q["horizons"]:
        dn = bowen_space(q["system"], n)
        for eps in q["grid"].scales():
            rep = quantization_number(dn, q["measure"], eps, kind=q["kind"], p=q["p"],
                                      budget=q["budget"], horizon=n)
            lines.append(",".join(str(x) for x in rep.csv_row()))
    path = out / "quantization.csv"
    path.write_text("\n".join(lines) + "\n")
    return path
