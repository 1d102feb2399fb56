"""Configuration-driven experiment runner.

A config JSON names a system descriptor, the quantities to count, a scale
grid, a horizon range, budgets and a seed.  ``run_sweep`` is deterministic:
same config, byte-identical CSV and cache outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ParameterError
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
from .measures.atomic import measure_from_json
from .measures.quantization import quantization_number, LP_KIND, W_KIND


@dataclass
class ExperimentConfig:
    system: dict
    quantities: list[str]
    grid: ScaleGrid
    horizons: list[int]
    budget: int = DEFAULT_BUDGET
    seed: int = 0
    cache: bool = True
    raw: dict = field(default_factory=dict)


def parse_config(data: dict) -> ExperimentConfig:
    allowed = {"system", "quantities", "grid", "horizons", "budget", "seed", "cache"}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"config.{key}", "unknown key")
    for key in ("system", "quantities", "grid", "horizons"):
        if key not in data:
            raise ConfigError(f"config.{key}", "missing required key")
    if not isinstance(data["quantities"], list) or not data["quantities"]:
        raise ConfigError("config.quantities", "must be a nonempty list")
    for q in data["quantities"]:
        if q not in QUANTITY_OPS:
            raise ConfigError("config.quantities", f"unknown quantity {q!r}")
    grid = _parse_grid(data["grid"], "config.grid")
    horizons = _parse_horizons(data["horizons"], "config.horizons")
    budget = _parse_budget(data.get("budget", DEFAULT_BUDGET), "config.budget")
    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("config.seed", "must be an integer")
    return ExperimentConfig(data["system"], list(data["quantities"]), grid,
                            sorted(set(horizons)), budget, seed,
                            bool(data.get("cache", True)), raw=data)


def _parse_grid(g, path: str) -> ScaleGrid:
    if not isinstance(g, dict):
        raise ConfigError(path, "must be an object")
    for key in g:
        if key not in {"start", "ratio", "count", "offset"}:
            raise ConfigError(f"{path}.{key}", "unknown key")
    try:
        return ScaleGrid(float(g["start"]), float(g["ratio"]), int(g["count"]),
                         bool(g.get("offset", True)))
    except KeyError as missing:
        raise ConfigError(f"{path}.{missing.args[0]}", "missing required key")
    except Exception as exc:  # non-numeric values, domain errors from ScaleGrid
        raise ConfigError(path, str(exc))


def _parse_horizons(horizons, path: str) -> list[int]:
    if (not isinstance(horizons, list) or not horizons
            or any(not isinstance(n, int) or n < 1 for n in horizons)):
        raise ConfigError(path, "must be a nonempty list of n >= 1")
    return horizons


def _parse_budget(budget, path: str) -> int:
    if not isinstance(budget, int) or budget <= 0:
        raise ConfigError(path, "must be a positive integer")
    return budget


def load_config(path: str | Path) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:line {exc.lineno}", exc.msg)
    return parse_config(data)


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
    path = out / f"sweep_kolyada_{tmap.family}_{SEPARATED}.csv"
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


def run_quantize(config_path: str | Path, out_dir: str | Path) -> Path:
    """Quantization numbers over a grid for a measure file + system descriptor."""
    text = Path(config_path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{config_path}:line {exc.lineno}", exc.msg)
    allowed = {"system", "measure", "grid", "horizons", "kind", "p", "budget"}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"quantize.{key}", "unknown key")
    for key in ("system", "measure", "grid"):
        if key not in data:
            raise ConfigError(f"quantize.{key}", "missing required key")
    kind = data.get("kind", LP_KIND)
    if kind not in (LP_KIND, W_KIND):
        raise ConfigError("quantize.kind", f"unknown kind {kind!r}")
    system = resolve_system(data["system"])
    if isinstance(system, KolyadaSnohaMap):
        raise ConfigError("quantize.system", "ladder maps have no quantization grid")
    mu = measure_from_json(json.dumps(data["measure"]))
    grid = _parse_grid(data["grid"], "quantize.grid")
    horizons = _parse_horizons(data.get("horizons", [1]), "quantize.horizons")
    budget = _parse_budget(data.get("budget", DEFAULT_BUDGET), "quantize.budget")
    try:
        p = float(data.get("p", 1.0))
    except (TypeError, ValueError):
        raise ConfigError("quantize.p", "must be a number")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["eps,n,kind,Q,mode"]
    for n in horizons:
        dn = bowen_space(system, n)
        for eps in grid.scales():
            rep = quantization_number(dn, mu, eps, kind=kind, p=p, budget=budget,
                                      horizon=n)
            lines.append(",".join(str(x) for x in rep.csv_row()))
    path = out / "quantization.csv"
    path.write_text("\n".join(lines) + "\n")
    return path
