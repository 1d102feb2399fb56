"""Configuration-driven experiment runner.

A config JSON names a system descriptor, the quantities to count, a scale
grid, a horizon range, budgets and a seed.  ``run_sweep`` is deterministic:
same config, byte-identical CSV outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, ParameterError
from .schema import (boolean, build, check, choice, integer, list_of, load_json,
                     number)
from .metric_core.counts import QUANTITY_OPS, ScaleGrid, SEPARATED, BALL_COVER
from .metric_core.solvers import DEFAULT_BUDGET
from .estimators.sweep import ScaleSweep, format_float, write_estimates_csv
from .estimators.quantities import (entropy_at_scale, box_dimension_estimate,
                                    metric_order_estimate, mdim_estimate,
                                    mdim_mo_estimate)
from .systems.base import DynamicalSystem, bowen_spaces
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

    def __post_init__(self):
        self.horizons = sorted(set(self.horizons))


_GRID = build(ScaleGrid, {"start": number, "ratio": number, "count": integer(),
                         "offset": (boolean, True)})
_HORIZONS = list_of(integer(1))
_BUDGET = (integer(1), DEFAULT_BUDGET)

_CONFIG = build(ExperimentConfig, {
    "system": lambda value, path: value,  # resolved when the sweep runs
    "quantities": list_of(choice(*QUANTITY_OPS)), "grid": _GRID,
    "horizons": _HORIZONS, "budget": _BUDGET, "seed": (integer(), 0)})


def parse_config(data) -> ExperimentConfig:
    return _CONFIG(data, "config")


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(load_json(path))


def _check_horizons(system: DynamicalSystem, horizons: list[int], path: str) -> None:
    """A horizon beyond the system's cap is a config error, never a skipped row."""
    for n in horizons:
        if n > system.horizon_cap:
            raise ConfigError(path, f"horizon {n} beyond cap {system.horizon_cap}")


def _count(system: DynamicalSystem, quantities: list[str], config: ExperimentConfig,
           horizons: list[int]) -> dict[str, ScaleSweep]:
    """One sweep per quantity, horizon-major so each d_n is built once."""
    sweeps = {q: ScaleSweep(system.name, q) for q in quantities}
    scales = config.grid.scales()
    for n, dn in zip(horizons, bowen_spaces(system, horizons)):
        for quantity, sweep in sweeps.items():
            for eps in scales:
                sweep.add(QUANTITY_OPS[quantity](dn, eps, config.budget, horizon=n))
    return sweeps


def run_sweep(config: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """Counts over the (horizon, scale) grid; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = resolve_system(config.system)
    if isinstance(resolved, KolyadaSnohaMap):
        return _run_kolyada_sweep(config, resolved, out)
    system: DynamicalSystem = resolved
    _check_horizons(system, config.horizons, "config.horizons")
    written: list[Path] = []
    sweeps = _count(system, config.quantities, config, config.horizons)
    for quantity in config.quantities:
        path = out / f"sweep_{system.name}_{quantity}.csv"
        sweeps[quantity].write_csv(path)
        written.append(path)
    return written


def _run_kolyada_sweep(config: ExperimentConfig, tmap: KolyadaSnohaMap,
                       out: Path) -> list[Path]:
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
    """Dimension/order/entropy estimates for the configured system."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = resolve_system(config.system)
    if isinstance(resolved, KolyadaSnohaMap):
        name, rows, corrected = resolved.family, [], True
        h_rows = entropy_scale_table(resolved, ladder_grid(resolved))
    else:
        name, corrected = resolved.name, False
        rows, h_rows = _net_estimates(resolved, config)
    rows += [_row("entropy-at-scale", name, eps, est) for eps, est in h_rows]
    if len(h_rows) >= 2:
        rows.append(_row("mdim", name, 0.0, mdim_estimate(h_rows, corrected=corrected)))
        rows.append(_row("mdim-mo", name, 0.0, mdim_mo_estimate(h_rows)))
    path = out / "estimates.csv"
    write_estimates_csv(path, rows)
    return path


def _net_estimates(system: DynamicalSystem, config: ExperimentConfig):
    """Box dimension and metric order rows, and the per-scale entropies."""
    _check_horizons(system, config.horizons, "config.horizons")
    rows = []
    # the box dimension is a horizon-1 quantity
    balls = _count(system, [BALL_COVER], config, [n for n in config.horizons if n == 1])
    if balls[BALL_COVER].rows:
        box = box_dimension_estimate(balls[BALL_COVER].at_horizon(1))
        rows.append(_row("box-dimension", system.name, 0.0, box))
    seps = _count(system, [SEPARATED], config, config.horizons)[SEPARATED]
    try:
        mo = metric_order_estimate(seps.at_horizon(1))
        rows.append(_row("metric-order", system.name, 0.0, mo))
    except ParameterError:
        pass  # all-unit counts or no horizon-1 rows: nothing to regress
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
    _check_horizons(q["system"], q["horizons"], "quantize.horizons")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["eps,n,kind,Q,mode"]
    for n, dn in zip(q["horizons"], bowen_spaces(q["system"], q["horizons"])):
        for eps in q["grid"].scales():
            br = quantization_number(dn, q["measure"], eps, kind=q["kind"], p=q["p"],
                                     budget=q["budget"], horizon=n)
            lines.append(f"{format_float(br.scale)},{br.horizon},{br.quantity},"
                         f"{br.upper},{br.mode}")
    path = out / "quantization.csv"
    path.write_text("\n".join(lines) + "\n")
    return path
