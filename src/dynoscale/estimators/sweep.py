"""Sweep tables: (horizon, scale) grids of count brackets, plus CSV forms.

CSV columns are fixed (system, quantity, horizon, eps, lower, upper, mode,
method) with '.' decimals, so byte-identical reruns are the determinism
contract's observable.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

from ..metric_core.counts import CountBracket

SWEEP_COLUMNS = ["system", "quantity", "horizon", "eps", "lower", "upper",
                 "mode", "method"]
ESTIMATE_COLUMNS = ["quantity", "system", "x", "estimate", "liminf", "limsup",
                    "residual", "flag"]


@dataclass
class ScaleSweep:
    system: str
    quantity: str
    rows: list[CountBracket] = field(default_factory=list)

    def add(self, bracket: CountBracket) -> None:
        self.rows.append(bracket)

    def at_scale(self, eps: float) -> list[tuple[int, CountBracket]]:
        got = [(br.horizon, br) for br in self.rows
               if abs(br.scale - eps) < 1e-15]
        return sorted(got)

    def at_horizon(self, n: int) -> list[tuple[float, CountBracket]]:
        got = [(br.scale, br) for br in self.rows if br.horizon == n]
        return sorted(got, reverse=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for br in self.rows:
            writer.writerow([self.system, self.quantity, br.horizon,
                             format_float(br.scale), br.lower, br.upper,
                             br.mode, br.method])
        return buf.getvalue()

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())


def format_float(x: float) -> str:
    return format(float(x), ".12g")


def write_estimates_csv(path: str | Path, rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ESTIMATE_COLUMNS)
    for r in rows:
        writer.writerow([r["quantity"], r["system"], format_float(r["x"]),
                         format_float(r["estimate"]), format_float(r["liminf"]),
                         format_float(r["limsup"]), format_float(r["residual"]),
                         "flagged" if r["flag"] else "ok"])
    Path(path).write_text(buf.getvalue())
