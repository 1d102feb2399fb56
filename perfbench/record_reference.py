"""Record ``reference.json``: the cells of each sweep workload at this commit.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/record_reference.py

It first checks that, over the whole start band of a workload, no scale of
the grid reaches a distance of the net at any horizon.  Counts change only
where a scale meets a distance, so the cells recorded at the band's middle
hold for every seed.
"""

from __future__ import annotations

import csv
import json
import re
import tempfile

import numpy as np

from dynoscale.harness import parse_config, run_estimates, run_sweep
from dynoscale.metric_core.counts import ScaleGrid
from dynoscale.systems.base import bowen_space
from dynoscale.systems.descriptor import resolve_system

from workloads import COUNT, RATIO, REFERENCE, SWEEPS, make_inputs


def scale_bands(start_band) -> list[list[float]]:
    lo, hi = (ScaleGrid(s, RATIO, COUNT).scales() for s in start_band)
    return [[a, b] for a, b in zip(lo, hi)]


def check_bands(spec: dict, bands: list[list[float]]) -> None:
    system = resolve_system(spec["system"])
    for n in spec["horizons"]:
        dist = np.unique(bowen_space(system, n).as_matrix())
        for lo, hi in bands:
            inside = dist[(dist >= lo) & (dist <= hi)]
            if inside.size:
                raise SystemExit(f"horizon {n}: distance {inside[0]} in band [{lo}, {hi}]")


def record(name: str, spec: dict) -> dict:
    bands = scale_bands(spec["start_band"])
    check_bands(spec, bands)
    inputs = make_inputs(name, 0)
    inputs["grid"]["start"] = sum(spec["start_band"]) / 2
    config = parse_config(inputs)
    cells = []
    with tempfile.TemporaryDirectory() as tmp:
        for path in run_sweep(config, tmp):
            if path.suffix != ".csv":
                continue
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            by_horizon: dict[int, list[dict]] = {}
            for row in rows:
                by_horizon.setdefault(int(row["horizon"]), []).append(row)
            for horizon, group in sorted(by_horizon.items()):
                for rank, row in enumerate(sorted(group, key=lambda r: -float(r["eps"]))):
                    cells.append([row["quantity"], horizon, rank, int(row["lower"]),
                                  int(row["upper"]), row["mode"]])
        out = {"scales": bands, "cells": cells}
        if spec["estimate"]:
            with open(run_estimates(config, tmp), newline="") as fh:
                out["estimates"] = [row["quantity"] for row in csv.DictReader(fh)]
    return out


def main() -> None:
    reference = {name: record(name, spec) for name, spec in SWEEPS.items()}
    text = json.dumps(reference, indent=1)
    # one line per cell and per scale band
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  text)
    REFERENCE.write_text(text + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
