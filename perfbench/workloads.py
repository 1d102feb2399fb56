"""Benchmark workloads: inputs generated from a seed, CLI steps, output checker.

Sweep workloads draw the scale-grid start from a narrow band.  Each band was
chosen so that no scale of the grid crosses a distance of the net at any
horizon (``record_reference.py`` checks this), so every seed counts the same
graphs and one recorded reference holds for all of them.

``verify-all`` runs the fixed verify seed 0.  Verify's own seed changes which
random instances it checks, and with them its work: the quantization-bounds
suite alone takes 0.3 s to 3.2 s over seeds 1 to 39, so whole runs differ by
up to a third, wider than any bound a regression gate could use.  The
benchmark seed is therefore not passed on to it.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
ESTIMATE_COLUMNS = ["quantity", "system", "x", "estimate", "liminf", "limsup",
                    "residual", "flag"]
VERIFY_SEED = 0

SWEEPS = {
    "sweep-cover": {
        "system": {"kind": "doubling", "grid": 128, "horizon_cap": 5},
        "quantities": ["separated", "spanning", "diameter_cover"],
        "horizons": [1, 2, 3, 4, 5],
        "start_band": (0.4975, 0.5005),
        "estimate": False,
    },
    "sweep-dense": {
        "system": {"kind": "shift", "symbols": 2, "depth": 12, "metric": "exp"},
        "quantities": ["separated", "spanning"],
        "horizons": [1, 2, 3],
        "start_band": (0.48, 0.52),
        "estimate": True,
    },
}
RATIO, COUNT = 0.6, 6
WORKLOADS = (*SWEEPS, "verify-all")


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs for ``seed``; the same seed gives the same inputs."""
    if workload == "verify-all":
        return {"suite": "all", "seed": VERIFY_SEED}
    spec = SWEEPS[workload]
    lo, hi = spec["start_band"]
    start = lo + (hi - lo) * random.Random(seed).random()
    return {"system": spec["system"], "quantities": spec["quantities"],
            "grid": {"start": start, "ratio": RATIO, "count": COUNT},
            "horizons": spec["horizons"]}


def cli_steps(workload: str, inputs: dict, out_dir: Path) -> list[list[str]]:
    """The dynoscale CLI argument lists of one workload iteration, in order."""
    if workload == "verify-all":
        return [["verify", "--suite", inputs["suite"], "--seed", str(inputs["seed"])]]
    config = out_dir / "config.json"
    config.write_text(json.dumps(inputs))
    steps = [["sweep", "--config", str(config), "--out", str(out_dir)]]
    if SWEEPS[workload]["estimate"]:
        steps.append(["estimate", "--config", str(config), "--out", str(out_dir)])
    return steps


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# -- output checker ------------------------------------------------------------

def check_sweep_rows(rows: list[dict], ref: dict) -> tuple[list[str], int]:
    """Problems found in sweep CSV rows against the reference, and the exact rows.

    A row fails when ``lower > upper``, when an exact row has
    ``lower != upper``, when its scale leaves the reference band, or when
    either bracket misses the other's exact value.  Rows are matched to the
    reference by (quantity, horizon, scale rank).
    """
    problems: list[str] = []
    groups: dict[tuple[str, int], list[dict]] = {}
    for row in rows:
        try:
            row = {**row, "horizon": int(row["horizon"]), "eps": float(row["eps"]),
                   "lower": int(row["lower"]), "upper": int(row["upper"])}
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"unreadable row {row}: {exc}")
            continue
        groups.setdefault((row["quantity"], row["horizon"]), []).append(row)
    expected = {(q, h, i): (lower, upper, mode)
                for q, h, i, lower, upper, mode in ref["cells"]}
    seen, exact = set(), 0
    for (quantity, horizon), group in groups.items():
        for rank, row in enumerate(sorted(group, key=lambda r: -r["eps"])):
            key = (quantity, horizon, rank)
            lower, upper, mode = row["lower"], row["upper"], row["mode"]
            exact += mode == "exact"
            if lower > upper:
                problems.append(f"{key}: lower {lower} > upper {upper}")
            if mode == "exact" and lower != upper:
                problems.append(f"{key}: exact row with lower {lower} != upper {upper}")
            if key not in expected:
                problems.append(f"{key}: cell not in the reference")
                continue
            seen.add(key)
            band_lo, band_hi = ref["scales"][rank]
            if not band_lo <= row["eps"] <= band_hi:
                problems.append(f"{key}: eps {row['eps']} outside [{band_lo}, {band_hi}]")
            ref_lower, ref_upper, ref_mode = expected[key]
            if ref_mode == "exact" and not lower <= ref_lower <= upper:
                problems.append(f"{key}: [{lower}, {upper}] misses reference {ref_lower}")
            if mode == "exact" and not ref_lower <= lower <= ref_upper:
                problems.append(f"{key}: exact {lower} outside reference "
                                f"[{ref_lower}, {ref_upper}]")
    problems.extend(f"{key}: reference cell missing" for key in sorted(set(expected) - seen))
    return problems, exact


def check_estimates(rows: list[dict], header: list[str], ref: dict) -> list[str]:
    """Estimate CSV: fixed columns, the reference quantities in order, finite numbers."""
    if header != ESTIMATE_COLUMNS:
        return [f"estimate columns {header}"]
    problems = []
    quantities = [row["quantity"] for row in rows]
    if quantities != ref["estimates"]:
        problems.append(f"estimate quantities {quantities} != {ref['estimates']}")
    for row in rows:
        try:
            values = [float(row[c]) for c in ESTIMATE_COLUMNS[2:7]]
        except (TypeError, ValueError):
            values = [math.nan]
        if not all(map(math.isfinite, values)) or row["flag"] not in ("ok", "flagged"):
            problems.append(f"bad estimate row {row}")
    return problems


_VERIFY_SUMMARY = re.compile(r"suite \S+: (\d+) pass, (\d+) fail, (\d+) inconclusive")


def check_output(workload: str, out_dir: Path, stdouts: list[str],
                 reference: dict) -> tuple[list[str], int, int]:
    """(problems, exact cells, all cells) of one finished workload iteration."""
    if workload == "verify-all":
        found = _VERIFY_SUMMARY.search(stdouts[0])
        if found is None:
            return ["no verify summary line"], 0, 0
        passed, failed, inconclusive = map(int, found.groups())
        problems = [f"verify reports {failed} failed checks"] if failed else []
        return problems, passed + failed, passed + failed + inconclusive
    ref = reference[workload]
    rows = []
    for path in sorted(out_dir.glob("sweep_*.csv")):
        with open(path, newline="") as fh:
            rows.extend(csv.DictReader(fh))
    problems, exact = check_sweep_rows(rows, ref)
    estimates = out_dir / "estimates.csv"
    if SWEEPS[workload]["estimate"] and not estimates.is_file():
        problems.append("no estimates.csv written")
    elif SWEEPS[workload]["estimate"]:
        with open(estimates, newline="") as fh:
            reader = csv.DictReader(fh)
            est_rows = list(reader)
            problems += check_estimates(est_rows, list(reader.fieldnames or []), ref)
    return problems, exact, len(rows)
