"""Tests of the benchmark's own logic: inputs, metric names, checker, spans.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)


@pytest.mark.parametrize("workload", list(workloads.SWEEPS))
def test_two_seeds_give_different_grids_within_the_band(workload):
    lo, hi = workloads.SWEEPS[workload]["start_band"]
    starts = [workloads.make_inputs(workload, seed)["grid"]["start"] for seed in (1, 2)]
    assert starts[0] != starts[1]
    assert all(lo <= s <= hi for s in starts)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metric_names_appear_in_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert dict(run.END_TO_END) == e2e
    assert dict(layers.PER_LAYER) == per_layer

    it = run.Iteration(wall_s=2.0, rss_mb=50.0, cpu_s=1.5, exact=3, cells=4,
                       spans=[[["harness.main", 0.1, 1.9, -1, None]]])
    assert set(run.end_to_end([it], [0.5])) == set(e2e)
    assert set(run.per_layer([it], [it])) == set(per_layer)


def _reference_rows(ref: dict) -> list[dict]:
    rows = []
    for quantity, horizon, rank, lower, upper, mode in ref["cells"]:
        lo, hi = ref["scales"][rank]
        rows.append({"system": "s", "quantity": quantity, "horizon": str(horizon),
                     "eps": repr((lo + hi) / 2), "lower": str(lower),
                     "upper": str(upper), "mode": mode, "method": "m"})
    return rows


@pytest.mark.parametrize("workload", list(workloads.SWEEPS))
def test_checker_accepts_the_reference(workload):
    ref = workloads.load_reference()[workload]
    problems, exact = workloads.check_sweep_rows(_reference_rows(ref), ref)
    assert problems == []
    assert exact == len(ref["cells"])


@pytest.mark.parametrize("tamper", [
    {"lower": "5", "upper": "4", "mode": "heuristic"},   # lower > upper
    {"upper": "99"},                                     # exact row, lower != upper
    {"lower": "99", "upper": "99"},                      # misses the reference value
    {"lower": "1", "upper": "1"},
    {"lower": "99", "upper": "120", "mode": "heuristic"},  # bracket misses reference
    {"eps": "0.9"},                                      # scale outside its band
    {"horizon": "x"},                                    # unreadable
])
def test_checker_rejects_a_tampered_row(tamper):
    ref = workloads.load_reference()["sweep-cover"]
    rows = _reference_rows(ref)
    rows[7] = {**rows[7], **tamper}
    problems, _ = workloads.check_sweep_rows(rows, ref)
    assert problems


def test_checker_rejects_a_missing_row():
    ref = workloads.load_reference()["sweep-cover"]
    problems, _ = workloads.check_sweep_rows(_reference_rows(ref)[1:], ref)
    assert any("missing" in p for p in problems)


def test_checker_counts_verify_failures(tmp_path):
    line = "suite all: 1460 pass, 4 fail, 14 inconclusive\n"
    problems, exact, cells = workloads.check_output("verify-all", tmp_path, [line], {})
    assert problems and (exact, cells) == (1464, 1478)
    line = "suite all: 1464 pass, 0 fail, 14 inconclusive\n"
    assert workloads.check_output("verify-all", tmp_path, [line], {})[0] == []


def test_self_times_on_a_synthetic_tree():
    spans = [
        ["harness.main", 0.0, 10.0, -1, None],        # 0
        ["counts.spanning", 1.0, 4.0, 0, {"mode": "exact", "method": "cover-bnb"}],
        ["solvers.set_cover", 5.0, 9.0, 0, None],     # 2
        ["solvers.set_cover", 6.0, 7.0, 2, None],     # recursive call
        ["solvers.milp", 7.5, 8.0, 2, {"nodes": 3}],
    ]
    assert layers.self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5])
    out = layers.layer_metrics(spans)
    assert out["self.harness_s"] == pytest.approx(3.0)
    assert out["self.solvers_s"] == pytest.approx(4.0)
    assert sum(out[f"self.{layer}_s"] for layer in layers.LAYERS) == pytest.approx(10.0)
    assert out["solvers.set_cover_s"] == pytest.approx(4.0)  # outermost span only
    assert out["solvers.milp_nodes"] == 3
    assert (out["counts.cells"], out["counts.cells_exact"]) == (1, 1)
    assert out["counts.method.cover-bnb"] == 1


def test_merge_reindexes_parents_per_process():
    a = [["harness.main", 0.0, 2.0, -1, None], ["systems.build", 0.5, 1.0, 0, None]]
    merged = layers.merge([a, a])
    assert [s[3] for s in merged] == [-1, 0, -1, 2]


def test_wall_cap_kills_a_hung_child(tmp_path):
    start = time.perf_counter()
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], {},
                          tmp_path, 0.5, tmp_path / "hung")
    assert child.code == -1 and "wall cap" in child.stderr
    assert time.perf_counter() - start < 10
