"""The benchmark's recorded sweep cells are the ones this code computes.

``perfbench/record_reference.py`` records ``perfbench/reference.json``; here
its ``record`` runs without writing, so a count that drifts from the
reference fails the test suite, not only a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def recorder():
    sys.path.insert(0, str(BENCH_DIR))  # record_reference imports workloads
    try:
        spec = importlib.util.spec_from_file_location(
            "record_reference", BENCH_DIR / "record_reference.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


@pytest.mark.parametrize("name", ["sweep-cover", "sweep-dense"])
def test_record_equals_the_reference(recorder, name):
    reference = json.loads(recorder.REFERENCE.read_text())
    assert recorder.record(name, recorder.SWEEPS[name]) == reference[name]
