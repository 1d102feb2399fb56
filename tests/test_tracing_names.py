"""Every name the benchmark's tracer wraps still resolves in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in tracing.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, attr", [(m, c, a) for m, c, a, *_ in tracing.METHODS])
def test_traced_method_resolves(module, cls, attr):
    assert callable(getattr(getattr(importlib.import_module(module), cls), attr))
