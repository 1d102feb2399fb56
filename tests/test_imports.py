"""Every module of the package imports on its own, and each command loads
only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynoscale

SRC = Path(dynoscale.__file__).parents[1]


def test_each_module_imports_with_no_sibling_loaded_first():
    # packages re-export nothing, so a module that used a name some other
    # module happened to load first would fail here
    names = sorted(".".join(path.relative_to(SRC).with_suffix("").parts)
                   for path in (SRC / "dynoscale").rglob("*.py"))
    # ``python -m dynoscale`` runs the command line on import
    names = [name.removesuffix(".__init__") for name in names
             if name != "dynoscale.__main__"]
    assert "dynoscale.systems.descriptor" in names and len(names) > 30
    code = ("import importlib, sys\n"
            f"for name in {names!r}:\n"
            "    for loaded in [m for m in sys.modules if m.startswith('dynoscale')]:\n"
            "        del sys.modules[loaded]\n"
            "    importlib.import_module(name)\n"
            "    print(name)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == names


SWEEP = {"dynoscale", "dynoscale.cli", "dynoscale.errors", "dynoscale.harness",
         "dynoscale.schema", "dynoscale.estimators", "dynoscale.estimators.sweep",
         "dynoscale.metric_core", "dynoscale.metric_core.counts",
         "dynoscale.metric_core.solvers", "dynoscale.metric_core.space",
         "dynoscale.systems", "dynoscale.systems.base", "dynoscale.systems.combine",
         "dynoscale.systems.descriptor", "dynoscale.systems.intervals",
         "dynoscale.systems.shifts"}
ESTIMATE = SWEEP | {"dynoscale.estimators.quantities", "dynoscale.estimators.slopes"}
QUANTIZE = ESTIMATE | {"dynoscale.draws", "dynoscale.measures",
                       "dynoscale.measures.atomic", "dynoscale.measures.quantization"}
ORACLE = SWEEP | {"dynoscale.oracle"}
VERIFY = QUANTIZE | ORACLE | {"dynoscale.measures.constructions",
                              "dynoscale.measures.wasserstein",
                              "dynoscale.metric_core.checks", "dynoscale.verify"}
INPUTS = {
    "config.json": {"system": {"kind": "shift", "symbols": 2, "depth": 3},
                    "quantities": ["separated"], "horizons": [1, 2],
                    "grid": {"start": 0.5, "ratio": 0.5, "count": 2}},
    "quantize.json": {"system": {"kind": "doubling", "grid": 8},
                      "measure": {"atoms": [0, 3], "weights": ["1/2", "1/2"]},
                      "grid": {"start": 0.4, "ratio": 0.5, "count": 2}},
    "instance.json": {"kind": "separated", "eps": 1.0, "matrix": [[0, 1], [1, 0]]},
    "random.json": {"system": {"kind": "random", "points": 20, "seed": 5},
                    "quantities": ["separated"], "horizons": [1],
                    "grid": {"start": 0.5, "ratio": 0.5, "count": 2}},
}
# numpy's random package, and the secrets/OpenSSL modules it pulls in; every
# draw comes from ``dynoscale.draws`` instead
FORBIDDEN = ("numpy.random", "secrets", "_hashlib")


@pytest.mark.parametrize("argv, want", [
    (["sweep", "--config", "config.json", "--out", "out"], SWEEP),
    (["estimate", "--config", "config.json", "--out", "out"], ESTIMATE),
    (["quantize", "--config", "quantize.json", "--out", "out"], QUANTIZE),
    (["oracle", "--instance", "instance.json"], ORACLE),
    (["verify", "--suite", "chain"], VERIFY),
    (["sweep", "--config", "random.json", "--out", "out"], SWEEP | {"dynoscale.draws"}),
], ids=["sweep", "estimate", "quantize", "oracle", "verify", "sweep-random"])
def test_each_command_loads_exactly_its_modules(tmp_path, argv, want):
    # a new module-level import changes a set below, on purpose
    for name, data in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    code = ("import sys\n"
            "from dynoscale.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(*sorted(m for m in sys.modules\n"
            "              if m == 'dynoscale' or m.startswith('dynoscale.')))\n"
            f"print(*[m for m in {FORBIDDEN!r} if m in sys.modules])\n")
    run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert run.returncode == 0, run.stderr
    *_, modules, forbidden = run.stdout.split("\n")[:-1]
    assert set(modules.split()) == want
    assert forbidden == ""


def test_no_source_file_draws_from_numpy_random():
    hits = [str(path.relative_to(SRC)) for path in (SRC / "dynoscale").rglob("*.py")
            if "np.random" in path.read_text() or "numpy.random" in path.read_text()]
    assert hits == []
