"""Every module of the package imports on its own."""

import os
import subprocess
import sys
from pathlib import Path

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
