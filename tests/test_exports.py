import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import volflow

# volflow.__main__ is left out: importing it runs the CLI.
MODULES = ["volflow"] + [f"volflow.{m.name}" for m in pkgutil.iter_modules(volflow.__path__)
                         if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_import_loads_no_scipy():
    # verify.solve_ivp stays bound for the benchmark's tracer, which wraps
    # it; nothing calls it, so it is a plain None and loads nothing.
    code = ("import sys, volflow\n"
            "print(sorted(k for k in sys.modules\n"
            "             if k == 'scipy' or k.startswith('scipy.')))\n"
            "print(volflow.verify.solve_ivp)\n")
    src = str(Path(volflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split("\n")[:2] == ["[]", "None"]
