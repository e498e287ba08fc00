import importlib
import pkgutil

import pytest

import volflow

# volflow.__main__ is left out: importing it runs the CLI.
MODULES = ["volflow"] + [f"volflow.{m.name}" for m in pkgutil.iter_modules(volflow.__path__)
                         if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
