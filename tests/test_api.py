"""Every name a module exports through `__all__` exists.

A function deleted but left in `__all__` breaks `import *` and nothing
else, so it would pass every other test.
"""

import importlib
import pkgutil

import pytest

import shishkinfem

MODULES = ["shishkinfem"] + [f"shishkinfem.{m.name}" for m in
                             pkgutil.iter_modules(shishkinfem.__path__)]


def test_submodules_found():
    assert {"shishkinfem.linsolve", "shishkinfem.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= namespace.keys()
