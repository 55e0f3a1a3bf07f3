"""Every name a module exports through `__all__` exists.

A function deleted but left in `__all__` breaks `import *` and nothing
else, so it would pass every other test.
"""

import importlib
import inspect
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
def test_no_tol_parameter(name):
    # every solve is accepted at linsolve.TOL; nothing takes its own
    module = importlib.import_module(name)
    functions = [f for _, f in inspect.getmembers(module, inspect.isfunction)]
    for _, cls in inspect.getmembers(module, inspect.isclass):
        functions += [f for _, f in inspect.getmembers(cls,
                                                       inspect.isfunction)]
    functions = [f for f in functions
                 if f.__module__.startswith("shishkinfem")]
    assert len(functions) > 1
    assert [f.__qualname__ for f in functions
            if "tol" in inspect.signature(f).parameters] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= namespace.keys()
