"""The names perfbench/tracer.py wraps must exist where it wraps them.

Some imports in src/ are used only by the tracer; deleting one breaks a
traced benchmark run (`perfbench/run.py --trace 1`) and nothing else.
"""

import importlib.util
from pathlib import Path

import pytest

from shishkinfem import cli, errorlab, greenfn, linsolve

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = load_tracer().WRAPPED


@pytest.mark.parametrize("module", [cli, errorlab, greenfn])
def test_wrapped_names_exist(module):
    names = WRAPPED[module.__name__.rsplit(".", 1)[-1]]
    assert names
    missing = [name for name in names if not callable(getattr(module, name,
                                                               None))]
    assert missing == []


def test_patched_solver_names_exist():
    assert callable(errorlab.solve)
    assert callable(greenfn.solve_transpose)
    for name in ("spilu", "splu", "gmres"):
        assert callable(getattr(linsolve.spla, name))
    for name in ("example_5_1", "mms_problem", "layer_template"):
        assert callable(getattr(cli, name))
