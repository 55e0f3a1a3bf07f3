"""The names perfbench/tracer.py wraps must exist where it wraps them,
and return what its wrappers unpack.

Some imports in src/ are used only by the tracer; deleting one, or
changing the shape of what a wrapped function returns, breaks a traced
benchmark run (`perfbench/run.py --trace 1`) and nothing else.
"""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shishkinfem import cli, errorlab, greenfn, linsolve

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def counting(fn, calls):
    def wrapper(*args):
        calls.append(fn.__name__)
        return fn(*args)
    return wrapper


def test_template_is_replaced_by_its_func():
    # the tracer counts template points with dataclasses.replace(tpl, func=)
    tpl = cli.layer_template("corner_xy", 1e-6, 2.0, 1.0)
    calls = []
    traced = dataclasses.replace(tpl, func=counting(tpl.func, calls))
    errors = cli.interp_error_study(traced, 1e-6, 2.0, 1.0, [8])
    assert calls and errors == cli.interp_error_study(tpl, 1e-6, 2.0, 1.0,
                                                      [8])


@pytest.mark.parametrize("factory", ["example_5_1", "mms_problem"])
def test_spec_coefficients_are_replaced(factory):
    spec = getattr(cli, factory)(1e-4, 2.0, 1.0)
    calls = []
    traced = dataclasses.replace(spec, **{
        name: counting(getattr(spec, name), calls) for name in ("b1", "c",
                                                                 "f")})
    mesh = errorlab.build_mesh(8, *errorlab.transition_params(1e-4, 2.0, 1.0))
    A, F = errorlab.assemble(mesh, traced)
    assert set(calls) >= {spec.b1.__name__, spec.c.__name__, spec.f.__name__}
    # what the tracer reads of assemble's result
    assert A.shape[0] == len(F) and A.nnz > 0


def test_solves_return_u_and_report():
    spec = cli.example_5_1(1e-4, 2.0, 1.0)
    mesh = errorlab.build_mesh(8, *errorlab.transition_params(1e-4, 2.0, 1.0))
    A, F = errorlab.assemble(mesh, spec)
    for solve in (errorlab.solve, greenfn.solve_transpose):
        u, report = solve(A, F)
        assert u.shape == F.shape
        assert isinstance(report.method, str)
        assert int(report.iterations) >= 0
        assert float(report.relative_residual) <= 1e-10


@pytest.mark.parametrize("argv", [
    ["--mode", "errors", "--eps", "1e-4", "--N", "8"],
    ["--mode", "green", "--eps", "1e-4", "--N", "8,16"],
    ["--mode", "interp", "--eps", "1e-4", "--N", "8", "--template",
     "corner_xy"],
])
def test_traced_run(argv, tmp_path):
    # the benchmark's traced child, at a small size
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                    str(result), "1", *argv, "-o", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    out = json.loads(result.read_text())
    assert out["rc"] == 0 and out["failed_solves"] == 0
    layers = out["layers"]
    if argv[1] == "interp":
        assert layers["problem.template_points"] > 0
    else:
        assert layers["assembly.calls"] > 0
        assert layers["problem.coeff_calls"] > 0
        assert layers["linsolve.solves"] > 0
