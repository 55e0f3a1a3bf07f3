"""Every CLI mode reproduces its stored output file.

The files under tests/data were written by the commands in COMMANDS;
the interp_<template>.csv files are interp.csv of the other templates.
Header lines must match exactly; a value token matches when it is the
same string or within the bound of its mode, |value - ref| <= atol +
rtol * |ref|.  The bound of a command is the TOLERANCE of its --mode in
perfbench/workloads.py, so last-bit differences between numpy versions
pass; rates and mms take the errors bound.
"""

import importlib.util
import math
import re
from pathlib import Path

import pytest

from shishkinfem.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

COMMANDS = {
    "errors.csv": "--mode errors --eps 1e-4,1e-8 --N 16,32,64",
    "rates.csv": "--mode rates --eps 1e-4 --N 16,32",
    "green.csv": "--mode green --eps 1e-4,1e-6 --N 32,64",
    "interp.csv": "--mode interp --template corner_xy --eps 1e-6 --N 16,32",
    "interp_smooth.csv": "--mode interp --template smooth --eps 1e-6 --N 16,32",
    "interp_interior_x.csv":
        "--mode interp --template interior_x --eps 1e-6 --N 16,32",
    "interp_boundary_y.csv":
        "--mode interp --template boundary_y --eps 1e-6 --N 16,32",
    "field.txt": "--mode field --eps 1e-7 --N 8",
    "mms.csv": "--mode mms --problem mms --eps 1 --N 8,16",
}


def load_tolerance():
    """TOLERANCE of perfbench/workloads.py: {mode: {"atol", "rtol"}}."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TOLERANCE


TOLERANCE = load_tolerance()


def bounds(command):
    """(atol, rtol) of a command, by its --mode."""
    args = command.split()
    mode = args[args.index("--mode") + 1]
    tol = TOLERANCE["errors" if mode in ("rates", "mms") else mode]
    return tol["atol"], tol["rtol"]


def _close(token, ref, atol, rtol):
    if token == ref:
        return True
    try:
        value, expect = float(token), float(ref)
    except ValueError:
        return False
    bound = atol + rtol * abs(expect)
    return math.isfinite(value) and abs(value - expect) <= bound


@pytest.mark.parametrize("name", COMMANDS)
def test_output_matches_reference(name, tmp_path, capsys):
    assert main([*COMMANDS[name].split(), "-o", str(tmp_path)]) == 0
    written = Path(capsys.readouterr().out.strip())     # main prints it
    assert written.parent == tmp_path
    got = written.read_text().splitlines()
    ref = (DATA / name).read_text().splitlines()
    assert len(got) == len(ref)
    atol, rtol = bounds(COMMANDS[name])
    for line, want in zip(got, ref):
        if want.startswith("#"):
            assert line == want
            continue
        tokens, expect = re.split("[ ,]", line), re.split("[ ,]", want)
        assert len(tokens) == len(expect), (line, want)
        assert all(_close(t, r, atol, rtol)
                   for t, r in zip(tokens, expect)), (line, want)
