"""Every CLI mode reproduces its stored output file.

The files under tests/data were written by the commands in COMMANDS;
the interp_<template>.csv files are interp.csv of the other templates.
Header lines must match exactly; a value token matches when it is the
same string or within the bound of its mode, |value - ref| <= atol +
rtol * |ref|.  The bounds are those of perfbench/workloads.py
TOLERANCE, so last-bit differences between numpy versions pass; rates
and mms take the errors bound.
"""

import math
import re
from pathlib import Path

import pytest

from shishkinfem.cli import main

DATA = Path(__file__).resolve().parent / "data"

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

# (atol, rtol) per output file
BOUNDS = {
    "errors.csv": (1e-9, 0.0),
    "rates.csv": (1e-9, 0.0),
    "green.csv": (0.0, 1e-8),
    "interp.csv": (1e-15, 1e-12),
    "interp_smooth.csv": (1e-15, 1e-12),
    "interp_interior_x.csv": (1e-15, 1e-12),
    "interp_boundary_y.csv": (1e-15, 1e-12),
    "field.txt": (1e-9, 0.0),
    "mms.csv": (1e-9, 0.0),
}


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
    atol, rtol = BOUNDS[name]
    for line, want in zip(got, ref):
        if want.startswith("#"):
            assert line == want
            continue
        tokens, expect = re.split("[ ,]", line), re.split("[ ,]", want)
        assert len(tokens) == len(expect), (line, want)
        assert all(_close(t, r, atol, rtol)
                   for t, r in zip(tokens, expect)), (line, want)
