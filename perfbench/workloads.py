"""Workload definitions: seeded CLI inputs and checks of the files they write.

Seed 0 uses the exact eps values listed here.  Any other seed draws each
eps log-uniformly within its decade (mantissa in [1, 10)), which moves the
transition parameters, the cell anisotropy, ILU fill and GMRES iterations
but never n or nnz.  The program only ever sees the resulting --eps/--N.

An output record is one CSV row, or the field file as a whole.  A record
fails when it is missing, duplicated, non-finite, breaks an invariant of
the problem, or (for seeds with a stored reference) is off the reference
by more than the tolerance in TOLERANCE.
"""

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"
REGIONS = ("coarse", "layer_x", "layer_y", "layer_xy")
FIELD_STRIDE = 4099         # node stride of the field values kept in references

# |value - ref| <= atol + rtol * |ref|, per value of a record.
# The solver accepts u once ||F - A u|| / ||F|| <= 1e-10, so two admissible
# solutions differ by up to about cond(A) * 1e-10 relative.  cond(A) is not
# bounded uniformly on these meshes, so the margin comes from measurement:
# swapping GMRES+ILU for a complete sparse LU (both meeting 1e-10) changed
# double-mesh errors by <= 4.8e-13, field values by <= 2.3e-12 (max |u_h| is
# ~0.06) and Green's norms by <= 1e-11 relative.  The tolerances sit ~1e3
# above those changes.  The smallest error value checked is ~1e-4, and a
# 1e-6 relative change of the reaction coefficient fails most error records,
# so a wrong discretisation cannot pass.  Interpolation involves no solve:
# only rounding from reordered arithmetic is allowed there.
TOLERANCE = {
    "errors": {"atol": 1e-9, "rtol": 0.0},
    "field": {"atol": 1e-9, "rtol": 0.0},
    "green": {"atol": 0.0, "rtol": 1e-8},
    "interp": {"atol": 1e-15, "rtol": 1e-12},
}

# Invariants that hold for every seed.  |u| <= max|f| / min c = 0.5 / 3 for
# the continuous problem, so nodal values and double-mesh differences stay
# well under U_BOUND; interpolated templates take values in [0, 1].
U_BOUND = 0.5
TEMPLATE_BOUND = 1.0 + 1e-9

VALUE_COUNT = {"errors": 1, "interp": 1, "green": 4}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    eps: tuple
    N: tuple
    output: str
    extra: tuple = ()

    def eps_args(self, seed):
        """The --eps values for a seed, as the strings the CLI receives."""
        if seed == 0:
            return [f"{e:.6g}" for e in self.eps]
        rng = random.Random(f"{self.name}:{seed}")
        return [f"{e * 10.0 ** rng.random():.6g}" for e in self.eps]

    def argv(self, seed):
        return (["--mode", self.mode, "--eps", ",".join(self.eps_args(seed)),
                 "--N", ",".join(str(n) for n in self.N)] + list(self.extra))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("errors_table", "errors", (1e-5, 1e-6, 1e-7, 1e-8, 1e-9),
             (16, 32, 64, 128), "errors.csv"),
    Workload("field_512", "field", (1e-9,), (512,), "field.txt"),
    Workload("green_sweep", "green", (1e-6,), (64, 128, 256), "green.csv"),
    Workload("interp_sweep", "interp", (1e-6,), (128, 256, 512), "interp.csv",
             extra=("--template", "corner_xy")),
)}


def load_reference(workload, seed):
    path = REFS / f"{workload.name}.json"
    if not path.exists():
        return None
    ref = json.loads(path.read_text())["seeds"].get(str(seed))
    if ref is not None and ref["argv"] != workload.argv(seed):
        raise RuntimeError(f"{path} was made for other inputs than seed {seed}"
                           " now gives; regenerate it with make_refs.py")
    return ref


def _close(values, ref, tol):
    return all(abs(v - r) <= tol["atol"] + tol["rtol"] * abs(r)
               for v, r in zip(values, ref))


def read_csv_records(path):
    """{"eps,N,region": [floats]} and the count of duplicated keys."""
    rows = [line for line in path.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    records, duplicates = {}, 0
    for row in rows:
        cells = row.split(",")
        key = ",".join(cells[:3])
        duplicates += key in records
        records[key] = [float(c) for c in cells[3:]]
    return records, duplicates


def _csv_invariant(mode, values):
    if mode == "errors":
        return 0.0 <= values[0] < U_BOUND
    if mode == "interp":
        return 0.0 <= values[0] <= TEMPLATE_BOUND
    sx, sy, l2, energy = values
    return (abs(sx) < 1.0 and abs(sy) < 1.0 and l2 > 0.0
            and energy >= l2 * (1.0 - 1e-12))


def check_csv(workload, seed, path):
    """(attempted, failed) over the expected records of a CSV output."""
    records, duplicates = read_csv_records(path)
    ref = load_reference(workload, seed)
    tol = TOLERANCE[workload.mode]
    expected = [f"{float(e)!r},{n},{r}" for e in workload.eps_args(seed)
                for n in workload.N for r in REGIONS]
    extras = duplicates + len(set(records) - set(expected))
    failed = extras
    for key in expected:
        values = records.get(key)
        ok = (values is not None
              and len(values) == VALUE_COUNT[workload.mode]
              and all(math.isfinite(v) for v in values)
              and _csv_invariant(workload.mode, values)
              and (ref is None or _close(values, ref["records"][key], tol)))
        failed += not ok
    return len(expected) + extras, failed


def shishkin_axes(N, eps, alpha=2.0, beta=1.0):
    """Mesh axes rebuilt from the transition-parameter formulas."""
    lx = min(2.0 * eps / alpha * math.log(1.0 / eps), 0.5)
    ly = min(2.0 * math.sqrt(eps / beta) * 1.5 * math.log(1.0 / eps), 0.25)
    half = np.concatenate([np.linspace(0.0, lx, N // 2 + 1),
                           np.linspace(lx, 1.0, N // 2 + 1)[1:]])
    xs = np.concatenate([-half[::-1], half[1:]])
    ys = np.concatenate([np.linspace(-1.0, -1.0 + ly, N // 4 + 1),
                         np.linspace(-1.0 + ly, 1.0 - ly, N // 2 + 1)[1:],
                         np.linspace(1.0 - ly, 1.0, N // 4 + 1)[1:]])
    return xs, ys


def read_field(path):
    """(nx, ny, data) where data has columns x, y, u in node order."""
    with open(path) as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
        nx, ny = (int(v) for v in line.split())
        data = np.fromstring(fh.read(), sep=" ")
    if data.size != 3 * nx * ny:
        raise ValueError(f"field file holds {data.size} numbers, "
                         f"expected {3 * nx * ny}")
    return nx, ny, data.reshape(-1, 3)


def field_summary(u, ny):
    """What a field reference keeps: sampled values, the mean of every mesh
    row and max |u| of every row and column, so that every value (and its
    sign) counts toward the check, and global max |u| and root-mean-square."""
    grid = u.reshape(ny, -1)
    return {"samples": u[::FIELD_STRIDE].tolist(),
            "row_mean": grid.mean(axis=1).tolist(),
            "row_abs_max": np.abs(grid).max(axis=1).tolist(),
            "col_abs_max": np.abs(grid).max(axis=0).tolist(),
            "stats": [float(np.abs(u).max()), float(np.sqrt(np.mean(u * u)))]}


def check_field(workload, seed, path):
    """(attempted, failed) for the field file, which is one record."""
    try:
        nx, ny, data = read_field(path)
    except (OSError, ValueError):
        return 1, 1
    eps = float(workload.eps_args(seed)[0])
    xs, ys = shishkin_axes(workload.N[0], eps)
    if (nx, ny) != (len(xs), len(ys)):
        return 1, 1
    X, Y = np.meshgrid(xs, ys)
    u = data[:, 2].reshape(ny, nx)
    boundary = np.concatenate([u[0], u[-1], u[:, 0], u[:, -1]])
    ok = (np.all(np.isfinite(data))
          and np.allclose(data[:, 0], X.ravel(), rtol=0.0, atol=1e-14)
          and np.allclose(data[:, 1], Y.ravel(), rtol=0.0, atol=1e-14)
          and not boundary.any()
          and np.abs(u).max() < U_BOUND)
    ref = load_reference(workload, seed)
    if ok and ref is not None:
        got = field_summary(data[:, 2], ny)
        ok = set(got) == set(ref) - {"argv"} and all(
            len(got[k]) == len(ref[k])
            and _close(got[k], ref[k], TOLERANCE["field"]) for k in got)
    return 1, int(not ok)


def record_count(workload):
    """Records one run should write; all of them fail on a non-zero exit."""
    if workload.mode == "field":
        return 1
    return len(workload.eps) * len(workload.N) * len(REGIONS)


def check_output(workload, seed, path):
    """(attempted, failed) records for one run's output file."""
    if workload.mode == "field":
        return check_field(workload, seed, path)
    try:
        return check_csv(workload, seed, path)
    except (OSError, ValueError):
        n = record_count(workload)
        return n, n
