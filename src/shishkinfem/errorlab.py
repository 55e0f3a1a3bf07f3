"""Double-mesh errors, convergence rates, and interpolation studies.

Without an exact solution, errors are estimated by the double-mesh
principle: solve with parameters N and 2N (same transition parameters,
so the meshes are nested) and take region-wise maxima of the nodal
differences at the N-mesh nodes.  The systems of one eps are assembled
once each, from the smallest N up: the multigrid of each matrix uses
the matrix of the nested N/2 mesh, where that one is solved too, as
its coarse level, and each solve at 2N starts from the solution at N.

Every study is of one eps, a `ProblemSpec` or a template with its eps,
and returns its values as a table: a dict keyed (eps, N, Region), in
(N, Region) order, which is the CSV row order of that eps.
"""

import math

import numpy as np

# perfbench/tracer.py wraps classify_points under this module's name.
from .meshgen import (Region, transition_params, build_mesh, region_masks,
                      classify_points)  # noqa: F401
from .problem import on_grid
from .assembly import FeField, assemble
from .linsolve import solve, multigrid, coarsens, prolong

__all__ = [
    "bilinear_interp",
    "nested_systems",
    "solve_problem",
    "error_table",
    "interp_error_study",
    "mms_convergence",
]

# Samples per cell and axis in the interpolation study, edges included.
SAMPLES_PER_CELL = 5
BLOCK_CELLS = 2 ** 16   # cells in a block of `_subcell_max`: 0.5 MiB an array
# Errors at or below this are rounding; no rate is formed from them.
ZERO_TOL = 1e-13


def bilinear_interp(field_, points):
    """Evaluate the piecewise-bilinear extension of a nodal field.

    points: (m, 2) array or a single (x, y) pair inside the closed
    domain.  Exact at nodes and for functions linear in x and in y.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xs, ys = field_.mesh.x, field_.mesh.y
    if not np.all((pts >= [xs[0] - 1e-14, ys[0] - 1e-14])
                  & (pts <= [xs[-1] + 1e-14, ys[-1] + 1e-14])):
        raise ValueError("point outside the mesh domain")
    i, s = _locate(xs, pts[:, 0])
    j, t = _locate(ys, pts[:, 1])
    g = field_.values
    out = _bilinear(g[j, i], g[j, i + 1], g[j + 1, i], g[j + 1, i + 1], s, t)
    if np.asarray(points).ndim == 1:
        return float(out[0])
    return out


def _locate(nodes, p):
    """Cell index and local coordinate in [0, 1] of each p on an axis."""
    i = np.clip(np.searchsorted(nodes, p, side="right") - 1, 0, len(nodes) - 2)
    return i, (p - nodes[i]) / (nodes[i + 1] - nodes[i])


def _bilinear(v00, v10, v01, v11, s, t):
    """Bilinear interpolant at local (s, t) in cells with corner values
    v00 at (0, 0), v10 at (1, 0), v01 at (0, 1) and v11 at (1, 1); the
    arguments broadcast against each other."""
    # corner-difference form: exact for constant fields, not just close
    return (v00 + s * (v10 - v00) + t * (v01 - v00)
            + s * t * (v11 - v10 - v01 + v00))


def _samples(nodes):
    """(p, cells, s) per offset of an axis: samples, their cells (a slice
    if sample m is in cell m for all m) and local coordinates.  Offset 1
    drops the samples that repeat the next cell's offset 0 (p, cell, s)."""
    n = len(nodes) - 1
    for u in np.linspace(0.0, 1.0, SAMPLES_PER_CELL):
        p = nodes[:-1] + u * np.diff(nodes)
        i, s = _locate(nodes, p)
        if u == 1.0:
            keep = (i != np.arange(1, n + 1)) | (p != nodes[1:])
            p, i, s = p[keep], i[keep], s[keep]
        yield p, slice(None) if np.array_equal(i, np.arange(n)) else i, s


def _region_max(err, x, y, mesh):
    """Max of err (>= 0) on the grid of the axes x and y per region of
    `region_masks`, 0 where empty: over its columns, once per distinct
    x mask, then over its rows."""
    masks = region_masks(x, y, mesh.lambda_x, mesh.lambda_y)
    cols = {mx.tobytes(): mx for mx, _ in masks.values()}
    rows = {k: err.max(axis=1, where=m, initial=0.0) for k, m in cols.items()}
    return {region: float(rows[mx.tobytes()].max(where=my, initial=0.0))
            for region, (mx, my) in masks.items()}


def _rows_of(samples, j0, j1):
    """The `_samples` of cell rows j0 to j1 - 1 (cells from j0), if any."""
    for p, cells, s in samples:
        if isinstance(cells, slice):
            yield p[j0:j1], cells, s[j0:j1]
        elif np.any(m := (cells >= j0) & (cells < j1)):
            yield p[m], cells[m] - j0, s[m]


def _subcell_max(mesh, nodal, func):
    """Per region, max |func - bilinear interpolant of nodal| over s x s
    uniform samples of every cell, edges included (s = SAMPLES_PER_CELL),
    each distinct sample once (`_samples`), func on the axes of each
    offset grid; NaN propagates.  In `_bilinear`'s order of operations,
    per block of whole cell rows (BLOCK_CELLS cells, or one row): corner
    differences once, x parts per x-offset; maxima combine by max."""
    step = max(1, BLOCK_CELLS // (mesh.nx - 1))
    bufs = np.empty((3, min(step, mesh.ny - 1), mesh.nx - 1))   # reused
    x_samples, y_samples = list(_samples(mesh.x)), list(_samples(mesh.y))
    maxima = []
    for j0 in range(0, mesh.ny - 1, step):
        block = nodal[j0:j0 + step + 1]
        v00 = block[:-1, :-1]
        dx, dy = block[:-1, 1:] - v00, block[1:, :-1] - v00
        dxy = block[1:, 1:] - block[:-1, 1:] - block[1:, :-1] + v00
        for px, cols, s in x_samples:
            pu = bufs[0, :len(v00), :len(px)]
            dyc, dxyc = dy[:, cols], dxy[:, cols]
            np.multiply(s, dx[:, cols], out=pu)
            pu += v00[:, cols]
            for py, rows, t in _rows_of(y_samples, j0, j0 + len(v00)):
                err, st = bufs[1:, :len(py), :len(px)]
                np.multiply(t[:, None], dyc[rows], out=err)
                err += pu[rows]
                np.multiply(s, t[:, None], out=st)
                st *= dxyc[rows]
                err += st
                np.subtract(on_grid(func, px, py), err, out=err)
                np.abs(err, out=err)
                maxima.append(_region_max(err, px, py, mesh))
    return {region: float(np.max([m[region] for m in maxima]))
            for region in Region}


def nested_systems(spec, N_list):
    """Assembled systems of N_list, ascending, on the Shishkin meshes of
    spec: yields (N, mesh, A, F, mg), mg = the multigrid of A.

    Where N/2 came just before N (its mesh exists, and is nested in
    N's) and N's interior grid `coarsens`, the coarse level of mg is
    the multigrid of N/2; otherwise `multigrid` forms Galerkin coarse
    levels.  So each N is assembled once, and no mesh that N_list does
    not name.  A level whose setup failed is no coarse level: the one
    above it forms its own.  No reference to the previous A and F is
    kept while N is assembled: callers that drop theirs hold one matrix,
    and `greenfn.green_norm_sweep`, whose worker still solves with the
    previous A, holds two.
    """
    lam = transition_params(spec.eps, spec.alpha, spec.beta)
    prev_N = prev_mg = None
    for N in sorted(set(N_list)):
        mesh = build_mesh(N, *lam)
        on_half = prev_N == N // 2 and coarsens(mesh.interior)
        A, F = assemble(mesh, spec)
        prev_N, prev_mg = N, multigrid(A, mesh.interior,
                                       prev_mg if on_half else None)
        yield N, mesh, A, F, prev_mg
        del A, F


def _solutions(spec, N_list):
    """(N, FeField) for each N of N_list, ascending, from one walk of
    `nested_systems`.  A solve whose coarse level was the previous
    solve's starts its V-cycles from that solution, interpolated onto
    the odd grid rows."""
    prev_mg = prev_u = None
    for N, mesh, A, F, mg in nested_systems(spec, N_list):
        x0 = None
        if mg is not None and prev_mg is not None and mg.coarse is prev_mg:
            x0 = np.zeros(len(F))   # even rows: the first half-sweep sets them
            x0.reshape(mg.shape)[1::2] = prolong(prev_u.reshape(prev_mg.shape))
        u, _ = solve(A, F, mg=mg, x0=x0)
        del A, F, x0        # not alive while the next N is assembled
        prev_mg, prev_u = mg, u
        yield N, FeField.from_interior(mesh, u)


def solve_problem(spec, N):
    """Build the Shishkin mesh for (spec, N), assemble, and solve.

    The V-cycles of the multigrid of A, whose coarse levels are Galerkin
    operators (no other N is assembled), solve the system; if its setup
    fails, `solve` goes straight to splu.
    """
    (_, u), = _solutions(spec, [N])
    return u


def _compare_nested(u_N, u_2N):
    """Region-wise max |U_N - U_2N| at the N-mesh nodes; the meshes must
    be nested (one spec), as those of one `_solutions` walk are."""
    mesh = u_N.mesh
    return _region_max(np.abs(u_N.values - u_2N.values[::2, ::2]),
                       mesh.x, mesh.y, mesh)


def _rates(errors, twice):
    """{key: log2(e_N / e_2N)} over the keys of errors whose 2N key,
    twice(key), is in errors too, with both errors above ZERO_TOL."""
    return {key: math.log2(e / errors[twice(key)])
            for key, e in errors.items()
            if min(e, errors.get(twice(key), 0.0)) > ZERO_TOL}


def error_table(spec, N_list):
    """Double-mesh errors and rates of spec over N_list.

    Returns the tables (errors, rates), N ascending.  The rate at N is
    log2(e_N / e_2N), so it exists only where N_list holds N and 2N and
    both errors are above ZERO_TOL.  Each N is solved once, to
    `linsolve.TOL`, for the errors at N and N/2; one cell,
    error_table(spec, [N]), solves N and 2N in one walk.
    """
    N_list = sorted(set(N_list))
    fields = dict(_solutions(spec, set(N_list) | {2 * n for n in N_list}))
    errors = {(spec.eps, n, region): e for n in N_list
              for region, e in _compare_nested(fields[n],
                                               fields[2 * n]).items()}
    return errors, _rates(errors, lambda key: (key[0], 2 * key[1], key[2]))


def interp_error_study(template, eps, alpha, beta, N_list):
    """Max bilinear-interpolation error of a template, per region.

    For each N: build the Shishkin mesh, sample the template at the
    nodes, and measure max |template - interpolant| over an s x s
    uniform sub-sample of every cell (s = SAMPLES_PER_CELL), each sample
    once, by `_subcell_max`.  The template, an elementwise callable, is
    called on the axes (`on_grid`: a row x[None, :], a column y[:, None]).
    Returns the table of errors; a non-finite error raises ValueError.
    """
    lam_x, lam_y = transition_params(eps, alpha, beta)
    results = {}
    for N in sorted(set(N_list)):
        mesh = build_mesh(N, lam_x, lam_y)
        nodal = on_grid(template, mesh.x, mesh.y)
        for region, e in _subcell_max(mesh, nodal, template).items():
            if not math.isfinite(e):
                raise ValueError(f"interpolation error is not finite "
                                 f"in {region.value} at N = {N}")
            results[eps, N, region] = e
    return results


def mms_convergence(spec, N_list):
    """Max nodal error against the exact solution, with observed rates.

    Returns (errors, rates): errors maps N -> max |u_h - u|, N
    ascending; rates maps N -> log2(e_N / e_2N) where N_list holds N and
    2N and both errors are above ZERO_TOL; other N have no rate.
    """
    if spec.exact is None:
        raise ValueError("spec has no exact solution")
    errors = {}
    for N, uh in _solutions(spec, N_list):
        exact = on_grid(spec.exact, uh.mesh.x, uh.mesh.y)
        errors[N] = float(np.abs(uh.values - exact).max())
    return errors, _rates(errors, lambda n: 2 * n)
