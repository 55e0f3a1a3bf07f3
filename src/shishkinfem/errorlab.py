"""Double-mesh errors, convergence rates, and interpolation studies.

Without an exact solution, errors are estimated by the double-mesh
principle: solve with parameters N and 2N (same transition parameters,
so the meshes are nested) and take region-wise maxima of the nodal
differences at the N-mesh nodes.  The systems of one eps are assembled
once each, from the smallest N up: the multigrid of each matrix uses
the matrix of the nested N/2 mesh, where that one is solved too, as
its coarse level, and each solve at 2N starts from the solution at N.

Every study returns its values as a table: a dict keyed (eps, N,
Region), in (eps, N, Region) order, which is the CSV row order.
"""

import math

import numpy as np

# perfbench/tracer.py wraps classify_points under this module's name.
from .meshgen import (Region, transition_params, build_mesh, region_masks,
                      classify_points)  # noqa: F401
from .assembly import FeField, assemble
from .linsolve import solve, multigrid, coarsens

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


def _grid_corners(grid, i, j):
    """Corner values v00, v10, v01, v11 of grid (ny, nx) for a tensor
    grid of samples, one per cell on each axis, in cells i along x and
    j along y.  Where sample k lies in cell k on an axis, the corners
    along it are slices of grid; otherwise they are gathered."""
    def ends(k):
        if np.array_equal(k, np.arange(len(k))):
            return slice(None, -1), slice(1, None)
        return k, k + 1
    rows, cols = ends(j), ends(i)
    if not isinstance(rows[0], slice) and not isinstance(cols[0], slice):
        rows = tuple(r[:, None] for r in rows)  # outer gather, no row copy
    return tuple(grid[r, c] for r in rows for c in cols)


def _on_grid(func, x, y):
    """Elementwise func on the tensor grid of the axes x and y, as a
    (len(y), len(x)) array.  func gets a row x[None, :] and a column
    y[:, None]; what it returns is broadcast (a read-only view) to the
    grid, so a func that is constant along an axis may keep it at 1."""
    return np.broadcast_to(func(x[None, :], y[:, None]), (len(y), len(x)))


def _region_max(err, x, y, mesh):
    """Max of err (>= 0) on the grid of the axes x and y per region of
    `region_masks`, 0 where empty: over its columns, then its rows."""
    masks = region_masks(x, y, mesh.lambda_x, mesh.lambda_y)
    return {region: float(err.max(axis=1, where=mx, initial=0.0)
                          .max(where=my, initial=0.0))
            for region, (mx, my) in masks.items()}


def nested_systems(spec, N_list, quad_order, lam):
    """Assembled systems of N_list, ascending, on meshes with transition
    parameters lam: yields (N, mesh, A, F, mg), mg = the multigrid of A.

    Where N/2 came just before N (its mesh exists, so with the same lam
    it is nested in N's) and N's interior grid `coarsens`, the coarse
    level of mg is the multigrid of N/2; otherwise `multigrid` forms
    Galerkin coarse levels.  So each N is assembled once, and no mesh
    that N_list does not name.  A level whose setup failed is no coarse
    level: the one above it forms its own.
    """
    prev_N = prev_mg = None
    for N in sorted(set(N_list)):
        mesh = build_mesh(N, *lam)
        shape = (mesh.ny - 2, mesh.nx - 2)
        on_half = prev_N == N // 2 and coarsens(shape)
        A, F = assemble(mesh, spec, quad_order)
        prev_N, prev_mg = N, multigrid(A, shape, prev_mg if on_half else None)
        yield N, mesh, A, F, prev_mg


def _solutions(spec, N_list, quad_order, lam=None):
    """(N, FeField) for each N of N_list, ascending, from one walk of
    `nested_systems`; lam None takes the spec's transition parameters.
    A solve whose coarse level was the previous solve's starts its
    V-cycles from that solution, interpolated."""
    if lam is None:
        lam = transition_params(spec.eps, spec.alpha, spec.beta)
    prev_mg = prev_u = None
    for N, mesh, A, F, mg in nested_systems(spec, N_list, quad_order, lam):
        seeded = mg is not None and prev_mg is not None \
            and mg.coarse is prev_mg
        u, _ = solve(A, F, mg=mg, x0=mg.P @ prev_u if seeded else None)
        prev_mg, prev_u = mg, u
        yield N, FeField.from_interior(mesh, u)


def solve_problem(spec, N, quad_order=3):
    """Build the Shishkin mesh for (spec, N), assemble, and solve.

    The V-cycles of the multigrid of A, whose coarse levels are Galerkin
    operators (no other N is assembled), solve the system; if its setup
    fails, `solve` goes straight to splu.
    """
    (_, u), = _solutions(spec, [N], quad_order)
    return u


def _compare_nested(u_N, u_2N):
    """Region-wise max |U_N - U_2N| at the N-mesh nodes; the meshes must
    be nested (one lam), as those of one `_solutions` walk are."""
    mesh = u_N.mesh
    return _region_max(np.abs(u_N.values - u_2N.values[::2, ::2]),
                       mesh.x, mesh.y, mesh)


def _rates(errors, twice):
    """{key: log2(e_N / e_2N)} over the keys of errors whose 2N key,
    twice(key), is in errors too, with both errors above ZERO_TOL."""
    return {key: math.log2(e / errors[twice(key)])
            for key, e in errors.items()
            if min(e, errors.get(twice(key), 0.0)) > ZERO_TOL}


def error_table(spec_family, eps_list, N_list, quad_order=3):
    """Double-mesh errors and rates over an (eps, N) grid.

    spec_family maps eps -> ProblemSpec.  Returns the tables (errors,
    rates), N ascending.  The rate at N is log2(e_N / e_2N), so it
    exists only where N_list holds N and 2N and both errors are above
    ZERO_TOL.  Each (eps, N) is solved once, to `linsolve.TOL`, for the
    errors at N and N/2; one cell, error_table(lambda eps: spec,
    [spec.eps], [N]), solves N and 2N in one walk.
    """
    errors = {}
    N_list = sorted(set(N_list))
    solve_Ns = set(N_list) | {2 * n for n in N_list}
    for eps in dict.fromkeys(eps_list):
        fields = dict(_solutions(spec_family(eps), solve_Ns, quad_order))
        for n in N_list:
            for region, e in _compare_nested(fields[n],
                                             fields[2 * n]).items():
                errors[eps, n, region] = e
    return errors, _rates(errors, lambda key: (key[0], 2 * key[1], key[2]))


def interp_error_study(template, eps, alpha, beta, N_list):
    """Max bilinear-interpolation error of a template, per region.

    For each N: build the Shishkin mesh, sample the template at the
    nodes, and measure max |template - interpolant| over an s x s
    uniform sub-sample of every cell (s = SAMPLES_PER_CELL).  The
    template is an elementwise numpy callable, always called with a row
    x[None, :] and a column y[:, None] (see `_on_grid`).  The samples of
    one offset form a tensor grid, so cells, local coordinates and
    regions are found per axis, and the template runs on the axes.
    Returns the table of errors; a non-finite error raises ValueError.
    """
    lam_x, lam_y = transition_params(eps, alpha, beta)
    offsets = np.linspace(0.0, 1.0, SAMPLES_PER_CELL)
    results = {}
    for N in sorted(set(N_list)):
        mesh = build_mesh(N, lam_x, lam_y)
        xs, ys = mesh.x, mesh.y
        hx, hy = np.diff(xs), np.diff(ys)
        nodal = _on_grid(template, xs, ys)
        maxima = dict.fromkeys(Region, 0.0)
        for u in offsets:
            px = xs[:-1] + u * hx
            i, s = _locate(xs, px)
            for v in offsets:
                py = ys[:-1] + v * hy
                j, t = _locate(ys, py)
                # unpacked into the call, no corner outlives it
                err = _bilinear(*_grid_corners(nodal, i, j),
                                s[None, :], t[:, None])
                np.subtract(_on_grid(template, px, py), err, out=err)
                np.abs(err, out=err)
                for region, e in _region_max(err, px, py, mesh).items():
                    if not math.isfinite(e):
                        raise ValueError(f"interpolation error is not finite "
                                         f"in {region.value} at N = {N}")
                    maxima[region] = max(maxima[region], e)
        results.update({(eps, N, region): e for region, e in maxima.items()})
    return results


def mms_convergence(spec, N_list, quad_order=3, lam=None):
    """Max nodal error against the exact solution, with observed rates.

    Returns (errors, rates): errors maps N -> max |u_h - u|, N
    ascending; rates maps N -> log2(e_N / e_2N) where N_list holds N and
    2N and both errors are above ZERO_TOL; other N have no rate.
    """
    if spec.exact is None:
        raise ValueError("spec has no exact solution")
    errors = {}
    for N, uh in _solutions(spec, N_list, quad_order, lam):
        exact = _on_grid(spec.exact, uh.mesh.x, uh.mesh.y)
        errors[N] = float(np.abs(uh.values - exact).max())
    return errors, _rates(errors, lambda n: 2 * n)
