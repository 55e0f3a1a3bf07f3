"""Independent oracles for the tests: a dense LU, per-cell element
matrices, a scalar region tag, the whole-grid sub-cell error kernel,
flat node numbering, an analytic coefficient derivative, the matrix
test of a multigrid level, the multigrid interpolation matrix and a spy
on the multigrid setups and solves of a sweep.

Nothing in the package calls these.  Each oracle computes something
the package computes another way, so the tests can compare the two:
`dense_solve` against the sparse solvers, `element_matrices` and
`local_matrices` (one cell at a time) against the tensor-product
`assemble`, `built_from` (a level set up anew) against a level of a
`multigrid`, which keeps no matrix, `interpolation` (a sparse matrix,
filled column by column) against the strided grid transfers of
`linsolve`, `classify` (one point) against
`region_masks`, `subcell_max` (every cell row at once) against the
row blocks of `errorlab._subcell_max`, and the flat numbering
j * nx + i (`flat_index`, `interior_index`, `node_coords`) against the
package's (ny, nx) node grids.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from shishkinfem import errorlab
from shishkinfem.errorlab import _region_max, _samples
from shishkinfem.linsolve import multigrid
from shishkinfem.meshgen import Region, region_masks
from shishkinfem.problem import on_grid

DENSE_LIMIT = 2000

# Reference-square corner signs, counterclockwise from (-1,-1).
_XI = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA = np.array([-1.0, -1.0, 1.0, 1.0])


def dense_solve(A, b):
    """Dense LU oracle; only for small systems."""
    A = sp.csr_matrix(A)
    if A.shape[0] > DENSE_LIMIT:
        raise ValueError(
            f"dense oracle limited to {DENSE_LIMIT} unknowns, got {A.shape[0]}")
    return scipy.linalg.solve(A.toarray(), b)


def built_from(level, A):
    """Whether a `multigrid` level was set up from the matrix A: its
    cycle on a fixed random vector equals, bit for bit, that of
    multigrid(A, level.shape, coarse=level.coarse)."""
    v = np.random.default_rng(0).standard_normal(np.prod(level.shape))
    return np.array_equal(level.solve(v), multigrid(
        A, level.shape, coarse=level.coarse).solve(v))


def interpolation(shape):
    """The multigrid interpolation P = P_y (x) P_x, CSR, from the
    (my // 2, mx // 2) to the (my, mx) interior grid: along an axis,
    coarse node k is fine node 2k + 1 and gives half its value to fine
    nodes 2k and 2k + 2."""
    def axis(m):
        P = np.zeros((m, m // 2))
        for k in range(m // 2):
            P[2 * k:2 * k + 3, k] = 0.5, 1.0, 0.5
        return sp.csr_matrix(P)
    return sp.kron(axis(shape[0]), axis(shape[1]), format="csr")


def record_solves(monkeypatch, module, name):
    """Wrap `errorlab.multigrid` and the solve function `module.name`.
    Returns (setups, methods): one (A, shape, coarse, mg) per multigrid
    setup and one report method per solve.  Each solve must use the
    matrix and the multigrid of one setup, its own matrix's; a later
    matrix may have been set up meanwhile."""
    setups, methods = [], []
    multigrid, solve = errorlab.multigrid, getattr(module, name)

    def recording_multigrid(A, shape, coarse=None):
        mg = multigrid(A, shape, coarse)
        setups.append((A, shape, coarse, mg))
        return mg

    def recording_solve(A, b, **kwargs):
        assert any(A is a and kwargs["mg"] is mg for a, _, _, mg in setups)
        x, report = solve(A, b, **kwargs)
        methods.append(report.method)
        return x, report

    monkeypatch.setattr(errorlab, "multigrid", recording_multigrid)
    monkeypatch.setattr(module, name, recording_solve)
    return setups, methods


def quad_rule(order):
    """Tensor Gauss-Legendre rule on the reference square [-1,1]^2.

    Returns (points, weights) with points of shape (order^2, 2); the
    weights sum to 4.
    """
    q, w = np.polynomial.legendre.leggauss(order)
    pts = np.array([(qi, qj) for qj in q for qi in q])
    wts = np.array([wi * wj for wj in w for wi in w])
    return pts, wts


def _shape(xi, eta):
    """Q1 shape functions and reference-space derivatives at one point."""
    n = 0.25 * (1.0 + _XI * xi) * (1.0 + _ETA * eta)
    dxi = 0.25 * _XI * (1.0 + _ETA * eta)
    deta = 0.25 * _ETA * (1.0 + _XI * xi)
    return n, dxi, deta


def local_matrices(x0, y0, h, k, spec, quad_order):
    """Local matrices for a batch of cells.

    x0, y0, h, k are arrays of shape (ncells,).  Returns
    (diffusion, convection, reaction, load) with shapes
    (ncells,4,4) x3 and (ncells,4).  Diffusion is scaled by spec.eps.
    """
    pts, wts = quad_rule(quad_order)
    nc = len(x0)
    diff = np.zeros((nc, 4, 4))
    conv = np.zeros((nc, 4, 4))
    reac = np.zeros((nc, 4, 4))
    load = np.zeros((nc, 4))
    jac = 0.25 * h * k
    inv_h2 = (2.0 / h) ** 2
    inv_k2 = (2.0 / k) ** 2
    for (xi, eta), w in zip(pts, wts):
        n, dxi, deta = _shape(xi, eta)
        xq = x0 + 0.5 * h * (1.0 + xi)
        yq = y0 + 0.5 * k * (1.0 + eta)
        wj = w * jac
        # grad-grad: (2/h)^2 dxi_i dxi_j + (2/k)^2 deta_i deta_j
        gx = np.outer(dxi, dxi)
        gy = np.outer(deta, deta)
        diff += spec.eps * (wj * inv_h2)[:, None, None] * gx \
            + spec.eps * (wj * inv_k2)[:, None, None] * gy
        b1q = wj * spec.b1(xq, yq)
        cq = wj * spec.c(xq, yq)
        fq = wj * spec.f(xq, yq)
        # convection: b1 * dphi_j/dx * phi_i; dphi/dx = (2/h) dxi
        dx_j = np.outer(n, dxi)            # (i, j) -> phi_i dxi_j
        conv += (b1q * 2.0 / h)[:, None, None] * dx_j
        reac += cq[:, None, None] * np.outer(n, n)
        load += fq[:, None] * n
    return diff, conv, reac, load


def element_matrices(cell, spec, quad_order=3):
    """Local 4x4 matrices and load vector for one rectangular cell.

    cell = (x0, y0, h, k); local node order is counterclockwise from
    (x0, y0).
    """
    x0, y0, h, k = cell
    if h <= 0.0 or k <= 0.0:
        raise ValueError(f"degenerate cell: h={h}, k={k}")
    d, c, r, f = local_matrices(
        np.array([x0]), np.array([y0]), np.array([h]), np.array([k]),
        spec, quad_order)
    return d[0], c[0], r[0], f[0]


def classify(x, y, lambda_x, lambda_y):
    """Region tag of a point of the closed domain [-1,1]^2.

    Points on a transition line belong to the layer region (closed-layer
    tie-break), as `region_masks` defines.
    """
    masks = region_masks(x, y, lambda_x, lambda_y)
    return next(region for region, (mx, my) in masks.items() if mx & my)


def subcell_max(mesh, nodal, func):
    """`errorlab._subcell_max` on the whole mesh at once: the same
    samples and order of operations, with each cell difference, the x
    part and the error held as a grid over every cell."""
    v00 = nodal[:-1, :-1]
    dx, dy = nodal[:-1, 1:] - v00, nodal[1:, :-1] - v00
    dxy = nodal[1:, 1:] - nodal[:-1, 1:] - nodal[1:, :-1] + v00
    bufs = np.empty((3,) + dx.shape)
    y_samples = list(_samples(mesh.y))
    maxima = []
    for px, cols, s in _samples(mesh.x):
        pu, dyc, dxyc = bufs[0, :, :len(px)], dy[:, cols], dxy[:, cols]
        np.multiply(s, dx[:, cols], out=pu)
        pu += v00[:, cols]
        for py, rows, t in y_samples:
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


def flat_index(mesh, i, j):
    """Flat number of node (i, j): row-major in y, x fastest."""
    return j * mesh.nx + i


def interior_index(mesh):
    """Map flat node number -> index among the unknowns, -1 on the
    boundary; the unknowns are the interior nodes in flat order."""
    i = np.tile(np.arange(mesh.nx), mesh.ny)
    j = np.repeat(np.arange(mesh.ny), mesh.nx)
    inside = (i > 0) & (i < mesh.nx - 1) & (j > 0) & (j < mesh.ny - 1)
    idx = np.full(mesh.nx * mesh.ny, -1)
    idx[inside] = np.arange(np.count_nonzero(inside))
    return idx


def node_coords(mesh):
    """(nx * ny, 2) node coordinates in flat order."""
    xs, ys = mesh.x, mesh.y
    return np.array([(x, y) for y in ys for x in xs])


def example_5_1_db1_dx(x, y):
    """Analytic d(b1)/dx for the benchmark problem."""
    return -(3.0 * x * x + (1.0 + x * y) * np.exp(1.0 + x * y))
