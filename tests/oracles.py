"""Independent oracles for the tests: a dense LU, per-cell element
matrices, a scalar region tag, flat node numbering and an analytic
coefficient derivative.

Nothing in the package calls these.  Each computes something the
package computes another way, so the tests can compare the two:
`dense_solve` against the sparse solvers, `element_matrices` and
`local_matrices` (one cell at a time) against the tensor-product
`assemble`, `classify` (one point) against `region_masks`, and the
flat numbering j * nx + i (`flat_index`, `interior_index`,
`node_coords`) against the package's (ny, nx) node grids.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from shishkinfem.assembly import _gauss
from shishkinfem.meshgen import region_masks

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


def quad_rule(order):
    """Tensor Gauss-Legendre rule on the reference square [-1,1]^2.

    Returns (points, weights) with points of shape (order^2, 2); the
    weights sum to 4.
    """
    q, w = _gauss(order)
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
