"""Bilinear (Q1) Galerkin assembly on tensor meshes.

Produces CSR matrices over interior nodes only: homogeneous Dirichlet
rows and columns are dropped when the matrix is built (boundary data
is zero, so elimination is exact).  `assemble` works on the tensor
structure of the mesh, one axis at a time.  The order of every sum is
fixed, so assembled values are reproducible.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshgen import TensorMesh
from .problem import on_grid

__all__ = [
    "FeField",
    "assemble",
    "assemble_mass",
    "assemble_stiffness",
]

# Cells in a block of `assemble`, about: 1.5 MiB for its element arrays.
BLOCK_CELLS = 2 ** 12


@dataclass
class FeField:
    """Nodal-valued finite element function on the (ny, nx) node grid;
    boundary entries are zero."""

    mesh: TensorMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.ny, self.mesh.nx):
            raise ValueError(f"values have shape {self.values.shape}, not "
                             f"(ny, nx) = {(self.mesh.ny, self.mesh.nx)}")

    @classmethod
    def from_interior(cls, mesh, interior_values):
        inner = np.reshape(interior_values, mesh.interior)
        return cls(mesh=mesh, values=np.pad(inner, 1))


def _axis_points(nodes, g):
    """Gauss points of every interval of an axis's nodes, shape
    (len(nodes) - 1, q); also returns the interval lengths."""
    h = np.diff(nodes)
    return nodes[:-1, None] + 0.5 * h[:, None] * (1.0 + g), h


def _coefficient(name, fn, xq, yq):
    """fn on the grid of the Gauss-point axes xq (ni, q) and yq (nj, q),
    by `on_grid`: x (1, 1, ni, q) and y (nj, q, 1, 1), broadcast to
    (cell j, point b, cell i, point a) and checked to be finite."""
    vals = on_grid(fn, xq, yq)
    bad = np.count_nonzero(~np.isfinite(vals))
    if bad:
        points = "point" if bad == 1 else "points"
        raise ValueError(f"{name} is not finite at {bad} quadrature {points}")
    return vals


def _reach(lo, hi, m, t, s):
    """Test nodes u, lo <= u < hi, of an axis with m interior nodes whose
    local node t's cell has its node s interior too, as a slice from lo,
    and those cells, as a slice from cell lo (cell u + 1 - t holds u as t)."""
    a, b = max(lo, t - s), min(hi, m + t - s)
    return slice(a - lo, b - lo), slice(a - lo + 1 - t, b - lo + 1 - t)


def assemble(mesh, spec):
    """Assemble the discrete operator and load vector over interior nodes.

    A[i, j] = eps (grad phi_j, grad phi_i) + (b1 d(phi_j)/dx, phi_i)
              + (c phi_j, phi_i),  F[i] = (f, phi_i).

    Uses spec.quad_order Gauss-Legendre points per axis on every cell (the
    default 3 under-integrates an f with eps-wide layers at small N): f,
    b1 and c are called once each on the axes of Gauss points, and the Q1
    shape functions (products of 1D hats) act one axis at a time.  f is
    contracted per block of about BLOCK_CELLS cells, so no product is
    large enough for BLAS to take a second thread; A is formed per block
    of whole interior node rows, about BLOCK_CELLS cells, and written
    straight into its CSR arrays, without its zeros.
    Raises ValueError if a coefficient is not finite at a quadrature point.
    """
    g, w = np.polynomial.legendre.leggauss(spec.quad_order)
    q = len(g)
    xq, h = _axis_points(mesh.x, g)
    yq, k = _axis_points(mesh.y, g)
    nj, ni = len(k), len(h)
    # 1D tables at the Gauss points, local node t (test) and s (trial):
    # hat functions L_t = (1 +- g) / 2 with derivatives dL_s = +-1/2
    side = np.array([-1.0, 1.0])
    hat = 0.5 * (1.0 + np.outer(g, side))
    dhat = 0.5 * side
    mass = (w[:, None, None] * hat[:, :, None] * hat[:, None, :]).reshape(q, 4)
    conv = (w[:, None, None] * hat[:, :, None] * dhat).reshape(q, 4)
    load = w[:, None] * hat
    mass_1d = mass.sum(axis=0)
    stiff_1d = w.sum() * np.outer(dhat, dhat).ravel()
    # the diffusion's y and x factors, (nj, 4) and (ni, 4), per term
    diffusion = ((np.multiply.outer(0.5 * k, mass_1d),
                  np.multiply.outer(2.0 / h, stiff_1d)),
                 (np.multiply.outer(2.0 / k, stiff_1d),
                  np.multiply.outer(0.5 * h, mass_1d)))
    my, mx = mesh.interior
    n = my * mx

    # x direction first, then y; jac = (h/2)(k/2), d/dx = (2/h) d/dxi.
    # f is contracted per block of cell rows, and its grid is freed
    # before b1 and c are called.
    step = max(1, BLOCK_CELLS // ni)    # cell rows a block
    f = _coefficient("f", spec.f, xq, yq)
    fl = np.empty((nj, 2, ni * 2))
    for j0 in range(0, nj, step):
        j = slice(j0, j0 + step)
        fx = (f[j].reshape(-1, q) @ load).reshape(-1, q, ni, 2)
        fx *= (0.5 * h)[:, None]
        fl[j] = load.T @ fx.reshape(-1, q, ni * 2)
    del f, fx
    fl *= (0.5 * k)[:, None, None]
    fl = fl.reshape(nj, 2, ni, 2)                 # (j, ty, i, tx)
    F = np.zeros((my, mx))
    for ty, tx in np.ndindex(2, 2):
        (uy, cy), (ux, cx) = (_reach(0, my, my, ty, ty),
                              _reach(0, mx, mx, tx, tx))
        F[uy, ux] += fl[cy, ty, cx, tx]
    del fl

    b1 = _coefficient("b1", spec.b1, xq, yq)
    c = _coefficient("c", spec.c, xq, yq)
    # nine entries a row, offsets dy * mx + dx, (dy, dx) row-major, so in
    # column order; those of no interior node (zero, their column any
    # node) and any other zero are eliminated once all rows are written
    offsets = np.add.outer(np.arange(-1, 2) * mx, np.arange(-1, 2)).ravel()
    data = np.zeros((n, 3, 3))
    indices = np.empty((n, 9), dtype=np.int32)
    for r0 in range(0, my, step):       # step node rows a block
        # node rows r0 to r1 - 1 take cell rows r0 to r1; the next block
        # recomputes cell row r1, so each entry sums its terms in order
        r1 = min(r0 + step, my)
        j = slice(r0, r1 + 1)
        ax = (c[j].reshape(-1, q) @ mass).reshape(-1, q, ni, 4)
        ax *= (0.5 * h)[:, None]
        ax += (b1[j].reshape(-1, q) @ conv).reshape(-1, q, ni, 4)
        local = mass.T @ ax.reshape(len(ax), q, ni * 4)
        del ax
        local *= (0.5 * k[j])[:, None, None]
        local = local.reshape(-1, 4, ni, 4)
        for ky, kx in diffusion:
            term = np.multiply.outer(ky[j], kx)
            term *= spec.eps
            local += term
            del term
        local = local.reshape(-1, 2, 2, ni, 2, 2)  # (j, ty, sy, i, tx, sx)
        rows = data[r0 * mx:r1 * mx].reshape(r1 - r0, mx, 3, 3)
        for ty, tx, sy, sx in np.ndindex(2, 2, 2, 2):
            (uy, cy), (ux, cx) = (_reach(r0, r1, my, ty, sy),
                                  _reach(0, mx, mx, tx, sx))
            rows[uy, ux, sy - ty + 1, sx - tx + 1] += \
                local[cy, ty, sy, cx, tx, sx]
        del local
        cols = indices[r0 * mx:r1 * mx]
        np.add.outer(np.arange(r0 * mx, r1 * mx), offsets, out=cols,
                     casting="unsafe")
        np.clip(cols, 0, n - 1, out=cols)
    A = sp.csr_matrix((data.ravel(), indices.ravel(),
                       np.arange(0, 9 * n + 1, 9)), shape=(n, n))
    A.eliminate_zeros()
    return A, F.ravel()


def _axis_matrices(nodes):
    """1D P1 mass and stiffness matrices over the interior nodes of an axis."""
    h = np.diff(nodes)
    off = h[1:-1]
    mass = sp.diags([off / 6.0, (h[:-1] + h[1:]) / 3.0, off / 6.0], [-1, 0, 1])
    stiff = sp.diags([-1.0 / off, 1.0 / h[:-1] + 1.0 / h[1:], -1.0 / off],
                     [-1, 0, 1])
    return mass, stiff


def assemble_mass(mesh):
    """Interior-node mass matrix M[i,j] = (phi_j, phi_i), exactly.

    Q1 on a tensor mesh gives M = M_y (x) M_x, with x varying fastest
    as in the interior numbering.
    """
    mx, _ = _axis_matrices(mesh.x)
    my, _ = _axis_matrices(mesh.y)
    return sp.kron(my, mx, format="csr")


def assemble_stiffness(mesh):
    """Interior-node stiffness K[i,j] = (grad phi_j, grad phi_i), exactly.

    K = M_y (x) K_x + K_y (x) M_x on the tensor mesh.
    """
    mx, kx = _axis_matrices(mesh.x)
    my, ky = _axis_matrices(mesh.y)
    return (sp.kron(my, kx) + sp.kron(ky, mx)).tocsr()
