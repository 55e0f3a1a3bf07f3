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


def _reach(m, t, s):
    """Cells of an axis with m interior nodes whose local test node t and
    trial node s are both interior, and those trial nodes: two slices."""
    lo, hi = max(0, s - t), m + min(0, s - t)
    return slice(lo + 1 - s, hi + 1 - s), slice(lo, hi)


def assemble(mesh, spec):
    """Assemble the discrete operator and load vector over interior nodes.

    A[i, j] = eps (grad phi_j, grad phi_i) + (b1 d(phi_j)/dx, phi_i)
              + (c phi_j, phi_i),  F[i] = (f, phi_i).

    Uses spec.quad_order Gauss-Legendre points per axis on every cell (the
    default 3 under-integrates an f with eps-wide layers at small N): b1,
    c and f are called once each on the axes of Gauss points, and the Q1
    shape functions (products of 1D hats) act one axis at a time.
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

    b1 = _coefficient("b1", spec.b1, xq, yq)
    c = _coefficient("c", spec.c, xq, yq)

    # x direction first, then y; jac = (h/2)(k/2), d/dx = (2/h) d/dxi.
    # Each array is freed after its last use and products are formed in
    # place, so few arrays of the quadrature grid's size live at once.
    ax = (c.reshape(-1, q) @ mass).reshape(nj, q, ni, 4)
    del c
    ax *= (0.5 * h)[:, None]
    ax += (b1.reshape(-1, q) @ conv).reshape(nj, q, ni, 4)
    del b1
    local = mass.T @ ax.reshape(nj, q, ni * 4)
    del ax
    local *= (0.5 * k)[:, None, None]
    local = local.reshape(nj, 4, ni, 4)
    for ky, kx in ((np.multiply.outer(0.5 * k, mass_1d),
                    np.multiply.outer(2.0 / h, stiff_1d)),
                   (np.multiply.outer(2.0 / k, stiff_1d),
                    np.multiply.outer(0.5 * h, mass_1d))):
        diffusion = np.multiply.outer(ky, kx)
        diffusion *= spec.eps
        local += diffusion
        del diffusion
    local = local.reshape(nj, 2, 2, ni, 2, 2)     # (j, ty, sy, i, tx, sx)
    f = _coefficient("f", spec.f, xq, yq)
    fx = (f.reshape(-1, q) @ load).reshape(nj, q, ni, 2)
    del f
    fx *= (0.5 * h)[:, None]
    fl = load.T @ fx.reshape(nj, q, ni * 2)
    del fx
    fl *= (0.5 * k)[:, None, None]
    fl = fl.reshape(nj, 2, ni, 2)                 # (j, ty, i, tx)

    # one DIA data row per diagonal dy * mx + dx of the interior
    # numbering, indexed by the trial node u; where mx < 3 two (dy, dx)
    # share a diagonal, at distinct trial nodes
    my, mx = mesh.interior
    n = my * mx
    keys, slot = np.unique(np.add.outer(np.arange(-1, 2) * mx,
                                        np.arange(-1, 2)), return_inverse=True)
    slot = slot.reshape(3, 3)
    data = np.zeros((len(keys), my, mx))
    F = np.zeros((my, mx))
    for ty, tx in np.ndindex(2, 2):
        (cy, uy), (cx, ux) = _reach(my, ty, ty), _reach(mx, tx, tx)
        F[uy, ux] += fl[cy, ty, cx, tx]
        for sy, sx in np.ndindex(2, 2):
            (cy, uy), (cx, ux) = _reach(my, ty, sy), _reach(mx, tx, sx)
            data[slot[sy - ty + 1, sx - tx + 1], uy, ux] += \
                local[cy, ty, sy, cx, tx, sx]
    del local, fl
    return sp.dia_matrix((data.reshape(len(keys), n), keys),
                         shape=(n, n)).tocsr(), F.ravel()


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
