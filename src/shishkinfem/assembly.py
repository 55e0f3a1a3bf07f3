"""Bilinear (Q1) Galerkin assembly on tensor meshes.

Produces CSR matrices over interior nodes only: homogeneous Dirichlet
rows and columns are eliminated during scatter (boundary data is zero,
so elimination is exact).  Cells are processed in a fixed row-major
order so assembled values are reproducible.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshgen import TensorMesh

__all__ = [
    "FeField",
    "quad_rule",
    "element_matrices",
    "assemble",
    "assemble_mass",
    "assemble_stiffness",
]

# Reference-square corner signs, counterclockwise from (-1,-1).
_XI = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA = np.array([-1.0, -1.0, 1.0, 1.0])


@dataclass
class FeField:
    """Nodal-valued finite element function; boundary entries are zero."""

    mesh: TensorMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.mesh.n_nodes:
            raise ValueError("values length does not match node count")

    @classmethod
    def from_interior(cls, mesh, interior_values):
        values = np.zeros(mesh.n_nodes)
        values[mesh.interior_mask()] = interior_values
        return cls(mesh=mesh, values=values)

    def interior_values(self):
        return self.values[self.mesh.interior_mask()]

    def grid(self):
        """values reshaped to (ny, nx)."""
        return self.values.reshape(self.mesh.ny, self.mesh.nx)


def quad_rule(order):
    """Tensor Gauss-Legendre rule on the reference square [-1,1]^2.

    Returns (points, weights) with points of shape (order^2, 2); the
    weights sum to 4.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"quadrature order must be in 1..4, got {order}")
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


def _local_matrices(x0, y0, h, k, spec, quad_order):
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
    d, c, r, f = _local_matrices(
        np.array([x0]), np.array([y0]), np.array([h]), np.array([k]),
        spec, quad_order)
    return d[0], c[0], r[0], f[0]


def _cell_arrays(mesh):
    """Row-major cell geometry arrays and corner flat indices."""
    xs = mesh.x_axis.nodes
    ys = mesh.y_axis.nodes
    hx = np.diff(xs)
    hy = np.diff(ys)
    X0, Y0 = np.meshgrid(xs[:-1], ys[:-1])
    H, K = np.meshgrid(hx, hy)
    I, J = np.meshgrid(np.arange(mesh.nx - 1), np.arange(mesh.ny - 1))
    i = I.ravel()
    j = J.ravel()
    corners = np.column_stack([
        mesh.flat_index(i, j),
        mesh.flat_index(i + 1, j),
        mesh.flat_index(i + 1, j + 1),
        mesh.flat_index(i, j + 1),
    ])
    return X0.ravel(), Y0.ravel(), H.ravel(), K.ravel(), corners


def _scatter(mesh, local, corners):
    """Scatter (ncells,4,4) local matrices to an interior-node CSR matrix."""
    idx = mesh.interior_index()
    loc = idx[corners]                     # (ncells, 4), -1 on boundary
    rows = np.repeat(loc, 4, axis=1).ravel()
    cols = np.tile(loc, (1, 4)).ravel()
    vals = local.reshape(len(corners), 16).ravel()  # row-outer (i, j) order
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.n_interior
    A = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n))
    A = A.tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def assemble(mesh, spec, quad_order=3):
    """Assemble the discrete operator and load vector over interior nodes.

    A[i, j] = eps (grad phi_j, grad phi_i) + (b1 d(phi_j)/dx, phi_i)
              + (c phi_j, phi_i),  F[i] = (f, phi_i).
    """
    x0, y0, h, k, corners = _cell_arrays(mesh)
    diff, conv, reac, load = _local_matrices(x0, y0, h, k, spec, quad_order)
    A = _scatter(mesh, diff + conv + reac, corners)
    idx = mesh.interior_index()
    loc = idx[corners]
    F = np.zeros(mesh.n_interior)
    keep = loc >= 0
    np.add.at(F, loc[keep], load[keep])
    return A, F


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
    mx, _ = _axis_matrices(mesh.x_axis.nodes)
    my, _ = _axis_matrices(mesh.y_axis.nodes)
    return sp.kron(my, mx, format="csr")


def assemble_stiffness(mesh):
    """Interior-node stiffness K[i,j] = (grad phi_j, grad phi_i), exactly.

    K = M_y (x) K_x + K_y (x) M_x on the tensor mesh.
    """
    mx, kx = _axis_matrices(mesh.x_axis.nodes)
    my, ky = _axis_matrices(mesh.y_axis.nodes)
    return (sp.kron(my, kx) + sp.kron(ky, mx)).tocsr()
