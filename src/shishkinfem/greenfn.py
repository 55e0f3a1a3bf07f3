"""Discrete Green's functions and their L2 / energy norms.

The Green's function for source node (x_m, y_n) is the discrete field
g with A^T g = e_mn over interior nodes, so that for every discrete v,
B_h(v, g) = v(x_m, y_n).  Norm sweeps over (eps, N) probe the scaling
of ||g|| and ||g||_{1,eps} with the source region.  A sweep assembles
the matrices of one eps and their multigrids as forward solves do, once
per matrix, and reuses each multigrid for all its sources.
"""

from typing import NamedTuple

import numpy as np

from .meshgen import Region, transition_params
from .assembly import FeField, assemble_mass
# perfbench/tracer.py wraps these under this module's name.
from .meshgen import build_mesh  # noqa: F401
from .assembly import assemble, assemble_stiffness  # noqa: F401
from .linsolve import solve_transpose
from .errorlab import nested_systems

__all__ = [
    "GreenReport",
    "green_function",
    "fe_l2_norm",
    "fe_energy_norm",
    "default_probes",
    "green_norm_sweep",
]


class GreenReport(NamedTuple):
    """The source node and the norms of one Green's function."""

    source_x: float
    source_y: float
    l2_norm: float
    energy_norm: float


def green_function(A, mesh, source, mg=None):
    """Discrete Green's function for a source at a given interior node.

    source is the grid index (i, j) of an interior node; mg, as in
    `solve_transpose`, is the multigrid of A or None.  Returns the
    FeField, zero on the boundary, of the solve to `linsolve.TOL`.
    """
    i, j = source
    if not (0 < i < mesh.nx - 1 and 0 < j < mesh.ny - 1):
        raise ValueError(f"source node {source} is not an interior node")
    e = np.zeros((mesh.ny - 2, mesh.nx - 2))
    e[j - 1, i - 1] = 1.0
    g, _ = solve_transpose(A, e.ravel(), mg=mg)
    return FeField.from_interior(mesh, g)


def fe_l2_norm(field, M):
    """sqrt(v^T M v) over interior values."""
    v = field.interior_values()
    if M.shape[0] != len(v):
        raise ValueError("mass matrix does not match field")
    return float(np.sqrt(v @ (M @ v)))


def fe_energy_norm(field, M, eps):
    """sqrt(eps |v|_1^2 + v^T M v), with |v|_1^2 = int |grad v|^2.

    |v|_1^2 is summed exactly, cell by cell, from nodal differences: on
    an h x k cell whose bottom and top edges carry the differences a and
    b in x, int v_x^2 = (k/h) (a^2 + b^2 + (a + b)^2) / 6, and likewise
    in y.  Every term is nonnegative, so unlike v^T K v, which cancels
    badly for fields with steep layers, the sum keeps full precision.
    """
    v = field.interior_values()
    if M.shape[0] != len(v):
        raise ValueError("mass matrix does not match field")
    h = field.mesh.x_axis.spacings()
    k = field.mesh.y_axis.spacings()[:, None]
    V = field.values
    dx = np.diff(V, axis=1)
    dy = np.diff(V, axis=0)
    ex = dx[:-1] ** 2 + dx[1:] ** 2 + (dx[:-1] + dx[1:]) ** 2
    ey = dy[:, :-1] ** 2 + dy[:, 1:] ** 2 + (dy[:, :-1] + dy[:, 1:]) ** 2
    grad_sq = (np.sum(ex * (k / h)) + np.sum(ey * (h / k))) / 6.0
    return float(np.sqrt(eps * grad_sq + v @ (M @ v)))


def default_probes(lambda_x, lambda_y):
    """Canonical probe point per region (overridable from the CLI)."""
    return {
        Region.COARSE: (0.5, 0.0),
        Region.LAYER_X: (lambda_x / 2.0, 0.0),
        Region.LAYER_Y: (0.5, 1.0 - lambda_y / 2.0),
        Region.LAYER_XY: (lambda_x / 2.0, 1.0 - lambda_y / 2.0),
    }


def green_norm_sweep(spec_family, eps_list, N_list, probes=None, quad_order=3):
    """Green's-function norms per (eps, N, region).

    spec_family maps eps -> ProblemSpec.  For each run the source is the
    interior node nearest the region's probe point.  probes maps some or
    all regions to a point; the other regions keep each eps's
    `default_probes`.  The matrices of one eps are assembled once each,
    with the multigrids of `errorlab.nested_systems` (N ascending); each
    multigrid serves the solves with A^T, to `linsolve.TOL`, of all four
    sources, and if its setup fails, all four go to splu without trying
    again.  Returns the table {(eps, N, Region): GreenReport}, N
    ascending, as `errorlab.error_table` does.
    """
    reports = {}
    for eps in dict.fromkeys(eps_list):
        spec = spec_family(eps)
        lam = transition_params(eps, spec.alpha, spec.beta)
        probe_map = {**default_probes(*lam), **(probes or {})}
        for N, mesh, A, _, mg in nested_systems(spec, N_list, quad_order,
                                                lam):
            M = assemble_mass(mesh)
            for region, (px, py) in probe_map.items():
                i, j = mesh.nearest_node(px, py)
                g = green_function(A, mesh, (i, j), mg=mg)
                reports[eps, N, region] = GreenReport(
                    float(mesh.x_axis.nodes[i]), float(mesh.y_axis.nodes[j]),
                    fe_l2_norm(g, M), fe_energy_norm(g, M, eps))
    return reports
