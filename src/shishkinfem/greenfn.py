"""Discrete Green's functions and their L2 / energy norms.

The Green's function for source node (x_m, y_n) is the discrete field
g with A^T g = e_mn over interior nodes, so that for every discrete v,
B_h(v, g) = v(x_m, y_n).  A norm sweep of one eps over N probes the
scaling of ||g|| and ||g||_{1,eps} with the source region.  It assembles
the matrices and their multigrids once each, as forward solves do; a
worker thread solves the sources of one matrix while the caller
assembles the next, and the caller takes those the worker has not
started.  Two threads share one multigrid: it stores no transfer matrix
nor state between cycles, and splu fallbacks take turns.
"""

import threading
from concurrent import futures
from typing import NamedTuple

import numpy as np

from .meshgen import Region, transition_params
from .assembly import FeField
# perfbench/tracer.py wraps these under this module's name.
from .meshgen import build_mesh  # noqa: F401
from .assembly import (assemble, assemble_mass,  # noqa: F401
                       assemble_stiffness)
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
    e = np.zeros(mesh.interior)
    e[j - 1, i - 1] = 1.0
    g, _ = solve_transpose(A, e.ravel(), mg=mg)
    return FeField.from_interior(mesh, g)


def _edge_sum(a, b):
    """a^2 + b^2 + (a + b)^2: 6 times the mean square, over an interval,
    of the linear function with end values a and b."""
    return a ** 2 + b ** 2 + (a + b) ** 2


def fe_l2_norm(field):
    """sqrt(int v^2) = sqrt(v^T (M_y (x) M_x) v), summed exactly cell by
    cell: on an h x k cell with corner values u, int v^2 is h k / 36 times
    the sum of the nine squares of (L (x) L)^T u, where L^T takes the two
    ends of an interval and their sum (L L^T = [[2, 1], [1, 2]])."""
    h = np.diff(field.mesh.x)
    k = np.diff(field.mesh.y)[:, None]
    lo, hi = field.values[:, :-1], field.values[:, 1:]
    sq = sum(np.sum(_edge_sum(X[:-1], X[1:]) * (h * k))
             for X in (lo, hi, lo + hi))
    return float(np.sqrt(sq / 36.0))


def fe_energy_norm(field, eps):
    """sqrt(eps |v|_1^2 + int v^2), with |v|_1^2 = int |grad v|^2.

    |v|_1^2 is summed exactly, cell by cell, from nodal differences: on
    an h x k cell whose bottom and top edges carry the differences a and
    b in x, int v_x^2 = (k/h) (a^2 + b^2 + (a + b)^2) / 6, and likewise
    in y.  Every term is nonnegative, so unlike v^T K v, which cancels
    badly for fields with steep layers, the sum keeps full precision.
    """
    return _energy_norm(field, eps, fe_l2_norm(field))


def _energy_norm(field, eps, l2):
    """`fe_energy_norm` of field, whose `fe_l2_norm` is l2."""
    h = np.diff(field.mesh.x)
    k = np.diff(field.mesh.y)[:, None]
    dx = np.diff(field.values, axis=1)
    ex = np.sum(_edge_sum(dx[:-1], dx[1:]) * (k / h))
    del dx      # one difference grid at a time
    dy = np.diff(field.values, axis=0)
    ey = np.sum(_edge_sum(dy[:, :-1], dy[:, 1:]) * (h / k))
    return float(np.sqrt(eps * ((ex + ey) / 6.0) + l2 ** 2))


def default_probes(lambda_x, lambda_y):
    """Canonical probe point per region (overridable from the CLI)."""
    return {
        Region.COARSE: (0.5, 0.0),
        Region.LAYER_X: (lambda_x / 2.0, 0.0),
        Region.LAYER_Y: (0.5, 1.0 - lambda_y / 2.0),
        Region.LAYER_XY: (lambda_x / 2.0, 1.0 - lambda_y / 2.0),
    }


def green_norm_sweep(spec, N_list, probes=None):
    """Green's-function norms of spec per (N, region).

    For each run the source is the interior node nearest the region's
    probe point.  probes maps some or all regions to a point; the other
    regions keep the `default_probes` of spec.eps; a non-finite probe
    raises ValueError before any assembly.  The matrices are assembled
    once each, with the multigrids of `errorlab.nested_systems` (N
    ascending); each multigrid serves the solves with A^T, to
    `linsolve.TOL`, of all four sources, and if its setup fails, all
    four go to splu without trying again.  The four sources of a matrix
    go to one worker thread, which solves them while the caller
    assembles and sets up the next matrix; the caller then solves, from
    the last, those the worker has not started.  A source that raises
    ends the sweep with its error, and no queued source starts after it.
    Returns the table {(spec.eps, N, Region): GreenReport}, N ascending.
    """
    lam = transition_params(spec.eps, spec.alpha, spec.beta)
    probe_map = {**default_probes(*lam), **(probes or {})}
    for region, point in probe_map.items():
        if not np.isfinite(point).all():
            raise ValueError(f"{region.value} probe {point} is not finite")
    points = list(probe_map.values())
    reports = {}
    # set when a source fails or the sweep ends: no queued source starts
    stop = threading.Event()

    def submit(N, mesh, A, mg):
        def report(point):
            i, j = mesh.nearest_node(*point)
            g = green_function(A, mesh, (i, j), mg=mg)
            l2 = fe_l2_norm(g)
            return GreenReport(float(mesh.x[i]), float(mesh.y[j]), l2,
                               _energy_norm(g, spec.eps, l2))

        def queued(point):      # a source on the worker
            if stop.is_set():
                raise futures.CancelledError
            try:
                return report(point)
            except BaseException:
                stop.set()
                raise
        return N, report, [worker.submit(queued, p) for p in points]

    def finish(N, report, jobs):
        # from the back, the sources the worker has not started; it takes
        # them in order, so the rest have started or been skipped
        mine = {}
        for n in reversed(range(len(jobs))):
            if stop.is_set() or not jobs[n].cancel():
                break
            mine[n] = report(points[n])
        for n, region in enumerate(probe_map):
            reports[spec.eps, N, region] = mine[n] if n in mine \
                else jobs[n].result()

    worker = futures.ThreadPoolExecutor(1)
    try:
        pending = None
        # the worker solves the sources of one matrix while the next one
        # is assembled and set up here
        for N, mesh, A, F, mg in nested_systems(spec, N_list):
            del F
            latest = submit(N, mesh, A, mg)
            if pending:
                finish(*pending)
            pending = latest
        if pending:
            finish(*pending)
    finally:
        stop.set()
        worker.shutdown(cancel_futures=True)
    return reports
