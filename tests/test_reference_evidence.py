"""Evidence behind the reference tables of acceptance criteria 2-4.

Criteria 2-4 (tests/test_acceptance.py) compare the double-mesh error
and rate tables of Example 5.1 against frozen values.  This module holds
the two independent checks that decide whether those values can be taken
from this program:

(a) A manufactured solution with exactly the layers the Shishkin mesh is
    built for, an x-layer exp(-alpha sqrt(x^2 + eps^2) / eps) at the
    turning line and y-layers exp(-beta (1 -+ y) / sqrt(eps)), solved at
    eps = 1e-5 and 1e-9.  Its true nodal error must fall with N in every
    region (in the corner region over N = 16..64 as a whole), and the
    double-mesh estimate must stay close to it.
(b) Example 5.1 itself, solved on the same mesh by an upwind
    finite-difference scheme that shares no code with the Q1 solver.  Its
    matrix is an M-matrix, so its solution obeys a discrete maximum
    principle.  The two schemes must agree within their own estimated
    errors, and both bound how large any double-mesh error of Example 5.1
    can be in the x-layer region.

Printed lines (visible with ``pytest -s``) report the measured values.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from shishkinfem.assembly import FeField
from shishkinfem.errorlab import error_table, solve_problem
from shishkinfem.meshgen import (Region, build_mesh, classify_points,
                                 transition_params)
from shishkinfem.problem import ProblemSpec, example_5_1

REGIONS = (Region.COARSE, Region.LAYER_X, Region.LAYER_Y, Region.LAYER_XY)
LAYER_EPS = (1e-5, 1e-9)
LAYER_NS = (16, 32, 64)
CROSS_NS = (128, 256)

# The x-layer double-mesh errors of Example 5.1 that criterion 2 held as
# its reference until they were shown not to belong to that problem
# (test_former_layer_x_references_exceed_the_solution).
FORMER_REF_ERRORS_LAYER_X = {
    1e-5: {16: 1.008e-01, 32: 5.169e-02, 64: 2.684e-02, 128: 1.445e-02},
    1e-6: {16: 1.049e-01, 32: 5.786e-02, 64: 2.875e-02, 128: 1.597e-02},
    1e-7: {16: 1.068e-01, 32: 6.295e-02, 64: 2.978e-02, 128: 1.709e-02},
    1e-8: {16: 1.075e-01, 32: 6.714e-02, 64: 3.158e-02, 128: 1.812e-02},
    1e-9: {16: 1.077e-01, 32: 7.060e-02, 64: 3.449e-02, 128: 1.952e-02},
}


def region_max(mesh, values):
    """Region-wise max |values| over all nodes of mesh; values is an
    (ny, nx) nodal grid."""
    tags = classify_points(mesh.x[None, :], mesh.y[:, None],
                           mesh.lambda_x, mesh.lambda_y)
    return {r: float(np.abs(values[tags == r]).max()) for r in REGIONS}


# ---------------------------------------------------------------------------
# (a) manufactured layer solution
# ---------------------------------------------------------------------------

def layer_problem(eps):
    """Example 5.1's operator with the exact solution

        u = (1 - x^2) (1 + X(x)) (1 - S(y)),
        X = exp(-alpha (sqrt(x^2 + eps^2) - eps) / eps),
        S = (exp(-beta (1 - y) / sqrt(eps)) + exp(-beta (1 + y) / sqrt(eps)))
            / (1 + exp(-2 beta / sqrt(eps))),

    which vanishes on the boundary (S(+-1) = 1) and has the layer widths
    the mesh assumes (alpha = 2, beta = 1).  With P = (1 - x^2)(1 + X) and
    Y = 1 - S, f = L u = -eps P'' Y + beta^2 P S + b1 P' Y + c P Y, using
    -eps Y'' = beta^2 S.
    """
    base = example_5_1(eps)
    alpha, beta = base.alpha, base.beta
    se = math.sqrt(eps)
    denom = 1.0 + np.exp(-2.0 * beta / se)

    def x_layer(x):
        r = np.sqrt(x * x + eps * eps)
        X = np.exp(-alpha * (r - eps) / eps)
        dX = -alpha * x / (eps * r) * X
        d2X = ((alpha * x / (eps * r)) ** 2 - alpha * eps / r ** 3) * X
        return X, dX, d2X

    def y_layer(y):
        return (np.exp(-beta * (1.0 - y) / se)
                + np.exp(-beta * (1.0 + y) / se)) / denom

    def exact(x, y):
        X, _, _ = x_layer(x)
        return (1.0 - x * x) * (1.0 + X) * (1.0 - y_layer(y))

    def f(x, y):
        X, dX, d2X = x_layer(x)
        P = (1.0 - x * x) * (1.0 + X)
        dP = -2.0 * x * (1.0 + X) + (1.0 - x * x) * dX
        d2P = -2.0 * (1.0 + X) - 4.0 * x * dX + (1.0 - x * x) * d2X
        S = y_layer(y)
        Y = 1.0 - S
        return (-eps * d2P * Y + beta ** 2 * P * S
                + base.b1(x, y) * dP * Y + base.c(x, y) * P * Y)

    return ProblemSpec(eps=eps, b1=base.b1, c=base.c, f=f, alpha=alpha,
                       beta=beta, exact=exact)


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_layer_problem_f_matches_operator_finite_differences(eps):
    # apply -eps*Lap + b1*d/dx + c to u with central differences, at points
    # inside the x-layer, the y-layers and the coarse region
    spec = layer_problem(eps)
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-4 * eps, 4 * eps, 20),
                        rng.uniform(-0.9, 0.9, 20)])
    y = np.concatenate([rng.uniform(-0.9, 0.9, 20),
                        rng.choice([-1, 1], 20) * rng.uniform(0.6, 0.99, 20)])
    h = 1e-3 * eps
    k = 1e-4
    u = spec.exact
    lap = ((u(x + h, y) - 2 * u(x, y) + u(x - h, y)) / h ** 2
           + (u(x, y + k) - 2 * u(x, y) + u(x, y - k)) / k ** 2)
    ux = (u(x + h, y) - u(x - h, y)) / (2 * h)
    applied = -eps * lap + spec.b1(x, y) * ux + spec.c(x, y) * u(x, y)
    # f reaches about alpha/eps near x = 0; the differences are accurate to
    # about 1e-6 of that scale, so atol is 5e-6 of it
    np.testing.assert_allclose(applied, spec.f(x, y), rtol=1e-5,
                               atol=1e-5 / eps)


def test_layer_problem_boundary_values():
    spec = layer_problem(1e-9)
    t = np.linspace(-1, 1, 9)
    one = np.ones_like(t)
    for x, y in ((one, t), (-one, t), (t, one), (t, -one)):
        np.testing.assert_array_equal(spec.exact(x, y), 0.0)


@pytest.fixture(scope="module")
def layer_study():
    """Per eps: true nodal errors {N: {region: e}} and the double-mesh
    errors of error_table."""
    out = {}
    for eps in LAYER_EPS:
        spec = layer_problem(eps)
        errors, _ = error_table(spec, LAYER_NS)
        true = {}
        for N in LAYER_NS:
            uh = solve_problem(spec, N)
            X, Y = np.meshgrid(uh.mesh.x, uh.mesh.y)
            true[N] = region_max(uh.mesh, uh.values - spec.exact(X, Y))
        out[eps] = (true, errors)
    return out


def test_layer_true_error_decreases(layer_study):
    # Every region but the corner loses error at each doubling of N.  In
    # the corner region at eps = 1e-9 it rose from 0.299 (N = 32) to 0.351
    # (N = 64).  There the solution peaks at 2 and both layers are still
    # under-resolved: a y-layer cell spans 12 ln(1/eps)/N layer widths
    # (7.8 at N = 32, 3.9 at N = 64).  At N = 64 the corner error is twice
    # the y-layer error (0.173), as that peak makes it; at N = 32, with the
    # x-layer still coarse, it stayed below twice the y-layer error (0.268).
    # The same rise, moved to N = 16 -> 32, appears with 4-point quadrature,
    # and the corner error falls to 0.194 and 0.075 at N = 128 and 256, so
    # the corner is held only to an overall decrease over N = 16..64.
    for eps, (true, _) in layer_study.items():
        for region in REGIONS:
            errs = [true[N][region] for N in LAYER_NS]
            print(f"layer-mms eps={eps:g} {region.value}: true errors "
                  + ", ".join(f"{e:.3e}" for e in errs))
            if region is Region.LAYER_XY:
                assert errs[-1] < errs[0], (eps, region, errs)
            else:
                assert all(a > b for a, b in zip(errs, errs[1:])), \
                    (eps, region, errs)


def test_layer_double_mesh_effectivity(layer_study):
    # Effectivity = double-mesh estimate / true error, per region.  The
    # band is a factor 2 either way: criterion 2 accepts a computed error
    # within a factor 2 of its reference, so the estimator that fills the
    # table must itself be within that factor of the true error.  It is
    # also what the triangle inequality allows for a first-order method
    # (Shishkin meshes give almost first order): the estimate lies between
    # e_N - e_2N >= e_N / 2 and e_N + e_2N <= 2 e_N.  Measured: 0.75-1.25.
    for eps, (true, errors) in layer_study.items():
        for N in LAYER_NS:
            for region in REGIONS:
                eff = errors[eps, N, region] / true[N][region]
                assert 0.5 <= eff <= 2.0, (eps, N, region, eff)


def test_layer_y_true_rate_at_16(layer_study):
    # Criterion 4 once required the N = 16 y-layer double-mesh rate of
    # Example 5.1 to be at most 0.1.  On this mesh the true y-layer error
    # of a solution with exactly the assumed layer already converges
    # faster than that at N = 16 (measured 0.459 at eps = 1e-5 and 0.806
    # at 1e-9), so a rate above 0.1 is no sign of a fault.
    for eps, (true, _) in layer_study.items():
        rate = math.log2(true[16][Region.LAYER_Y] / true[32][Region.LAYER_Y])
        print(f"layer-mms eps={eps:g}: true y-layer rate at N=16 {rate:.3f}")
        assert rate > 0.1, (eps, rate)


# ---------------------------------------------------------------------------
# (b) upwind finite differences for Example 5.1
# ---------------------------------------------------------------------------

def _second_difference(nodes):
    """Three-point d2/dx2 on a nonuniform grid; interior rows and columns."""
    h = np.diff(nodes)
    hl, hr = h[:-1], h[1:]
    w = 2.0 / (hl + hr)
    return sp.diags([(w / hl)[1:], -w / hl - w / hr, (w / hr)[:-1]],
                    [-1, 0, 1])


def _one_sided_differences(nodes):
    """Backward and forward d/dx on a nonuniform grid; interior only."""
    h = np.diff(nodes)
    back = sp.diags([-1.0 / h[1:-1], 1.0 / h[:-1]], [-1, 0])
    fwd = sp.diags([-1.0 / h[1:], 1.0 / h[1:-1]], [0, 1])
    return back, fwd


def fd_upwind(spec, mesh):
    """Upwind finite differences on the nodes of mesh.

    Returns (field, A).  Convection is differenced against the flow
    (backward where b1 > 0, forward where b1 < 0), so every off-diagonal
    entry of A is <= 0 and each row sums to at least c: A is an M-matrix
    and |U| <= max|f| / min c.
    """
    xs, ys = mesh.x, mesh.y
    X, Y = np.meshgrid(xs[1:-1], ys[1:-1])
    x, y = X.ravel(), Y.ravel()
    ix = sp.identity(len(xs) - 2)
    iy = sp.identity(len(ys) - 2)
    back, fwd = _one_sided_differences(xs)
    b1 = spec.b1(x, y)
    A = (-spec.eps * (sp.kron(iy, _second_difference(xs))
                      + sp.kron(_second_difference(ys), ix))
         + sp.diags(np.maximum(b1, 0.0)) @ sp.kron(iy, back)
         + sp.diags(np.minimum(b1, 0.0)) @ sp.kron(iy, fwd)
         + sp.diags(spec.c(x, y))).tocsc()
    # an M-matrix factors without pivoting, which lets the symmetric
    # ordering keep the fill low
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
    return FeField.from_interior(mesh, lu.solve(spec.f(x, y))), A


@pytest.fixture(scope="module")
def cross_check():
    """Per (eps, N): (Q1 field, FD field, FD matrix) for Example 5.1."""
    out = {}
    for eps in LAYER_EPS:
        spec = example_5_1(eps)
        lam = transition_params(eps, spec.alpha, spec.beta)
        for N in CROSS_NS:
            out[eps, N] = (solve_problem(spec, N),
                           *fd_upwind(spec, build_mesh(N, *lam)))
    return out


def test_fd_maximum_principle(cross_check):
    # |f| <= 1/3 (at x = y = 1) and c >= 3, so |u| <= 1/9
    for (eps, N), (_, fd, A) in cross_check.items():
        off = A - sp.diags(A.diagonal())
        assert off.max() <= 0.0
        # rows sum to c >= 3 or more, up to rounding of the 1/h^2 terms
        row_sums = np.asarray(A.sum(axis=1)).ravel()
        assert np.all(row_sums >= 3.0 - 1e-12 * A.diagonal())
        assert np.abs(fd.values).max() <= 1.0 / 9.0, (eps, N)


def test_q1_and_fd_agree_per_region(cross_check):
    # Both schemes approximate u, so at N = 128 their gap is at most
    # e_Q1 + e_FD.  A scheme whose error at least halves from N to 2N has
    # e_N <= (e_N - e_2N) + e_N / 2 <= DM_N + e_N / 2, i.e. e_N <= 2 DM_N,
    # with DM_N its own double-mesh estimate.  Upwind differences are first
    # order, and Q1 at least that, so the bound is 2 (DM_Q1 + DM_FD); the
    # measured gaps are 0.55-0.73 of it.  Both gaps must also shrink from
    # N = 128 to 256.
    for eps in LAYER_EPS:
        (q1, fd, _), (q1_2, fd_2, _) = (cross_check[eps, N] for N in CROSS_NS)
        mesh = q1.mesh
        gap = region_max(mesh, q1.values - fd.values)
        gap_2 = region_max(q1_2.mesh, q1_2.values - fd_2.values)
        dm_q1 = region_max(mesh, q1.values - q1_2.values[::2, ::2])
        dm_fd = region_max(mesh, fd.values - fd_2.values[::2, ::2])
        for region in REGIONS:
            bound = 2.0 * (dm_q1[region] + dm_fd[region])
            print(f"example51 eps={eps:g} {region.value}: |Q1-FD| "
                  f"{gap[region]:.2e} (N=128, bound {bound:.2e}), "
                  f"{gap_2[region]:.2e} (N=256)")
            assert gap[region] <= bound, (eps, region)
            assert gap_2[region] < gap[region], (eps, region)


def test_former_layer_x_references_exceed_the_solution(cross_check):
    # f vanishes on x = 0, so Example 5.1's solution is tiny in the
    # x-layer region: both schemes give max|U| there of order 1e-4 at most.
    # A double-mesh error is |U_N - U_2N|; for a convergent scheme it
    # cannot exceed the solution's own size there many times over, yet the
    # former reference x-layer errors are 0.10 at N = 16 and still 0.014
    # at N = 128.  A factor 10 leaves room for a poor but convergent
    # scheme at N = 16; the measured factor is over 100.
    largest = max(region_max(q1.mesh, v)[Region.LAYER_X]
                  for (eps, N), (q1, fd, _) in cross_check.items()
                  if N == CROSS_NS[-1]
                  for v in (q1.values, fd.values))
    smallest_ref = min(v for row in FORMER_REF_ERRORS_LAYER_X.values()
                       for v in row.values())
    print(f"example51 x-layer max|U| at N=256: {largest:.2e}; smallest "
          f"former reference error {smallest_ref:.3e}")
    assert smallest_ref > 10.0 * largest
