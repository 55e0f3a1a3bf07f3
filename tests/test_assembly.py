import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from shishkinfem import assembly
from shishkinfem.meshgen import TensorMesh, build_mesh, transition_params
from shishkinfem.problem import ProblemSpec, example_5_1, mms_problem
from shishkinfem.assembly import (FeField, assemble, assemble_mass,
                                  assemble_stiffness)

from oracles import (dense_solve, element_matrices, flat_index,
                     interior_index, local_matrices, node_coords, quad_rule)


def constant_spec(eps=1.0, b1=0.0, c=1.0, f=1.0):
    return ProblemSpec(
        eps=eps,
        b1=lambda x, y: np.full_like(np.asarray(x, dtype=float), b1),
        c=lambda x, y: np.full_like(np.asarray(x, dtype=float), c),
        f=lambda x, y: np.full_like(np.asarray(x, dtype=float), f),
        alpha=1.0, beta=1.0)


def _cell_arrays(mesh):
    """Row-major cell geometry arrays and corner flat indices."""
    xs = mesh.x
    ys = mesh.y
    hx = np.diff(xs)
    hy = np.diff(ys)
    X0, Y0 = np.meshgrid(xs[:-1], ys[:-1])
    H, K = np.meshgrid(hx, hy)
    I, J = np.meshgrid(np.arange(mesh.nx - 1), np.arange(mesh.ny - 1))
    i = I.ravel()
    j = J.ravel()
    corners = np.column_stack([
        flat_index(mesh, i, j),
        flat_index(mesh, i + 1, j),
        flat_index(mesh, i + 1, j + 1),
        flat_index(mesh, i, j + 1),
    ])
    return X0.ravel(), Y0.ravel(), H.ravel(), K.ravel(), corners


def _scatter(mesh, local, corners):
    """Scatter (ncells,4,4) local matrices to an interior-node CSR matrix."""
    idx = interior_index(mesh)
    loc = idx[corners]                     # (ncells, 4), -1 on boundary
    rows = np.repeat(loc, 4, axis=1).ravel()
    cols = np.tile(loc, (1, 4)).ravel()
    vals = local.reshape(len(corners), 16).ravel()  # row-outer (i, j) order
    keep = (rows >= 0) & (cols >= 0)
    n = np.prod(mesh.interior)
    A = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n))
    A = A.tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def cell_by_cell_assemble(mesh, spec):
    """Oracle: per-cell local matrices (`element_matrices`' quadrature,
    of spec.quad_order), scattered through COO."""
    x0, y0, h, k, corners = _cell_arrays(mesh)
    diff, conv, reac, load = local_matrices(x0, y0, h, k, spec,
                                            spec.quad_order)
    A = _scatter(mesh, diff + conv + reac, corners)
    loc = interior_index(mesh)[corners]
    F = np.zeros(np.prod(mesh.interior))
    keep = loc >= 0
    np.add.at(F, loc[keep], load[keep])
    return A, F


def uniform_mesh(n, lo=-1.0, hi=1.0):
    nodes = np.linspace(lo, hi, n + 1)
    return TensorMesh(nodes, nodes, 0.5, 0.25)


class TestQuadRule:
    def test_midpoint(self):
        pts, wts = quad_rule(1)
        np.testing.assert_allclose(pts, [[0.0, 0.0]])
        np.testing.assert_allclose(wts, [4.0])

    def test_two_point(self):
        pts, wts = quad_rule(2)
        g = 1 / np.sqrt(3)
        assert sorted(map(tuple, np.round(pts, 12))) == sorted(
            [(round(sx * g, 12), round(sy * g, 12))
             for sx in (-1, 1) for sy in (-1, 1)])
        np.testing.assert_allclose(wts, 1.0)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_weights_sum_to_4(self, order):
        _, wts = quad_rule(order)
        assert wts.sum() == pytest.approx(4.0, abs=1e-14)

    def test_bad_order(self):
        # the order is checked where it is set: on the problem
        spec = example_5_1(1e-4)
        for order in (0, 5):
            with pytest.raises(ValueError, match="quadrature order"):
                ProblemSpec(spec.eps, spec.b1, spec.c, spec.f, 2.0, 1.0,
                            quad_order=order)
            with pytest.raises(ValueError, match="quadrature order"):
                dataclasses.replace(spec, quad_order=order)


class TestElementMatrices:
    def test_unit_cell_closed_forms(self):
        d, c, r, f = element_matrices((0, 0, 1, 1), constant_spec(), 2)
        np.testing.assert_allclose(np.diag(d), 2 / 3, atol=1e-14)
        np.testing.assert_allclose(np.diag(r), 1 / 9, atol=1e-14)
        assert r[0, 1] == pytest.approx(1 / 18)
        assert r[1, 2] == pytest.approx(1 / 18)

    def test_convection_annihilates_constants(self):
        # sum over trial functions is identically 1, so d/dx of it vanishes
        _, c, _, _ = element_matrices((0, 0, 1, 1), constant_spec(b1=1.0), 3)
        np.testing.assert_allclose(c @ np.ones(4), 0.0, atol=1e-14)

    def test_unit_load(self):
        _, _, _, f = element_matrices((0, 0, 1, 1),
                                      constant_spec(eps=1e-30, c=0.0), 2)
        np.testing.assert_allclose(f, 0.25, atol=1e-14)

    def test_degenerate_cell(self):
        with pytest.raises(ValueError):
            element_matrices((0, 0, 0.0, 1), constant_spec(), 2)


class TestAssemble:
    def test_stencil_width(self):
        mesh = build_mesh(8, 0.1, 0.2)
        A, _ = assemble(mesh, example_5_1(1e-3))
        row_nnz = np.diff(A.indptr)
        assert row_nnz.max() <= 9

    def test_symmetric_without_convection(self):
        mesh = uniform_mesh(6)
        A, _ = assemble(mesh, constant_spec(eps=0.5, c=2.0))
        asym = abs(A - A.T).max()
        assert asym <= 1e-12 * abs(A).max()

    def test_mms_tiny_solve(self):
        spec = mms_problem(1.0)
        mesh = build_mesh(4, 0.5, 0.25)
        A, F = assemble(mesh, spec)
        u = dense_solve(A, F)
        field = FeField.from_interior(mesh, u)
        coords = node_coords(mesh)
        err = np.abs(field.values.ravel()
                     - spec.exact(coords[:, 0], coords[:, 1]))
        assert err.max() <= 0.3

    def test_quadrature_convergence(self):
        # Gauss error falls like h^6; N=32 keeps every cell small enough
        # for the 3-point and 4-point rules to agree to 1e-8 relative
        mesh = build_mesh(32, *transition_params(1e-4, 2.0, 1.0))
        spec = example_5_1(1e-4)
        A3, _ = assemble(mesh, spec)
        A4, _ = assemble(mesh, dataclasses.replace(spec, quad_order=4))
        assert abs(A3 - A4).max() <= 1e-8 * abs(A4).max()

    def test_transient_memory_bounded_by_result(self):
        # arrays on the quadrature grid are freed after their last use:
        # the peak is 3.6 times the bytes of (A, F) at N = 64, and it
        # was 8.1 times while every one of them lived to the end
        mesh = build_mesh(64, *transition_params(1e-7, 2.0, 1.0))
        spec = example_5_1(1e-7)
        tracemalloc.start()
        try:
            A, F = assemble(mesh, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + F.nbytes
        assert peak <= 5 * result

    def test_csr_from_stencil_without_copies(self):
        # the element arrays of a block of node rows go straight into A's
        # CSR arrays: the peak is 2.06 times the CSR's bytes at N = 128;
        # it was 2.52 times through one DIA array of the whole interior,
        # and 3.7 times when a stencil over the whole node grid, its
        # interior, its diagonals and their DIA form were copies
        mesh = build_mesh(128, *transition_params(1e-6, 2.0, 1.0))
        spec = example_5_1(1e-6)
        tracemalloc.start()
        try:
            A, _ = assemble(mesh, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * (A.data.nbytes + A.indices.nbytes
                              + A.indptr.nbytes)


class TestTensorAssembly:
    @pytest.mark.parametrize("N", [4, 8, 16, 32])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("make_spec", [example_5_1, mms_problem])
    def test_matches_cell_by_cell_oracle(self, N, order, make_spec):
        spec = dataclasses.replace(make_spec(1e-6), quad_order=order)
        mesh = build_mesh(N, *transition_params(spec.eps, spec.alpha,
                                                spec.beta))
        A, F = assemble(mesh, spec)
        A0, F0 = cell_by_cell_assemble(mesh, spec)
        assert A.shape == A0.shape
        for a, a0 in ((A.indptr, A0.indptr), (A.indices, A0.indices)):
            assert a.dtype == a0.dtype
            np.testing.assert_array_equal(a, a0)
        assert abs(A - A0).max() <= 1e-13 * abs(A0).max()
        assert np.abs(F - F0).max() <= 1e-13 * np.abs(F0).max()

    @pytest.mark.parametrize("cells", [1, 3 * 64, 2 ** 30])
    def test_blocks_do_not_change_the_bits(self, cells, monkeypatch):
        # blocks of one node row, of three and of the whole interior: each
        # block recomputes the cell row it shares with the next, so every
        # entry of A adds the same terms in the same order
        mesh = build_mesh(32, *transition_params(1e-6, 2.0, 1.0))
        spec = mms_problem(1e-6)
        A0, F0 = assemble(mesh, spec)
        monkeypatch.setattr(assembly, "BLOCK_CELLS", cells)
        A, F = assemble(mesh, spec)
        for a, a0 in ((A.data, A0.data), (A.indices, A0.indices),
                      (A.indptr, A0.indptr), (F, F0)):
            assert a.dtype == a0.dtype and np.array_equal(a, a0)

    def test_each_coefficient_called_once(self):
        calls = []

        def counted(name, fn):
            def wrapper(x, y):
                calls.append(name)
                return fn(x, y)
            return wrapper

        spec = example_5_1(1e-6)
        spec = dataclasses.replace(spec, b1=counted("b1", spec.b1),
                                   c=counted("c", spec.c),
                                   f=counted("f", spec.f))
        assemble(build_mesh(16, *transition_params(1e-6, 2.0, 1.0)), spec)
        assert sorted(calls) == ["b1", "c", "f"]

    @pytest.mark.parametrize("order", [1, 3])
    def test_coefficients_called_on_the_axes(self, order):
        # x is the (1, 1, ni, q) axis and y the (nj, q, 1, 1) axis of
        # Gauss points, never the broadcast grid
        shapes = {}

        def recorded(name, fn):
            def wrapper(x, y):
                shapes[name] = (np.shape(x), np.shape(y))
                return fn(x, y)
            return wrapper

        spec = example_5_1(1e-6)
        spec = dataclasses.replace(spec, b1=recorded("b1", spec.b1),
                                   c=recorded("c", spec.c),
                                   f=recorded("f", spec.f), quad_order=order)
        mesh = build_mesh(16, *transition_params(1e-6, 2.0, 1.0))
        assemble(mesh, spec)
        ni, nj = mesh.nx - 1, mesh.ny - 1
        assert sorted(shapes) == ["b1", "c", "f"]
        for x_shape, y_shape in shapes.values():
            assert np.prod(x_shape) == ni * order and x_shape[:2] == (1, 1)
            assert np.prod(y_shape) == nj * order and y_shape[-2:] == (1, 1)

    @pytest.mark.parametrize("nx", [2, 3, 4, 5])
    @pytest.mark.parametrize("ny", [2, 3, 4])
    def test_small_meshes_match_oracle(self, nx, ny):
        # below three interior nodes per x-line two couplings share a
        # stencil diagonal, one x-line leaves diagonals past the matrix,
        # and no interior node leaves the matrix empty
        mesh = TensorMesh(np.linspace(-1.0, 1.0, nx),
                          np.linspace(-1.0, 1.0, ny), 0.5, 0.25)
        spec = example_5_1(1e-3)
        A, F = assemble(mesh, spec)
        A0, F0 = cell_by_cell_assemble(mesh, spec)
        assert A.shape == A0.shape
        np.testing.assert_array_equal(A.indptr, A0.indptr)
        np.testing.assert_array_equal(A.indices, A0.indices)
        gap = np.abs(A.toarray() - A0.toarray()).max(initial=0.0)
        assert gap <= 1e-13 * np.abs(A0.toarray()).max(initial=0.0)
        np.testing.assert_allclose(F, F0, rtol=1e-13, atol=1e-16)

    def test_nan_load_names_coefficient(self):
        def f(x, y):
            out = np.zeros(np.broadcast(x, y).shape)
            out.flat[7] = np.nan
            return out

        spec = dataclasses.replace(example_5_1(1e-6), f=f)
        with pytest.raises(ValueError,
                           match="f is not finite at 1 quadrature point$"):
            assemble(build_mesh(8, 0.1, 0.2), spec)

    def test_infinite_convection_counted(self):
        def b1(x, y):
            return np.where(x > 0.9, np.inf, 0.0)

        spec = dataclasses.replace(example_5_1(1e-6), b1=b1)
        with pytest.raises(ValueError, match=r"b1 is not finite at \d+ "
                                             r"quadrature points"):
            assemble(build_mesh(8, 0.1, 0.2), spec)


class TestMassStiffness:
    def test_mass_diagonal_uniform(self):
        mesh = uniform_mesh(4, 0.0, 4.0)  # unit cells
        M = assemble_mass(mesh)
        np.testing.assert_allclose(M.diagonal(), 4 / 9, atol=1e-14)

    def test_mass_against_quadrature_oracle(self):
        # v^T M v = int v_h^2; the integrand is biquadratic per cell, so a
        # per-cell 2x2 Gauss rule applied to point evaluations is an exact
        # independent oracle
        mesh = build_mesh(8, 0.1, 0.2)
        M = assemble_mass(mesh)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(np.prod(mesh.interior))
        field = FeField.from_interior(mesh, v)
        from shishkinfem.errorlab import bilinear_interp
        xs, ys = mesh.x, mesh.y
        q, w = np.polynomial.legendre.leggauss(2)
        total = 0.0
        for i in range(len(xs) - 1):
            for j in range(len(ys) - 1):
                hx = xs[i + 1] - xs[i]
                hy = ys[j + 1] - ys[j]
                px = xs[i] + hx * (q + 1) / 2
                py = ys[j] + hy * (q + 1) / 2
                X, Y = np.meshgrid(px, py)
                vals = bilinear_interp(field, np.column_stack([X.ravel(),
                                                               Y.ravel()]))
                W = np.outer(w, w).ravel() * hx * hy / 4
                total += (W * vals ** 2).sum()
        assert v @ (M @ v) == pytest.approx(total, abs=1e-10)

    def test_stiffness_against_analytic_patch(self):
        # interpolant of x*y on a uniform mesh: v^T K v = int |grad(xy)|^2
        # over the interior support, up to the boundary-cell truncation;
        # use the exact bilinear interpolant energy instead: for u = xy the
        # interpolant is exact, so v^T K v = int_{[-1,1]^2} (x^2+y^2) = 8/3
        # minus nothing only if boundary dofs were present; restrict to a
        # field supported on one interior patch instead.
        mesh = uniform_mesh(8)
        K = assemble_stiffness(mesh)
        X, Y = np.meshgrid(mesh.x, mesh.y)
        # zero out everything outside the central 2x2-cell patch
        inside = (np.abs(X) <= 0.25 + 1e-12) & (np.abs(Y) <= 0.25 + 1e-12)
        vals = np.where(inside, X * Y, 0.0)
        field = FeField(mesh=mesh, values=vals)
        v = field.values[1:-1, 1:-1].ravel()
        # independent oracle: high-order quadrature of |grad I(v)|^2 per cell
        energy = 0.0
        xs = mesh.x
        h = xs[1] - xs[0]
        grid = field.values
        q, w = np.polynomial.legendre.leggauss(4)
        for i in range(len(xs) - 1):
            for j in range(len(xs) - 1):
                c00, c10 = grid[j, i], grid[j, i + 1]
                c01, c11 = grid[j + 1, i], grid[j + 1, i + 1]
                for qa, wa in zip(q, w):
                    for qb, wb in zip(q, w):
                        s, t = (qa + 1) / 2, (qb + 1) / 2
                        gx = ((1 - t) * (c10 - c00) + t * (c11 - c01)) / h
                        gy = ((1 - s) * (c01 - c00) + s * (c11 - c10)) / h
                        energy += wa * wb * (h * h / 4) * (gx ** 2 + gy ** 2)
        assert v @ (K @ v) == pytest.approx(energy, abs=1e-10)


    @pytest.mark.parametrize("N", [4, 8])
    def test_kronecker_matches_quadrature(self, N):
        # the tensor-product M and K against cell-by-cell 2x2 Gauss
        # assembly, which is exact for both bilinear integrands
        mesh = build_mesh(N, *transition_params(1e-6, 2.0, 1.0))
        x0, y0, h, k, corners = _cell_arrays(mesh)
        diff, _, reac, _ = local_matrices(
            x0, y0, h, k, constant_spec(eps=1.0, b1=0.0, c=1.0, f=0.0), 2)
        for new, old in ((assemble_mass(mesh), _scatter(mesh, reac, corners)),
                         (assemble_stiffness(mesh),
                          _scatter(mesh, diff, corners))):
            assert new.shape == old.shape
            assert abs(new - old).max() <= 1e-13 * abs(old).max()


class TestInterior:
    # the unknowns are the interior block of the node grid, in the one
    # shape that meshgen names: A, F and from_interior all follow it
    @pytest.mark.parametrize("N", [4, 8, 12])
    def test_shape_of_the_unknowns(self, N):
        mesh = build_mesh(N, 0.1, 0.2)
        assert mesh.interior == (mesh.ny - 2, mesh.nx - 2)
        assert mesh.interior == (N - 1, 2 * N - 1)
        n = np.prod(mesh.interior)
        A, F = assemble(mesh, constant_spec())
        assert A.shape == (n, n) and F.shape == (n,)
        u = np.random.default_rng(N).standard_normal(n)
        field = FeField.from_interior(mesh, u)
        assert np.array_equal(field.values[1:-1, 1:-1].ravel(), u)


class TestFeField:
    def test_boundary_zero(self):
        mesh = build_mesh(4, 0.1, 0.2)
        v = np.arange(1.0, np.prod(mesh.interior) + 1)
        field = FeField.from_interior(mesh, v)
        assert field.values.shape == (mesh.ny, mesh.nx)
        idx = interior_index(mesh)
        flat = field.values.ravel()
        np.testing.assert_allclose(flat[idx < 0], 0.0)
        np.testing.assert_array_equal(flat[idx >= 0], v)
        np.testing.assert_array_equal(field.values[1:-1, 1:-1].ravel(), v)

    def test_length_mismatch(self):
        # values live on the (ny, nx) grid: a flat vector of every node,
        # or the grid transposed, is rejected like a short one
        mesh = build_mesh(4, 0.1, 0.2)
        for values in (np.ones(3), np.ones(mesh.nx * mesh.ny),
                       np.ones((mesh.nx, mesh.ny))):
            with pytest.raises(ValueError):
                FeField(mesh=mesh, values=values)
