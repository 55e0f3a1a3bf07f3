import logging
import os
import re
import types

import numpy as np
import pytest
import scipy.sparse as sp

from shishkinfem import linsolve

from shishkinfem.meshgen import build_mesh, transition_params
from shishkinfem.problem import ProblemSpec, example_5_1, mms_problem
from shishkinfem.assembly import FeField, assemble
from shishkinfem.errorlab import bilinear_interp, nested_systems
from shishkinfem.linsolve import (solve, solve_transpose, multigrid,
                                  SolveError)

from oracles import dense_solve

# the identity as a "multigrid", for matrices with no grid
IDENTITY_MG = types.SimpleNamespace(solve=lambda r, trans="N": r, levels=[])


def stalled_multigrid(value):
    """A stand-in multigrid whose cycle returns `value` everywhere (0 or
    NaN), so no cycle reaches TOL; `calls` counts its cycles."""
    def solve(r, trans="N"):
        mg.calls += 1
        return np.full_like(r, value)
    mg = types.SimpleNamespace(solve=solve, levels=[], calls=0)
    return mg


def system(eps, N, lam=None):
    """(mesh, A, F, interior grid shape) of example 5.1, or of the mms
    problem when eps is 1 (on the uniform mesh lam = (1/2, 1/4))."""
    spec = mms_problem(1.0) if eps == 1.0 else example_5_1(eps)
    lam = lam or transition_params(eps, 2.0, 1.0)
    mesh = build_mesh(N, *lam)
    A, F = assemble(mesh, spec, 3)
    return mesh, A, F, (mesh.ny - 2, mesh.nx - 2)


def nested_multigrid(eps, N, lam=None):
    """The multigrid of `system(eps, N, lam)`'s matrix whose coarse
    levels are the matrices of the nested meshes, as errorlab sets it up
    for a row that solves 16, 32, ..., N."""
    spec = mms_problem(1.0) if eps == 1.0 else example_5_1(eps)
    lam = lam or transition_params(eps, 2.0, 1.0)
    row = [n for n in (16, 32, 64, 128) if n <= N]
    *_, (_, _, _, _, mg) = nested_systems(spec, row, 3, lam)
    return mg


def failing_dgttrf(error):
    """A stand-in for LAPACK dgttrf that raises `error`, or reports a
    singular line block when error is None; `calls` counts its calls."""
    def dgttrf(dl, d, du):
        dgttrf.calls += 1
        if error is not None:
            raise error
        return dl, d, du, du[:-1], np.zeros(len(d), dtype=np.int32), 3
    dgttrf.calls = 0
    return dgttrf


class TestSolve:
    def test_identity(self):
        A = sp.eye(5, format="csr")
        b = np.arange(5.0)
        x, report = solve(A, b)
        np.testing.assert_allclose(x, b, atol=1e-12)
        assert report.relative_residual <= 1e-10

    def test_hand_eliminated_2x2(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        x, _ = solve(A, np.array([3.0, 5.0]))
        np.testing.assert_allclose(x, [0.8, 1.4], atol=1e-10)

    def test_mms_residual(self):
        spec = mms_problem(1.0)
        mesh = build_mesh(8, 0.5, 0.25)
        A, F = assemble(mesh, spec, 3)
        x, report = solve(A, F)
        # recompute independently of the report
        res = np.linalg.norm(F - A @ x) / np.linalg.norm(F)
        assert res <= 1e-10
        dense = dense_solve(A, F)
        np.testing.assert_allclose(x, dense, rtol=1e-8, atol=1e-14)

    def test_zero_rhs(self):
        A = sp.eye(4, format="csr")
        x, report = solve(A, np.zeros(4))
        np.testing.assert_allclose(x, 0.0)
        assert report.method == "trivial"

    def test_nonconvergence_raises(self):
        # singular system with incompatible rhs cannot reach any tolerance
        A = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(SolveError) as info:
            solve(A, np.array([1.0, 2.0]))
        assert info.value.best_residual > 1e-10

    def test_singular_splu_raises_solve_error(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(SolveError, match="tried splu,"):
            solve(A, np.array([1.0, 2.0]))

    # the name dates from the GMRES the V-cycle iteration replaced
    def test_singular_tries_gmres_then_splu_only(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(SolveError) as info:
            solve(A, np.array([1.0, 2.0]), mg=IDENTITY_MG)
        assert "tried mg and splu," in str(info.value)

    @pytest.mark.parametrize("A, b", [(sp.csr_matrix(np.ones((2, 3))),
                                       np.ones(2)),
                                      (sp.eye(3, format="csr"), np.ones(2))],
                             ids=["non-square", "wrong-length-b"])
    def test_shape_mismatch_rejected(self, A, b):
        with pytest.raises(ValueError, match="square and match b"):
            solve(A, b)

    def test_splu_out_of_memory_raises_solve_error(self, monkeypatch):
        # the cycles leave x = 0 (residual 1); splu then runs out of
        # memory: SolveError, carrying the cycles' residual as its best
        _, A, F, _ = system(1e-6, 32)

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(linsolve.spla, "splu", no_memory)
        with pytest.raises(SolveError, match="best residual 1.000e") as info:
            solve(A, F, mg=stalled_multigrid(0.0))
        assert info.value.best_residual == 1.0


class TestSpluMemoryCheck:
    def test_over_the_limit_raises_before_factoring(self, monkeypatch):
        _, A, F, _ = system(1e-6, 32)
        calls = []
        monkeypatch.setattr(linsolve, "SPLU_MEMORY_SHARE", 1e-12)
        monkeypatch.setattr(linsolve.spla, "splu", calls.append)
        need = linsolve._splu_bytes(len(F), A.nnz)
        with pytest.raises(SolveError, match=re.escape(
                f"splu of n = {len(F)} would need about {need:.3g} bytes")):
            solve(A, F, mg=None)
        assert calls == []

    @pytest.mark.parametrize("N", [32, 64, 128])
    def test_estimate_covers_the_factors(self, N):
        # 8 bytes of value and 4 of row index per entry of L and U
        _, A, _, _ = system(1e-7, N)
        lu = linsolve.spla.splu(A.tocsc())
        assert 12 * (lu.L.nnz + lu.U.nnz) \
            <= linsolve._splu_bytes(A.shape[0], A.nnz)

    def test_fallbacks_up_to_256_factor(self):
        # the estimate grows with n and nnz, so N = 256 bounds N < 256
        _, A, _, _ = system(1e-7, 256)
        limit = linsolve.SPLU_MEMORY_SHARE * os.sysconf("SC_PHYS_PAGES") \
            * os.sysconf("SC_PAGE_SIZE")
        assert linsolve._splu_bytes(A.shape[0], A.nnz) < limit


class TestFallbackLogging:
    @pytest.mark.parametrize("error", [MemoryError(), None],
                             ids=["out-of-memory", "singular-line"])
    def test_multigrid_setup_failure_logged(self, error, monkeypatch, caplog):
        _, A, F, shape = system(1e-6, 32)
        monkeypatch.setattr(linsolve.lapack, "dgttrf", failing_dgttrf(error))
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            mg = multigrid(A, shape)
            x, report = solve(A, F, mg=mg)
        assert mg is None
        assert report.method == "splu"
        np.testing.assert_allclose(x, solve(A, F)[0], rtol=0.0, atol=0.0)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert messages[0].startswith("multigrid setup failed")
        assert ("MemoryError" if error else "singular x-line") in messages[0]

    def test_singular_line_names_its_node(self, caplog):
        # a zero diagonal whose x-neighbours do not couple to it makes a
        # zero column in its line block: the pivot vanishes at that node,
        # here in an odd row of a grid that coarsens
        _, A, _, shape = system(1e-6, 32)
        assert shape == (31, 63) and linsolve.coarsens(shape)
        k = 5 * shape[1] + 10
        A = A.tolil()
        A[k, k] = A[k - 1, k] = A[k + 1, k] = 0.0
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            assert multigrid(A.tocsr(), shape) is None
        [message] = [r.getMessage() for r in caplog.records]
        assert message.startswith("multigrid setup failed")
        assert ("zero pivot in the odd rows at interior node "
                "(row 5, column 10)") in message

    def test_splu_residual_above_tol_raises(self, monkeypatch, caplog):
        # a factorization whose solve is wrong: x = b for A = 2 I leaves
        # relative residual 1, one WARNING, then SolveError
        wrong = types.SimpleNamespace(solve=lambda b, trans="N": b.copy())
        monkeypatch.setattr(linsolve.spla, "splu", lambda A: wrong)
        A = 2.0 * sp.eye(4, format="csr")
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            with pytest.raises(SolveError, match="best residual 1.000e"):
                solve(A, np.arange(1.0, 5.0))
        assert [r.getMessage() for r in caplog.records] == \
            [f"splu residual 1.000e+00 above TOL {linsolve.TOL:g}"]

    # the name dates from the GMRES the V-cycle iteration replaced
    def test_gmres_miss_logged(self, caplog):
        _, A, F, _ = system(1e-6, 32)
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            _, report = solve(A, F, mg=stalled_multigrid(0.0))
        assert report.method == "splu"
        assert any("multigrid stopped" in r.getMessage()
                   for r in caplog.records)

    @pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
    def test_stalled_cycles_hand_over_to_splu(self, value, caplog):
        # no stall heuristic: exactly MAX_CYCLES cycles, one WARNING, and
        # a NaN residual is never accepted
        _, A, F, _ = system(1e-6, 32)
        mg = stalled_multigrid(value)
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            x, report = solve(A, F, mg=mg)
        assert mg.calls == linsolve.MAX_CYCLES
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [f"multigrid stopped after {linsolve.MAX_CYCLES} "
                            f"cycles, residual "
                            f"{1.0 if value == 0.0 else np.nan:.3e}"]
        assert report.method == "splu"
        np.testing.assert_array_equal(x, solve(A, F)[0])

    def test_converged_solve_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            solve(sp.eye(5, format="csr"), np.arange(5.0))
        assert caplog.records == []

    def test_accepted_solve_logged_at_debug(self, caplog):
        _, A, F, shape = system(1e-6, 32)
        mg = multigrid(A, shape)
        with caplog.at_level(logging.DEBUG, logger="shishkinfem.linsolve"):
            _, report = solve(A, F, mg=mg)
            _, direct = solve(A, F)
        first, second = [r.getMessage() for r in caplog.records]
        assert first == (f"mg: n 1953, levels 2, {report.iterations} "
                         f"iterations, residual "
                         f"{report.relative_residual:.3e}")
        assert second.startswith("splu: n 1953, levels 0, 1 iterations")
        assert direct.method == "splu"


class TestPrebuiltIlu:
    # named for the ILU a caller could build once and pass in; the
    # multigrid took its place and these tests keep their names
    def test_same_bits_as_factoring_inside(self):
        # one multigrid serves both directions and many right-hand sides
        _, A, F, shape = system(1e-4, 32)
        shared = multigrid(A, shape)
        e = np.zeros(A.shape[0])
        e[3] = 1.0
        for b, run in ((F, solve), (e, solve_transpose), (F, solve)):
            x1, r1 = run(A, b, mg=shared)
            x2, r2 = run(A, b, mg=multigrid(A, shape))
            assert r1 == r2 and r1.method == "mg"
            assert np.array_equal(x1, x2)

    def test_failed_factor_falls_back(self, monkeypatch):
        _, A, _, shape = system(1e-4, 32)
        monkeypatch.setattr(linsolve.lapack, "dgttrf",
                            failing_dgttrf(MemoryError()))
        mg = multigrid(A, shape)
        assert mg is None
        e = np.zeros(A.shape[0])
        e[0] = 1.0
        g, report = solve_transpose(A, e, mg=mg)
        assert report.method == "splu"
        assert report.relative_residual <= 1e-10

    def test_coarsest_splu_failure_gives_no_multigrid(self, monkeypatch):
        _, A, _, shape = system(1e-4, 16)

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(linsolve.spla, "splu", singular)
        assert multigrid(A, shape) is None

    def test_grid_must_match(self):
        _, A, _, (my, mx) = system(1e-4, 16)
        with pytest.raises(ValueError, match="interior grid"):
            multigrid(A, (my + 1, mx))


class TestMultigrid:
    def test_coarsening_stops_at_even_counts_or_small_levels(self):
        _, A, _, shape = system(1e-6, 64)
        assert [level.shape for level in multigrid(A, shape).levels] == \
            [(63, 127), (31, 63), (15, 31)]
        _, A, _, shape = system(1e-6, 16)
        assert len(multigrid(A, shape).levels) == 1   # n = 465: splu only
        # an even count stops coarsening whatever the size
        A = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(1200, 1200))
        assert len(multigrid(A, (4, 300)).levels) == 1

    @pytest.mark.parametrize("eps", [1e-2, 1e-6])
    def test_coarse_operators_are_galerkin(self, eps):
        _, A, _, shape = system(eps, 64)
        levels = multigrid(A, shape).levels
        assert abs(levels[0].A - A).max() == 0.0
        for fine, coarse in zip(levels[:-1], levels[1:]):
            galerkin = fine.P.T @ fine.A @ fine.P
            assert abs(coarse.A - galerkin).max() == 0.0
            assert coarse.A.shape == (np.prod(coarse.shape),) * 2

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-9])
    def test_interpolation_is_bilinear_on_nested_meshes(self, eps):
        # P takes a field of the N/2 mesh to the fine N mesh as its
        # piecewise-bilinear extension does, at every fine node; only
        # the rounding of node coordinates in cells of width ~1e-9
        # moves the local coordinates off 1/2 (3.3e-13 at eps = 1e-6)
        lam = transition_params(eps, 2.0, 1.0)
        fine, A, _, shape = system(eps, 32)
        coarse = build_mesh(16, *lam)
        v = np.random.default_rng(5).standard_normal(coarse.n_interior)
        P = multigrid(A, shape).levels[0].P
        X, Y = np.meshgrid(fine.x[1:-1], fine.y[1:-1])
        expect = bilinear_interp(FeField.from_interior(coarse, v),
                                 np.column_stack([X.ravel(), Y.ravel()]))
        np.testing.assert_allclose(P @ v, expect, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("eps", [1e-3, 1e-8])
    def test_transposed_cycle_is_the_cycle_of_the_transpose(self, eps):
        _, A, _, shape = system(eps, 64)
        r = np.random.default_rng(2).standard_normal(A.shape[0])
        got = multigrid(A, shape).solve(r, "T")
        want = multigrid(A.T.tocsr(), shape).solve(r)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # and it is not the forward cycle
        forward = multigrid(A, shape).solve(r)
        assert np.linalg.norm(forward - want) > 1e-3 * np.linalg.norm(want)

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-9])
    @pytest.mark.parametrize("N", [16, 32])
    def test_galerkin_of_the_fine_matrix_is_the_coarse_matrix(self, eps, N):
        # b1 = -x and c = 1 make every integrand a polynomial the 3-point
        # Gauss rule integrates exactly, and the N mesh's Q1 space is a
        # subspace of the 2N mesh's, so P^T A_2N P = A_N up to rounding
        spec = ProblemSpec(eps=eps, b1=lambda x, y: -x,
                           c=lambda x, y: np.ones_like(x),
                           f=lambda x, y: np.ones_like(x),
                           alpha=2.0, beta=1.0)
        lam = transition_params(eps, 2.0, 1.0)
        fine = build_mesh(2 * N, *lam)
        A_2N, _ = assemble(fine, spec, 3)
        A_N, _ = assemble(build_mesh(N, *lam), spec, 3)
        P = multigrid(A_2N, (fine.ny - 2, fine.nx - 2)).P
        gap = abs(P.T @ A_2N @ P - A_N).max()
        assert gap <= 1e-13 * abs(A_N).max()
        # a coarse mesh of another eps is caught
        A_other, _ = assemble(build_mesh(N, *transition_params(
            10 * eps, 2.0, 1.0)), spec, 3)
        assert abs(P.T @ A_2N @ P - A_other).max() > 1e-6 * abs(A_N).max()

    def test_coarse_level_must_be_the_coarsened_grid(self):
        _, A, _, shape = system(1e-6, 64)
        _, A32, _, shape32 = system(1e-6, 32)
        _, A16, _, shape16 = system(1e-6, 16)
        with pytest.raises(ValueError, match="not the coarsening"):
            multigrid(A, shape, coarse=multigrid(A16, shape16))
        # a grid that does not coarsen takes no coarse level
        with pytest.raises(ValueError, match="not the coarsening"):
            multigrid(A16, shape16, coarse=multigrid(A16, shape16))
        coarse = multigrid(A32, shape32)
        mg = multigrid(A, shape, coarse=coarse)
        assert mg.coarse is coarse and mg.levels[1:] == coarse.levels

    # the names date from the GMRES the V-cycle iteration replaced; they
    # bound its cycles
    @pytest.mark.parametrize("N", [16, 32, 64, 128])
    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-3, 1e-5, 1e-9])
    def test_gmres_iterations_bounded(self, eps, N):
        lam = (0.5, 0.25) if eps == 1.0 else None
        _, A, F, shape = system(eps, N, lam)
        assert_iterations_bounded(A, F, shape, multigrid(A, shape))

    @pytest.mark.parametrize("N", [16, 32, 64, 128])
    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-3, 1e-5, 1e-9])
    def test_gmres_iterations_bounded_on_nested_levels(self, eps, N):
        lam = (0.5, 0.25) if eps == 1.0 else None
        _, A, F, shape = system(eps, N, lam)
        assert_iterations_bounded(A, F, shape, nested_multigrid(eps, N, lam))


def assert_iterations_bounded(A, F, shape, mg):
    """The V-cycles of mg reach 1e-10 within 25 cycles for F and for a
    point source of A^T."""
    e = np.zeros(shape)
    e[shape[0] // 2, shape[1] // 3] = 1.0
    for run, b, op in ((solve, F, A), (solve_transpose, e.ravel(), A.T)):
        x, report = run(A, b, mg=mg)
        assert report.method == "mg"
        assert report.iterations <= 25
        res = np.linalg.norm(b - op @ x) / np.linalg.norm(b)
        assert res <= 1e-10


class TestInitialGuess:
    def test_exact_guess_takes_at_most_one_iteration(self):
        _, A, F, shape = system(1e-6, 64)
        mg = multigrid(A, shape)
        x, cold = solve(A, F, mg=mg)
        again, warm = solve(A, F, mg=mg, x0=x)
        assert cold.iterations > 1
        assert warm.iterations <= 1 and warm.method == "mg"
        assert np.linalg.norm(F - A @ again) <= 1e-10 * np.linalg.norm(F)

    def test_wrong_length_rejected(self):
        _, A, F, shape = system(1e-6, 16)
        with pytest.raises(ValueError, match="x0"):
            solve(A, F, mg=multigrid(A, shape), x0=np.zeros(len(F) - 1))
        with pytest.raises(ValueError, match="x0"):
            solve(A, F, x0=np.zeros((len(F), 1)))

    def test_splu_ignores_guess(self):
        _, A, F, _ = system(1e-6, 16)
        x, report = solve(A, F)
        guessed, guessed_report = solve(A, F, x0=np.full(len(F), 1e3))
        assert report == guessed_report and report.method == "splu"
        assert np.array_equal(x, guessed)


class TestSolveTranspose:
    def test_symmetric_matches_solve(self):
        A = sp.csr_matrix(np.array([[4.0, 1.0, 0.0],
                                    [1.0, 3.0, 1.0],
                                    [0.0, 1.0, 5.0]]))
        b = np.array([1.0, 2.0, 3.0])
        x1, _ = solve(A, b)
        x2, _ = solve_transpose(A, b)
        np.testing.assert_allclose(x1, x2, atol=1e-12)

    def test_zero_rhs(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]))
        g, _ = solve_transpose(A, np.zeros(2))
        np.testing.assert_allclose(g, 0.0)

    def test_against_dense_lu(self):
        spec = example_5_1(0.1)
        mesh = build_mesh(4, *transition_params(0.1, 2.0, 1.0))
        A, _ = assemble(mesh, spec, 3)
        e = np.zeros(A.shape[0])
        e[A.shape[0] // 2] = 1.0
        g, _ = solve_transpose(A, e)
        g_dense = dense_solve(sp.csr_matrix(A).T.tocsr(), e)
        np.testing.assert_allclose(g, g_dense, rtol=1e-8, atol=1e-14)


class TestSparseVsDense:
    @pytest.mark.parametrize("N", [4, 8])
    @pytest.mark.parametrize("eps", [1e-2, 1e-6])
    def test_agreement(self, N, eps):
        spec = example_5_1(eps)
        mesh = build_mesh(N, *transition_params(eps, 2.0, 1.0))
        A, F = assemble(mesh, spec, 3)
        assert A.shape[0] <= 2000
        x_sparse, report = solve(A, F)
        assert report.method == "splu"
        x_dense = dense_solve(A, F)
        denom = np.linalg.norm(x_dense)
        assert np.linalg.norm(x_sparse - x_dense) / denom <= 1e-8
