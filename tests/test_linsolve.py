import logging

import numpy as np
import pytest
import scipy.sparse as sp

from shishkinfem import linsolve

from shishkinfem.meshgen import build_mesh, transition_params
from shishkinfem.problem import example_5_1, mms_problem
from shishkinfem.assembly import assemble
from shishkinfem.linsolve import (solve, solve_transpose, ilu_factor,
                                  SolveError)

from oracles import dense_solve


def broken_spilu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


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
        x, report = solve(A, F, tol=1e-10)
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

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            solve(sp.eye(2, format="csr"), np.ones(2), tol=0.0)

    def test_nonconvergence_raises(self):
        # singular system with incompatible rhs cannot reach any tolerance
        A = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(SolveError) as info:
            solve(A, np.array([1.0, 2.0]))
        assert info.value.best_residual > 1e-10

    def test_singular_splu_raises_solve_error(self, monkeypatch):
        monkeypatch.setattr(linsolve.spla, "spilu", broken_spilu)
        A = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(SolveError, match="splu"):
            solve(A, np.array([1.0, 2.0]))

    def test_singular_tries_gmres_then_splu_only(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(SolveError) as info:
            solve(A, np.array([1.0, 2.0]))
        assert "tried gmres+ilu and splu," in str(info.value)


class TestFallbackLogging:
    def test_spilu_failure_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(linsolve.spla, "spilu", broken_spilu)
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            x, report = solve(A, np.array([3.0, 5.0]))
        assert report.method == "splu"
        np.testing.assert_allclose(x, [0.8, 1.4], atol=1e-10)
        messages = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(messages) == 1
        assert "spilu failed" in messages[0]
        assert "exactly singular" in messages[0]

    def test_gmres_miss_logged(self, monkeypatch, caplog):
        spec = mms_problem(1.0)
        mesh = build_mesh(8, 0.5, 0.25)
        A, F = assemble(mesh, spec, 3)

        def missing_gmres(A, b, **kwargs):
            return np.zeros_like(b), 7

        monkeypatch.setattr(linsolve.spla, "gmres", missing_gmres)
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            _, report = solve(A, F)
        assert report.method == "splu"
        assert any("gmres stopped" in r.getMessage() for r in caplog.records)

    def test_converged_solve_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            solve(sp.eye(5, format="csr"), np.arange(5.0))
        assert caplog.records == []


class TestPrebuiltIlu:
    def test_same_bits_as_factoring_inside(self):
        spec = example_5_1(1e-4)
        mesh = build_mesh(8, *transition_params(1e-4, 2.0, 1.0))
        A, F = assemble(mesh, spec, 3)
        x1, r1 = solve(A, F)
        x2, r2 = solve(A, F, ilu=ilu_factor(A))
        assert r1 == r2
        assert np.array_equal(x1, x2)
        e = np.zeros(A.shape[0])
        e[3] = 1.0
        g1, s1 = solve_transpose(A, e)
        g2, s2 = solve_transpose(A, e, ilu=ilu_factor(A))
        assert s1 == s2
        assert np.array_equal(g1, g2)

    def test_failed_factor_falls_back(self, monkeypatch):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        monkeypatch.setattr(linsolve.spla, "spilu", broken_spilu)
        ilu = ilu_factor(A)
        assert ilu is None
        g, report = solve_transpose(A, np.array([1.0, 0.0]), ilu=ilu)
        assert report.method == "splu"


class TestOrderedIlu:
    @pytest.fixture
    def system(self):
        spec = example_5_1(1e-6)
        mesh = build_mesh(8, *transition_params(1e-6, 2.0, 1.0))
        A, F = assemble(mesh, spec, 3)
        return mesh, A, F

    def test_solve_permutes_in_and_out(self, system):
        # at this size the incomplete factor is nearly complete, so its
        # solve is nearly A^-1 only if both permutations are right
        mesh, A, F = system
        ilu = ilu_factor(A, mesh.dissection_order())
        x = ilu.solve(F)
        assert np.linalg.norm(F - A @ x) <= 1e-6 * np.linalg.norm(F)

    def test_transpose_solve_permutes_in_and_out(self, system):
        # the same factor, with its triangular solves transposed, nearly
        # inverts A^T (1.2e-6 here) only if both permutations are right;
        # a missing or inverted permutation, or no transpose, gives > 0.9
        mesh, A, F = system
        ilu = ilu_factor(A, mesh.dissection_order())
        g = ilu.solve(F, "T")
        assert np.linalg.norm(F - A.T @ g) <= 1e-5 * np.linalg.norm(F)

    def test_factors_given_order_without_pivoting(self, system, monkeypatch):
        mesh, A, F = system
        seen = []
        spilu = linsolve.spla.spilu

        def recording_spilu(M, **kwargs):
            seen.append((M, kwargs))
            return spilu(M, **kwargs)

        monkeypatch.setattr(linsolve.spla, "spilu", recording_spilu)
        order = mesh.dissection_order()
        ilu_factor(A, order)
        (M, kwargs), = seen
        assert kwargs == {"drop_tol": 1e-5, "fill_factor": 20,
                          "permc_spec": "NATURAL", "diag_pivot_thresh": 0.0}
        assert abs(M - A[order][:, order]).max() == 0.0


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
    def test_agreement(self, N, eps, monkeypatch):
        spec = example_5_1(eps)
        mesh = build_mesh(N, *transition_params(eps, 2.0, 1.0))
        A, F = assemble(mesh, spec, 3)
        assert A.shape[0] <= 2000
        monkeypatch.setattr(linsolve.spla, "spilu", broken_spilu)
        x_sparse, report = solve(A, F)
        assert report.method == "splu"
        x_dense = dense_solve(A, F)
        denom = np.linalg.norm(x_dense)
        assert np.linalg.norm(x_sparse - x_dense) / denom <= 1e-8
