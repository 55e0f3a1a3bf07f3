import logging
import os
import re
import sys
import threading
import time
import tracemalloc
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
                                  SolveError, coarsens, prolong)

from oracles import built_from, dense_solve, interpolation

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


def system(eps, N):
    """(mesh, A, F, interior grid shape) of example 5.1, or of the mms
    problem when eps is 1."""
    spec = mms_problem(1.0) if eps == 1.0 else example_5_1(eps)
    mesh = build_mesh(N, *transition_params(eps, 2.0, 1.0))
    A, F = assemble(mesh, spec)
    return mesh, A, F, mesh.interior


def nested_multigrid(eps, N):
    """The multigrid of `system(eps, N)`'s matrix whose coarse levels
    are the matrices of the nested meshes, as errorlab sets it up for a
    row that solves 16, 32, ..., N."""
    spec = mms_problem(1.0) if eps == 1.0 else example_5_1(eps)
    row = [n for n in (16, 32, 64, 128) if n <= N]
    *_, (_, _, _, _, mg) = nested_systems(spec, row)
    return mg


def assert_stencil_of(M, shape):
    """`linsolve._stencil` of M on the interior grid shape: the same-row
    entries in float64, zero at line ends, and the couplings, float32
    DIA matrices of six ascending diagonals, equal to the colour blocks
    of M rounded to float32 (the transposes to theirs), entry for entry;
    NaN equals NaN."""
    (west, diag, east), couplings = linsolve._stencil(M, shape)
    mx = shape[1]
    np.testing.assert_array_equal(diag, M.diagonal())
    for got, k, edge in ((west, -1, 0), (east, 1, -1)):
        want = np.zeros(M.shape[0])
        want[max(-k, 0):len(want) - max(k, 0)] = M.diagonal(k)
        want.reshape(shape)[:, edge] = 0.0
        np.testing.assert_array_equal(got, want)
    rows = np.arange(M.shape[0]).reshape(shape)
    even, odd = rows[0::2].ravel(), rows[1::2].ravel()
    up, down = M[even][:, odd], M[odd][:, even]
    for level, want in zip(couplings, (up, down, up.T, down.T)):
        assert isinstance(level, sp.dia_matrix)
        assert level.dtype == np.float32 and level.shape == want.shape
        assert len(level.offsets) == 6
        assert list(level.offsets) == sorted(level.offsets)
        assert max(abs(level.offsets)) <= mx + 1
        got = sp.csr_matrix(level)      # without the zeros of the diagonals
        want = sp.csr_matrix(want).astype(np.float32)
        want.eliminate_zeros()
        for m in (got, want):
            m.sort_indices()
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)


def failing_sgttrf(error):
    """A stand-in for LAPACK sgttrf, which factors the x-lines of a
    float32 level, that raises `error`, or reports a singular line block
    when error is None; `calls` counts its calls."""
    def sgttrf(dl, d, du):
        sgttrf.calls += 1
        if error is not None:
            raise error
        return dl, d, du, du[:-1], np.zeros(len(d), dtype=np.int32), 3
    sgttrf.calls = 0
    return sgttrf


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
        A, F = assemble(mesh, spec)
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

    def test_singular_splu_raises_solve_error(self):
        # singular system with incompatible rhs cannot reach any tolerance
        A = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(SolveError, match="tried splu,") as info:
            solve(A, np.array([1.0, 2.0]))
        assert info.value.best_residual > 1e-10

    def test_singular_tries_mg_then_splu(self):
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

    def test_coarsest_level_is_checked_before_factoring(self, monkeypatch,
                                                        caplog):
        # (4, 300) does not coarsen, so its one level factors all of A
        A = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(1200, 1200))
        assert len(multigrid(A, (4, 300)).levels) == 1
        calls = []
        monkeypatch.setattr(linsolve, "SPLU_MEMORY_SHARE", 1e-12)
        monkeypatch.setattr(linsolve.spla, "splu", calls.append)
        need = linsolve._splu_bytes(1200, sp.csr_matrix(A).nnz)
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            assert multigrid(A, (4, 300)) is None
        [message] = [r.getMessage() for r in caplog.records]
        assert f"splu of n = 1200 would need about {need:.3g} bytes" \
            in message
        assert calls == []

    def test_fallback_factorizations_take_turns(self, monkeypatch):
        # the limit budgets memory for one factorization, so two solves
        # whose cycles stall on two threads never factor at once
        _, A, F, _ = system(1e-6, 32)
        splu, count, running, most = linsolve.spla.splu, threading.Lock(), \
            [0], [0]

        def counting_splu(*args, **kwargs):
            with count:
                running[0] += 1
                most[0] = max(most[0], running[0])
            try:
                time.sleep(0.2)
                return splu(*args, **kwargs)
            finally:
                with count:
                    running[0] -= 1

        monkeypatch.setattr(linsolve.spla, "splu", counting_splu)
        reports = []
        threads = [threading.Thread(target=lambda: reports.append(
            solve(A, F, mg=stalled_multigrid(0.0))[1])) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert [r.method for r in reports] == ["splu", "splu"]
        assert most == [1]


class TestFallbackLogging:
    @pytest.mark.parametrize("error", [MemoryError(), None],
                             ids=["out-of-memory", "singular-line"])
    def test_multigrid_setup_failure_logged(self, error, monkeypatch, caplog):
        _, A, F, shape = system(1e-6, 32)
        stub = failing_sgttrf(error)
        monkeypatch.setattr(linsolve.lapack, "sgttrf", stub)
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            mg = multigrid(A, shape)
            x, report = solve(A, F, mg=mg)
        assert stub.calls > 0
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

    def test_zero_row_names_its_node(self, caplog):
        # sgttrf pivots a zero row down its x-line to the line's last
        # node; the row is found before factoring and named instead
        _, A, _, shape = system(1e-6, 32)
        k = 5 * shape[1] + 10
        A = A.tolil()
        A[k, :] = 0.0
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            assert multigrid(A.tocsr(), shape) is None
        [message] = [r.getMessage() for r in caplog.records]
        assert ("zero pivot in the odd rows at interior node "
                "(row 5, column 10)") in message

    def test_singular_line_without_zero_row_names_its_line(self, caplog):
        # rows k and k + 1 couple only to each other in their line block,
        # through a singular 2 x 2 block: no row or column is zero there,
        # so the message names the x-line and no column
        _, A, _, shape = system(1e-6, 32)
        k = 7 * shape[1] + 20
        A = A.tolil()
        A[k, k - 1] = A[k + 1, k + 2] = 0.0
        A[k, k] = A[k, k + 1] = A[k + 1, k] = A[k + 1, k + 1] = 1.0
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            assert multigrid(A.tocsr(), shape) is None
        [message] = [r.getMessage() for r in caplog.records]
        assert "zero pivot in the odd rows on x-line (row 7)" in message
        assert "column" not in message

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

    @pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
    def test_stalled_cycles_hand_over_to_splu(self, value, caplog):
        # no stall rule above TOL: exactly MAX_CYCLES cycles, one WARNING,
        # and a NaN residual is never accepted
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
                         f"{report.relative_residual:.3e}, at 0.1 TOL")
        assert second.startswith("splu: n 1953, levels 0, 1 iterations")
        assert second.endswith(", at TOL")
        assert direct.method == "splu"

    def test_cycles_stop_at_the_rounding_floor(self, monkeypatch, caplog):
        # the residual of a point source floors near 4e-13 at N = 128,
        # between 0.1 TOL and TOL for TOL = 1e-12: once a cycle gains
        # less than a factor 0.9 the cycles stop, with no splu
        monkeypatch.setattr(linsolve, "TOL", 1e-12)
        _, A, _, shape = system(1e-6, 128)
        mg = multigrid(A, shape)
        e = np.zeros(shape)
        e[shape[0] // 2, shape[1] // 2] = 1.0
        for run in (solve, solve_transpose):
            caplog.clear()
            with caplog.at_level(logging.DEBUG,
                                 logger="shishkinfem.linsolve"):
                _, report = run(A, e.ravel(), mg=mg)
            assert report.method == "mg"
            assert report.iterations <= 20
            assert 1e-13 < report.relative_residual <= 1e-12
            message, = [r.getMessage() for r in caplog.records]
            assert message.endswith(", at the floor")


class TestSharedMultigrid:
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

    def test_threads_share_one_multigrid(self):
        # a cycle keeps no state between calls: more threads than CPUs,
        # switching often, each get the bits of a solve on its own
        _, A, _, shape = system(1e-6, 64)
        shared = multigrid(A, shape)
        sources = np.zeros((6, A.shape[0]))
        sources[range(6), range(0, A.shape[0], A.shape[0] // 6)[:6]] = 1.0
        alone = [solve_transpose(A, e, mg=shared)[0] for e in sources]
        together = [None] * len(sources)

        def run(n):
            together[n] = solve_transpose(A, sources[n], mg=shared)[0]

        threads = [threading.Thread(target=run, args=(n,))
                   for n in range(len(sources))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for x, y in zip(alone, together):
            assert np.array_equal(x, y)

    def test_failed_factor_falls_back(self, monkeypatch):
        _, A, _, shape = system(1e-4, 32)
        stub = failing_sgttrf(MemoryError())
        monkeypatch.setattr(linsolve.lapack, "sgttrf", stub)
        mg = multigrid(A, shape)
        assert stub.calls > 0
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
        galerkin = A
        for fine, coarse in zip(levels[:-1], levels[1:]):
            assert built_from(fine, galerkin)
            P = interpolation(fine.shape)
            galerkin = (P.T @ galerkin @ P).tocsr()
        assert built_from(levels[-1], galerkin)
        # not the matrix assembled on the nested N = 32 mesh
        _, A32, _, _ = system(eps, 32)
        assert not built_from(levels[1], A32)

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-9])
    def test_interpolation_is_bilinear_on_nested_meshes(self, eps):
        # P takes a field of the N/2 mesh to the fine N mesh as its
        # piecewise-bilinear extension does, at every fine node; only
        # the rounding of node coordinates in cells of width ~1e-9
        # moves the local coordinates off 1/2 (3.3e-13 at eps = 1e-6)
        lam = transition_params(eps, 2.0, 1.0)
        fine, _, _, shape = system(eps, 32)
        coarse = build_mesh(16, *lam)
        v = np.random.default_rng(5).standard_normal(np.prod(coarse.interior))
        P = interpolation(shape)
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
        # float32 levels: the two cycles round differently, by 6.2e-6
        # and 6.6e-6 of the cycle here (2^-24 is 6.0e-8)
        assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)
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
        A_2N, _ = assemble(fine, spec)
        A_N, _ = assemble(build_mesh(N, *lam), spec)
        P = interpolation(fine.interior)
        gap = abs(P.T @ A_2N @ P - A_N).max()
        assert gap <= 1e-13 * abs(A_N).max()
        # a coarse mesh of another eps is caught
        A_other, _ = assemble(build_mesh(N, *transition_params(
            10 * eps, 2.0, 1.0)), spec)
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

    @pytest.mark.parametrize("N", [16, 32, 64, 128])
    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-3, 1e-5, 1e-9])
    @pytest.mark.parametrize("levels", ["galerkin", "nested"])
    def test_cycles_bounded(self, levels, eps, N):
        # coarse levels: Galerkin operators, or the matrices assembled on
        # the nested meshes
        _, A, F, shape = system(eps, N)
        mg = (multigrid(A, shape) if levels == "galerkin"
              else nested_multigrid(eps, N))
        e = np.zeros(shape)
        e[shape[0] // 2, shape[1] // 3] = 1.0
        for run, b, op in ((solve, F, A), (solve_transpose, e.ravel(), A.T)):
            x, report = run(A, b, mg=mg)
            assert report.method == "mg"
            assert report.iterations <= 25
            res = np.linalg.norm(b - op @ x) / np.linalg.norm(b)
            assert res <= 1e-10

    @pytest.mark.parametrize("N", [32, 64, 128])
    @pytest.mark.parametrize("eps", [1e-20, 1e-30])
    @pytest.mark.parametrize("levels", ["galerkin", "nested"])
    def test_cycles_bounded_at_tiny_eps(self, levels, eps, N):
        # the smallest entries of A, 5e-13 down to 3e-19, are far inside
        # float32's range: the float32 cycles still contract, both ways,
        # to 0.1 TOL (11 cycles in every case)
        _, A, F, shape = system(eps, N)
        assert abs(A.data).min() <= 1e-12
        mg = (multigrid(A, shape) if levels == "galerkin"
              else nested_multigrid(eps, N))
        e = np.zeros(shape)
        e[shape[0] // 2, shape[1] // 3] = 1.0
        for run, b, op in ((solve, F, A), (solve_transpose, e.ravel(), A.T)):
            x, report = run(A, b, mg=mg)
            assert report.method == "mg"
            assert report.iterations <= 25
            res = np.linalg.norm(b - op @ x) / np.linalg.norm(b)
            assert res <= 0.1 * linsolve.TOL

    def test_levels_are_float32_and_solutions_float64(self):
        # every level but the coarsest smooths in float32; the coarsest
        # keeps its float64 splu, and the residual is float64
        _, A, F, shape = system(1e-6, 128)
        mg = nested_multigrid(1e-6, 128)
        *levels, coarsest = mg.levels
        assert len(levels) == 3
        for level in levels:
            for c in (level.up, level.down, level.up_t, level.down_t):
                assert c.dtype == np.float32
            for factors in level.lines:
                assert [f.dtype for f in factors] == [np.float32] * 4 \
                    + [np.int32]
        assert coarsest.lu.L.dtype == coarsest.lu.U.dtype == np.float64
        e = np.zeros(A.shape[0])
        e[A.shape[0] // 3] = 1.0
        for run, b, op in ((solve, F, A), (solve_transpose, e, A.T)):
            x, report = run(A, b, mg=mg)
            assert report.method == "mg" and x.dtype == np.float64
            res = np.linalg.norm(b - op @ x) / np.linalg.norm(b)
            assert res <= linsolve.TOL

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_matrix_of_another_real_dtype_sets_up(self, dtype):
        # the stencil is read in float64 whatever A's dtype: a five-point
        # Laplacian with integer or float32 entries gives the cycles of
        # its float64 copy
        m = 63
        line = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(m, m))
        rows = sp.diags([-1.0, -1.0], [-1, 1], shape=(m, m))
        A = (sp.kron(sp.eye(m), line) + sp.kron(rows, sp.eye(m))).tocsr()
        b = np.ones(m * m)
        x, report = solve(A, b, mg=multigrid(A, (m, m)))
        y, same = solve(A, b, mg=multigrid(A.astype(dtype), (m, m)))
        assert report.method == "mg" and same == report
        np.testing.assert_array_equal(y, x)

    @pytest.mark.parametrize("eps", [1e-3, 1e-9])
    def test_couplings_are_the_colour_blocks_of_a(self, eps, monkeypatch):
        # read off A's rows in blocks of grid rows (here 4 rows, so the
        # 127 rows at N = 128 end in a short block), they are A[even][:,
        # odd] and A[odd][:, even] rounded to float32 and their
        # transposes, entry for entry, also for A^T, for rows that lost an
        # entry, for a Galerkin level and for a NaN on the last even row
        monkeypatch.setattr(linsolve, "BLOCK_LINES", 4)
        _, A, _, shape = system(eps, 128)
        B = A.tolil()
        B[5 * shape[1] + 7, 4 * shape[1] + 6] = 0.0
        P = interpolation(shape)
        C = A.copy()
        k = (shape[0] - 1) * shape[1] + 7
        C[k, k] = np.nan
        for M, grid in ((A, shape), (A.T.tocsr(), shape), (B.tocsr(), shape),
                        ((P.T @ A @ P).tocsr(),
                         (shape[0] // 2, shape[1] // 2)),
                        (C, shape)):
            assert_stencil_of(M, grid)

    def test_couplings_stay_in_range_where_a_is_not_finite(self):
        # a NaN coupling of the last even grid row, which has no odd row
        # above it, lands in its own entry of up and up^T and nowhere else
        _, A, _, shape = system(1e-6, 32)
        (my, mx), x = shape, 7
        k = (my - 1) * mx + x
        A[k, k - mx + 1] = np.nan
        _, (up, down, up_t, down_t) = linsolve._stencil(A, shape)
        # colour numbers of node x of grid row my - 1 and x + 1 of my - 2
        i, j = (my - 1) // 2 * mx + x, (my - 2) // 2 * mx + x + 1
        for level, entry in ((up, (i, j)), (up_t, (j, i))):
            dense = sp.coo_matrix(level)
            nan = np.isnan(dense.data)
            assert list(zip(dense.row[nan], dense.col[nan])) == [entry]
        for level in (down, down_t):
            assert not np.isnan(level.data).any()

    @pytest.mark.parametrize("lines", [2, 6])
    def test_couplings_of_a_last_block_of_one_grid_row(self, lines,
                                                       monkeypatch):
        # the 127 grid rows at N = 128 end in a block of one even row,
        # which has no odd row
        monkeypatch.setattr(linsolve, "BLOCK_LINES", lines)
        _, A, _, shape = system(1e-6, 128)
        assert shape[0] % lines == 1
        assert_stencil_of(A, shape)

    @pytest.mark.parametrize("entry", ["two columns east", "wraps east",
                                       "wraps west", "two rows up"])
    def test_stencil_beyond_the_grid_neighbours_gives_no_multigrid(
            self, entry, caplog):
        # the stencil has nine slots; an entry outside them would alias
        # another slot, so setup fails and splu solves
        _, A, F, shape = system(1e-6, 32)
        mx = shape[1]
        k, j = {"two columns east": (5 * mx + 7, 5 * mx + 9),
                "wraps east": (6 * mx - 1, 6 * mx),
                "wraps west": (5 * mx, 5 * mx - 1 + mx),
                "two rows up": (5 * mx + 7, 7 * mx + 7)}[entry]
        A = A.tolil()
        A[k, j] = 1e-3
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            mg = multigrid(A.tocsr(), shape)
        assert mg is None
        [message] = [r.getMessage() for r in caplog.records]
        assert "beyond its eight grid neighbours" in message

    def test_galerkin_level_of_a_last_block_of_one_grid_row(self):
        # N = 68: the (67, 135) grid's Galerkin level has 33 grid rows,
        # one past a whole block
        _, A, F, shape = system(1e-6, 68)
        mg = multigrid(A, shape)
        assert [level.shape for level in mg.levels] == [
            (67, 135), (33, 67), (16, 33)]
        assert 33 % linsolve.BLOCK_LINES == 1
        _, report = solve(A, F, mg=mg)
        assert report.method == "mg"

    @pytest.mark.parametrize("scale", [1e-40, 1e40])
    def test_cycles_of_any_scale_of_b(self, scale):
        # the float32 cycle is given the residual scaled into its range,
        # so b far below or above it solves in the cycles of b itself
        _, A, F, shape = system(1e-6, 64)
        mg = multigrid(A, shape)
        _, plain = solve(A, F, mg=mg)
        for run, b, op in ((solve, scale * F, A),
                           (solve_transpose, scale * F, A.T)):
            x, report = run(A, b, mg=mg)
            assert report.method == "mg"
            assert report.iterations <= plain.iterations + 1
            assert np.linalg.norm(b - op @ x) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("scale, method, cycles",
                             [(1e-38, "splu", 1), (1e-30, "mg", 11)])
    def test_entries_float32_loses_give_no_multigrid(self, scale, method,
                                                     cycles, caplog):
        # at 1e-38 the smallest entries (1.3e-6 before scaling) are
        # subnormal in float32, so setup fails and splu solves, with no
        # NaN cycles first; at 1e-30 they are normal and the cycles solve
        _, A, F, shape = system(1e-6, 64)
        A = scale * A
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            x, report = solve(A, F, mg=multigrid(A, shape))
        assert (report.method, report.iterations) == (method, cycles)
        assert np.linalg.norm(F - A @ x) <= 1e-10 * np.linalg.norm(F)
        messages = [r.getMessage() for r in caplog.records]
        if method == "mg":
            assert messages == []
        else:
            [message] = messages
            assert message.startswith("multigrid setup failed")
            assert "subnormal or inf in float32" in message

    def test_entry_float32_overflows_gives_no_multigrid(self, caplog):
        _, A, _, shape = system(1e-6, 32)
        k = 5 * shape[1] + 7
        A[k, k + 1] = 1e39
        with caplog.at_level(logging.WARNING, logger="shishkinfem.linsolve"):
            assert multigrid(A, shape) is None
        [message] = [r.getMessage() for r in caplog.records]
        assert f"A[{k}, {k + 1}] = 1e+39 is zero, subnormal or inf" in message

    def test_setup_peak_bounded_by_the_matrix(self):
        # a nested level reads its stencil off A's rows a block at a
        # time, into float32: its traced peak is 1.15 times A's CSR bytes
        # here and 0.89 times at N = 256 (1.93 when A[even][:, odd]
        # copied half of A)
        spec = example_5_1(1e-6)
        (*_, coarse), (_, mesh, A, _, _) = nested_systems(spec, [64, 128])
        tracemalloc.start()
        try:
            mg = multigrid(A, mesh.interior, coarse)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mg.coarse is coarse
        assert peak <= 1.5 * (A.data.nbytes + A.indices.nbytes
                              + A.indptr.nbytes)


class TestGridTransfers:
    @pytest.mark.parametrize("shape", [(3, 335), (7, 143), (31, 63),
                                       (255, 511)], ids=str)
    def test_equal_the_csr_products_bit_for_bit(self, shape):
        # (3, 335) has one coarse row, (7, 143) the fewest unknowns of a
        # grid that coarsens; values over 16 decades make a sum in any
        # other order than the products' round differently
        assert coarsens(shape)
        P = interpolation(shape)
        rows = np.arange(P.shape[0]).reshape(shape)
        even, odd = rows[0::2].ravel(), rows[1::2].ravel()
        rng = np.random.default_rng(4)

        def spread(n):
            return rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)

        c, v = spread(P.shape[1]), spread(even.size)
        C = c.reshape(shape[0] // 2, shape[1] // 2)
        assert np.array_equal(prolong(C).ravel(), P[odd] @ c)
        R = linsolve._restrict(v.reshape(-1, shape[1]))
        assert np.array_equal(R.ravel(), P[even].T @ v)


class TestInitialGuess:
    def test_exact_guess_takes_at_most_one_iteration(self):
        _, A, F, shape = system(1e-6, 64)
        mg = multigrid(A, shape)
        x, cold = solve(A, F, mg=mg)
        again, warm = solve(A, F, mg=mg, x0=x)
        assert cold.iterations > 1
        assert warm.iterations <= 1 and warm.method == "mg"
        assert np.linalg.norm(F - A @ again) <= 1e-10 * np.linalg.norm(F)

    @pytest.mark.parametrize("eps, N", [(1e-7, 64), (1e-3, 128)])
    def test_even_rows_of_a_guess_do_not_change_the_solve(self, eps, N):
        # the first half-sweep sets the even rows from the odd ones alone,
        # which is why the nested start and the cycle prolong onto the odd
        # rows only
        _, A, F, shape = system(eps, N)
        mg = nested_multigrid(eps, N)
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(shape)
        zeroed, other = x0.copy(), x0.copy()
        zeroed[0::2] = 0.0
        other[0::2] = rng.standard_normal(other[0::2].shape)
        runs = [solve(A, F, mg=mg, x0=x.ravel()) for x in (x0, zeroed, other)]
        (x, report), *rest = runs
        assert report.method == "mg"
        for y, again in rest:
            assert again.iterations == report.iterations
            assert abs(y - x).max() <= 1e-13 * abs(x).max()

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
        A, _ = assemble(mesh, spec)
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
        A, F = assemble(mesh, spec)
        assert A.shape[0] <= 2000
        x_sparse, report = solve(A, F)
        assert report.method == "splu"
        x_dense = dense_solve(A, F)
        denom = np.linalg.norm(x_dense)
        assert np.linalg.norm(x_sparse - x_dense) / denom <= 1e-8


class TestResidualNorm:
    @pytest.mark.parametrize("scale", [1e-20, 1e-10, 1.0, 1e10, 1e20])
    def test_equals_linalg_norm(self, scale):
        v = scale * np.random.default_rng(0).standard_normal(10_000)
        assert linsolve._norm(v) == pytest.approx(np.linalg.norm(v),
                                                  rel=1e-14)

    @pytest.mark.parametrize("direction", [solve, solve_transpose])
    def test_solves_without_linalg_norm(self, direction, monkeypatch):
        # ||b||, each cycle's ||r|| and the splu check all go through
        # linsolve._norm, never through np.linalg.norm's BLAS ddot
        _, A, F, shape = system(1e-6, 32)
        mg = multigrid(A, shape)

        def no_norm(*args, **kwargs):
            raise AssertionError("np.linalg.norm called")
        monkeypatch.setattr(np.linalg, "norm", no_norm)
        for with_mg, method in ((mg, "mg"), (None, "splu")):
            _, report = direction(A, F, mg=with_mg)
            assert report.method == method
            assert report.relative_residual <= linsolve.TOL
