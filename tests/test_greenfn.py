import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from shishkinfem.meshgen import (Region, TensorMesh, build_mesh,
                                 transition_params)
from shishkinfem.problem import example_5_1
from shishkinfem.assembly import (FeField, assemble, assemble_mass,
                                  assemble_stiffness)
from shishkinfem import assembly, errorlab, greenfn, linsolve
from shishkinfem.cli import main
from shishkinfem.linsolve import SolveError, multigrid, solve
from shishkinfem.greenfn import (green_function, fe_l2_norm, fe_energy_norm,
                                 green_norm_sweep, default_probes)

from oracles import (built_from, classify, dense_solve, flat_index,
                     interior_index, record_solves)


@pytest.fixture(scope="module")
def small_run():
    eps = 0.1
    spec = example_5_1(eps)
    mesh = build_mesh(4, *transition_params(eps, 2.0, 1.0))
    A, F = assemble(mesh, spec)
    return eps, mesh, A, F


class TestGreenFunction:
    def test_matches_dense_oracle(self, small_run):
        _, mesh, A, _ = small_run
        node = mesh.nearest_node(0.0, 0.0)
        g = green_function(A, mesh, node)
        e = np.zeros(np.prod(mesh.interior))
        e[interior_index(mesh)[flat_index(mesh, *node)]] = 1.0
        g_dense = dense_solve(sp.csr_matrix(A).T.tocsr(), e)
        np.testing.assert_allclose(g.values[1:-1, 1:-1].ravel(), g_dense,
                                   rtol=1e-8, atol=1e-12)

    def test_reproducing_identity(self, small_run):
        _, mesh, A, F = small_run
        u, _ = solve(A, F)
        node = mesh.nearest_node(0.5, 0.0)
        g = green_function(A, mesh, node)
        lhs = float(F @ g.values[1:-1, 1:-1].ravel())
        rhs = u[interior_index(mesh)[flat_index(mesh, *node)]]
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_column_check(self, small_run):
        _, mesh, A, _ = small_run
        node = mesh.nearest_node(0.2, 0.3)
        g = green_function(A, mesh, node)
        k = interior_index(mesh)[flat_index(mesh, *node)]
        # (A e_j) . g = delta_{j,source} for every j
        prod = A.T @ g.values[1:-1, 1:-1].ravel()
        expect = np.zeros(np.prod(mesh.interior))
        expect[k] = 1.0
        np.testing.assert_allclose(prod, expect, atol=1e-8)

    def test_boundary_node_rejected(self, small_run):
        _, mesh, A, _ = small_run
        nx, ny = mesh.nx, mesh.ny
        for source in ((0, 0), (0, 2), (nx - 1, 2), (3, 0), (3, ny - 1),
                       (-1, 2), (nx, 2), (3, ny), (3, -1)):
            with pytest.raises(ValueError):
                green_function(A, mesh, source)


class TestNorms:
    def test_zero_field(self):
        mesh = build_mesh(4, 0.1, 0.2)
        field = FeField.from_interior(mesh, np.zeros(np.prod(mesh.interior)))
        assert fe_l2_norm(field) == 0.0
        assert fe_energy_norm(field, 1e-6) == 0.0

    def test_sine_interpolant_l2(self):
        # int sin^2(pi x) sin^2(pi y) over [-1,1]^2 = 1
        nodes = np.linspace(-1.0, 1.0, 65)
        mesh = TensorMesh(nodes, nodes, 0.5, 0.25)
        X, Y = np.meshgrid(nodes, nodes)
        vals = np.sin(np.pi * X) * np.sin(np.pi * Y)
        field = FeField(mesh=mesh, values=vals)
        assert fe_l2_norm(field) == pytest.approx(1.0, abs=2e-3)

    def test_energy_at_least_l2(self):
        mesh = build_mesh(8, 0.1, 0.2)
        rng = np.random.default_rng(5)
        for _ in range(10):
            field = FeField.from_interior(
                mesh, rng.standard_normal(np.prod(mesh.interior)))
            assert fe_energy_norm(field, 1e-7) >= fe_l2_norm(field)

    def test_energy_matches_stiffness_form(self):
        # on a random field v^T K v does not cancel, so it checks the
        # per-cell gradient sum to rounding
        mesh = build_mesh(8, 0.1, 0.2)
        M = assemble_mass(mesh)
        K = assemble_stiffness(mesh)
        v = np.random.default_rng(3).standard_normal(np.prod(mesh.interior))
        field = FeField.from_interior(mesh, v)
        eps = 0.3
        expected = np.sqrt(eps * (v @ (K @ v)) + v @ (M @ v))
        assert fe_energy_norm(field, eps) == pytest.approx(expected, rel=1e-14)

    def test_energy_of_layer_green_function_to_rounding(self):
        # the x-layer Green's function at eps = 1e-6 is where v^T K v
        # loses about 1e-10; the oracle integrates |grad v|^2 per cell
        # with the 2x2 Gauss rule (exact for it) in extended precision
        eps, N = 1e-6, 128
        spec = example_5_1(eps)
        lam = transition_params(eps, spec.alpha, spec.beta)
        mesh = build_mesh(N, *lam)
        A, _ = assemble(mesh, spec)
        node = mesh.nearest_node(*default_probes(*lam)[Region.LAYER_X])
        g = green_function(A, mesh, node)
        M = assemble_mass(mesh)

        ld = np.longdouble
        V = g.values.astype(ld)
        h = np.diff(mesh.x.astype(ld))
        k = np.diff(mesh.y.astype(ld))[:, None]
        q = (1 + np.array([-1, 1], dtype=ld) / np.sqrt(ld(3))) / 2
        grad_sq = ld(0)
        for t in q:
            vx = ((1 - t) * (V[:-1, 1:] - V[:-1, :-1])
                  + t * (V[1:, 1:] - V[1:, :-1])) / h
            vy = ((1 - t) * (V[1:, :-1] - V[:-1, :-1])
                  + t * (V[1:, 1:] - V[:-1, 1:])) / k
            grad_sq += np.sum(vx * vx * h * k) / 2 + np.sum(vy * vy * h * k) / 2
        v = g.values[1:-1, 1:-1].ravel()
        exact = np.sqrt(ld(eps) * grad_sq + ld(v @ (M @ v)))
        assert abs(fe_energy_norm(g, eps) / exact - 1) <= 1e-15

    def test_energy_norm_heap_peak(self):
        # the L2 part first, then one difference grid at a time: about
        # 3.1 field grids at N = 256, against 7.1 with both alive
        eps, N = 1e-6, 256
        spec = example_5_1(eps)
        lam = transition_params(eps, spec.alpha, spec.beta)
        mesh = build_mesh(N, *lam)
        A, _ = assemble(mesh, spec)
        node = mesh.nearest_node(*default_probes(*lam)[Region.LAYER_X])
        g = green_function(A, mesh, node,
                           mg=multigrid(A, mesh.interior))
        tracemalloc.start()
        try:
            fe_energy_norm(g, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * g.values.nbytes

    @pytest.mark.parametrize("N", [8, 16, 32, 64])
    def test_l2_and_mass_part_match_mass_matrix(self, N):
        # both norms sum int v^2 over the mesh; the oracle is v^T M v with
        # the assembled Kronecker mass matrix, on random fields and on the
        # Green's functions of every default probe
        eps = 1e-6
        lam = transition_params(eps, 2.0, 1.0)
        mesh = build_mesh(N, *lam)
        A, _ = assemble(mesh, example_5_1(eps))
        M = assemble_mass(mesh)
        rng = np.random.default_rng(N)
        fields = [FeField.from_interior(mesh, rng.standard_normal(
            np.prod(mesh.interior))) for _ in range(3)]
        fields += [green_function(A, mesh, mesh.nearest_node(*p))
                   for p in default_probes(*lam).values()]
        for field in fields:
            v = field.values[1:-1, 1:-1].ravel()
            exact = v @ (M @ v)
            assert abs(fe_l2_norm(field) ** 2 / exact - 1) <= 1e-13
            assert abs(fe_energy_norm(field, 0.0) ** 2 / exact - 1) <= 1e-13


class TestSweep:
    def test_report_cardinality_and_regions(self):
        reports = green_norm_sweep(example_5_1(1e-6), [16, 8])
        assert list(reports) == [(1e-6, N, region) for N in (8, 16)
                                 for region in Region]
        for r in reports.values():
            assert all(type(v) is float for v in r)

    def test_sweep_assembles_no_mass_matrix(self, monkeypatch):
        # the norms sum over the mesh, so a mass matrix that cannot be
        # assembled does not stop the sweep
        def no_mass(mesh):
            raise MemoryError("assemble_mass called")

        for module in (greenfn, assembly):
            monkeypatch.setattr(module, "assemble_mass", no_mass)
        reports = green_norm_sweep(example_5_1(1e-6), [8, 16])
        assert len(reports) == 8
        assert all(0.0 < r.l2_norm <= r.energy_norm for r in reports.values())

    def test_sources_land_in_their_region(self):
        reports = green_norm_sweep(example_5_1(1e-6), [16])
        lam = transition_params(1e-6, 2.0, 1.0)
        for (_, _, region), r in reports.items():
            assert classify(r.source_x, r.source_y, *lam) is region

    def test_norm_invariants(self):
        reports = green_norm_sweep(example_5_1(1e-5), [8])
        for r in reports.values():
            assert r.energy_norm >= r.l2_norm > 0.0

    def test_probe_override(self):
        probes = default_probes(0.1, 0.2)
        probes[Region.COARSE] = (-0.5, 0.1)
        reports = green_norm_sweep(example_5_1(1e-4), [8], probes=probes)
        assert reports[1e-4, 8, Region.COARSE].source_x < 0.0

    def test_non_finite_probe_rejected(self, monkeypatch):
        # rejected before the first mesh is assembled
        assembled = []
        assemble = errorlab.assemble
        monkeypatch.setattr(errorlab, "assemble",
                            lambda *a: assembled.append(a) or assemble(*a))
        with pytest.raises(ValueError, match="not finite"):
            green_norm_sweep(example_5_1(1e-4), [8],
                             probes={Region.COARSE: (np.nan, 0.0)})
        assert assembled == []


class TestFactorReuse:
    @pytest.fixture
    def recorded(self, monkeypatch):
        return record_solves(monkeypatch, greenfn, "solve_transpose")

    def test_one_multigrid_per_matrix(self, recorded):
        # one multigrid of A itself, not of A^T, per matrix serves all
        # four sources; the N = 32 multigrid sits on the N = 16 one of
        # the same eps
        setups, methods = recorded
        reports = {}
        for eps in (1e-4, 1e-6):
            reports.update(green_norm_sweep(example_5_1(eps), [32, 16]))
        assert len(reports) == 16
        assert [key[:2] for key in list(reports)[::4]] == \
            [(1e-4, 16), (1e-4, 32), (1e-6, 16), (1e-6, 32)]
        assert len(setups) == 4
        runs = [(eps, N) for eps in (1e-4, 1e-6) for N in (16, 32)]
        for (eps, N), (A_seen, shape, _, mg) in zip(runs, setups):
            spec = example_5_1(eps)
            mesh = build_mesh(N, *transition_params(eps, spec.alpha,
                                                    spec.beta))
            A, _ = assemble(mesh, spec)
            assert shape == mesh.interior
            assert abs(A_seen - A).max() == 0.0
            assert built_from(mg, A)
            assert not built_from(mg, A.T)
        assert [coarse for _, _, coarse, _ in setups] == \
            [None, setups[0][3], None, setups[2][3]]
        assert methods == ["mg"] * 16

    def test_failed_setup_runs_once_per_matrix(self, recorded, monkeypatch):
        setups, methods = recorded
        calls = []

        def no_memory(*args, **kwargs):
            calls.append(args)
            raise MemoryError

        monkeypatch.setattr(linsolve.lapack, "sgttrf", no_memory)
        reports = green_norm_sweep(example_5_1(1e-6), [32, 64])
        assert len(reports) == 8
        assert [mg for _, _, _, mg in setups] == [None, None]
        assert len(calls) == 2
        assert methods == ["splu"] * 8

    def test_norms_match_separate_solves_bitwise(self):
        eps, N = 1e-6, 16
        reports = green_norm_sweep(example_5_1(eps), [N])
        spec = example_5_1(eps)
        lam = transition_params(eps, spec.alpha, spec.beta)
        mesh = build_mesh(N, *lam)
        A, _ = assemble(mesh, spec)
        probes = default_probes(*lam)
        for (_, _, region), r in reports.items():
            node = mesh.nearest_node(*probes[region])
            g = green_function(A, mesh, node,
                               mg=multigrid(A, mesh.interior))
            assert r.l2_norm == fe_l2_norm(g)
            assert r.energy_norm == fe_energy_norm(g, eps)


class TestTwoAtATime:
    # the command of tests/data/green.csv: --eps 1e-4,1e-6 --N 32,64
    DATA = Path(__file__).resolve().parent / "data" / "green.csv"

    def test_table_equals_one_at_a_time(self, monkeypatch):
        before = threading.active_count()
        threads, function = set(), greenfn.green_function

        def spy(*args, **kwargs):
            threads.add(threading.get_ident())
            return function(*args, **kwargs)

        monkeypatch.setattr(greenfn, "green_function", spy)
        table = {}
        for eps in (1e-4, 1e-6):
            threads.clear()
            table.update(green_norm_sweep(example_5_1(eps), [32, 64]))
            assert len(threads) == 2
            assert threading.active_count() == before
        # the same sweep one source at a time, on this thread
        serial = {}
        for eps in (1e-4, 1e-6):
            spec = example_5_1(eps)
            lam = transition_params(eps, spec.alpha, spec.beta)
            walk = errorlab.nested_systems(spec, [32, 64])
            for N, mesh, A, _, mg in walk:
                for region, point in default_probes(*lam).items():
                    i, j = mesh.nearest_node(*point)
                    g = function(A, mesh, (i, j), mg=mg)
                    serial[eps, N, region] = greenfn.GreenReport(
                        float(mesh.x[i]), float(mesh.y[j]), fe_l2_norm(g),
                        fe_energy_norm(g, eps))
        assert list(table.items()) == list(serial.items())
        # and the stored file, to its bound in test_reference_outputs
        rows = [line.split(",") for line in self.DATA.read_text().splitlines()
                if line[0].isdigit()]
        assert len(rows) == len(table)
        for row, ((eps, N, region), r) in zip(rows, table.items()):
            assert (float(row[0]), int(row[1]), row[2]) == \
                (eps, N, region.value)
            assert tuple(r) == pytest.approx(
                tuple(map(float, row[3:])), rel=1e-8, abs=0.0)

    def test_worker_solve_error_reaches_the_caller(self, monkeypatch,
                                                   tmp_path, capsys):
        before = threading.active_count()
        solve_transpose = greenfn.solve_transpose

        def fails(A, e, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise SolveError("no solver reached TOL on the worker", 1.0)
            return solve_transpose(A, e, **kwargs)

        monkeypatch.setattr(greenfn, "solve_transpose", fails)
        with pytest.raises(SolveError, match="on the worker"):
            green_norm_sweep(example_5_1(1e-4), [16])
        assert threading.active_count() == before
        out = tmp_path / "out"
        assert main(["--mode", "green", "--eps", "1e-4", "--N", "16",
                     "-o", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: no solver reached TOL on the worker\n"
        assert not out.exists()
        assert threading.active_count() == before

    def test_caller_solve_error_waits_for_one_worker_solve(self,
                                                           monkeypatch):
        # the worker holds the first source of N = 16 until the caller,
        # having assembled N = 32, fails on the fourth, which it runs
        # itself: the second and third are still queued and never start,
        # nor does any source of N = 32
        before = threading.active_count()
        failed, entered = threading.Event(), []
        solve_transpose = greenfn.solve_transpose

        def fails(A, e, **kwargs):
            on_main = threading.current_thread() is threading.main_thread()
            entered.append((on_main, A.shape[0]))
            if on_main:
                failed.set()
                raise SolveError("no solver reached TOL on the caller", 1.0)
            assert failed.wait(timeout=60)
            time.sleep(0.1)     # the queued sources are cancelled meanwhile
            return solve_transpose(A, e, **kwargs)

        monkeypatch.setattr(greenfn, "solve_transpose", fails)
        with pytest.raises(SolveError, match="on the caller"):
            green_norm_sweep(example_5_1(1e-4), [16, 32])
        assert sorted(entered) == [(False, 15 * 31), (True, 15 * 31)]
        assert threading.active_count() == before

    def test_worker_solve_error_while_the_next_matrix_is_assembled(
            self, monkeypatch):
        # the worker fails on the first source of N = 16 once N = 32 is
        # being assembled on the caller; the error reaches the caller
        # after that assembly, and no other source starts: the worker
        # skips the three it had queued, and the four of N = 32
        before = threading.active_count()
        assembling, entered = threading.Event(), []
        solve_transpose, assemble = greenfn.solve_transpose, errorlab.assemble

        def fails(A, e, **kwargs):
            first = not entered
            entered.append(A.shape[0])
            if first:
                assert assembling.wait(timeout=60)
                raise SolveError("no solver reached TOL on the worker", 1.0)
            return solve_transpose(A, e, **kwargs)

        def assembly(mesh, spec):
            if mesh.ny == 33:       # N = 32
                assembling.set()
            return assemble(mesh, spec)

        monkeypatch.setattr(greenfn, "solve_transpose", fails)
        monkeypatch.setattr(errorlab, "assemble", assembly)
        with pytest.raises(SolveError, match="on the worker"):
            green_norm_sweep(example_5_1(1e-4), [16, 32])
        assert assembling.is_set()
        assert entered == [15 * 31]      # the unknowns at N = 16
        assert threading.active_count() == before

    def test_next_matrix_is_assembled_while_sources_are_solved(
            self, monkeypatch):
        # the first source of N = 16 waits for the assembly of N = 32, so
        # the sweep completes only if that assembly overlaps the solves
        assembling = threading.Event()
        green_function, assemble = greenfn.green_function, errorlab.assemble

        def solved(A, mesh, source, mg=None):
            if mesh.ny == 17 and source == mesh.nearest_node(0.5, 0.0):
                assert assembling.wait(timeout=60)
            return green_function(A, mesh, source, mg=mg)

        def assembly(mesh, spec):
            if mesh.ny == 33:       # N = 32
                assembling.set()
            return assemble(mesh, spec)

        monkeypatch.setattr(greenfn, "green_function", solved)
        monkeypatch.setattr(errorlab, "assemble", assembly)
        table = green_norm_sweep(example_5_1(1e-4), [16, 32])
        monkeypatch.undo()
        assert list(table.items()) == \
            list(green_norm_sweep(example_5_1(1e-4), [16, 32]).items())
