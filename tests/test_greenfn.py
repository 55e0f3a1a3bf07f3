import numpy as np
import pytest
import scipy.sparse as sp

from shishkinfem.meshgen import (Region, TensorMesh, build_mesh,
                                 transition_params)
from shishkinfem.problem import example_5_1
from shishkinfem.assembly import (FeField, assemble, assemble_mass,
                                  assemble_stiffness)
from shishkinfem import errorlab, greenfn, linsolve
from shishkinfem.linsolve import multigrid, solve
from shishkinfem.greenfn import (green_function, fe_l2_norm, fe_energy_norm,
                                 green_norm_sweep, default_probes)

from oracles import classify, dense_solve, flat_index, interior_index


@pytest.fixture(scope="module")
def small_run():
    eps = 0.1
    spec = example_5_1(eps)
    mesh = build_mesh(4, *transition_params(eps, 2.0, 1.0))
    A, F = assemble(mesh, spec, 3)
    return eps, mesh, A, F


class TestGreenFunction:
    def test_matches_dense_oracle(self, small_run):
        _, mesh, A, _ = small_run
        node = mesh.nearest_node(0.0, 0.0)
        g = green_function(A, mesh, node)
        e = np.zeros(mesh.n_interior)
        e[interior_index(mesh)[flat_index(mesh, *node)]] = 1.0
        g_dense = dense_solve(sp.csr_matrix(A).T.tocsr(), e)
        np.testing.assert_allclose(g.interior_values(), g_dense,
                                   rtol=1e-8, atol=1e-12)

    def test_reproducing_identity(self, small_run):
        _, mesh, A, F = small_run
        u, _ = solve(A, F)
        node = mesh.nearest_node(0.5, 0.0)
        g = green_function(A, mesh, node)
        lhs = float(F @ g.interior_values())
        rhs = u[interior_index(mesh)[flat_index(mesh, *node)]]
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_column_check(self, small_run):
        _, mesh, A, _ = small_run
        node = mesh.nearest_node(0.2, 0.3)
        g = green_function(A, mesh, node)
        k = interior_index(mesh)[flat_index(mesh, *node)]
        # (A e_j) . g = delta_{j,source} for every j
        prod = A.T @ g.interior_values()
        expect = np.zeros(mesh.n_interior)
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
        M = assemble_mass(mesh)
        field = FeField.from_interior(mesh, np.zeros(mesh.n_interior))
        assert fe_l2_norm(field, M) == 0.0
        assert fe_energy_norm(field, M, 1e-6) == 0.0

    def test_sine_interpolant_l2(self):
        # int sin^2(pi x) sin^2(pi y) over [-1,1]^2 = 1
        nodes = np.linspace(-1.0, 1.0, 65)
        mesh = TensorMesh(nodes, nodes, 0.5, 0.25)
        X, Y = np.meshgrid(nodes, nodes)
        vals = np.sin(np.pi * X) * np.sin(np.pi * Y)
        field = FeField(mesh=mesh, values=vals)
        M = assemble_mass(mesh)
        assert fe_l2_norm(field, M) == pytest.approx(1.0, abs=2e-3)

    def test_energy_at_least_l2(self):
        mesh = build_mesh(8, 0.1, 0.2)
        M = assemble_mass(mesh)
        rng = np.random.default_rng(5)
        for _ in range(10):
            field = FeField.from_interior(
                mesh, rng.standard_normal(mesh.n_interior))
            assert fe_energy_norm(field, M, 1e-7) >= fe_l2_norm(field, M)

    def test_energy_matches_stiffness_form(self):
        # on a random field v^T K v does not cancel, so it checks the
        # per-cell gradient sum to rounding
        mesh = build_mesh(8, 0.1, 0.2)
        M = assemble_mass(mesh)
        K = assemble_stiffness(mesh)
        v = np.random.default_rng(3).standard_normal(mesh.n_interior)
        field = FeField.from_interior(mesh, v)
        eps = 0.3
        expected = np.sqrt(eps * (v @ (K @ v)) + v @ (M @ v))
        assert fe_energy_norm(field, M, eps) == pytest.approx(expected,
                                                              rel=1e-14)

    def test_energy_of_layer_green_function_to_rounding(self):
        # the x-layer Green's function at eps = 1e-6 is where v^T K v
        # loses about 1e-10; the oracle integrates |grad v|^2 per cell
        # with the 2x2 Gauss rule (exact for it) in extended precision
        eps, N = 1e-6, 128
        spec = example_5_1(eps)
        lam = transition_params(eps, spec.alpha, spec.beta)
        mesh = build_mesh(N, *lam)
        A, _ = assemble(mesh, spec, 3)
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
        v = g.interior_values()
        exact = np.sqrt(ld(eps) * grad_sq + ld(v @ (M @ v)))
        assert abs(fe_energy_norm(g, M, eps) / exact - 1) <= 1e-15

    def test_dimension_mismatch(self):
        mesh = build_mesh(4, 0.1, 0.2)
        other = build_mesh(8, 0.1, 0.2)
        M = assemble_mass(other)
        field = FeField.from_interior(mesh, np.zeros(mesh.n_interior))
        with pytest.raises(ValueError):
            fe_l2_norm(field, M)

    def test_energy_dimension_mismatch(self):
        mesh = build_mesh(4, 0.1, 0.2)
        M = assemble_mass(build_mesh(8, 0.1, 0.2))
        field = FeField.from_interior(mesh, np.zeros(mesh.n_interior))
        with pytest.raises(ValueError, match="mass matrix does not match"):
            fe_energy_norm(field, M, 1e-4)


class TestSweep:
    def test_report_cardinality_and_regions(self):
        reports = green_norm_sweep(example_5_1, [1e-4, 1e-6], [8, 16])
        assert list(reports) == [(eps, N, region) for eps in (1e-4, 1e-6)
                                 for N in (8, 16) for region in Region]
        for r in reports.values():
            assert all(type(v) is float for v in r)

    def test_sources_land_in_their_region(self):
        reports = green_norm_sweep(example_5_1, [1e-6], [16])
        lam = transition_params(1e-6, 2.0, 1.0)
        for (_, _, region), r in reports.items():
            assert classify(r.source_x, r.source_y, *lam) is region

    def test_norm_invariants(self):
        reports = green_norm_sweep(example_5_1, [1e-5], [8])
        for r in reports.values():
            assert r.energy_norm >= r.l2_norm > 0.0

    def test_probe_override(self):
        probes = default_probes(0.1, 0.2)
        probes[Region.COARSE] = (-0.5, 0.1)
        reports = green_norm_sweep(example_5_1, [1e-4], [8], probes=probes)
        assert reports[1e-4, 8, Region.COARSE].source_x < 0.0

    def test_non_finite_probe_rejected(self, monkeypatch):
        # rejected before the first mesh is assembled
        assembled = []
        assemble = errorlab.assemble
        monkeypatch.setattr(errorlab, "assemble",
                            lambda *a: assembled.append(a) or assemble(*a))
        with pytest.raises(ValueError, match="not finite"):
            green_norm_sweep(example_5_1, [1e-4], [8],
                             probes={Region.COARSE: (np.nan, 0.0)})
        assert assembled == []


class TestFactorReuse:
    @pytest.fixture
    def recorded(self, monkeypatch):
        setups, methods = [], []
        multigrid = errorlab.multigrid
        solve_transpose = greenfn.solve_transpose

        def recording_multigrid(A, shape, coarse=None):
            mg = multigrid(A, shape, coarse)
            setups.append((A, shape, coarse, mg))
            return mg

        def recording_solve_transpose(A, e, **kwargs):
            assert A is setups[-1][0] and kwargs["mg"] is setups[-1][3]
            g, report = solve_transpose(A, e, **kwargs)
            methods.append(report.method)
            return g, report

        monkeypatch.setattr(errorlab, "multigrid", recording_multigrid)
        monkeypatch.setattr(greenfn, "solve_transpose",
                            recording_solve_transpose)
        return setups, methods

    def test_one_ilu_per_matrix(self, recorded):
        # one multigrid of A itself, not of A^T, per matrix serves all
        # four sources (the name dates from the ILU it replaced); the
        # N = 32 multigrid sits on the N = 16 one of the same eps
        setups, methods = recorded
        reports = green_norm_sweep(example_5_1, [1e-4, 1e-6], [32, 16])
        assert len(reports) == 16
        assert [key[:2] for key in list(reports)[::4]] == \
            [(1e-4, 16), (1e-4, 32), (1e-6, 16), (1e-6, 32)]
        assert len(setups) == 4
        runs = [(eps, N) for eps in (1e-4, 1e-6) for N in (16, 32)]
        for (eps, N), (A_seen, shape, _, mg) in zip(runs, setups):
            spec = example_5_1(eps)
            mesh = build_mesh(N, *transition_params(eps, spec.alpha,
                                                    spec.beta))
            A, _ = assemble(mesh, spec, 3)
            assert shape == (mesh.ny - 2, mesh.nx - 2)
            assert abs(A_seen - A).max() == 0.0
            assert abs(mg.levels[0].A - A).max() == 0.0
            assert abs(mg.levels[0].A - A.T).max() > 0.0
        assert [coarse for _, _, coarse, _ in setups] == \
            [None, setups[0][3], None, setups[2][3]]
        assert methods == ["mg"] * 16

    def test_failed_setup_runs_once_per_matrix(self, recorded, monkeypatch):
        setups, methods = recorded
        calls = []

        def no_memory(*args, **kwargs):
            calls.append(args)
            raise MemoryError

        monkeypatch.setattr(linsolve.lapack, "dgttrf", no_memory)
        reports = green_norm_sweep(example_5_1, [1e-6], [32, 64])
        assert len(reports) == 8
        assert [mg for _, _, _, mg in setups] == [None, None]
        assert len(calls) == 2
        assert methods == ["splu"] * 8

    def test_norms_match_separate_solves_bitwise(self):
        eps, N = 1e-6, 16
        reports = green_norm_sweep(example_5_1, [eps], [N])
        spec = example_5_1(eps)
        lam = transition_params(eps, spec.alpha, spec.beta)
        mesh = build_mesh(N, *lam)
        A, _ = assemble(mesh, spec, 3)
        M = assemble_mass(mesh)
        probes = default_probes(*lam)
        for (_, _, region), r in reports.items():
            node = mesh.nearest_node(*probes[region])
            g = green_function(A, mesh, node,
                               mg=multigrid(A, (mesh.ny - 2, mesh.nx - 2)))
            assert r.l2_norm == fe_l2_norm(g, M)
            assert r.energy_norm == fe_energy_norm(g, M, eps)
