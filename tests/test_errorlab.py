import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from shishkinfem import cli, errorlab, linsolve
from shishkinfem.meshgen import (Region, TensorMesh, build_mesh,
                                 classify_points, transition_params)
from shishkinfem.problem import (example_5_1, mms_problem, layer_template,
                                 on_grid)
from shishkinfem.assembly import FeField, assemble
from shishkinfem.greenfn import green_norm_sweep
from shishkinfem.errorlab import (bilinear_interp, error_table,
                                  interp_error_study, mms_convergence,
                                  solve_problem, _compare_nested, _rates,
                                  SAMPLES_PER_CELL, ZERO_TOL)

from oracles import (built_from, interpolation, node_coords, record_solves,
                     subcell_max)


def uniform_field(n, fn):
    nodes = np.linspace(-1.0, 1.0, n + 1)
    mesh = TensorMesh(nodes, nodes, 0.5, 0.25)
    return FeField(mesh=mesh, values=fn(*np.meshgrid(nodes, nodes)))


class TestBilinearInterp:
    def test_exact_at_nodes(self):
        field = uniform_field(4, lambda x, y: x ** 2 + y)
        vals = bilinear_interp(field, node_coords(field.mesh))
        np.testing.assert_allclose(vals, field.values.ravel(), atol=1e-14)

    def test_cell_center_average(self):
        nodes = np.array([-1.0, 1.0])
        mesh = TensorMesh(nodes, nodes, 0.5, 0.25)
        field = FeField(mesh=mesh, values=np.array([[0.0, 0.0], [0.0, 4.0]]))
        assert bilinear_interp(field, (0.0, 0.0)) == pytest.approx(1.0)

    def test_reproduces_linears(self):
        field = uniform_field(6, lambda x, y: x + 2 * y)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(50, 2))
        vals = bilinear_interp(field, pts)
        np.testing.assert_allclose(vals, pts[:, 0] + 2 * pts[:, 1],
                                   atol=1e-12)

    def test_outside_domain(self):
        field = uniform_field(4, lambda x, y: x)
        for points in [(1.5, 0.0), (np.nan, 0.0), (0.0, np.nan),
                       [(0.0, 0.0), (0.5, np.nan)]]:
            with pytest.raises(ValueError):
                bilinear_interp(field, points)


def rate(e_N, e_2N):
    """The rate rule on one pair of errors, at N = 8; None if undefined."""
    return _rates({8: e_N, 16: e_2N}, lambda n: 2 * n).get(8)


class TestConvergenceRate:
    def test_exact_halving(self):
        assert rate(0.04, 0.02) == pytest.approx(1.0)

    def test_reference_cross_check(self):
        # a non-power-of-two ratio: log2(1.5e-2 / 8.0e-3) = 0.9069
        assert rate(1.5e-2, 8.0e-3) == pytest.approx(0.9069, abs=5e-4)

    def test_negative_rate(self):
        assert rate(0.09021, 0.09552) == pytest.approx(-0.0825, abs=5e-4)

    def test_rounding_level_error_gives_no_rate(self):
        # nonpositive errors too: at or below ZERO_TOL is rounding
        for pair in [(0.0, 0.1), (0.1, 0.0), (ZERO_TOL, 0.1),
                     (0.1, ZERO_TOL), (ZERO_TOL / 2, ZERO_TOL / 4)]:
            assert rate(*pair) is None

    def test_rate_just_above_zero_tol(self):
        assert rate(4 * ZERO_TOL, 2 * ZERO_TOL) == pytest.approx(1.0)


class TestDoubleMesh:
    def test_solves_are_deterministic(self):
        spec = example_5_1(1e-4)
        u = solve_problem(spec, 8)
        same = solve_problem(spec, 8)
        np.testing.assert_allclose(u.values, same.values, atol=1e-12)

    def test_self_comparison_is_zero(self):
        # restricting a fine solution to itself at matching nodes must
        # give exactly zero in every region
        spec = example_5_1(1e-4)
        u16 = solve_problem(spec, 16)
        restricted = FeField(mesh=solve_problem(spec, 8).mesh,
                             values=u16.values[::2, ::2])
        regs = _compare_nested(restricted, u16)
        for r, v in regs.items():
            assert v == 0.0

    def test_errors_positive_and_regionwise(self):
        spec = example_5_1(1e-5)
        errors, _ = error_table(spec, [8])
        assert list(errors) == [(1e-5, 8, region) for region in Region]
        for v in errors.values():
            assert v > 0.0

    def test_same_bits_as_the_error_table(self, monkeypatch):
        # one cell of the table is one walk over N and 2N
        calls = counted_assemble(monkeypatch)
        spec = example_5_1(1e-6)
        errors, _ = error_table(spec, [16])
        assert calls == [16, 32]
        fields = dict(errorlab._solutions(spec, [16, 32]))
        errs = _compare_nested(fields[16], fields[32])
        for region in Region:
            assert errs[region] == errors[1e-6, 16, region]

    def test_mirror_invariance_of_region_maxima(self):
        # classify is even in x, so mirroring the probe set leaves the
        # region-wise maxima unchanged
        spec = example_5_1(1e-5)
        u8 = solve_problem(spec, 8)
        u16 = solve_problem(spec, 16)
        regs = _compare_nested(u8, u16)
        m8 = FeField(mesh=u8.mesh, values=u8.values[:, ::-1])
        m16 = FeField(mesh=u16.mesh, values=u16.values[:, ::-1])
        mirrored = _compare_nested(m8, m16)
        for r in regs:
            assert mirrored[r] == pytest.approx(regs[r], rel=1e-12)


class TestSolveProblemOrdering:
    @pytest.fixture
    def recorded(self, monkeypatch):
        return record_solves(monkeypatch, errorlab, "solve")

    @pytest.mark.parametrize("eps", [1e-5, 1e-7, 1e-9])
    @pytest.mark.parametrize("N", [16, 32, 64])
    def test_one_galerkin_setup_for_a_lone_N(self, recorded, eps, N):
        # a lone N has no assembled N/2 level: the coarse levels are
        # Galerkin operators, formed inside this one setup
        setups, methods = recorded
        solve_problem(example_5_1(eps), N)
        (_, shape, coarse, mg), = setups
        assert shape == (N - 1, 2 * N - 1)
        assert coarse is None and mg is not None
        assert methods == ["mg"]

    def test_failed_setup_falls_back_to_splu(self, recorded, monkeypatch):
        setups, methods = recorded
        u_mg = solve_problem(example_5_1(1e-6), 32)

        calls = []

        def no_memory(*args, **kwargs):
            calls.append(args)
            raise MemoryError

        monkeypatch.setattr(linsolve.lapack, "sgttrf", no_memory)
        u = solve_problem(example_5_1(1e-6), 32)
        assert len(calls) > 0
        assert [mg is None for *_, mg in setups] == [False, True]
        assert methods == ["mg", "splu"]
        np.testing.assert_allclose(u.values, u_mg.values, rtol=0.0,
                                   atol=1e-12)


def counted_assemble(monkeypatch):
    """Record the N of every `assemble` call errorlab makes."""
    calls, assemble = [], errorlab.assemble

    def counting(mesh, spec):
        calls.append(mesh.ny - 1)
        return assemble(mesh, spec)

    monkeypatch.setattr(errorlab, "assemble", counting)
    return calls


class TestNestedSystems:
    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-9])
    def test_levels_are_the_assembled_nested_meshes(self, eps):
        spec = example_5_1(eps)
        lam = transition_params(eps, spec.alpha, spec.beta)
        *_, (_, _, A, _, mg) = errorlab.nested_systems(spec, [16, 32, 64])
        assert built_from(mg.levels[0], A)
        for level, n in zip(mg.levels, (64, 32, 16)):
            A_n, _ = assemble(build_mesh(n, *lam), spec)
            assert level.shape == (n - 1, 2 * n - 1)
            assert built_from(level, A_n)
            assert not built_from(level, A_n.T)
        assert len(mg.levels) == 3

    def test_each_level_assembled_once_per_eps_row(self, monkeypatch):
        calls = counted_assemble(monkeypatch)
        monkeypatch.setattr(errorlab, "solve",
                            lambda A, b, **kwargs: (np.zeros_like(b), None))
        for eps in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            error_table(example_5_1(eps), [16, 32, 64, 128])
        assert calls == [16, 32, 64, 128, 256] * 5
        calls.clear()
        solve_problem(example_5_1(1e-6), 64)
        assert calls == [64]

    @pytest.mark.parametrize("order", [1, 4])
    def test_sweeps_assemble_with_the_order_of_their_spec(self, order,
                                                          monkeypatch):
        orders, assemble = [], errorlab.assemble

        def recording(mesh, spec):
            orders.append(spec.quad_order)
            return assemble(mesh, spec)

        monkeypatch.setattr(errorlab, "assemble", recording)
        spec = dataclasses.replace(example_5_1(1e-4), quad_order=order)
        mms = dataclasses.replace(mms_problem(1e-4), quad_order=order)
        error_table(spec, [8])
        green_norm_sweep(spec, [8])
        solve_problem(spec, 8)
        mms_convergence(mms, [8])
        assert orders == [order] * 5

    @pytest.mark.parametrize("N_list", [[28], [100], [16, 64]])
    def test_no_solved_half_mesh_takes_galerkin_levels(self, N_list,
                                                       monkeypatch):
        # N % 8 == 4 has no N/2 Shishkin mesh (an odd count of intervals
        # in a y-layer strip); N = 64 after 16 has its N/2 mesh unsolved.
        # Either way the coarse levels are P^T A P
        calls = counted_assemble(monkeypatch)
        spec = example_5_1(1e-6)
        *_, (_, mesh, A, F, mg) = errorlab.nested_systems(spec, N_list)
        assert calls == N_list
        fine, coarse = mg.levels[:2]
        P = interpolation(fine.shape)
        galerkin = (P.T @ A @ P).tocsr()
        assert built_from(fine, A)
        assert built_from(coarse, galerkin)
        assert not built_from(coarse, galerkin.T)
        u, report = linsolve.solve(A, F, mg=mg)
        assert report.method == "mg"
        assert np.linalg.norm(F - A @ u) <= 1e-10 * np.linalg.norm(F)

    def test_2N_solve_starts_from_the_N_solution(self, monkeypatch):
        seen, solve = [], errorlab.solve

        def recording_solve(A, b, **kwargs):
            u, report = solve(A, b, **kwargs)
            seen.append((A, kwargs["mg"], kwargs["x0"], b, u, report))
            return u, report

        monkeypatch.setattr(errorlab, "solve", recording_solve)
        error_table(example_5_1(1e-7), [16, 32])
        (_, mg16, x16, _, u16, _), (A32, mg32, x32, b32, u32, r32), \
            (A64, mg64, x64, b64, _, r64) = seen
        assert x16 is None
        assert mg32.coarse is mg16 and mg64.coarse is mg32
        # P u_N on the odd grid rows; the first half-sweep sets the even ones
        for x, mg, u in ((x32, mg32, u16), (x64, mg64, u32)):
            X = x.reshape(mg.shape)
            PU = (interpolation(mg.shape) @ u).reshape(mg.shape)
            assert np.array_equal(X[1::2], PU[1::2])
            assert not X[0::2].any()
        # (7 against 7 at N = 32, fewer further up the row)
        _, cold = solve(A32, b32, mg=mg32)
        assert r32.iterations <= cold.iterations
        _, cold = solve(A64, b64, mg=mg64)
        assert r64.iterations < cold.iterations


class TestErrorTable:
    def test_grid_complete(self):
        errors, _ = error_table(example_5_1(1e-4), [16, 8])
        # keyed (eps, N, Region) in row order: N, then Region
        assert list(errors) == [(1e-4, N, region) for N in (8, 16)
                                for region in Region]
        for e in errors.values():
            assert type(e) is float and e >= 0.0

    def test_each_row_freed_before_the_next(self, monkeypatch, tmp_path):
        # in a CLI table, one eps row's solution grids are freed before
        # the next row's solves, so no solve of a row runs with the last
        # row's fields
        rows, live, solutions = [], [], errorlab._solutions

        def watched(*args):
            rows.append([])
            for N, field in solutions(*args):
                if len(rows) == 2 and not rows[1]:
                    gc.collect()
                    live.extend(ref() is not None for ref in rows[0])
                rows[-1].append(weakref.ref(field.values))
                yield N, field

        monkeypatch.setattr(errorlab, "_solutions", watched)
        assert cli.main(["--mode", "errors", "--eps", "1e-4,1e-5",
                         "--N", "8", "-o", str(tmp_path)]) == 0
        assert [len(refs) for refs in rows] == [2, 2]
        assert live == [False, False]

    def test_rates_derive_from_errors(self):
        errors, rates = error_table(example_5_1(1e-4), [8, 16])
        e8 = errors[1e-4, 8, Region.COARSE]
        e16 = errors[1e-4, 16, Region.COARSE]
        assert rates[1e-4, 8, Region.COARSE] == pytest.approx(
            math.log2(e8 / e16))
        assert (1e-4, 16, Region.COARSE) not in rates

    def test_second_order_at_eps_one(self):
        # eps = 1 has no layer: on the caps' mesh every region converges
        # at the smooth-solution rate
        _, rates = error_table(example_5_1(1.0), [16, 32, 64])
        assert list(rates) == [(1.0, N, region) for N in (16, 32)
                               for region in Region]
        for rate in rates.values():
            assert rate == pytest.approx(2.0, abs=0.1)

    def test_rounding_level_errors_give_no_rate(self):
        # f scaled to 1e-15 scales u and its double-mesh errors with it:
        # those are rounding, below ZERO_TOL, and form no rate
        spec = example_5_1(1e-4)
        tiny = dataclasses.replace(spec, f=lambda x, y: 1e-15 * spec.f(x, y))
        errors, rates = error_table(tiny, [8, 16])
        for e in errors.values():
            assert 0.0 < e <= ZERO_TOL
        assert rates == {}

    def test_duplicated_inputs_give_one_entry_per_key(self):
        errors, rates = error_table(example_5_1(1e-4), [16, 8, 16])
        assert list(errors) == [(1e-4, N, region) for N in (8, 16)
                                for region in Region]
        assert list(rates) == [(1e-4, 8, region) for region in Region]


def pointwise_interp_study(template, eps, alpha, beta, N_list):
    """Oracle: the interpolation study on flat arrays of sample points,
    each located by `bilinear_interp` and tagged by `classify_points`."""
    lam_x, lam_y = transition_params(eps, alpha, beta)
    offsets = np.linspace(0.0, 1.0, SAMPLES_PER_CELL)
    results = {}
    for N in sorted(N_list):
        mesh = build_mesh(N, lam_x, lam_y)
        xs, ys = mesh.x, mesh.y
        fld = FeField(mesh=mesh, values=template(*np.meshgrid(xs, ys)))
        X0, Y0 = np.meshgrid(xs[:-1], ys[:-1])
        H, K = np.meshgrid(np.diff(xs), np.diff(ys))
        maxima = {region: 0.0 for region in Region}
        for u in offsets:
            for v in offsets:
                px = (X0 + u * H).ravel()
                py = (Y0 + v * K).ravel()
                err = np.abs(template(px, py)
                             - bilinear_interp(fld, np.column_stack([px, py])))
                tags = classify_points(px, py, lam_x, lam_y)
                for region in Region:
                    mask = tags == region
                    if mask.any():
                        maxima[region] = max(maxima[region],
                                             float(err[mask].max()))
        for region in Region:
            results[eps, N, region] = maxima[region]
    return results


class TestInterpStudy:
    @pytest.mark.parametrize("kind", ["smooth", "interior_x", "boundary_y",
                                      "corner_xy"])
    @pytest.mark.parametrize("eps", [1e-6, 3.7e-9, 0.2])
    def test_equals_pointwise_study(self, kind, eps):
        tpl = layer_template(kind, eps, 2.0, 1.0)
        # equal values in the same row order
        assert (list(interp_error_study(tpl, eps, 2.0, 1.0, [16, 8]).items())
                == list(pointwise_interp_study(tpl, eps, 2.0, 1.0,
                                               [8, 16]).items()))

    def test_equals_pointwise_study_on_gathered_cells(self):
        # at offset 1 most samples round onto the next node and move one
        # cell over, but some stay: the kernel keeps only those, and
        # gathers their cells into strips
        eps, N = 1e-6, 64
        xs = build_mesh(N, *transition_params(eps, 2.0, 1.0)).x
        i, _ = errorlab._locate(xs, xs[:-1] + 1.0 * np.diff(xs))
        moved = i != np.arange(len(i))
        assert moved.any() and not moved[:-1].all()
        tpl = layer_template("corner_xy", eps, 2.0, 1.0)
        assert (list(interp_error_study(tpl, eps, 2.0, 1.0,
                                        [N, 128]).items())
                == list(pointwise_interp_study(tpl, eps, 2.0, 1.0,
                                               [N, 128]).items()))

    @pytest.mark.parametrize("eps, N", [(1e-6, 128), (1e-6, 256),
                                        (1e-6, 512)]
                             + [(eps, N) for eps in (0.2, 1e-6, 3.7e-9)
                                for N in (8, 16, 64)])
    def test_offset_one_drops_only_twins(self, eps, N):
        # a dropped offset-1 sample of cell m is the offset-0 sample of
        # cell m + 1 bit for bit: same coordinate, same cell, s = 0
        mesh = build_mesh(N, *transition_params(eps, 2.0, 1.0))
        for nodes, most in ((mesh.x, 2), (mesh.y, 1)):
            samples = list(errorlab._samples(nodes))
            assert len(samples) == SAMPLES_PER_CELL
            (p0, cells0, s0), (p1, cells1, s1) = samples[0], samples[-1]
            assert cells0 == slice(None) and not s0.any()
            p = nodes[:-1] + 1.0 * np.diff(nodes)
            i, s = errorlab._locate(nodes, p)
            kept = np.isin(p, p1)
            assert 1 <= kept.sum() == len(p1) <= most
            assert kept[-1]     # the domain's last node has no twin
            m = np.flatnonzero(~kept)
            assert np.array_equal(p[m], p0[m + 1])
            assert np.array_equal(i[m], m + 1) and not s[m].any()
            assert np.array_equal(cells1, i[kept])
            assert np.array_equal(s1, s[kept])

    def test_template_called_on_the_axes(self):
        tpl = layer_template("corner_xy", 1e-6, 2.0, 1.0)
        shapes = []

        def recording(x, y):
            shapes.append((np.shape(x), np.shape(y)))
            return tpl.func(x, y)

        interp_error_study(dataclasses.replace(tpl, func=recording),
                           1e-6, 2.0, 1.0, [8, 16])
        # nodes and 25 offset pairs per N
        calls = 1 + SAMPLES_PER_CELL ** 2
        assert len(shapes) == 2 * calls
        for (rows, m), (k, cols) in shapes:     # a row and a column
            assert rows == cols == 1 and m >= 1 and k >= 1
        # per axis: the nodes, every cell at the offsets below 1 and, at
        # offset 1, the kept samples: those that are not the next node
        # and the domain's last node
        for N, calls_N in zip([8, 16], [shapes[:calls], shapes[calls:]]):
            mesh = build_mesh(N, *transition_params(1e-6, 2.0, 1.0))
            for axis, nodes in enumerate([mesh.x, mesh.y]):
                n = len(nodes) - 1
                kept = 1 + np.count_nonzero(nodes[:-2] + np.diff(nodes)[:-1]
                                            != nodes[1:-1])
                assert sum(call[axis][1 - axis] for call in calls_N) == \
                    n + 1 + (SAMPLES_PER_CELL - 1) * SAMPLES_PER_CELL * n \
                    + SAMPLES_PER_CELL * kept

    def test_constant_template_exact(self):
        from shishkinfem.problem import LayerTemplate, TemplateKind
        const = LayerTemplate(kind=TemplateKind.SMOOTH,
                              func=lambda x, y: np.ones_like(np.asarray(x)))
        res = interp_error_study(const, 1e-6, 2.0, 1.0, [8])
        assert len(res) == 4
        for v in res.values():
            assert v == 0.0

    @pytest.mark.parametrize("eps", [1e-6, 0.3])
    def test_bilinear_template_exact(self, eps):
        # a + b x + c y + d x y is its own bilinear interpolant
        from shishkinfem.problem import LayerTemplate, TemplateKind
        bilinear = LayerTemplate(
            kind=TemplateKind.SMOOTH,
            func=lambda x, y: 0.3 - 1.7 * x + 0.9 * y + 1.3 * x * y)
        res = interp_error_study(bilinear, eps, 2.0, 1.0, [8, 16])
        assert len(res) == 8
        assert max(res.values()) <= 1e-14

    def test_peak_memory_of_the_kernel(self):
        # N = 512 has 512 rows of 1024 cells, so blocks of 64 rows: the
        # nodal values (1.0 cell grid) and, for one block, the three
        # cell differences, the x part, err, the (s t) dxy term and one
        # template grid (7/8 of a cell grid) live at the peak, 2.07 cell
        # grids; `oracles.subcell_max`, on every row at once, holds 8
        tpl = layer_template("corner_xy", 1e-6, 2.0, 1.0)
        N = 512
        interp_error_study(tpl, 1e-6, 2.0, 1.0, [N])      # warm
        tracemalloc.start()
        try:
            interp_error_study(tpl, 1e-6, 2.0, 1.0, [N])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        mesh = build_mesh(N, *transition_params(1e-6, 2.0, 1.0))
        cell_grid = (mesh.ny - 1) * (mesh.nx - 1) * 8
        assert peak <= 3 * cell_grid

    def test_non_finite_template_raises(self):
        # NaN in the coarse region only; the other maxima are finite
        from shishkinfem.problem import LayerTemplate, TemplateKind
        nan_right = LayerTemplate(
            kind=TemplateKind.SMOOTH,
            func=lambda x, y: np.where(x > 0.5, np.nan, x * y))
        with pytest.raises(ValueError, match="coarse at N = 8"):
            interp_error_study(nan_right, 1e-6, 2.0, 1.0, [8])

    def test_non_finite_in_one_block_raises(self, monkeypatch):
        # blocks of one cell row; NaN in the coarse rows -1/2 < y < 0
        # only, so earlier and later blocks have finite maxima there
        from shishkinfem.problem import LayerTemplate, TemplateKind
        mesh = build_mesh(8, *transition_params(1e-6, 2.0, 1.0))
        monkeypatch.setattr(errorlab, "BLOCK_CELLS", mesh.nx - 1)
        nan_inside = LayerTemplate(
            kind=TemplateKind.SMOOTH,
            func=lambda x, y: np.where((x > 0.5) & (-0.5 < y) & (y < 0.0),
                                       np.nan, x * y))
        with pytest.raises(ValueError, match="coarse at N = 8"):
            interp_error_study(nan_inside, 1e-6, 2.0, 1.0, [8])

    def test_smooth_second_order_coarse(self):
        tpl = layer_template("smooth", 1e-6, 2.0, 1.0)
        res = interp_error_study(tpl, 1e-6, 2.0, 1.0, [32, 64])
        rate = math.log2(res[1e-6, 32, Region.COARSE]
                         / res[1e-6, 64, Region.COARSE])
        assert rate >= 1.8

    def test_interior_x_shishkin_bound(self):
        tpl = layer_template("interior_x", 1e-6, 2.0, 1.0)
        res = interp_error_study(tpl, 1e-6, 2.0, 1.0, [16, 32, 64, 128])
        C = res[1e-6, 16, Region.LAYER_X] * 16 ** 2 / math.log(16) ** 2
        for N in (32, 64, 128):
            bound = 1.3 * C * math.log(N) ** 2 / N ** 2
            assert res[1e-6, N, Region.LAYER_X] <= bound


class TestSubcellBlocks:
    @pytest.mark.parametrize("kind", ["smooth", "interior_x", "boundary_y",
                                      "corner_xy"])
    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 0.3])
    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_equals_whole_grid_oracle(self, kind, eps, rows, monkeypatch):
        # blocks of one row (BLOCK_CELLS = 1 is less than a row), of
        # three rows and of the default BLOCK_CELLS: the edges of the
        # small ones fall inside every region, and the maxima are equal
        tpl = layer_template(kind, eps, 2.0, 1.0)
        for N in (8, 16, 64):
            mesh = build_mesh(N, *transition_params(eps, 2.0, 1.0))
            if rows is not None:
                monkeypatch.setattr(errorlab, "BLOCK_CELLS",
                                    1 if rows == 1 else rows * (mesh.nx - 1))
            nodal = on_grid(tpl.func, mesh.x, mesh.y)
            assert errorlab._subcell_max(mesh, nodal, tpl.func) == \
                subcell_max(mesh, nodal, tpl.func)


class TestMmsConvergence:
    def test_second_order_uniform_regime(self):
        spec = mms_problem(1.0)
        errors, rates = mms_convergence(spec, [8, 16, 32, 64])
        for N, r in rates.items():
            assert r == pytest.approx(2.0, abs=0.15)
        assert errors[64] <= errors[32]

    def test_zero_error_reports_undefined_rate(self):
        # a spec whose exact solution is identically zero: f = 0
        from shishkinfem.problem import ProblemSpec
        zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
        spec = ProblemSpec(eps=1.0, b1=zero, c=lambda x, y: 3 + 0 * x,
                           f=zero, alpha=2.0, beta=1.0, exact=zero)
        errors, rates = mms_convergence(spec, [8, 16])
        assert 8 not in rates

    def test_rate_pairs_N_with_2N(self):
        # with 32 missing, no rate pairs 16 with 64 (that reads ~4)
        errors, rates = mms_convergence(mms_problem(1.0), [8, 16, 64])
        assert list(errors) == [8, 16, 64]
        assert list(rates) == [8]
        assert rates[8] == pytest.approx(2.0, abs=0.15)

    def test_requires_exact(self):
        with pytest.raises(ValueError):
            mms_convergence(example_5_1(1e-4), [8, 16])
