import numpy as np
import pytest
from hypothesis import given, strategies as st

from shishkinfem.meshgen import (Region, transition_params, build_x_axis,
                                 build_y_axis, build_mesh, classify_points,
                                 region_masks)

from oracles import classify


class TestTransitionParams:
    def test_small_eps(self):
        lx, ly = transition_params(1e-6, 2.0, 1.0)
        assert lx == pytest.approx(1.38155e-5, rel=1e-4)
        assert ly == pytest.approx(4.14465e-2, rel=1e-4)

    def test_cap_active(self):
        lx, _ = transition_params(0.3, 0.5, 1.0)
        assert lx == 0.5  # 1.2*log(1/0.3) ~ 1.445 exceeds the cap

    def test_tiny_eps(self):
        lx, _ = transition_params(1e-9, 2.0, 1.0)
        assert lx == pytest.approx(2.0723e-8, rel=1e-4)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.1])
    def test_domain_errors(self, eps):
        with pytest.raises(ValueError):
            transition_params(eps, 2.0, 1.0)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (2.0, -1.0),
                                             (np.nan, 1.0), (2.0, np.nan)])
    def test_alpha_beta_errors(self, alpha, beta):
        with pytest.raises(ValueError, match="alpha and beta"):
            transition_params(1e-4, alpha, beta)

    @given(st.floats(min_value=1e-12, max_value=0.999),
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0))
    def test_bounds(self, eps, alpha, beta):
        lx, ly = transition_params(eps, alpha, beta)
        assert 0.0 < lx <= 0.5
        assert 0.0 < ly <= 0.25


class TestXAxis:
    def test_hand_evaluated(self):
        ax = build_x_axis(4, 0.1)
        np.testing.assert_allclose(
            ax, [-1, -0.55, -0.1, -0.05, 0, 0.05, 0.1, 0.55, 1],
            atol=1e-15)

    def test_uniform_at_cap(self):
        ax = build_x_axis(4, 0.5)
        np.testing.assert_allclose(np.diff(ax), 0.25, atol=1e-15)

    def test_transition_node_and_spacings(self):
        ax = build_x_axis(8, 0.1)
        n = len(ax) - 1  # 2N intervals
        assert n == 16
        # positive half: node N/2 past center is the transition point
        assert ax[8 + 4] == pytest.approx(0.1)
        assert ax[8 + 1] - ax[8] == pytest.approx(0.05 / 2)
        assert ax[8 + 5] - ax[8 + 4] == pytest.approx(0.225)

    def test_symmetric(self):
        ax = build_x_axis(12, 0.3)
        np.testing.assert_allclose(ax, -ax[::-1], atol=1e-14)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            build_x_axis(5, 0.1)

    @pytest.mark.parametrize("lambda_x", [0.0, 0.6, np.nan])
    def test_lambda_out_of_range(self, lambda_x):
        with pytest.raises(ValueError, match="lambda_x must lie in"):
            build_x_axis(8, lambda_x)


class TestYAxis:
    def test_hand_evaluated_n4(self):
        ay = build_y_axis(4, 0.25)
        np.testing.assert_allclose(ay, [-1, -0.75, 0, 0.75, 1], atol=1e-15)

    def test_hand_evaluated_n8(self):
        ay = build_y_axis(8, 0.2)
        np.testing.assert_allclose(
            ay, [-1, -0.9, -0.8, -0.4, 0, 0.4, 0.8, 0.9, 1], atol=1e-15)

    def test_branch_boundary(self):
        ay = build_y_axis(4, 0.25)
        assert ay[3] == pytest.approx(0.75)

    def test_not_multiple_of_4(self):
        with pytest.raises(ValueError):
            build_y_axis(6, 0.2)

    @pytest.mark.parametrize("lambda_y", [0.0, 0.3, np.nan])
    def test_lambda_out_of_range(self, lambda_y):
        with pytest.raises(ValueError, match="lambda_y must lie in"):
            build_y_axis(8, lambda_y)


class TestWidths:
    @pytest.mark.parametrize("N,lx,ly", [(8, 0.1, 0.2), (16, 0.02, 0.1)])
    def test_piecewise_spacings(self, N, lx, ly):
        ax = build_x_axis(N, lx)
        hx = np.diff(ax)
        # fine x-spacing 2*lx/N, coarse 2*(1-lx)/N on each half
        np.testing.assert_allclose(hx[N // 2:N], 2 * lx / N)
        np.testing.assert_allclose(hx[:N // 2], 2 * (1 - lx) / N)
        ay = build_y_axis(N, ly)
        hy = np.diff(ay)
        np.testing.assert_allclose(hy[:N // 4], 4 * ly / N)
        np.testing.assert_allclose(hy[N // 4:3 * N // 4], 4 * (1 - ly) / N)


class TestDegenerateMesh:
    # lambda_y / (N/4) below float resolution at |y| = 1 collapses the
    # strip nodes onto +-1; such a mesh is an error, not a singular matrix
    @pytest.mark.parametrize("eps, N", [(1e-300, 8), (1e-40, 4), (1e-35, 64)])
    def test_collapsed_y_strip_rejected(self, eps, N):
        lx, ly = transition_params(eps, 2.0, 1.0)
        with pytest.raises(ValueError,
                           match=f"lambda_y = {ly:.6g} .* at N = {N}$"):
            build_mesh(N, lx, ly)

    def test_collapsed_x_layer_rejected(self):
        with pytest.raises(ValueError, match="lambda_x = 4.94066e-324 "):
            build_x_axis(8, 5e-324)

    def test_smallest_eps_of_the_studies_is_fine(self):
        lx, ly = transition_params(1e-9, 2.0, 1.0)
        for N in (4, 512, 1024):
            assert np.all(np.diff(build_mesh(N, lx, ly).y) > 0.0)


class TestNestedness:
    @pytest.mark.parametrize("eps", [1e-5, 1e-8])
    def test_2n_contains_n(self, eps):
        lx, ly = transition_params(eps, 2.0, 1.0)
        for N in (8, 16, 32):
            coarse = build_mesh(N, lx, ly)
            fine = build_mesh(2 * N, lx, ly)
            np.testing.assert_allclose(fine.x[::2], coarse.x, atol=1e-12)
            np.testing.assert_allclose(fine.y[::2], coarse.y, atol=1e-12)


class TestClassify:
    def test_examples(self):
        assert classify(0.5, 0.0, 0.1, 0.2) is Region.COARSE
        assert classify(0.05, 0.95, 0.1, 0.2) is Region.LAYER_XY
        assert classify(-0.05, 0.0, 0.1, 0.2) is Region.LAYER_X

    def test_tie_break_layer_wins(self):
        assert classify(0.1, 0.0, 0.1, 0.2) is Region.LAYER_X
        assert classify(0.5, 0.8, 0.1, 0.2) is Region.LAYER_Y
        assert classify(0.1, 0.8, 0.1, 0.2) is Region.LAYER_XY

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            classify(1.5, 0.0, 0.1, 0.2)

    @given(st.floats(min_value=-1, max_value=1),
           st.floats(min_value=-1, max_value=1))
    def test_even_symmetry(self, x, y):
        tag = classify(x, y, 0.1, 0.2)
        assert classify(-x, y, 0.1, 0.2) is tag
        assert classify(x, -y, 0.1, 0.2) is tag

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(200, 2))
        tags = classify_points(pts[:, 0], pts[:, 1], 0.1, 0.2)
        for (x, y), tag in zip(pts, tags):
            assert classify(x, y, 0.1, 0.2) is tag

    def test_transition_lines_are_nodes(self):
        lx, ly = transition_params(1e-6, 2.0, 1.0)
        mesh = build_mesh(16, lx, ly)
        xs, ys = mesh.x, mesh.y
        for v in (-lx, lx):
            assert np.min(np.abs(xs - v)) < 1e-14
        for v in (-1 + ly, 1 - ly):
            assert np.min(np.abs(ys - v)) < 1e-14


class TestRegionMasks:
    @pytest.mark.parametrize("N", [8, 16])
    @pytest.mark.parametrize("eps", [1e-4, 1e-8])
    def test_every_node(self, N, eps):
        # x-nodes N/2...3N/2 span [-lambda_x, lambda_x]; y-nodes 0...N/4
        # and 3N/4...N the strips; both ranges include the transition lines
        mesh = build_mesh(N, *transition_params(eps, 2.0, 1.0))
        xs, ys = mesh.x, mesh.y
        masks = {region: mx & my for region, (mx, my) in region_masks(
            xs[None, :], ys[:, None], mesh.lambda_x, mesh.lambda_y).items()}
        i, j = np.arange(2 * N + 1), np.arange(N + 1)
        in_x = ((i >= N // 2) & (i <= 3 * N // 2))[None, :]
        in_y = ((j <= N // 4) | (j >= 3 * N // 4))[:, None]
        expected = {Region.COARSE: ~in_x & ~in_y, Region.LAYER_X: in_x & ~in_y,
                    Region.LAYER_Y: ~in_x & in_y, Region.LAYER_XY: in_x & in_y}
        for region, mask in masks.items():
            assert mask.shape == (N + 1, 2 * N + 1)
            assert np.array_equal(mask, expected[region])
        for jj, y in enumerate(ys):
            for ii, x in enumerate(xs):
                tag = classify(x, y, mesh.lambda_x, mesh.lambda_y)
                assert [r for r, m in masks.items() if m[jj, ii]] == [tag]

    def test_outside_domain(self):
        for x, y in [([0.0, 1.5], 0.0), ([0.0, np.nan], 0.0),
                     (0.0, [np.nan])]:
            with pytest.raises(ValueError):
                region_masks(np.array(x), np.array(y), 0.1, 0.2)

    def test_masks_are_per_axis(self):
        xs, ys = np.linspace(-1, 1, 7), np.linspace(-1, 1, 5)
        for mx, my in region_masks(xs, ys, 0.4, 0.3).values():
            assert mx.shape == xs.shape and my.shape == ys.shape


class TestNearestNode:
    def test_interior_point(self):
        mesh = build_mesh(8, 0.1, 0.2)
        xs, ys = mesh.x, mesh.y
        # (0.56, 0.05) is nearest to x = 0.55 (i = 14) and y = 0 (j = 4)
        assert (xs[14], ys[4]) == pytest.approx((0.55, 0.0))
        assert mesh.nearest_node(0.56, 0.05) == (14, 4)

    def test_boundary_point_clamped_to_interior(self):
        mesh = build_mesh(8, 0.1, 0.2)
        last_i, last_j = mesh.nx - 2, mesh.ny - 2
        assert mesh.nearest_node(-1.0, -1.0) == (1, 1)
        assert mesh.nearest_node(1.0, 1.0) == (last_i, last_j)
        assert mesh.nearest_node(-1.0, 0.0) == (1, 4)
        assert mesh.nearest_node(0.56, 1.0) == (14, last_j)

    @pytest.mark.parametrize("point", [(np.nan, 0.0), (0.0, np.nan),
                                       (np.inf, 0.0)])
    def test_non_finite_point(self, point):
        mesh = build_mesh(8, 0.1, 0.2)
        with pytest.raises(ValueError, match="not finite"):
            mesh.nearest_node(*point)
