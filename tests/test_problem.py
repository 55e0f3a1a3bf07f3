import numpy as np
import pytest

from shishkinfem.problem import (example_5_1, mms_problem, layer_template,
                                 on_grid, ProblemSpec, TemplateKind)

from oracles import example_5_1_db1_dx


class TestExample51:
    def test_pointwise_values(self):
        spec = example_5_1(1e-6)
        assert spec.f(1.0, 1.0) == pytest.approx(1.0 / 3.0)
        assert spec.c(0.0, 0.0) == pytest.approx(3.0)
        y = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(spec.b1(0.0 * y, y), 0.0)

    def test_a_lower_bound(self):
        # |a| = x^2 + e^(1+xy) >= 1 on the closed domain
        x, y = np.meshgrid(np.linspace(-1, 1, 101), np.linspace(-1, 1, 101))
        a_abs = x ** 2 + np.exp(1.0 + x * y)
        assert a_abs.min() >= 1.0

    def test_reaction_convection_positivity(self):
        # c - 0.5 * db1/dx > 0 on the closed domain
        x, y = np.meshgrid(np.linspace(-1, 1, 101), np.linspace(-1, 1, 101))
        spec = example_5_1(1e-6)
        val = spec.c(x, y) - 0.5 * example_5_1_db1_dx(x, y)
        assert val.min() > 0.0

    def test_db1_dx_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 50)
        y = rng.uniform(-1, 1, 50)
        spec = example_5_1(1e-3)
        h = 1e-6
        fd = (spec.b1(x + h, y) - spec.b1(x - h, y)) / (2 * h)
        np.testing.assert_allclose(example_5_1_db1_dx(x, y), fd, atol=1e-6)

    def test_eps_validation(self):
        for eps in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                example_5_1(eps)
        assert example_5_1(1.0).eps == 1.0


class TestMms:
    def test_boundary_values(self):
        spec = mms_problem(1.0)
        t = np.linspace(-1, 1, 9)
        np.testing.assert_allclose(spec.exact(np.ones_like(t), t), 0.0,
                                   atol=1e-15)
        np.testing.assert_allclose(spec.exact(t, -np.ones_like(t)), 0.0,
                                   atol=1e-15)

    def test_center_value(self):
        spec = mms_problem(1.0)
        assert spec.exact(0.5, 0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, 1.5, np.nan])
    def test_eps_outside_range(self, eps):
        with pytest.raises(ValueError, match="eps must lie in"):
            mms_problem(eps)

    def test_f_matches_operator_finite_differences(self):
        # apply -eps*Lap + b1*d/dx + c to u with central differences
        spec = mms_problem(1.0)
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.9, 0.9, 20)
        y = rng.uniform(-0.9, 0.9, 20)
        h = 1e-4
        u = spec.exact
        lap = ((u(x + h, y) - 2 * u(x, y) + u(x - h, y)) / h ** 2
               + (u(x, y + h) - 2 * u(x, y) + u(x, y - h)) / h ** 2)
        ux = (u(x + h, y) - u(x - h, y)) / (2 * h)
        applied = -spec.eps * lap + spec.b1(x, y) * ux + spec.c(x, y) * u(x, y)
        np.testing.assert_allclose(applied, spec.f(x, y), atol=1e-6)


class TestLayerTemplates:
    def test_interior_x_at_origin(self):
        tpl = layer_template("interior_x", 1e-6, 2.0, 1.0)
        assert tpl(0.0, 0.0) == pytest.approx(1.0)

    def test_interior_x_at_transition(self):
        eps, alpha = 1e-4, 2.0
        lam_x = (2 * eps / alpha) * np.log(1 / eps)
        tpl = layer_template("interior_x", eps, alpha, 1.0)
        assert tpl(lam_x, 0.0) == pytest.approx(eps ** 2, rel=1e-12)

    def test_boundary_y_at_wall(self):
        eps, beta = 1e-6, 1.0
        tpl = layer_template("boundary_y", eps, 2.0, beta)
        expected = 1.0 + np.exp(-2 * beta / np.sqrt(eps))
        assert tpl(0.0, 1.0) == pytest.approx(expected)

    def test_smooth(self):
        tpl = layer_template("smooth", 1e-6, 2.0, 1.0)
        assert tpl(0.0, 0.0) == pytest.approx(1.0)
        assert tpl(1.0, 0.3) == pytest.approx(0.0)

    def test_kind_enum_roundtrip(self):
        tpl = layer_template(TemplateKind.CORNER_XY, 1e-6, 2.0, 1.0)
        assert tpl.kind is TemplateKind.CORNER_XY

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            layer_template("bogus", 1e-6, 2.0, 1.0)

    @pytest.mark.parametrize("eps, alpha, beta", [(0.0, 2.0, 1.0),
                                                  (np.nan, 2.0, 1.0),
                                                  (1e-6, np.nan, 1.0),
                                                  (1e-6, 2.0, np.nan),
                                                  (1.5, 2.0, 1.0)])
    def test_parameter_errors(self, eps, alpha, beta):
        with pytest.raises(ValueError, match="must be positive"):
            layer_template("corner_xy", eps, alpha, beta)


class TestProblemSpec:
    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (np.nan, 1.0),
                                             (2.0, np.nan)])
    def test_alpha_beta_errors(self, alpha, beta):
        with pytest.raises(ValueError, match="alpha and beta"):
            example_5_1(1e-4, alpha=alpha, beta=beta)

    @pytest.mark.parametrize("eps", [0.0, -1e-6, np.nan, 1.5])
    def test_eps_errors(self, eps):
        spec = example_5_1(1e-4)
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
            ProblemSpec(eps, spec.b1, spec.c, spec.f, 2.0, 1.0)


class TestOnGrid:
    @pytest.mark.parametrize("x_shape, y_shape", [((5,), (3,)),
                                                  ((4, 2), (3, 2))])
    def test_x_trailing_y_leading(self, x_shape, y_shape):
        x = np.arange(np.prod(x_shape), dtype=float).reshape(x_shape)
        y = 10.0 + np.arange(np.prod(y_shape), dtype=float).reshape(y_shape)
        seen = []

        def f(xa, ya):
            seen.append((xa.shape, ya.shape))
            return xa * ya

        grid = on_grid(f, x, y)
        assert seen == [((1,) * len(y_shape) + x_shape,
                         y_shape + (1,) * len(x_shape))]
        assert grid.shape == y_shape + x_shape
        assert np.array_equal(grid, np.multiply.outer(y, x))

    def test_constant_result_broadcast_as_float(self):
        grid = on_grid(lambda x, y: 2, np.zeros(4), np.zeros(3))
        assert grid.shape == (3, 4) and grid.dtype == float
        assert not grid.flags.writeable and np.all(grid == 2.0)
