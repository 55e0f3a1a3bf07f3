"""Problem instances: coefficients, sources, and synthetic layer functions.

The model equation is

    -eps * Lap(u) + b1(x,y) * u_x + c(x,y) * u = f(x,y)   on (-1,1)^2,
    u = 0 on the boundary,

with b1(x,y) = x * a(x,y) changing sign across the turning line x = 0.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ProblemSpec",
    "TemplateKind",
    "LayerTemplate",
    "example_5_1",
    "mms_problem",
    "layer_template",
]

DEFAULT_ALPHA = 2.0
DEFAULT_BETA = 1.0


@dataclass(frozen=True)
class ProblemSpec:
    """A turning-point convection-diffusion problem instance: b1, c, f
    and exact are elementwise numpy callables of (x, y) (see `on_grid`);
    `assemble` integrates with quad_order Gauss points per cell axis."""

    eps: float
    b1: Callable
    c: Callable
    f: Callable
    alpha: float
    beta: float
    exact: Optional[Callable] = None
    quad_order: int = 3

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:     # NaN fails too
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if not (self.alpha > 0.0 and self.beta > 0.0):     # NaN fails too
            raise ValueError("alpha and beta must be positive")
        if self.quad_order not in (1, 2, 3, 4):
            raise ValueError("quadrature order must be in 1..4, "
                             f"got {self.quad_order}")


def on_grid(func, x, y):
    """Elementwise func on the tensor grid of the arrays x and y, of
    shape y.shape + x.shape: func gets x on the trailing axes and y on
    the leading ones, and its result is broadcast (read-only) to the grid."""
    out = func(x[(None,) * y.ndim], y[(...,) + (None,) * x.ndim])
    return np.broadcast_to(np.asarray(out, dtype=float), y.shape + x.shape)


def _b1_ex(x, y):
    return -x * (x * x + np.exp(1.0 + x * y))


def _c_ex(x, y):
    return 3.0 + x * x * np.exp(x)


def _f_ex(x, y):
    return x * y / (1.0 + x * x + y * y)


def example_5_1(eps, alpha=DEFAULT_ALPHA, beta=DEFAULT_BETA):
    """Benchmark problem with an interior layer at x=0 and boundary
    layers at y = +-1:

        b1 = -x (x^2 + e^(1+xy)),  c = 3 + x^2 e^x,  f = xy / (1 + x^2 + y^2).

    Since |f| <= 1/3 and c >= 3, |u| <= 1/9.  f(0, y) = 0, so u is close
    to 0 along the turning line: the x-layer region carries a weak cusp,
    u ~ |x|^(c(0)/|a(0)|) with exponent 3/e (a = b1/x), not an O(1)
    interior layer.
    """
    return ProblemSpec(eps=eps, b1=_b1_ex, c=_c_ex, f=_f_ex,
                       alpha=alpha, beta=beta)


def mms_problem(eps, alpha=DEFAULT_ALPHA, beta=DEFAULT_BETA):
    """Manufactured-solution problem with exact u = sin(pi x) sin(pi y).

    Uses the benchmark coefficients b1, c; f is the operator applied to u,
    derived analytically:

        f = 2 eps pi^2 u + b1 * pi cos(pi x) sin(pi y) + c * u.
    """

    def exact(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def f(x, y):
        u = exact(x, y)
        ux = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
        return 2.0 * eps * np.pi ** 2 * u + _b1_ex(x, y) * ux + _c_ex(x, y) * u

    return ProblemSpec(eps=eps, b1=_b1_ex, c=_c_ex, f=f,
                       alpha=alpha, beta=beta, exact=exact)


class TemplateKind(Enum):
    SMOOTH = "smooth"
    INTERIOR_X = "interior_x"
    BOUNDARY_Y = "boundary_y"
    CORNER_XY = "corner_xy"


@dataclass(frozen=True)
class LayerTemplate:
    """Synthetic function mimicking one part of the layer structure.

    These are interpolation-study targets only; they are not solutions
    of the PDE.
    """

    kind: TemplateKind
    func: Callable

    def __call__(self, x, y):
        return self.func(x, y)


def layer_template(kind, eps, alpha=DEFAULT_ALPHA, beta=DEFAULT_BETA):
    """Build a layer-shaped test function, an x factor times a y factor:
    the x-layer exp(-alpha |x| / eps) for interior_x and corner_xy, else
    1-x^2; the y-layer exp(-beta (1-y)/sqrt(eps)) + exp(-beta (1+y)/sqrt(eps))
    for boundary_y and corner_xy, else 1-y^2.  smooth is (1-x^2)(1-y^2).

    A template is an elementwise numpy callable of (x, y).
    `interp_error_study` calls it on the axes (`on_grid`: a row
    x[None, :] and a column y[:, None]), so each exp runs on an axis.
    """
    if not (0.0 < eps <= 1.0 and alpha > 0.0 and beta > 0.0):  # NaN fails too
        raise ValueError("eps (at most 1), alpha, beta must be positive")
    kind = TemplateKind(kind)
    se = np.sqrt(eps)
    layer_x = kind in (TemplateKind.INTERIOR_X, TemplateKind.CORNER_XY)
    layer_y = kind in (TemplateKind.BOUNDARY_Y, TemplateKind.CORNER_XY)

    def fx(x):
        return np.exp(-alpha * np.abs(x) / eps) if layer_x else 1.0 - x * x

    def fy(y):
        return (np.exp(-beta * (1.0 - y) / se) + np.exp(-beta * (1.0 + y) / se)
                if layer_y else 1.0 - y * y)

    return LayerTemplate(kind=kind, func=lambda x, y: fx(x) * fy(y))
