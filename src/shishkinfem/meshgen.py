"""Layer-adapted piecewise-uniform (Shishkin) tensor meshes on [-1,1]^2.

The x-axis carries an interior-layer refinement around x=0, the y-axis
boundary-layer refinements near y=-1 and y=+1.  Transition parameters
depend only on the perturbation parameter eps (and the bounds alpha,
beta), never on N, so meshes for N and 2N are nested.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Region",
    "TensorMesh",
    "transition_params",
    "build_mesh",
    "classify_points",
    "region_masks",
]


class Region(Enum):
    """Subregion tags induced by the mesh transition lines."""

    COARSE = "coarse"
    LAYER_X = "layer_x"
    LAYER_Y = "layer_y"
    LAYER_XY = "layer_xy"


def transition_params(eps, alpha, beta):
    """Mesh transition parameters (lambda_x, lambda_y).

    lambda_x = min((2 eps / alpha) log(1/eps), 1/2)
    lambda_y = min(2 sqrt(eps/beta) log(1/eps^(3/2)), 1/4)

    log is the natural logarithm.  eps = 1 has no layer: the caps.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if not (alpha > 0.0 and beta > 0.0):     # NaN fails too
        raise ValueError("alpha and beta must be positive")
    if eps == 1.0:
        return 0.5, 0.25
    log_inv_eps = -np.log(eps)
    lambda_x = min(2.0 * eps / alpha * log_inv_eps, 0.5)
    lambda_y = min(2.0 * np.sqrt(eps / beta) * 1.5 * log_inv_eps, 0.25)
    return lambda_x, lambda_y


def _pieces(breaks, counts):
    """Nodes of uniform pieces, counts[k] intervals from breaks[k] to
    breaks[k + 1]; linspace ends a piece exactly on the break the next
    one starts from."""
    return np.concatenate([np.linspace(a, b, n + 1)[:-1] for a, b, n
                           in zip(breaks, breaks[1:], counts)] + [breaks[-1:]])


@dataclass(frozen=True)
class TensorMesh:
    """Tensor product of the two Shishkin axes: node arrays x and y
    with their transition parameters.

    Node (i, j) sits at (x[i], y[j]); nodal arrays have shape (ny, nx),
    so the value at node (i, j) is values[j, i].  The unknowns are the
    interior block [1:-1, 1:-1], raveled row-major with x fastest.
    """

    x: np.ndarray
    y: np.ndarray
    lambda_x: float
    lambda_y: float

    @property
    def nx(self):
        return len(self.x)

    @property
    def ny(self):
        return len(self.y)

    @property
    def interior(self):
        """Shape (ny - 2, nx - 2) of the grid of the unknowns."""
        return self.ny - 2, self.nx - 2

    def nearest_node(self, x, y):
        """Grid index (i, j) of the interior node nearest (x, y)."""
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ValueError(f"point ({x}, {y}) is not finite")
        i = 1 + int(np.argmin(np.abs(self.x[1:-1] - x)))
        j = 1 + int(np.argmin(np.abs(self.y[1:-1] - y)))
        return i, j


def build_mesh(N, lambda_x, lambda_y):
    """Tensor mesh with 2N intervals in x and N intervals in y.

    The half-axis [0,1] of x gets N/2 uniform intervals in [0, lambda_x]
    and N/2 in [lambda_x, 1], mirrored about 0; y gets N/4 intervals in
    each strip [-1, -1 + lambda_y], [1 - lambda_y, 1] and N/2 between.
    Nodes must be strictly increasing: a transition parameter too small
    for float resolution at N collapses nodes onto each other, and such
    a mesh has singular systems.
    """
    if N % 4 != 0 or N < 4:
        raise ValueError(f"N must be a positive multiple of 4, got {N}")
    if not 0.0 < lambda_x <= 0.5:
        raise ValueError(f"lambda_x must lie in (0, 1/2], got {lambda_x}")
    if not 0.0 < lambda_y <= 0.25:
        raise ValueError(f"lambda_y must lie in (0, 1/4], got {lambda_y}")
    half = _pieces((0.0, lambda_x, 1.0), (N // 2, N // 2))
    x = np.concatenate([-half[::-1], half[1:]])
    y = _pieces((-1.0, -1.0 + lambda_y, 1.0 - lambda_y, 1.0),
                (N // 4, N // 2, N // 4))
    for name, nodes, lam in (("x", x, lambda_x), ("y", y, lambda_y)):
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError(f"mesh nodes coincide: lambda_{name} = "
                             f"{lam:.6g} is below float resolution at N = {N}")
    return TensorMesh(x, y, lambda_x, lambda_y)


def classify_points(x, y, lambda_x, lambda_y):
    """Region tags of points, as an object array over the broadcast of x
    and y; the tags follow `region_masks`."""
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=object)
    for region, (mx, my) in region_masks(x, y, lambda_x, lambda_y).items():
        out[mx & my] = region
    return out


def region_masks(x, y, lambda_x, lambda_y):
    """{Region: (x_mask, y_mask)}, masks of the shapes of x and y: a
    point of their broadcast lies in a region where x_mask & y_mask
    holds, so on 1D axes a region is a set of columns times a set of
    rows.  Points on a transition line belong to the layer region
    (closed-layer tie-break); the regions partition the points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.abs(x) <= 1.0) and np.all(np.abs(y) <= 1.0)):
        raise ValueError("points outside [-1,1]^2")
    in_x = np.abs(x) <= lambda_x
    in_y = np.abs(y) >= 1.0 - lambda_y
    return {
        Region.COARSE: (~in_x, ~in_y),
        Region.LAYER_X: (in_x, ~in_y),
        Region.LAYER_Y: (~in_x, in_y),
        Region.LAYER_XY: (in_x, in_y),
    }
