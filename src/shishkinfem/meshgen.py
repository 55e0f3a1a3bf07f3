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
    "build_x_axis",
    "build_y_axis",
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

    log is the natural logarithm.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("alpha and beta must be positive")
    log_inv_eps = -np.log(eps)
    lambda_x = min(2.0 * eps / alpha * log_inv_eps, 0.5)
    lambda_y = min(2.0 * np.sqrt(eps / beta) * 1.5 * log_inv_eps, 0.25)
    return lambda_x, lambda_y


def build_x_axis(N, lambda_x):
    """Nodes of the full-domain x-axis on [-1,1], 2N intervals.

    The half-axis [0,1] gets N/2 uniform intervals in [0, lambda_x] and
    N/2 in [lambda_x, 1]; the partition is mirrored about 0.
    """
    if N % 2 != 0 or N < 4:
        raise ValueError(f"N must be an even integer >= 4, got {N}")
    if not 0.0 < lambda_x <= 0.5:
        raise ValueError(f"lambda_x must lie in (0, 1/2], got {lambda_x}")
    half = np.concatenate([
        np.linspace(0.0, lambda_x, N // 2 + 1),
        np.linspace(lambda_x, 1.0, N // 2 + 1)[1:],
    ])
    return _axis(np.concatenate([-half[::-1], half[1:]]), N, lambda_x, "x")


def build_y_axis(N, lambda_y):
    """y-axis nodes on [-1,1]: N/4 intervals in each strip, N/2 between."""
    if N % 4 != 0 or N < 4:
        raise ValueError(f"N must be a positive multiple of 4, got {N}")
    if not 0.0 < lambda_y <= 0.25:
        raise ValueError(f"lambda_y must lie in (0, 1/4], got {lambda_y}")
    nodes = np.concatenate([
        np.linspace(-1.0, -1.0 + lambda_y, N // 4 + 1),
        np.linspace(-1.0 + lambda_y, 1.0 - lambda_y, N // 2 + 1)[1:],
        np.linspace(1.0 - lambda_y, 1.0, N // 4 + 1)[1:],
    ])
    return _axis(nodes, N, lambda_y, "y")


def _axis(nodes, N, lam, name):
    """nodes, checked to be strictly increasing: a transition parameter
    too small for float resolution at N collapses nodes onto each
    other, and such a mesh has singular systems."""
    if not np.all(np.diff(nodes) > 0.0):
        raise ValueError(f"mesh nodes coincide: lambda_{name} = {lam:.6g} "
                         f"is below float resolution at N = {N}")
    return nodes


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
    def n_interior(self):
        return (self.nx - 2) * (self.ny - 2)

    def nearest_node(self, x, y):
        """Grid index (i, j) of the interior node nearest (x, y)."""
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ValueError(f"point ({x}, {y}) is not finite")
        i = 1 + int(np.argmin(np.abs(self.x[1:-1] - x)))
        j = 1 + int(np.argmin(np.abs(self.y[1:-1] - y)))
        return i, j


def build_mesh(N, lambda_x, lambda_y):
    """Tensor mesh with 2N intervals in x and N intervals in y."""
    return TensorMesh(build_x_axis(N, lambda_x), build_y_axis(N, lambda_y),
                      lambda_x, lambda_y)


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
