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
    "MeshAxis",
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


@dataclass(frozen=True)
class MeshAxis:
    """A 1D piecewise-uniform grid with its transition parameter."""

    nodes: np.ndarray
    lam: float

    @property
    def n_intervals(self):
        return len(self.nodes) - 1

    def spacings(self):
        return np.diff(self.nodes)


def build_x_axis(N, lambda_x):
    """Full-domain x-axis on [-1,1] with 2N intervals.

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
    """y-axis on [-1,1]: N/4 intervals in each boundary strip, N/2 between."""
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
    """The MeshAxis of nodes, which must be strictly increasing: a
    transition parameter too small for float resolution at N collapses
    nodes onto each other, and such a mesh has singular systems."""
    if not np.all(np.diff(nodes) > 0.0):
        raise ValueError(f"mesh nodes coincide: lambda_{name} = {lam:.6g} "
                         f"is below float resolution at N = {N}")
    return MeshAxis(nodes=nodes, lam=lam)


@dataclass(frozen=True)
class TensorMesh:
    """Tensor product of the two Shishkin axes.

    Node (i, j) sits at (x_axis.nodes[i], y_axis.nodes[j]); nodal
    arrays have shape (ny, nx), so the value at node (i, j) is
    values[j, i].  The unknowns are the interior block [1:-1, 1:-1],
    raveled row-major with x fastest.
    """

    x_axis: MeshAxis
    y_axis: MeshAxis

    @property
    def lambda_x(self):
        return self.x_axis.lam

    @property
    def lambda_y(self):
        return self.y_axis.lam

    @property
    def nx(self):
        return len(self.x_axis.nodes)

    @property
    def ny(self):
        return len(self.y_axis.nodes)

    @property
    def n_interior(self):
        return (self.nx - 2) * (self.ny - 2)

    def nearest_node(self, x, y):
        """Grid index (i, j) of the interior node nearest (x, y)."""
        i = 1 + int(np.argmin(np.abs(self.x_axis.nodes[1:-1] - x)))
        j = 1 + int(np.argmin(np.abs(self.y_axis.nodes[1:-1] - y)))
        return i, j


def build_mesh(N, lambda_x, lambda_y):
    """Tensor mesh with 2N intervals in x and N intervals in y."""
    return TensorMesh(x_axis=build_x_axis(N, lambda_x),
                      y_axis=build_y_axis(N, lambda_y))


def classify_points(x, y, lambda_x, lambda_y):
    """Region tags of points, as an object array over the broadcast of x
    and y; the tags follow `region_masks`."""
    masks = region_masks(x, y, lambda_x, lambda_y)
    out = np.empty(masks[Region.COARSE].shape, dtype=object)
    for region, mask in masks.items():
        out[mask] = region
    return out


def region_masks(x, y, lambda_x, lambda_y):
    """{Region: boolean mask} over the broadcast of x and y.

    Each region is an x-condition crossed with a y-condition, so on the
    tensor grid pass the 1D axes as x[None, :] and y[:, None] to get
    (ny, nx) masks.  Points on a transition line belong to the layer
    region (closed-layer tie-break); the masks partition the points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(x) > 1.0) or np.any(np.abs(y) > 1.0):
        raise ValueError("points outside [-1,1]^2")
    in_x = np.abs(x) <= lambda_x
    in_y = np.abs(y) >= 1.0 - lambda_y
    return {
        Region.COARSE: ~in_x & ~in_y,
        Region.LAYER_X: in_x & ~in_y,
        Region.LAYER_Y: ~in_x & in_y,
        Region.LAYER_XY: in_x & in_y,
    }
