"""Projection kernel K, its dyadic rescalings and localized sections.

K(x, y) = sum_k phi(x - k) phi(y - k) with phi a tensor-product scaling
function, so the d-dimensional kernel factors into univariate kernels.
The localized section Ktilde(s) = K(z, z + s) with z = 2^j x is sampled
on a uniform corner lattice over the domain box [-W, W]^d, W = support
width of phi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import ScalingFunction, eval_phi
from .errors import ConfigurationError
from .sampling import _as_point, _check_dimension, _check_level, _grid_points

_MAX_SHIFT = 2.0 ** 62  # |2^j x| bound that keeps the int64 shift arithmetic exact
_MAX_SMOOTH_SHIFT = 2.0 ** 52  # below it every shift and y - shift is an exact float


@dataclass(frozen=True)
class ProjectionKernel:
    basis: ScalingFunction
    dimension: int = 1

    def __post_init__(self):
        _check_dimension(self.dimension)


def _kernel1(sf: ScalingFunction, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Univariate K(x, y); x and y broadcast to a common shape."""
    a, b = sf.support
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    if sf.interp == "left":
        # Haar: K(x, y) = 1 when x and y share a unit cell.  Comparing floors
        # is exact, as fit's cell counts are; phi(y - k) is not, since
        # y - floor(y) rounds up to 1.0 for y in [-2^-54, 0).
        return (np.floor(x) == np.floor(y)).astype(float)
    out = np.zeros(x.shape)
    # phi(t) != 0 needs a <= t < b, so a shared shift k has
    # max(x, y) - b < k <= min(x, y) - a: at most the b - a integers
    # from floor(max(x, y)) - (b - 1)
    k0 = np.floor(np.maximum(x, y)) - (b - 1)
    for off in range(int(b - a)):
        k = k0 + off
        out += eval_phi(sf, x - k) * eval_phi(sf, y - k)
    return out


def _check_reach(basis: ScalingFunction, j: int, bounds, what: str) -> None:
    """fit's and kernel_Kj_batch's rule: |2^j x| < 2^62 for Haar, whose shift
    is the int64 floor(2^j x), and < 2^52 for a smooth basis, past which a
    factor phi(2^j x - k) is taken at a rounded argument.  bounds: (min, max)
    pairs, scaled in Python floats, which overflow to inf without a warning."""
    haar = basis.interp == "left"
    if not max(max(-float(a), float(b)) for a, b in bounds) * 2.0 ** j < (
            _MAX_SHIFT if haar else _MAX_SMOOTH_SHIFT):
        raise ConfigurationError(f"{what} reaches |2^j x| >= 2^{62 if haar else 52} "
                                 f"at level j={j}")


def _batches(pk: ProjectionKernel, x, y, j: int | None = None) -> tuple:
    """x and y as float batches of points (..., d), d the kernel's dimension;
    another last axis, a NaN or infinite entry, or with a level j an entry
    past `_check_reach`, raises ConfigurationError."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    if x.shape[-1:] != (pk.dimension,) or y.shape[-1:] != (pk.dimension,):
        raise ConfigurationError(f"points must have shape (..., d) with d = "
                                 f"{pk.dimension}, got {x.shape} and {y.shape}")
    bounds = [(v.min(), v.max()) for v in (x, y) if v.size]
    if not all(-np.inf < a <= b < np.inf for a, b in bounds):
        raise ConfigurationError("points must be finite")  # NaN fails the test too
    if j is not None and bounds:
        _check_reach(pk.basis, j, bounds, "a point")
    return x, y


def kernel_K_batch(pk: ProjectionKernel, x, y) -> np.ndarray:
    """Vectorized K over batches of points with shape (..., d), d the
    kernel's dimension; the leading axes of x and y broadcast."""
    x, y = _batches(pk, x, y)
    return np.prod(_kernel1(pk.basis, x, y), axis=-1)


def kernel_Kj_batch(pk: ProjectionKernel, j: int, x, y) -> np.ndarray:
    """K_j(x, y) = 2^(dj) K(2^j x, 2^j y) over batches of points (..., d)."""
    j = _check_level(j, pk.dimension)
    x, y = _batches(pk, x, y, j)
    scale = 2.0 ** j  # the scaled points pass _batches too: |2^j x| < 2^62
    return 2.0 ** (pk.dimension * j) * np.prod(_kernel1(pk.basis, scale * x, scale * y), axis=-1)


@dataclass(frozen=True, eq=False)
class LocalizedKernel:
    """Ktilde_{j,x} sampled on a uniform corner lattice over [-W, W]^d.

    `axes` holds the per-coordinate corner values (length m + 1 each);
    `values` has shape (m+1,) * d.  `sigma` is the grid L2 norm computed
    by the lower-corner cell rule, `tv` the total variation (d = 1 only,
    NaN otherwise).
    """

    axes: tuple = field(repr=False)
    values: np.ndarray = field(repr=False)
    step: float
    sigma: float
    tv: float
    # gamma_interval's cost curve, (sign, eta) -> cost: floats only.  A cost
    # depends on the kernel, the sign and eta alone, never on the budget.
    _costs: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dimension(self) -> int:
        return self.values.ndim

    @property
    def cell_volume(self) -> float:
        return self.step ** self.dimension

    def cell_values(self) -> np.ndarray:
        """Ktilde at the lower corner of each grid cell."""
        sl = (slice(0, -1),) * self.dimension
        return self.values[sl]

    def integral(self) -> float:
        """Lower-corner rule integral of Ktilde over the domain box."""
        return float(self.cell_values().sum() * self.cell_volume)


def _corner_axes(halfwidth: float, grid_step: float, d: int) -> tuple:
    """The corner lattice -W + step * arange(m + 1) over [-W, W], once per
    coordinate; the step must divide 2W so that cells tile the box."""
    if not grid_step > 0:  # NaN too
        raise ConfigurationError("grid_step must be positive")
    m = 2.0 * halfwidth / grid_step
    if abs(m - round(m)) > 1e-9 or round(m) < 2:
        raise ConfigurationError("grid_step must evenly divide the domain box width")
    ax = -halfwidth + grid_step * np.arange(int(round(m)) + 1)
    return (ax,) * d


def _box_sum(cells: np.ndarray) -> np.ndarray:
    """Corner values g(s) = sum of the cells in [s, top]; g is 0 on the top faces."""
    rc = cells
    for ax in range(cells.ndim):
        rc = np.flip(np.cumsum(np.flip(rc, ax), ax), ax)
    return np.pad(rc, [(0, 1)] * cells.ndim)


def _box_diff(corners: np.ndarray) -> np.ndarray:
    """Cell masses from corner values by alternating differences (inverts _box_sum)."""
    for ax in range(corners.ndim):
        corners = -np.diff(corners, axis=ax)
    return corners


def localize(pk: ProjectionKernel, j: int, x, grid_step: float) -> LocalizedKernel:
    """Sample Ktilde_{j,x}(s) = K(2^j x, 2^j x + s) over [-W, W]^d.

    The grid step must divide 2W so that cells tile the domain box
    (cell alignment keeps Haar discontinuities on grid lines), and the
    lattice z + s must resolve it: 2^j max|x_i| + W < 2^53 step, past which
    the floats near z are spaced wider than the step.
    """
    d = pk.dimension
    j = _check_level(j, d)
    x = _as_point(x, d)
    if not np.all(np.isfinite(x)):
        raise ConfigurationError(f"center must be finite, got {x.tolist()}")
    axes = _corner_axes(pk.basis.width, grid_step, d)
    # in Python floats, which overflow to inf quietly
    if not float(np.max(np.abs(x))) * 2.0 ** j + pk.basis.width < 2.0 ** 53 * grid_step:
        raise ConfigurationError(f"the lattice 2^j x + s cannot resolve step {grid_step!r} "
                                 f"at level j={j}: needs 2^j max|x_i| + W < 2^53 step")
    z = (2.0 ** j) * x
    # K factors over coordinates: the outer product of the d 1-D sections has
    # the bits of kernel_K_batch on the full lattice, for the cost of d sections
    vals = _kernel1(pk.basis, z[0], z[0] + axes[0])
    for i in range(1, d):
        vals = np.multiply.outer(vals, _kernel1(pk.basis, z[i], z[i] + axes[i]))
    lower = vals[(slice(0, -1),) * d]
    sigma = float(np.sqrt(np.sum(lower ** 2) * grid_step ** d))
    if d == 1:
        tv = float(np.sum(np.abs(np.diff(vals))) + abs(vals[0]) + abs(vals[-1]))
    else:
        tv = float("nan")
    vals.flags.writeable = False  # sigma, tv and the cost memo are computed from it
    return LocalizedKernel(axes=axes, values=vals, step=grid_step, sigma=sigma, tv=tv)


def cell_lower_corners(lk: LocalizedKernel) -> np.ndarray:
    """Lower-corner coordinates of each grid cell, shape (n_cells, d)."""
    return _grid_points([a[:-1] for a in lk.axes])

