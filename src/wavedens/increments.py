"""Empirical-process increments and the Stieltjes functionals linking them
to the estimator's deviation.

Increment functions are stored on the same corner lattice as the localized
kernel, as box functionals g(s) = mu([s, top]) of a signed measure mu; the
functional theta integrates them against dKtilde via the grid cell
densities.  Where exact atom positions are available (fitted samples) the
Stieltjes integral is evaluated at the atoms, which keeps the algebraic
identity with the estimator exact instead of grid-limited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import ScalingFunction
from .errors import ConfigurationError
from .estimator import _flat_base, expected_estimator
from .kernel import (LocalizedKernel, ProjectionKernel, _box_diff, _box_sum,
                     _corner_axes, kernel_Kj_batch)
from .sampling import Density, _as_point, _as_sample, _check_level, _positive

DEFAULT_GRID_STEP = 2.0 ** -10


@dataclass(frozen=True, eq=False)
class IncrementFunction:
    """A grid-discretized box functional s -> value([s, top])."""

    axes: tuple = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.values.ndim

    @property
    def step(self) -> float:
        return float(self.axes[0][1] - self.axes[0][0])


def _corner_counts(sample, density: Density, x, j: int, halfwidth: float,
                   grid_step: float, lowest: int):
    """Set-up shared by g_{n,x} and gtilde_{n,x}: (n, x, f(x), h, axes, counts),
    counts holding the number of rescaled points 2^j (X_i - x) in [s, top]
    for every corner s of the lattice; j must be at least `lowest`."""
    sample = _as_sample(sample)[0]
    n, d = sample.shape
    j = _check_level(j, d, lowest)
    x = _as_point(x, d)
    fx = density.pdf(x)
    if fx <= 0.0:
        raise ConfigurationError("f(x) must be positive")
    axes = _corner_axes(halfwidth, grid_step, d)
    with np.errstate(over="ignore"):  # a point that overflows is off the lattice
        u = (sample - x) / (2.0 ** -j)
    return n, x, fx, 2.0 ** (-d * j), axes, _box_sum(_cell_counts(u, axes, grid_step))


def _cell_counts(u: np.ndarray, axes: tuple, step: float) -> np.ndarray:
    """Points of u (n, d) per cell of the uniform lattice `axes`, as floats.

    np.histogramdd's counts: a cell holds [edge_i, edge_i+1), a point on
    the last edge goes into the last cell, and points outside are dropped.
    The cell comes from floor((u - edge_0) / step), which can miss by one
    next to an edge, so one comparison with the exact edges corrects it.
    """
    m = len(axes[0]) - 1
    keep = np.ones(len(u), bool)
    ks = []
    for i, ax in enumerate(axes):
        ui = u[:, i]
        keep &= (ui >= ax[0]) & (ui <= ax[-1])
        # clipped before the cast, so an outside point casts without a warning
        k = np.clip(np.floor((ui - ax[0]) / step), 0, m - 1).astype(np.intp)
        k -= ui < ax[k]
        k += (ui >= ax[k + 1]) & (k < m - 1)
        ks.append(k)
    flat = _flat_base(ks, (m,) * len(axes))[0]
    counts = np.bincount(flat[keep], minlength=m ** len(axes))
    return counts.reshape((m,) * len(axes)).astype(float)


def g_n_x(sample, density: Density, x, j: int,
          halfwidth: float = 1.0, grid_step: float = DEFAULT_GRID_STEP) -> IncrementFunction:
    """LIL-normalized increment function over boxes [s, top]."""
    n, x, fx, h, axes, counts = _corner_counts(sample, density, x, j, halfwidth, grid_step, 1)
    scale = 2.0 ** -j
    top = x + halfwidth * scale
    probs = density.box_prob_grid([x[i] + np.asarray(ax) * scale
                                   for i, ax in enumerate(axes)], top)
    denom = math.sqrt(2.0 * fx * h * math.log(1.0 / h))
    values = math.sqrt(n) * (counts / n - probs) / denom
    return IncrementFunction(axes, values)


def g_tilde_n_x(sample, density: Density, x, j: int, c: float,
                halfwidth: float = 1.0, grid_step: float = DEFAULT_GRID_STEP) -> IncrementFunction:
    """Erdos-Renyi scaled counting functional (nonnegative, box-monotone)."""
    _positive(c, "c")
    n, _, fx, h, axes, counts = _corner_counts(sample, density, x, j, halfwidth, grid_step, 0)
    return IncrementFunction(axes, counts / (c * fx * n * h))


def from_cell_density(axes, gdot_cells: np.ndarray) -> IncrementFunction:
    """Box-summation of a cell density: g(s) = sum over cells in [s, top]."""
    d = gdot_cells.ndim
    step = float(axes[0][1] - axes[0][0])
    return IncrementFunction(tuple(axes), _box_sum(gdot_cells * step ** d))


def cell_density(g: IncrementFunction) -> np.ndarray:
    """Invert box summation: cell densities gdot with g(s) = int_[s,top] gdot."""
    return _box_diff(g.values) / (g.step ** g.dimension)


def theta(lk: LocalizedKernel, g: IncrementFunction, normalized: bool = True) -> float:
    """Stieltjes functional int g dKtilde via integration by parts.

    Computed as sum over cells of Ktilde(lower corner) * cell mass of g,
    where cell masses are the alternating corner differences (for d = 1:
    sum_m Ktilde(s_m)(g(s_m) - g(s_{m+1}))); divided by sigma when
    normalized.  g must lie on the kernel's own corner lattice; any other
    lattice raises ConfigurationError.
    """
    if g.dimension != lk.dimension:
        raise ConfigurationError("increment and kernel dimensions differ")
    if not all(len(a) == len(b) and np.allclose(a, b, atol=1e-12)
               for a, b in zip(g.axes, lk.axes)):
        raise ConfigurationError("increment is not on the kernel's corner lattice")
    total = float(np.sum(lk.cell_values() * _box_diff(g.values)))
    return total / lk.sigma if normalized else total


def relation_check(sample, density: Density, x, j: int, basis: ScalingFunction) -> float:
    """Residual of the pipeline identity tying the normalized estimator
    deviation to the Stieltjes integral of the increment function.

    Both sides come exactly from one kernel pass S = sum_i K_j(x, X_i): the
    left through the kernel form fhat = S / n, the right through the atoms
    of the increment measure, sum_i Ktilde = S h (h = 2^(-dj) scales
    exactly), with a shared quadrature for the expectation term.  The
    identity holds for the unnormalized functional (no 1/sigma): the
    sigma-normalized variant fails by the factor sigma for bases with
    K(0,0) != 1, e.g. D4.
    """
    sample = _as_sample(sample)[0]
    n, d = sample.shape
    j = _check_level(j, d, lowest=1)
    x = _as_point(x, d)
    h = 2.0 ** (-d * j)
    log_term = math.log(1.0 / h)
    ksum = kernel_Kj_batch(ProjectionKernel(basis, d), j, x, sample).sum()  # x must be finite
    fx = density.pdf(x)
    if fx <= 0.0:
        raise ConfigurationError("f(x) must be positive")
    efhat = expected_estimator(density, basis, j, x)
    lhs = math.sqrt(n * h / (2.0 * fx * log_term)) * (float(ksum / n) - efhat)
    rhs = (ksum * h / math.sqrt(n) - math.sqrt(n) * h * efhat) \
        / math.sqrt(2.0 * fx * h * log_term)
    return abs(lhs - rhs)
