"""Linear wavelet projection density estimator and deviation statistics.

The fitted object stores empirical scaling coefficients at a single
multiresolution level j; evaluation is the finite sum over shifts whose
support contains the query point.  The kernel form (1/n) sum_i K_j(x, X_i)
is provided as an algebraically identical cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import ScalingFunction, eval_phi
from .errors import ConfigurationError, NumericalError
from .kernel import ProjectionKernel, kernel_Kj_batch
from .sampling import Density, _as_point, _as_sample, _grid_points

GRID_CAP = 4096
_QUADRATURE_CHUNK = 1 << 16  # nodes per block of E fhat quadrature rows
_MAX_TABLE_CELLS = 1 << 28  # largest coefficient box fit allocates (2 GiB)
_MAX_SHIFT = 2.0 ** 62  # |2^j x| bound that keeps the int64 shift arithmetic exact
_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest float below 1


@dataclass(frozen=True)
class WaveletDensityEstimator:
    """Level-j projection estimator with sparse coefficients over occupied
    shifts.  Internally the occupied k-box is stored densely for speed: on
    axis i it is [floor(min 2^j X_i) - (width - 1), floor(max 2^j X_i)],
    starting at `origin`, the shifts that can be nonzero somewhere in the
    sample's bounding box.  `coeffs` exposes the sparse map k -> alpha_hat."""

    basis: ScalingFunction
    level: int
    n: int
    dimension: int
    origin: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)  # alpha_hat over the k-box

    @property
    def coeffs(self) -> dict:
        out = {}
        nz = np.nonzero(self.table)
        for idx in zip(*nz):
            k = tuple(int(self.origin[i] + idx[i]) for i in range(self.dimension))
            out[k] = float(self.table[idx])
        return out

    def total_mass(self) -> float:
        """integral of fhat = sum_k alpha_hat * 2^(-dj/2) * integral(phi)."""
        d, j = self.dimension, self.level
        return float(self.table.sum() * 2.0 ** (-d * j / 2.0))


def _for_each_shift(sf: ScalingFunction, xs: np.ndarray, origin: np.ndarray,
                    shape: tuple, visit):
    """Visit the shifts that can be nonzero at the points xs (rescaled by 2^j,
    shape (m, d)).  phi is zero outside [0, width) and at width, so
    phi(y - s) != 0 needs y - width < s <= y: per axis the width integers
    from floor(y) - (width - 1).  These are the width^d shifts
    s = floor(xs) - (width - 1) + offset, offset in [0, width)^d, visited in
    ascending order (last axis fastest).  Each offset calls
    visit(k, offset, start, base, vals):

    - k = floor(xs) - (width - 1) - origin, the table index of the first
      shift (int64, (m, d)), so s = origin + k + offset;
    - base + start is the flat index of k + offset in a C-ordered table of
      this shape; where base >= 0, as in fit, flat[start:][base] reaches
      the cells without building an n-sized index array per offset;
    - vals = prod_i phi(xs_i - s_i), multiplied in axis order.  Only d * w
      of these factors differ, and eval_phi runs once for each.

    Haar's phi is the indicator of [0, 1) and its one shift is floor(y), so
    y - s lies in [0, 1); the float y - floor(y) rounds up to 1.0 for y in
    [-2^-54, 0), and is moved back below 1.  Continuous bases keep the
    rounded argument: their phi barely moves over one rounding.

    A callback, not a generator: a generator's caller keeps the previous
    pair alive while the next one is built, which costs two more n-sized
    arrays at peak and measurably slows fit."""
    w = sf.width
    d = xs.shape[1]
    k = np.floor(xs, out=np.empty(xs.shape, np.int64), casting="unsafe")
    k -= origin + (w - 1)
    strides = [int(np.prod(shape[i + 1:])) for i in range(d)]
    base = k[:, -1]
    for i in range(d - 1):
        base = base + k[:, i] * strides[i]
    haar = sf.interp == "left"

    def phi_at(i, o):
        arg = k[:, i] + float(origin[i] + o)  # the shift, an exact float
        np.subtract(xs[:, i], arg, out=arg)
        if haar:
            np.minimum(arg, _BELOW_ONE, out=arg)
        return eval_phi(sf, arg)

    # phi once per (axis, offset): axes 1.. are kept, axis 0 is built as its
    # offset comes up, so (d - 1) w + 1 arrays are live and 1 when d = 1
    kept = [[phi_at(i, o) for o in range(w)] for i in range(1, d)]
    for o0 in range(w):
        vals = phi0 = None  # free the last row's arrays before the next
        phi0 = phi_at(0, o0)
        for rest in itertools.product(range(w), repeat=d - 1):
            vals = phi0
            for phis, o in zip(kept, rest):
                vals = vals * phis[o]
            offset = (o0,) + rest
            visit(k, offset, int(np.dot(offset, strides)), base, vals)


def fit(basis: ScalingFunction, j: int, sample) -> WaveletDensityEstimator:
    """Empirical scaling coefficients alpha_hat_{j,k} = (1/n) sum_i phi_{j,k}(X_i).

    Raises ValueError for an empty or non-finite sample, and for one whose
    k-box would exceed _MAX_TABLE_CELLS cells or reach |2^j x| >= 2^62."""
    if j < 0:
        raise ConfigurationError("level j must be >= 0")
    sample = _as_sample(sample)
    n, d = sample.shape
    if n == 0:
        raise ValueError("empty sample")
    # Per column: numpy reduces an (n, d) array along axis 0 about ten times
    # slower than its d strided columns.  NaN propagates to both bounds.
    lo = np.array([col.min() for col in sample.T])
    hi = np.array([col.max() for col in sample.T])
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("sample must be finite")
    # Size the k-box from the bounds scaled in Python floats, before any numpy
    # scaling or int64 cast, so that a far outlier fails here rather than in
    # the multiply, the cast or the allocation.  Python floats overflow to inf
    # quietly; an infinite bound makes `cells` NaN and fails the reach test.
    scale = 2.0 ** j
    bounds = [(float(a) * scale, float(b) * scale) for a, b in zip(lo, hi)]
    cells = math.prod(b // 1.0 - a // 1.0 + basis.width for a, b in bounds)
    if cells > _MAX_TABLE_CELLS:
        raise ValueError(f"sample spans {cells:.4g} coefficient cells at level "
                         f"j={j}, more than the {_MAX_TABLE_CELLS} fit allocates")
    if max(max(-a, b) for a, b in bounds) >= _MAX_SHIFT:
        raise ValueError(f"sample reaches |2^j x| >= 2^62 at level j={j}")
    # scaling by 2^j is exact, so these are the bounds of xs
    xs = sample * scale
    origin = np.floor(lo * scale).astype(np.int64) - (basis.width - 1)
    shape = tuple(int(s) for s in np.floor(hi * scale).astype(np.int64) - origin + 1)
    factor = 2.0 ** (d * j / 2.0) / n
    if basis.interp == "left":
        # Haar: phi(2^j x - k) is 1 at the one shift k = floor(2^j x), so the
        # table counts points per cell.  np.bincount sums integers, exact in
        # any order, and gives the np.add.at table bit for bit.
        k = np.floor(xs, out=np.empty(xs.shape, np.int64), casting="unsafe")
        index = k[:, 0]  # in place: the C-order flat index of k - origin
        index -= origin[0]
        for i in range(1, d):
            index *= shape[i]
            index += k[:, i]
            index -= origin[i]
        counts = np.bincount(index, minlength=math.prod(shape))
        table = (counts * factor).reshape(shape)
    else:
        # Smooth bases keep np.add.at, which adds in sample order; a
        # np.bincount would sum the float values in another order and move
        # the coefficients by ulps.
        table = np.zeros(shape)
        flat = table.ravel()

        def add(k, offset, start, base, vals):
            np.add.at(flat[start:], base, vals)

        _for_each_shift(basis, xs, origin, shape, add)
        table *= factor
    return WaveletDensityEstimator(basis, j, n, d, origin, table)


def _table_sum(basis: ScalingFunction, j: int, origin: np.ndarray,
               table: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum_k table[k - origin] prod_i phi(2^j x_i - k_i) at finite points of
    shape (m, d); the table is 0 outside its box."""
    shape = table.shape
    flat = table.ravel()
    out = np.zeros(len(pts))
    # Points farther than width outside the box meet no table shift; clipping
    # them there keeps the int64 floor of the shift loop in range.
    w = basis.width
    xs = np.clip(pts * (2.0 ** j), origin - w, origin + np.array(shape) + w)

    def add(k, offset, start, base, vals):
        ks = k + offset
        inside = np.all((ks >= 0) & (ks < shape), axis=1)
        out[:] += flat.take(base + start, mode="clip") * vals * inside

    _for_each_shift(basis, xs, origin, shape, add)
    return out


def evaluate(est: WaveletDensityEstimator, x) -> np.ndarray:
    """fhat at points of shape (d,) or (m, d): sum_k alpha_hat phi_{j,k}."""
    x = np.asarray(x, float)
    single = x.ndim <= 1 and est.dimension >= 1 and x.size == est.dimension
    pts = np.atleast_2d(x) if x.ndim <= 1 else x
    if pts.shape[-1] != est.dimension:
        raise ValueError("point dimension mismatch")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    d, j = est.dimension, est.level
    out = _table_sum(est.basis, j, est.origin, est.table, pts)
    out *= 2.0 ** (d * j / 2.0)
    return float(out[0]) if single else out


def evaluate_kernel_form(basis: ScalingFunction, j: int, sample, x) -> float:
    """fhat(x) = (1/n) sum_i K_j(x, X_i) at one point x of shape (d,) (or a
    scalar when d = 1); equals the coefficient form."""
    sample = _as_sample(sample)
    n, d = sample.shape
    if n == 0:
        raise ValueError("empty sample")
    pk = ProjectionKernel(basis, d)
    xx = np.broadcast_to(_as_point(x, d), (n, d))
    return float(kernel_Kj_batch(pk, j, xx, sample).sum() / n)


def _mass_vectors(density: Density, basis: ScalingFunction, j: int,
                  step: float | None, k0: int, k1: int) -> list:
    """(w_c, v_c) per mixture component, with
    v_c[k - k0] = 2^j integral phi(2^j y - k) m_c(y) dy for the shifts
    k0 <= k <= k1 (within [-(width - 1), 2^j - 1], those that meet [0, 1]):
    the 1-D population coefficients in mass form (2^j, not 2^(j/2) on each
    side, so that the uniform density gives exactly 1).  Only the level-j
    cells [r, r + 1) 2^-j of [0, 1] that these shifts meet are visited, and
    an entry does not depend on the range asked for.

    step None is exact from the CDF, for the Haar indicator.  Otherwise the
    midpoint rule runs on the absolute lattice (i + 1/2) * step; step is a
    dyadic fraction, so the cell edges 2^-j Z, where phi(2^j y - k) has its
    kinks, and the support edges 0, 1 land on subinterval boundaries.  Row r
    of the nodes reshaped to (cells, M) is cell r; with the values
    phi(o + t) at the M in-cell offsets t it adds to shift r - o.
    """
    scale = 2.0 ** j
    w = basis.width
    c0, c1 = max(0, k0), min(1 << j, k1 + w)  # the cells met
    if step is None:
        edges = np.arange(c0, c1 + 1) / scale
        return [(wgt, scale * np.diff(m.cdf(edges))) for wgt, m in density.components]
    per_cell = round(1.0 / (scale * step))
    t = (np.arange(per_cell) + 0.5) / per_cell
    phi = eval_phi(basis, np.arange(w)[:, None] + t)  # (w, M), exact arguments
    rows = max(1, _QUADRATURE_CHUNK // per_cell)
    pad = c0 - (w - 1)  # the shift of v[0]: the first one cell c0 meets
    out = []
    for wgt, m in density.components:
        v = np.zeros(c1 - pad)
        for a in range(c0, c1, rows):
            b = min(a + rows, c1)
            ys = (np.arange(a * per_cell, b * per_cell) + 0.5) * step
            pdf = m.pdf(ys).reshape(b - a, per_cell)
            for o in range(w):
                v[a - o - pad:b - o - pad] += (pdf * phi[o]).sum(axis=1)
        out.append((wgt, v[k0 - pad:k1 + 1 - pad] * (scale * step)))
    return out


def _expected_at(density: Density, basis: ScalingFunction, j: int,
                 pts: np.ndarray) -> np.ndarray:
    """E fhat at points of shape (m, d).

    E fhat(x) = sum_k alpha_{j,k} phi_{j,k}(x) with the population
    coefficients alpha_{j,k} = integral phi_{j,k} f.  Both the tensor basis
    and the mixture components are separable, so
    E fhat(x) = sum_c w_c prod_i sum_k phi(2^j x_i - k) v_c[k] with one 1-D
    vector v_c per component (`_mass_vectors`) over the shifts the points'
    coordinates reach.  Haar is exact; for smooth bases a step-halving check
    guards the quadrature.
    """
    if j < 0:
        raise ConfigurationError("level j must be >= 0")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    d = density.dimension
    w = basis.width
    coords = pts.reshape(-1, 1)
    if len(coords) == 0:
        return np.zeros(len(pts))
    # the shifts at y are floor(y) - (w - 1) .. floor(y); those that meet
    # [0, 1] lie in [-(w - 1), 2^j - 1]
    scaled = coords * 2.0 ** j
    k0 = int(np.clip(np.floor(scaled.min()) - (w - 1), 1 - w, 1 << j))
    k1 = int(np.clip(np.floor(scaled.max()), -w, (1 << j) - 1))
    if k1 < k0:
        return np.zeros(len(pts))
    origin = np.array([k0])

    def at(step):
        total = 0.0
        for wgt, v in _mass_vectors(density, basis, j, step, k0, k1):
            per_axis = _table_sum(basis, j, origin, v, coords).reshape(-1, d)
            prod = wgt
            for i in range(d):
                prod = prod * per_axis[:, i]
            total = total + prod
        return total

    if basis.interp == "left":
        return at(None)
    # never coarser than the 2^-(j+12) knots of phi's depth-12 table
    step = 2.0 ** -max(j + 12, 15)
    coarse, fine = at(step), at(step / 2.0)
    if np.any(np.abs(fine - coarse) > 1e-7):
        raise NumericalError("expected_estimator quadrature did not converge")
    return fine


def expected_estimator(density: Density, basis: ScalingFunction, j: int, x) -> float:
    """E fhat(x) = integral of K_j(x, .) f at one point x of shape (d,) (or a
    scalar when d = 1); `_expected_at` evaluates many points at once."""
    x = _as_point(x, density.dimension)
    return float(_expected_at(density, basis, j, x.reshape(1, -1))[0])


@dataclass(frozen=True)
class EvaluationGrid:
    points: np.ndarray = field(repr=False)
    dyadic: bool

    def __len__(self):
        return len(self.points)


def make_grid(box, j: int, kind: str = "dyadic", cap: int = GRID_CAP,
              midpoints: bool = True) -> EvaluationGrid:
    """Evaluation grid over the hypercube H = box.

    "dyadic": points x with 2^j x integer, plus cell midpoints while the
    per-dimension budget allows; subsampled evenly above the cap.
    "uniform": cap evenly spaced points per dimension.
    """
    lo = np.atleast_1d(np.asarray(box[0], float))
    hi = np.atleast_1d(np.asarray(box[1], float))
    d = len(lo)
    axes = []
    all_dyadic = True
    if kind == "dyadic":
        scale = 1 << j
        for i in range(d):
            ms = np.arange(int(np.ceil(lo[i] * scale)), int(np.floor(hi[i] * scale)) + 1)
            if len(ms) == 0:
                raise ConfigurationError("no dyadic points in H at this level")
            pts = ms / scale
            if len(pts) > cap:
                stride = int(np.ceil(len(pts) / cap))
                pts = pts[::stride]
            elif midpoints and 2 * len(ms) - 1 <= cap:
                mids = (ms[:-1] + 0.5) / scale
                pts = np.sort(np.concatenate([pts, mids]))
                all_dyadic = False
            axes.append(pts)
    elif kind == "uniform":
        all_dyadic = False
        for i in range(d):
            axes.append(np.linspace(lo[i], hi[i], min(cap, 512)))
    else:
        raise ConfigurationError(f"unknown grid kind {kind!r}")
    return EvaluationGrid(_grid_points(axes), all_dyadic)


@dataclass(frozen=True)
class SupStatistic:
    sup_dev: float
    inf_dev: float
    argmax: np.ndarray

    def __post_init__(self):
        if not self.sup_dev >= self.inf_dev:
            raise NumericalError(f"sup_dev {self.sup_dev!r} below inf_dev {self.inf_dev!r}")


def sup_deviation(est: WaveletDensityEstimator, density: Density,
                  grid: EvaluationGrid, mode: str,
                  expected: np.ndarray | None = None) -> SupStatistic:
    """Extremes over the grid of the Theorem-1 normalized deviation or the
    Theorem-2 relative deviation |fhat/f - 1|.

    Theorem-1 normalization uses the LIL rate sqrt(n 2^(-dj) / (2 f(x)
    log 2^(dj))) with natural log; the rescaling factor is 2^(-dj) = h_n
    (the bandwidth), which is the only reading under which the statistic
    is O(1) and the algebraic link to the increment functionals holds.
    """
    fhat = evaluate(est, grid.points)
    f = np.asarray(density.pdf(grid.points), float)
    if np.any(f <= 0.0):
        raise ValueError("density must be strictly positive on the grid")
    d, j, n = est.dimension, est.level, est.n
    if mode == "theorem1":
        if j == 0:
            raise ValueError("theorem1 normalization undefined at j = 0 (log 1 = 0)")
        if expected is None:
            expected = _expected_at(density, est.basis, j, grid.points)
        norm = np.sqrt(n * 2.0 ** (-d * j) / (2.0 * f * (d * j) * np.log(2.0)))
        dev = norm * (fhat - np.asarray(expected, float))
    elif mode == "ratio":
        dev = np.abs(fhat / f - 1.0)
    else:
        raise ConfigurationError(f"unknown sup_deviation mode {mode!r}")
    hi = int(np.argmax(dev))
    return SupStatistic(float(dev.max()), float(dev.min()), grid.points[hi].copy())
