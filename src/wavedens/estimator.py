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
from .kernel import _MAX_SHIFT, _MAX_TABLE_CELLS, ProjectionKernel, _check_reach, kernel_Kj_batch
from .sampling import (Density, _as_point, _as_points, _as_sample, _check_level,
                       _grid_points)

GRID_CAP = 4096
_QUADRATURE_CHUNK = 1 << 16  # nodes per block of E fhat quadrature rows
_BLOCK_ROWS = 1 << 16  # sample rows per block of the Haar count, at least
_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest float below 1
_MAX_NODE = 2 ** 52  # i + 1/2 is an exact float for integers 0 <= i < 2^52


@dataclass(frozen=True, eq=False)
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


def fit(basis: ScalingFunction, j: int, sample) -> WaveletDensityEstimator:
    """Empirical scaling coefficients alpha_hat_{j,k} = (1/n) sum_i phi_{j,k}(X_i).

    Raises ConfigurationError for an empty or non-finite sample
    (`_as_sample`), for one past the reach rule (`kernel._check_reach`) and
    for one whose k-box would exceed _MAX_TABLE_CELLS cells.

    Haar counts the sample in blocks of max(_BLOCK_ROWS, cells) rows, cells
    the size of the k-box: its scratch memory is one block's indices, not
    the sample's, and the table keeps the bits of one count of the whole."""
    sample, lo, hi = _as_sample(sample)
    n, d = sample.shape
    j = _check_level(j, d)
    # Size the k-box from the bounds scaled in Python floats, before any numpy
    # scaling or int64 cast, so that a far outlier fails here rather than in
    # the multiply, the cast or the allocation.  Python floats overflow to inf
    # quietly; an infinite bound makes `cells` NaN and fails the reach test.
    scale = 2.0 ** j
    bounds = [(float(a) * scale, float(b) * scale) for a, b in zip(lo, hi)]
    cells = math.prod(b // 1.0 - a // 1.0 + basis.width for a, b in bounds)
    if cells > _MAX_TABLE_CELLS:
        raise ConfigurationError(f"sample spans {cells:.4g} coefficient cells at level "
                                 f"j={j}, more than the {_MAX_TABLE_CELLS} fit allocates")
    _check_reach(basis, j, zip(lo, hi), "sample")
    haar = basis.interp == "left"
    origin = np.floor(lo * scale).astype(np.int64) - (basis.width - 1)
    shape = tuple(int(s) for s in np.floor(hi * scale).astype(np.int64) - origin + 1)
    factor = 2.0 ** (d * j / 2.0) / n
    if haar:
        # Haar: phi(2^j x - k) is 1 at the one shift k = floor(2^j x), so the
        # table counts points per cell.  np.bincount sums integers, exact in
        # any order, and gives the np.add.at table bit for bit.  Scaling by
        # 2^j is exact, so origin and shape bound these floors.  Each block's
        # floors go in one int64 buffer, and the first block's counts are the
        # accumulator: a fit of one block allocates no second table.
        size = math.prod(shape)
        rows = max(_BLOCK_ROWS, size)
        buf = np.empty((min(n, rows), d), np.int64)
        negative = lo.min() < 0.0
        for a in range(0, n, rows):
            block = sample[a:a + rows]
            # The cast rounds y = 2^j x toward 0: the floor, unless y is a
            # negative non-integer, where y < k.  float(k) is exact, as
            # |y| < 2^53 or y is an integer, so that test is exact too.
            k = np.multiply(block, scale, out=buf[:len(block)], casting="unsafe")
            if negative:
                k -= block * scale < k
            k -= origin  # in place; at d = 1 the flat index is a view of k
            part = np.bincount(_flat_base(k.T, shape)[0], minlength=size)
            if a:
                counts += part
            else:
                counts = part
        table = (counts * factor).reshape(shape)
    else:
        # Smooth bases: the transpose of _apply, on the same plan, with the
        # products formed and the offsets visited in the same order.
        # np.add.at adds in sample order; a np.bincount would sum the float
        # values in another order and move the coefficients by ulps.
        first, factors = _plan(basis, j, sample)
        for k, o in zip(first, origin):
            k -= o  # in place: the table index of the first shift
        base, strides = _flat_base(first, shape)
        table = np.zeros(shape)
        flat = table.ravel()
        for offset in itertools.product(range(basis.width), repeat=d):
            vals = factors[0][offset[0]]
            for i in range(1, d):
                vals = vals * factors[i][offset[i]]
            np.add.at(flat[int(np.dot(offset, strides)):], base, vals)
        table *= factor
    return WaveletDensityEstimator(basis, j, n, d, origin, table)


def _floor_scaled(y, j: int) -> int:
    """floor(2^j y) for a finite float y, as a Python int: exact at any level."""
    p, q = float(y).as_integer_ratio()
    return (p << j) // q


def _axis_plan(basis: ScalingFunction, y: np.ndarray) -> tuple:
    """The shifts that can be nonzero at y, one axis of 2^j x (shape (m,)):
    (first, factors), with first = floor(y) - (width - 1) (int64) and
    factors[o] = phi(y - first - o) for o < width.  phi is zero outside
    [0, width) and at width, so phi(y - s) != 0 needs y - width < s <= y:
    the width integers from first.

    Haar's phi is the indicator of [0, 1) and its one shift is floor(y), so
    y - s lies in [0, 1); the float y - floor(y) rounds up to 1.0 for y in
    [-2^-54, 0), and is moved back below 1.  Continuous bases keep the
    rounded argument: their phi barely moves over one rounding."""
    first = np.floor(y, out=np.empty(y.shape, np.int64), casting="unsafe")
    first -= basis.width - 1
    factors = []
    for o in range(basis.width):
        arg = first + float(o)  # the shift, an exact float
        np.subtract(y, arg, out=arg)
        if basis.interp == "left":
            np.minimum(arg, _BELOW_ONE, out=arg)
        factors.append(eval_phi(basis, arg))
    return first, factors


def _plan(basis: ScalingFunction, j: int, pts: np.ndarray) -> tuple:
    """The half of a table sum at finite points pts (m, d) that no table
    enters: (first, factors), with first[i] and factors[i] the
    `_axis_plan` of axis i: d * width arrays of m values, not the width^d
    products.

    2^j x is clipped to [-2^62, 2^62], which keeps the int64 floors exact;
    one past the largest float is clipped from inf.  fit's tables hold
    shifts in [-2^62 + 513 - width, 2^62 - 512], so a clipped point still
    meets none of them, and first - origin stays in int64.  A smooth
    basis's tables hold shifts in (-2^52 - width, 2^52), so a point whose
    factors are taken at rounded arguments, past 2^53, meets none of them."""
    with np.errstate(over="ignore"):
        xs = pts * (2.0 ** j)
    np.clip(xs, -_MAX_SHIFT, _MAX_SHIFT, out=xs)
    return tuple(zip(*(_axis_plan(basis, y) for y in xs.T)))


def _flat_base(ks, shape: tuple) -> tuple:
    """(base, strides) for the table indices ks (one int64 array per axis)
    in a C-ordered table of this shape: base + sum_i offset_i * strides[i]
    is the flat index of ks + offset."""
    strides = [math.prod(shape[i + 1:]) for i in range(len(shape))]
    base = ks[-1]
    for k, stride in zip(ks[:-1], strides):
        base = base + k * stride
    return base, strides


def _apply(plan: tuple, origin: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_k table[k - origin] prod_i phi(2^j x_i - k_i) at the points of a
    `_plan`; the table is 0 outside its box.  Each product is formed in axis
    order and the offsets are summed in ascending order, last axis fastest,
    as fit's scatter visits them.  Each axis factor is multiplied by 1.0 or
    0.0 as its shift lies inside the box: a shift outside adds +-0 to a sum
    that starts at +0.0, which changes no bit."""
    first, factors = plan
    w, d, shape = len(factors[0]), len(first), table.shape
    # the table index of the first shift; one outside [-w, shape] leaves all
    # w shifts outside, as the clipped one does, and the flat index stays small
    ks = [np.clip(f - o, -w, m) for f, o, m in zip(first, origin, shape)]
    factors = [[f * ((k >= -s) & (k < m - s)) for s, f in enumerate(fs)]
               for fs, k, m in zip(factors, ks, shape)]
    base, strides = _flat_base(ks, shape)
    flat = table.ravel()
    out = np.zeros(len(base))
    for offset in itertools.product(range(w), repeat=d):
        vals = factors[0][offset[0]]
        for i in range(1, d):
            vals = vals * factors[i][offset[i]]
        out += flat.take(base + int(np.dot(offset, strides)), mode="clip") * vals
    return out


def evaluate(est: WaveletDensityEstimator, x) -> np.ndarray:
    """fhat at points (`_as_points`) or at the points of an EvaluationGrid:
    sum_k alpha_hat phi_{j,k}, a float at one point and an array of shape
    (m,) at m points.  A grid keeps the `_plan` of each basis and level it
    is evaluated at, so that evaluating it again calls eval_phi no more."""
    d, j = est.dimension, est.level
    grid = isinstance(x, EvaluationGrid)
    plans = x._plans if grid else {}
    pts, single = _as_points(x.points if grid else x, d)
    plan = plans.get((est.basis, j))
    if plan is None:
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("points must be finite")
        plan = plans[est.basis, j] = _plan(est.basis, j, pts)
    out = _apply(plan, est.origin, est.table)
    out *= 2.0 ** (d * j / 2.0)
    return float(out[0]) if single else out


def evaluate_kernel_form(basis: ScalingFunction, j: int, sample, x) -> float:
    """fhat(x) = (1/n) sum_i K_j(x, X_i) at one point x of shape (d,) (or a
    scalar when d = 1); equals the coefficient form."""
    sample = _as_sample(sample)[0]
    n, d = sample.shape
    pk = ProjectionKernel(basis, d)
    return float(kernel_Kj_batch(pk, j, _as_point(x, d), sample).sum() / n)


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


def expected_estimator(density: Density, basis: ScalingFunction, j: int,
                       x) -> np.ndarray:
    """E fhat at points (`_as_points`): a float at one point and an array of
    shape (m,) at m points.

    E fhat(x) = sum_k alpha_{j,k} phi_{j,k}(x) with the population
    coefficients alpha_{j,k} = integral phi_{j,k} f.  Both the tensor basis
    and the mixture components are separable, so
    E fhat(x) = sum_c w_c prod_i sum_k phi(2^j x_i - k) v_c[k] with one 1-D
    vector v_c per component (`_mass_vectors`) over the shifts the points'
    coordinates reach.  Haar is exact; for smooth bases a step-halving check
    guards the quadrature.
    """
    d = density.dimension
    j = _check_level(j, d)
    pts, single = _as_points(x, d)
    if not np.all(np.isfinite(pts)):
        raise ConfigurationError("points must be finite")
    w = basis.width
    coords = pts.reshape(-1, 1)
    if len(coords) == 0:
        return np.zeros(len(pts))
    # the shifts at y are floor(y) - (w - 1) .. floor(y); those that meet
    # [0, 1] lie in [-(w - 1), 2^j - 1]
    k0 = max(1 - w, min(_floor_scaled(coords.min(), j) - (w - 1), 1 << j))
    k1 = max(-w, min(_floor_scaled(coords.max(), j), (1 << j) - 1))
    if k1 < k0:
        return 0.0 if single else np.zeros(len(pts))
    # never coarser than the 2^-(j + table_depth) knots of phi's table
    step = None if basis.interp == "left" else 2.0 ** -max(j + basis.table_depth, 15)
    # _mass_vectors puts the cell edges and quadrature nodes at i * 2^-j and
    # (i + 1/2) * step; past i = 2^52 these are no longer exact floats, so a
    # cell's two edges can round to one float and its mass read 0
    if (k1 + w) * (1 if step is None else round(2.0 / (2.0 ** j * step))) >= _MAX_NODE:
        raise ConfigurationError(f"the points' cells at level j={j} are finer than "
                                 "the float lattice E fhat integrates on")
    origin = np.array([k0])
    plan = _plan(basis, j, coords)

    def at(step):
        total = 0.0
        for wgt, v in _mass_vectors(density, basis, j, step, k0, k1):
            per_axis = _apply(plan, origin, v).reshape(-1, d)
            prod = wgt
            for i in range(d):
                prod = prod * per_axis[:, i]
            total = total + prod
        return total

    if step is None:
        out = at(None)
    else:
        coarse, out = at(step), at(step / 2.0)
        if np.any(np.abs(out - coarse) > 1e-7):
            raise NumericalError("expected_estimator quadrature did not converge")
    return float(out[0]) if single else out


@dataclass(frozen=True, eq=False)
class EvaluationGrid:
    """The points of H where the sup statistics are taken, as (m, d)."""

    points: np.ndarray = field(repr=False)
    # evaluate's `_plan` per (basis, level)
    _plans: dict = field(default_factory=dict, init=False, repr=False)
    # sup_deviation's pdf at the points per density
    _pdfs: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self):
        return len(self.points)


def make_grid(box, j: int) -> EvaluationGrid:
    """Evaluation grid over the hypercube H = box, d the size of box[0].

    Per dimension: the points x with 2^j x integer, plus cell midpoints while
    the GRID_CAP points per dimension allow; subsampled evenly above the cap.
    A grid of more than GRID_CAP^2 points, the largest 2-D grid, raises.
    """
    d = np.size(box[0])
    j = _check_level(j, d)
    lo, hi = (_as_point(v, d) for v in box)
    if not np.all(np.isfinite([lo, hi])):
        raise ConfigurationError("H must have finite corners")
    axes = []
    for i in range(d):
        # the integers m with 2^-j m in [lo, hi], as Python ints, so that no
        # level builds more than the points it returns
        m0, m1 = -_floor_scaled(-lo[i], j), _floor_scaled(hi[i], j)
        count = m1 - m0 + 1
        if count < 1:
            raise ConfigurationError("no dyadic points in H at this level")
        if 2 * count - 1 <= GRID_CAP:  # with the cell midpoints (2m + 1) / 2^(j+1)
            ms, den = range(2 * m0, 2 * m1 + 1), 2 << j
        else:  # every stride-th point, stride = ceil(count / GRID_CAP), 1 up to the cap
            ms, den = range(m0, m1 + 1, -(-count // GRID_CAP)), 1 << j
        axes.append((ms, den))
    size = math.prod(len(ms) for ms, _ in axes)
    if size > GRID_CAP ** 2:
        raise ConfigurationError(f"{size} grid points at level j={j}, more than "
                                 f"GRID_CAP^2 = {GRID_CAP ** 2}")
    return EvaluationGrid(_grid_points(  # int / int rounds once
        [np.array([m / den for m in ms]) for ms, den in axes]))


@dataclass(frozen=True, eq=False)
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
    `expected`, E fhat on the grid, must have shape (len(grid),).
    """
    if expected is not None and np.shape(expected) != (len(grid),):
        raise ConfigurationError(f"expected has shape {np.shape(expected)}, not ({len(grid)},)")
    fhat = evaluate(est, grid)
    f = grid._pdfs.get(density)
    if f is None:  # checked as it is memoized; a non-positive f is never kept
        f = np.asarray(density.pdf(grid.points), float)
        if np.any(f <= 0.0):
            raise ConfigurationError("density must be strictly positive on the grid")
        grid._pdfs[density] = f
    d, j, n = est.dimension, est.level, est.n
    if mode == "theorem1":
        j = _check_level(j, d, lowest=1)
        if expected is None:
            expected = expected_estimator(density, est.basis, j, grid.points)
        norm = np.sqrt(n * 2.0 ** (-d * j) / (2.0 * f * (d * j) * np.log(2.0)))
        dev = norm * (fhat - np.asarray(expected, float))
    elif mode == "ratio":
        dev = np.abs(fhat / f - 1.0)
    else:
        raise ConfigurationError(f"unknown sup_deviation mode {mode!r}")
    hi = int(np.argmax(dev))
    return SupStatistic(float(dev[hi]), float(dev.min()), grid.points[hi].copy())
