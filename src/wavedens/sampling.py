"""Target densities with analytic evaluation and exact, reproducible samplers.

All densities live on [0, 1]^d and are separable per mixture component, so
box probabilities and coordinate CDFs are analytic.  Sampling streams are
counter-based (Philox keyed by (base_seed, replication_index)), so any
replication is reproducible in isolation.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_TWO_PI = 2.0 * math.pi
_PPF_NODES = 1 << 12  # intervals of the cosine_bump inverse-CDF table


def _as_sample(sample) -> np.ndarray:
    """A sample as an (n, d) float array; a 1-D array is n points in d = 1."""
    sample = np.asarray(sample, float)
    return sample[:, None] if sample.ndim == 1 else sample


def _as_points(x, d: int, one: bool = False) -> tuple:
    """Points as an (m, d) float array, and whether x is one point: an (m, d)
    array is m points, a (d,) array is one, and so is a scalar when d = 1.
    Other shapes raise ConfigurationError, as does (m, d) when one is set."""
    x = np.asarray(x, float)
    single = x.ndim < 2 and x.size == d > 0
    if not single and (one or x.ndim != 2 or x.shape[1] != d):
        what = "point must have shape (d,)" if one else "points must have shape (d,) or (m, d)"
        raise ConfigurationError(f"{what} with d = {d}, got {x.shape}")
    return x.reshape(-1, d), single


def _as_point(x, d: int) -> np.ndarray:
    """One point as a (d,) float array (`_as_points`); a box is two of them."""
    return _as_points(x, d, one=True)[0][0]


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _check_level(j: int, d: int, lowest: int = 0) -> int:
    """A multiresolution level in d dimensions: an integer j >= lowest with
    2^(d j) a finite float, so that the bandwidth 2^(-d j) is positive.  The
    LIL normalization sqrt(2 f h log(1/h)) needs h < 1: lowest = 1.  Returns
    j as a Python int: a numpy integer would overflow the shifts 1 << j."""
    if not _is_int(j):
        raise ConfigurationError(f"level j must be an integer, got {j!r}")
    if j < lowest:
        raise ConfigurationError(f"level j must be >= {lowest}")
    if d * j >= sys.float_info.max_exp:
        raise ConfigurationError(f"level j must keep 2^(d j) finite, got j = {j} at d = {d}")
    return int(j)


def _check_dimension(d: int) -> None:
    if not (_is_int(d) and d >= 1):
        raise ConfigurationError(f"dimension must be an integer >= 1, got {d!r}")


def _grid_points(axes) -> np.ndarray:
    """The tensor grid of per-coordinate axes as (m, d) points, last axis fastest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic stream identity: the stream is a pure function of both
    fields and distinct replication indices give non-overlapping streams."""

    base_seed: int
    replication_index: int = 0

    def __post_init__(self):
        for name, v in vars(self).items():  # base_seed, replication_index
            if not (_is_int(v) and 0 <= v < 1 << 64):
                raise ConfigurationError(f"{name} must be an integer in [0, 2^64), got {v!r}")

    def rng(self) -> np.random.Generator:
        key = np.array([self.base_seed, self.replication_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


class _Uniform:
    def pdf(self, x):
        x = np.asarray(x, float)
        return ((x >= 0.0) & (x <= 1.0)).astype(float)

    def cdf(self, x):
        return np.clip(np.asarray(x, float), 0.0, 1.0)

    def ppf(self, u):
        return np.asarray(u, float)


class _Cosine:
    """Marginal pdf 1 + 0.5 cos(2 pi x) on [0, 1]."""

    _nodes = None  # the inverse at u = i / _PPF_NODES, built at the first ppf

    def pdf(self, x):
        x = np.asarray(x, float)
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, 1.0 + 0.5 * np.cos(_TWO_PI * x), 0.0)

    def cdf(self, x):
        x = np.clip(np.asarray(x, float), 0.0, 1.0)
        return x + np.sin(_TWO_PI * x) / (2.0 * _TWO_PI)

    def ppf(self, u):
        """Inverse CDF on [0, 1]: linear interpolation in a table of the
        inverse at u = i / _PPF_NODES, then one Halley step.

        The table is built once, at the first call, by 6 safeguarded Newton
        steps from x = u (|x - u| <= 1/(4 pi): five steps reach rounding
        level and the sixth is a margin).  The interpolation error is at most
        (2^-12)^2 / 8 * max|(F^-1)''| <= 2^-27 * 8 pi, about 1.9e-7.  The
        Halley step x - 2 g F' / (2 F'^2 - g F''), with g = cdf(x) - u,
        F' = 1 + cos(2 pi x) / 2 >= 1/2 and F'' = -pi sin(2 pi x), takes the
        error e to at most about 16 e^3, 1e-19, so the result is the root to
        rounding.  It takes one sin, shared by g and F'', and one cos.
        """
        # in place where it can be: every temporary has the size of u
        x = self._table_start(np.asarray(u, float))
        s = np.sin(_TWO_PI * x)
        g = x + s / (2.0 * _TWO_PI)
        g -= u  # cdf(x) - u as cdf computes it: x is in [0, 1]
        fp = np.cos(_TWO_PI * x)
        fp *= 0.5
        fp += 1.0  # F'
        s *= -math.pi
        s *= g  # g F''
        step = 2.0 * g * fp
        fp *= fp
        fp *= 2.0
        fp -= s  # 2 F'^2 - g F''
        step /= fp
        x -= step
        return x

    def _table_start(self, u):
        """The inverse at u interpolated between the table nodes around it."""
        if _Cosine._nodes is None:
            grid = np.arange(_PPF_NODES + 1) / _PPF_NODES
            _Cosine._nodes = self._newton(grid, grid, 6)
        nodes = _Cosine._nodes
        t = u * _PPF_NODES
        i = np.clip(t.astype(np.int64), 0, _PPF_NODES - 1)  # u = 1: the last interval
        lo = nodes[i]
        return lo + (t - i) * (nodes[i + 1] - lo)

    def _newton(self, u, x, steps):
        """x after `steps` safeguarded Newton steps for cdf(x) = u.

        Each step moves one end of the bracket [lo, hi] of the root, from
        [0, 1], to x by the sign of cdf(x) - u, then takes the Newton step,
        or bisects when the step leaves the bracket.  The bracket is closed:
        at an exact root, cdf(x) = u, the bracket stays put and the step, x
        itself, is kept, where an open bracket would bisect away from the
        root.  The pdf is at least 0.5 and |pdf'| at most pi, so a step
        takes the error e to at most pi e^2.
        """
        lo = np.zeros_like(u)
        hi = np.ones_like(u)
        for _ in range(steps):
            f = self.cdf(x) - u
            lo = np.where(f < 0.0, x, lo)
            hi = np.where(f > 0.0, x, hi)
            step = x - f / (1.0 + 0.5 * np.cos(_TWO_PI * x))  # x stays in [0, 1]
            x = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        return x


_SQRT_HALF = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843e2  # ln(largest float): exp(-s) for s past it is 0


def _pairs(num, den):
    """Coefficient pairs (num, den) for `_rational`, from the highest power;
    den's leading 1 is written out and num is padded with leading zeros."""
    den = (1.0,) + den
    num = (0.0,) * (len(den) - len(num)) + num
    return np.array([num, den]).T[:, :, None].copy()


# The rational approximations of Cephes' ndtr.c (S. L. Moshier, Cephes Math
# Library 2.x), the ones scipy.special.ndtr evaluates: erf(w) = w T(w^2) /
# U(w^2) for w < 1, and erfc(w) = exp(-w^2) P(w) / Q(w) for 1 <= w < 8 and
# exp(-w^2) R(w) / S(w) from 8.
_ERF = _pairs((9.60497373987051638749e0, 9.00260197203842689217e1,
               2.23200534594684319226e3, 7.00332514112805075473e3,
               5.55923013010394962768e4),
              (3.35617141647503099647e1, 5.21357949780152679795e2,
               4.59432382970980127987e3, 2.26290000613890934246e4,
               4.92673942608635921086e4))
_ERFC = _pairs((2.46196981473530512524e-10, 5.64189564831068821977e-1,
                7.46321056442269912687e0, 4.86371970985681366614e1,
                1.96520832956077098242e2, 5.26445194995477358631e2,
                9.34528527171957607540e2, 1.02755188689515710272e3,
                5.57535335369399327526e2),
               (1.32281951154744992508e1, 8.67072140885989742329e1,
                3.54937778887819891062e2, 9.75708501743205489753e2,
                1.82390916687909736289e3, 2.24633760818710981792e3,
                1.65666309194161350182e3, 5.57535340817727675546e2))
_ERFC_TAIL = _pairs((5.64189583547755073984e-1, 1.27536670759978104416e0,
                     5.01905042251180477414e0, 6.16021097993053585195e0,
                     7.40974269950448939160e0, 2.97886665372100240670e0),
                    (2.26052863220117276590e0, 9.39603524938001434673e0,
                     1.20489539808096656605e1, 1.70814450747565897222e1,
                     9.60896809063285878198e0, 3.36907645100081516050e0))


def _rational(x, coefs):
    """(num(x), den(x)) at a 1-D array x by Horner's rule, both polynomials
    at once.  A leading 0 or 1 takes the first step exactly, so the values
    are those of Cephes' polevl and p1evl."""
    y = np.empty((2, len(x)))
    y[...] = coefs[0]
    for c in coefs[1:]:
        y *= x
        y += c
    return y


def _ndtr(t):
    """The standard normal CDF Phi(t) = erfc(-t / sqrt 2) / 2, elementwise,
    step for step as Cephes' ndtr: an np.float64 for a scalar, an array of
    t's shape otherwise.

    With x = t / sqrt 2 and w = |x|: 1/2 + erf(x) / 2 for w < 1/sqrt 2, else
    erfc(w) / 2, reflected to 1 - erfc(w) / 2 for x > 0, with erfc(w) =
    1 - erf(w) below 1 and 0 where w^2 > _MAXLOG.  The one difference from
    Cephes is numpy's exp in place of the C library's: at 160,001 points of
    [-8, 8], 98.5% of the values equal scipy.special.ndtr's and the rest
    are within 3 ulps (4.6e-16 relative).
    """
    x = np.asarray(t, float) * _SQRT_HALF
    w = np.abs(x)
    out = np.empty_like(w)
    near = w < 1.0  # NaN is not, and stays NaN on the erfc side
    v = w[near]
    num, den = _rational(v * v, _ERF)
    e = v * num
    e /= den  # erf(v)
    out[near] = np.where(v < _SQRT_HALF, 0.5 + 0.5 * np.copysign(e, x[near]),
                         0.5 * (1.0 - e))
    far = ~near
    v = np.minimum(w[far], 27.0)  # past 27, v^2 > _MAXLOG: no overflow in num, den
    tail = v >= 8.0
    num, den = _rational(v, _ERFC)
    if tail.any():
        num, den = np.where(tail, _rational(v, _ERFC_TAIL), (num, den))
    s = v * v
    e = np.exp(-s)
    e *= num
    e /= den
    e[s > _MAXLOG] = 0.0
    e *= 0.5  # erfc(v) / 2
    out[far] = e
    flip = (x > 0.0) & (w >= _SQRT_HALF)
    out[flip] = 1.0 - out[flip]
    return out[()]


class _TruncNorm:
    """Normal(mu, sd) truncated to [0, 1] and renormalized."""

    def __init__(self, mu, sd):
        self.mu = mu
        self.sd = sd
        self._lo = _ndtr((0.0 - mu) / sd)
        self._z = _ndtr((1.0 - mu) / sd) - self._lo

    def pdf(self, x):
        x = np.asarray(x, float)
        inside = (x >= 0.0) & (x <= 1.0)
        dens = np.exp(-0.5 * ((x - self.mu) / self.sd) ** 2) / (
            self.sd * math.sqrt(2.0 * math.pi) * self._z)
        return np.where(inside, dens, 0.0)

    def cdf(self, x):
        x = np.clip(np.asarray(x, float), 0.0, 1.0)
        return (_ndtr((x - self.mu) / self.sd) - self._lo) / self._z

    def sample(self, rng, n):
        # rejection against the untruncated normal
        out = np.empty(n)
        filled = 0
        while filled < n:
            cand = rng.normal(self.mu, self.sd, size=max(n - filled, 16))
            cand = cand[(cand >= 0.0) & (cand <= 1.0)]
            take = min(len(cand), n - filled)
            out[filled:filled + take] = cand[:take]
            filled += take
        return out


@dataclass(frozen=True)
class Density:
    """Mixture of separable components on [0, 1]^d.

    components: tuple of (weight, marginal) pairs; each component's joint
    pdf is the product of the same marginal over the d coordinates.
    """

    name: str
    dimension: int
    components: tuple

    def pdf(self, x) -> np.ndarray:
        """Density at points (`_as_points`): a float at one, an (m,) array at m."""
        pts, single = _as_points(x, self.dimension)
        out = np.zeros(len(pts))
        for w, m in self.components:
            out += w * np.prod(m.pdf(pts), axis=1)
        return float(out[0]) if single else out

    def cdf1(self, x) -> np.ndarray:
        """Coordinate marginal CDF (same for every coordinate)."""
        x = np.asarray(x, float)
        out = np.zeros(x.shape)
        for w, m in self.components:
            out = out + w * m.cdf(x)
        return out

    def box_prob(self, lo, hi) -> float:
        """P(X in [lo, hi]) for corners of shape (d,), via analytic CDFs:
        box_prob_grid on the one-corner grid lo."""
        lo = _as_point(lo, self.dimension)
        return self.box_prob_grid(lo[:, None], hi).item()

    def box_prob_grid(self, lo_axes, hi) -> np.ndarray:
        """P(X in [s, hi]) for every corner s of an axis grid.

        lo_axes: list of d arrays of lower-corner coordinates; hi: a corner
        of shape (d,); returns an array of shape (len(ax) for ax in lo_axes).
        Another number of axes raises ValueError.
        """
        if len(lo_axes) != self.dimension:
            raise ValueError(f"lo_axes must hold d = {self.dimension} axes, "
                             f"got {len(lo_axes)}")
        hi = _as_point(hi, self.dimension)
        total = 0.0
        for w, m in self.components:
            # one cdf call per axis, with hi[i] last; each value keeps its bits
            cdfs = (m.cdf(np.append(ax, hi[i])) for i, ax in enumerate(lo_axes))
            factors = [np.maximum(c[-1] - c[:-1], 0.0) for c in cdfs]
            part = factors[0]
            for f in factors[1:]:
                part = np.multiply.outer(part, f)
            total = total + w * part
        return total

    def sup_on(self, box) -> float:
        """sup of the pdf over a box H (grid search plus local refinement).

        The search grid has 2049 points in 1-D and n per axis from 2-D on:
        the largest n with n^d <= 257^2 (257 in 2-D, 40 in 3-D, 16 in 4-D),
        and at least 2."""
        lo, hi = (_as_point(v, self.dimension) for v in box)
        if not np.all(lo <= hi):  # NaN fails too
            raise ConfigurationError("box must have lo <= hi in every coordinate")
        d = self.dimension
        # 257 is prime: from d = 3 on, 257^(2/d) is not an integer, and int()
        # floors it; at d = 2 it is 257.0 exactly
        n = 2049 if d == 1 else max(2, int(257 ** (2 / d)))
        pts = _grid_points([np.linspace(lo[i], hi[i], n) for i in range(d)])
        vals = self.pdf(pts)
        best = int(np.argmax(vals))
        x0 = pts[best]
        # local refinement by coordinate-wise golden-section-style shrink
        span = (hi - lo) / (n - 1)
        val0 = float(vals[best])
        for _ in range(40):
            improved = False
            for i in range(d):
                for delta in (-0.5 * span[i], 0.5 * span[i]):
                    cand = x0.copy()
                    cand[i] = min(max(cand[i] + delta, lo[i]), hi[i])
                    v = float(self.pdf(cand))
                    if v > val0:
                        x0, val0, improved = cand, v, True
            if not improved:
                span *= 0.5
        return val0


def make_density(name: str, d: int) -> Density:
    """Build one of the shipped densities on [0, 1]^d."""
    _check_dimension(d)
    if name == "uniform01":
        comps = ((1.0, _Uniform()),)
    elif name == "cosine_bump":
        comps = ((1.0, _Cosine()),)
    elif name == "trunc_gauss_mix":
        comps = ((0.5, _TruncNorm(0.35, 0.15)), (0.5, _TruncNorm(0.7, 0.1)))
    else:
        raise ConfigurationError(f"unknown density {name!r}")
    return Density(name, d, comps)


def draw(density: Density, seed_spec: SeedSpec, n: int) -> np.ndarray:
    """n i.i.d. points of shape (n, d), deterministic given the seed spec.

    Inverse-CDF per coordinate for single-component densities, component
    draw plus per-coordinate rejection for the mixture.
    """
    if not (_is_int(n) and n >= 1):
        raise ConfigurationError(f"n must be an integer >= 1, got {n!r}")
    rng = seed_spec.rng()
    d = density.dimension
    if len(density.components) == 1:
        marginal = density.components[0][1]
        u = rng.random((n, d))
        return marginal.ppf(u)
    weights = np.array([w for w, _ in density.components])
    comp = rng.choice(len(weights), size=n, p=weights)
    out = np.empty((n, d))
    for ci, (_, m) in enumerate(density.components):
        idx = np.nonzero(comp == ci)[0]
        for col in range(d):
            out[idx, col] = m.sample(rng, len(idx))
    return out
