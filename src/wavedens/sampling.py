"""Target densities with analytic evaluation and exact, reproducible samplers.

All densities live on [0, 1]^d and are separable per mixture component, so
box probabilities and coordinate CDFs are analytic.  Sampling streams are
counter-based (Philox keyed by (base_seed, replication_index)), so any
replication is reproducible in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ConfigurationError

_TWO_PI = 2.0 * math.pi
_PPF_NODES = 1 << 12  # intervals of the cosine_bump inverse-CDF table


def _as_sample(sample) -> np.ndarray:
    """A sample as an (n, d) float array; a 1-D array is n points in d = 1."""
    sample = np.asarray(sample, float)
    return sample[:, None] if sample.ndim == 1 else sample


def _as_point(x, d: int) -> np.ndarray:
    """One point as a (d,) float array; a scalar is a point only when d = 1."""
    x = np.asarray(x, float)
    if x.ndim > 1 or x.size != d:
        raise ValueError(f"point must have shape (d,) with d = {d}, got {x.shape}")
    return x.reshape(d)


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
        inverse at u = i / _PPF_NODES, then 2 safeguarded Newton steps.

        The table is built once, at the first call, by 6 of the same steps
        from x = u (|x - u| <= 1/(4 pi): five steps reach rounding level and
        the sixth is a margin).  The interpolation error is at most
        (2^-12)^2 / 8 * max|(F^-1)''| <= 2^-27 * 8 pi, about 1.9e-7, and a
        step takes the error e to at most pi e^2: 1.1e-13, then rounding.
        """
        u = np.asarray(u, float)
        # no reference to the start is kept here, so the steps free it
        return self._newton(u, self._table_start(u), 2)

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


class _TruncNorm:
    """Normal(mu, sd) truncated to [0, 1] and renormalized."""

    def __init__(self, mu, sd):
        self.mu = mu
        self.sd = sd
        self._z = self._phi((1.0 - mu) / sd) - self._phi((0.0 - mu) / sd)
        self._lo = self._phi((0.0 - mu) / sd)

    @staticmethod
    def _phi(t):
        return ndtr(np.asarray(t, float))

    def pdf(self, x):
        x = np.asarray(x, float)
        inside = (x >= 0.0) & (x <= 1.0)
        dens = np.exp(-0.5 * ((x - self.mu) / self.sd) ** 2) / (
            self.sd * math.sqrt(2.0 * math.pi) * self._z)
        return np.where(inside, dens, 0.0)

    def cdf(self, x):
        x = np.clip(np.asarray(x, float), 0.0, 1.0)
        return (self._phi((x - self.mu) / self.sd) - self._lo) / self._z

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
        """Density at one point of shape (d,) (a float) or at points of
        shape (n, d) (an array); other 1-D lengths and widths raise ValueError."""
        x = np.asarray(x, float)
        if x.ndim > 2 or (x.ndim and x.shape[-1] != self.dimension):
            raise ValueError(f"points must have shape (d,) or (n, d) with d = "
                             f"{self.dimension}, got {x.shape}")
        single = x.ndim == 1
        pts = np.atleast_2d(x)
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
            factors = [np.maximum(float(m.cdf(hi[i])) - m.cdf(np.asarray(ax, float)), 0.0)
                       for i, ax in enumerate(lo_axes)]
            part = factors[0]
            for f in factors[1:]:
                part = np.multiply.outer(part, f)
            total = total + w * part
        return total

    def sup_on(self, box) -> float:
        """sup of the pdf over a box H (grid search plus local refinement)."""
        lo = np.atleast_1d(np.asarray(box[0], float))
        hi = np.atleast_1d(np.asarray(box[1], float))
        n = 2049 if self.dimension == 1 else 257
        pts = _grid_points([np.linspace(lo[i], hi[i], n) for i in range(self.dimension)])
        vals = self.pdf(pts)
        best = int(np.argmax(vals))
        x0 = pts[best]
        # local refinement by coordinate-wise golden-section-style shrink
        span = (hi - lo) / (n - 1)
        val0 = float(vals[best])
        for _ in range(40):
            improved = False
            for i in range(self.dimension):
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
    if d < 1:
        raise ConfigurationError("dimension must be >= 1")
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
    if n < 1:
        raise ValueError("n must be >= 1")
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
