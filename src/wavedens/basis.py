"""Compactly supported scaling functions and their tensor products.

A scaling function phi is stored as a dyadic value table on its support
together with its refinement filter (sum-2 convention).  Haar is evaluated
exactly as an indicator; smooth families (Daubechies) are evaluated by
linear interpolation between tabulated dyadic points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError

_TABLE_DEPTH = 12
FAMILIES = ("haar", "db4", "db6")  # at index i >= 1, Daubechies order i + 1

# Daubechies extremal-phase filters, sum(c) = 2 convention.
_SQRT3 = math.sqrt(3.0)
_SQRT10 = math.sqrt(10.0)
_B6 = math.sqrt(5.0 + 2.0 * _SQRT10)

_DB_FILTERS = {
    2: np.array([(1 + _SQRT3) / 4, (3 + _SQRT3) / 4,
                 (3 - _SQRT3) / 4, (1 - _SQRT3) / 4]),
    3: np.array([(1 + _SQRT10 + _B6) / 16, (5 + _SQRT10 + 3 * _B6) / 16,
                 (10 - 2 * _SQRT10 + 2 * _B6) / 16,
                 (10 - 2 * _SQRT10 - 2 * _B6) / 16,
                 (5 + _SQRT10 - 3 * _B6) / 16, (1 + _SQRT10 - _B6) / 16]),
}


@dataclass(frozen=True, eq=False)
class ScalingFunction:
    """A compactly supported scaling function on the real line.

    Attributes:
        name: family identifier, one of FAMILIES.
        filter: refinement coefficients c_k with sum(c) = 2.
        support: closed support interval (a, b), integers.
        table_depth: dyadic resolution r of the value table.
        values: phi at a + m * 2**-r, m = 0 .. (b - a) * 2**r.
        interp: "left" (piecewise constant, Haar) or "linear".
    """

    name: str
    filter: tuple
    support: tuple
    table_depth: int
    values: np.ndarray = field(repr=False)
    interp: str = "linear"

    @property
    def width(self) -> int:
        return int(self.support[1] - self.support[0])


def build_haar() -> ScalingFunction:
    """Indicator of [0, 1); filter (1, 1); the table is exact at any depth."""
    values = np.ones((1 << _TABLE_DEPTH) + 1)
    values[-1] = 0.0  # right-open support
    return ScalingFunction("haar", (1.0, 1.0), (0, 1), _TABLE_DEPTH, values, "left")


def _integer_values(c: np.ndarray, width: int) -> np.ndarray:
    """phi at the interior integers: eigenvector (eigenvalue 1) of c[2i-j]."""
    m = width - 1
    mat = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            k = 2 * (a + 1) - (b + 1)
            if 0 <= k < len(c):
                mat[a, b] = c[k]
    vals, vecs = np.linalg.eig(mat)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    if abs(vals[idx] - 1.0) > 1e-8:
        raise NumericalError("refinement matrix has no eigenvalue 1")
    v = np.real(vecs[:, idx])
    s = v.sum()
    if abs(s) < 1e-12:
        raise NumericalError("degenerate eigenvector in refinement solve")
    return v / s


def build_daubechies(order: int) -> ScalingFunction:
    """Daubechies scaling function of the given order (2 -> D4, 3 -> D6).

    Values at integers come from the eigenvalue-1 eigenvector of the
    refinement matrix; dyadic values follow by cascading the two-scale
    relation phi(x) = sum_k c_k phi(2x - k) down to the table depth.
    """
    if order not in _DB_FILTERS:
        raise ConfigurationError(f"unsupported Daubechies order {order} (use 2 or 3)")
    c = _DB_FILTERS[order]
    width = 2 * order - 1
    tbl = np.zeros(width + 1)
    tbl[1:width] = _integer_values(c, width)
    for lev in range(1, _TABLE_DEPTH + 1):
        prev_n = width << (lev - 1)
        n = width << lev
        new = np.zeros(n + 1)
        for k, ck in enumerate(c):
            off = k << (lev - 1)
            j0, j1 = max(0, off), min(n, prev_n + off)
            if j0 <= j1:
                new[j0:j1 + 1] += ck * tbl[j0 - off:j1 - off + 1]
        tbl = new
    return ScalingFunction(FAMILIES[order - 1], tuple(c), (0, width), _TABLE_DEPTH, tbl)


def build_family(family: str) -> ScalingFunction:
    """Construct a scaling function by family name, one of FAMILIES."""
    if family not in FAMILIES:
        raise ConfigurationError(f"unknown scaling-function family {family!r}")
    order = FAMILIES.index(family) + 1
    return build_daubechies(order) if order > 1 else build_haar()


def eval_phi(sf: ScalingFunction, x):
    """Evaluate phi at x (scalar or array); exactly 0 outside the support."""
    a, b = sf.support
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if sf.interp == "left":
        out = ((x >= a) & (x < b)).astype(float)
    else:
        out = np.zeros_like(x)
        inside = (x >= a) & (x <= b)
        t = (x[inside] - a) * (1 << sf.table_depth)
        i0 = np.floor(t).astype(np.int64)
        i0 = np.minimum(i0, len(sf.values) - 2)
        fr = t - i0
        out[inside] = sf.values[i0] * (1.0 - fr) + sf.values[i0 + 1] * fr
    return float(out[0]) if scalar else out

