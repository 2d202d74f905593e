"""Strassen and Poisson-type limit sets and their extremal functionals.

Limit sets are represented through cell densities gdot on the localized
kernel's grid: the Strassen ball constrains int gdot^2 <= 1, the Poisson
set Gamma_v constrains int h(gdot) <= 1/v with the entropy-like cost
h(t) = t log t - t + 1.  Both extremal problems reduce to pointwise dual
solutions with a single scalar multiplier found by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import NumericalError
from .increments import IncrementFunction, cell_density, from_cell_density, theta
from .kernel import LocalizedKernel, _box_sum

_EXP_CLIP = 500.0  # exp argument cap; costs beyond this dwarf any feasible 1/v


@dataclass(frozen=True)
class IntervalJ:
    """Image interval of Gamma_v under the unnormalized kernel functional."""

    lo: float
    hi: float
    v: float
    certificate: dict = field(repr=False)

    def __post_init__(self):
        if not (self.lo <= 1.0 + 1e-9 and self.hi >= 1.0 - 1e-9):
            raise NumericalError("interval must contain 1 (gdot = 1 is free)")


def h_poisson(t):
    """Poisson rate function: t log t - t + 1 on (0, inf), 1 at 0, inf below 0."""
    t = np.asarray(t, float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.full(t.shape, np.inf)
    pos = t > 0.0
    tp = t[pos]
    out[pos] = tp * np.log(tp) - tp + 1.0
    out[t == 0.0] = 1.0
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class StrassenDistance:
    value: float
    warning: str | None = None


def strassen_extremal(lk: LocalizedKernel):
    """Maximizer of the normalized functional over the Strassen ball.

    The Cauchy-Schwarz equality case gdot = Ktilde / ||Ktilde||_2 attains
    the extreme value 1; returns (value, gdot) with the value routed
    through the generic theta machinery.
    """
    kv = lk.cell_values()
    vol = lk.cell_volume
    norm = math.sqrt(float(np.sum(kv ** 2)) * vol)
    gdot = kv / norm
    g = from_cell_density("strassen-extremal", lk.axes, gdot)
    return theta(lk, g, normalized=True), gdot


def strassen_distance(g: IncrementFunction, budget: int = 5000) -> StrassenDistance:
    """Approximate sup-norm distance from g to the discretized Strassen set.

    Warm start: the exact cell density of g projected onto the L2 ball;
    refinement by projected subgradient steps on the active corner.  The
    returned value is an upper bound on the discretized distance.
    """
    d = g.dimension
    vol = g.step ** d
    target = g.values

    def ball_project(gd):
        nrm = math.sqrt(float(np.sum(gd ** 2)) * vol)
        return gd / nrm if nrm > 1.0 else gd

    gdot = ball_project(cell_density(g))
    best = float(np.max(np.abs(target - _box_sum(gdot * vol))))
    best_hist = [best]
    for t in range(1, budget + 1):
        resid = target - _box_sum(gdot * vol)
        idx = np.unravel_index(int(np.argmax(np.abs(resid))), resid.shape)
        obj = abs(float(resid[idx]))
        if obj < best:
            best = obj
        best_hist.append(best)
        if best < 1e-12:
            break
        sign = math.copysign(1.0, float(resid[idx]))
        mask = np.ones(tuple(s - 1 for s in target.shape), dtype=bool)
        for ax in range(d):
            sl = [slice(None)] * d
            sl[ax] = slice(0, idx[ax])
            mask[tuple(sl)] = False
        n_active = int(mask.sum())
        if n_active == 0:
            break
        step = obj / (vol * n_active * math.sqrt(t))
        upd = np.zeros_like(gdot)
        upd[mask] = sign * step
        gdot = ball_project(gdot + upd)
    warning = None
    tail = max(budget // 10, 1)
    if len(best_hist) > tail and best_hist[-1] >= best_hist[-tail] - 1e-12 and best > 1e-6:
        warning = "no improvement over the final iteration window"
    return StrassenDistance(best, warning)


def _gamma_endpoint(kv: np.ndarray, vol: float, budget: float, sign: float):
    """Solve sup/inf of sum(K gdot) vol s.t. sum(h(gdot)) vol <= budget.

    sign=+1 gives the upper endpoint with gdot = exp(K/eta), sign=-1 the
    lower endpoint with gdot = exp(-K/eta); eta > 0 found by bisection on
    the (monotone) cost curve.
    """

    def gdot_of(eta):
        return np.exp(np.clip(sign * kv / eta, -_EXP_CLIP, _EXP_CLIP))

    def cost(eta):
        return float(np.sum(h_poisson(gdot_of(eta))) * vol)

    if sign < 0:
        # objective is minimized at gdot = 0 on {K > 0} when that is feasible
        slack_cost = float(np.count_nonzero(kv > 0.0)) * vol
        if np.all(kv >= 0.0) and slack_cost <= budget + 1e-12:
            gd = np.where(kv > 0.0, 0.0, 1.0)
            return 0.0, 0.0, gd

    lo_eta, hi_eta = 1e-12, 1.0
    while cost(hi_eta) > budget and hi_eta < 1e18:
        hi_eta *= 4.0
    if cost(hi_eta) > budget:
        raise NumericalError("gamma endpoint bisection failed to bracket")
    eta = brentq(lambda e: cost(e) - budget, lo_eta, hi_eta,
                 xtol=1e-300, rtol=8.9e-16, maxiter=500)
    if abs(cost(eta) - budget) > 1e-9:
        raise NumericalError("gamma endpoint dual constraint not met to tolerance")
    gd = gdot_of(eta)
    return float(np.sum(kv * gd) * vol), float(eta), gd


def gamma_interval(lk: LocalizedKernel, v: float) -> IntervalJ:
    """Endpoints of the image of Gamma_v under the unnormalized functional.

    Off-support cells (Ktilde = 0) sit at the free value gdot = 1 with
    zero cost in both endpoints, so the result does not depend on the
    domain box padding.
    """
    if v <= 0.0:
        raise ValueError("v must be positive")
    kv = lk.cell_values()
    vol = lk.cell_volume
    budget = 1.0 / v
    hi, eta_hi, gd_hi = _gamma_endpoint(kv, vol, budget, +1.0)
    lo, eta_lo, gd_lo = _gamma_endpoint(kv, vol, budget, -1.0)
    cert = {"eta_hi": eta_hi, "eta_lo": eta_lo,
            "gdot_hi": gd_hi, "gdot_lo": gd_lo}
    return IntervalJ(lo, hi, v, cert)


def theorem2_threshold(density, box, c: float, lk: LocalizedKernel) -> float:
    """Predicted persistent relative-deviation magnitude under ER scaling:
    delta = min(hi - 1, 1 - lo) of the Gamma interval at v = c f(x0)."""
    fx0 = density.sup_on(box)
    iv = gamma_interval(lk, c * fx0)
    return min(iv.hi - 1.0, 1.0 - iv.lo)
