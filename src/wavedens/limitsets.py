"""Strassen and Poisson-type limit sets and their extremal functionals.

Limit sets are represented through cell densities gdot on the localized
kernel's grid: the Strassen ball constrains int gdot^2 <= 1, the Poisson
set Gamma_v constrains int h(gdot) <= 1/v with the entropy-like cost
h(t) = t log t - t + 1.  Both extremal problems reduce to pointwise dual
solutions with a single scalar multiplier found by Brent's method.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._threads import thread_count
from .errors import ConfigurationError, NumericalError
from .increments import from_cell_density, theta
from .kernel import LocalizedKernel
from .sampling import _positive

_EXP_CLIP = 500.0  # exp argument cap; costs beyond this dwarf any feasible 1/v


@dataclass(frozen=True, eq=False)
class IntervalJ:
    """Image interval of Gamma_v under the unnormalized kernel functional."""

    lo: float
    hi: float
    v: float
    certificate: dict = field(repr=False)

    def __post_init__(self):
        if not (self.lo <= 1.0 + 1e-9 and self.hi >= 1.0 - 1e-9):
            raise NumericalError("interval must contain 1 (gdot = 1 is free)")


def _h_positive(t: np.ndarray, out=None) -> np.ndarray:
    """h(t) = t log t - t + 1 where every entry of t is positive, written
    into out (a fresh array if None; it must not be t)."""
    out = np.log(t, out=out)
    out *= t
    out -= t
    out += 1.0
    return out


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _div(a: float, b: float) -> float:
    """a / b with C's IEEE result where Python raises (b = +-0)."""
    if b != 0.0:
        return a / b
    if a != a or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f in [xa, xb] by Brent's method (Algorithms for Minimization
    without Derivatives, 1973), step for step as scipy.optimize.brentq's C
    solver takes it: the same evaluations, interpolate/extrapolate/bisect
    choices and stop test, so the same arguments give the same root.

    f's values are taken as Python floats.  A NaN value, ends of one sign
    and no convergence in maxiter steps raise NumericalError.
    """
    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise NumericalError(f"root finder: f is NaN at x = {x!r}")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise NumericalError("root finder: f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre),
                            dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        if short:
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NumericalError(f"root finder failed to converge after {maxiter} iterations")


def h_poisson(t):
    """Poisson rate function: t log t - t + 1 on (0, inf), 1 at 0, inf below
    0 and at +inf, NaN at NaN."""
    t = np.asarray(t, float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if t.size and t.min() > 0.0 and t.max() < np.inf:
        # all positive and finite (min is NaN if any entry is): the masked
        # path's values without its masks and copies
        out = _h_positive(t)
        return float(out[0]) if scalar else out
    out = np.where(t < 0.0, np.inf, t)  # keeps NaN and +inf
    pos = (t > 0.0) & (t < np.inf)
    out[pos] = _h_positive(t[pos])
    out[t == 0.0] = 1.0
    return float(out[0]) if scalar else out


def strassen_extremal(lk: LocalizedKernel):
    """Maximizer of the normalized functional over the Strassen ball.

    The Cauchy-Schwarz equality case gdot = Ktilde / ||Ktilde||_2 attains
    the extreme value 1; returns (value, gdot) with the value routed
    through the generic theta machinery.
    """
    gdot = lk.cell_values() / lk.sigma
    g = from_cell_density(lk.axes, gdot)
    return theta(lk, g, normalized=True), gdot


def _nonzero_box(kv: np.ndarray) -> tuple:
    """Slices of the smallest box that holds every cell where kv != 0
    (empty slices if there is none)."""
    nz = kv != 0.0
    box = []
    for i in range(kv.ndim):
        others = tuple(a for a in range(kv.ndim) if a != i)
        hit = np.flatnonzero(np.any(nz, axis=others))
        box.append(slice(hit[0], hit[-1] + 1) if hit.size else slice(0, 0))
    return tuple(box)


def _gamma_endpoint(lk: LocalizedKernel, box: tuple, kmax: float,
                    budget: float, sign: float):
    """Solve sup/inf of sum(K gdot) vol s.t. sum(h(gdot)) vol <= budget.

    sign=+1 gives the upper endpoint with gdot = exp(K/eta), sign=-1 the
    lower endpoint with gdot = exp(-K/eta); eta > 0 found by Brent's method
    on the (monotone) cost curve.  box (`_nonzero_box`) holds every cell with
    K != 0, and kmax = max|K|.

    The cost curve runs exp and h only on the box.  A cell with K = +-0
    has gdot = exp(+-0) = 1.0 and h(1.0) = 0.0 exactly, so the cost array
    holds 0.0 outside the box and is summed over the full shape, as before:
    every cost, eta, endpoint and certificate keeps its bits.  Costs are
    memoized on the kernel, so a v-sweep evaluates the bracket points and
    the probe at eta = 1e-12 (where the clip binds) once per kernel.
    """
    kv, vol = lk.cell_values(), lk.cell_volume
    kb = np.ascontiguousarray(kv[box])
    costs = lk._costs
    # one cost array per call: each evaluation overwrites its box, the zeros
    # outside stay, and nothing the size of the grid outlives the call.  h
    # is formed in a contiguous box-shaped buffer and copied into the
    # strided box once, not walked there by each of _h_positive's ufuncs
    h = np.zeros(kv.shape)
    hb = np.empty(kb.shape)

    def gdot_of(eta):
        z = kb / (sign * eta)  # the bits of sign * kb / eta, as sign = +-1
        # fl(k / eta) is monotone in k, so the clip binds iff it binds at max|K|
        if not kmax / eta <= _EXP_CLIP:
            np.clip(z, -_EXP_CLIP, _EXP_CLIP, out=z)
        return np.exp(z, out=z)

    def cost(eta):
        c = costs.get((sign, eta))
        if c is None:
            # exp(z) with |z| <= 500 is positive, so h needs no mask or scan
            h[box] = _h_positive(gdot_of(eta), out=hb)
            c = costs[sign, eta] = float(np.sum(h) * vol)
        return c

    if sign < 0:
        # objective is minimized at gdot = 0 on {K > 0} when that is feasible
        slack_cost = float(np.count_nonzero(kb > 0.0)) * vol
        if np.all(kb >= 0.0) and slack_cost <= budget + 1e-12:
            gd = np.where(kv > 0.0, 0.0, 1.0)
            return 0.0, 0.0, gd

    lo_eta, hi_eta = 1e-12, 1.0
    if cost(lo_eta) < budget:  # cost falls with eta: no eta meets the budget
        raise ConfigurationError(f"v must be at least {_div(1.0, cost(lo_eta)):.17g} for this "
                                 f"kernel, the smallest v the Gamma_v dual resolves")
    while cost(hi_eta) > budget and hi_eta < 1e18:
        hi_eta *= 4.0
    if cost(hi_eta) > budget:
        raise NumericalError("gamma endpoint bisection failed to bracket")
    eta = _brentq(lambda e: cost(e) - budget, lo_eta, hi_eta,
                  xtol=1e-300, rtol=8.9e-16, maxiter=500)
    gd = np.ones(kv.shape)
    gd[box] = gdot_of(eta)
    # the certificate over the full shape, through the public h: checks the
    # box-only cost as well as the root, relative to budgets above 1, whose
    # correct roots round to a residual that grows with the budget
    if abs(float(np.sum(h_poisson(gd)) * vol) - budget) > 1e-9 * max(1.0, budget):
        raise NumericalError("gamma endpoint dual constraint not met to tolerance")
    return float(np.sum(kv * gd) * vol), float(eta), gd


def gamma_interval(lk: LocalizedKernel, v: float) -> IntervalJ:
    """Endpoints of the image of Gamma_v under the unnormalized functional.

    Off-support cells (Ktilde = 0) sit at the free value gdot = 1 with
    zero cost in both endpoints, so the result does not depend on the
    domain box padding.  With WAVEDENS_THREADS > 1 the upper endpoint is
    solved in a worker thread while the lower one runs here (exp and log
    release the GIL); the results are the same bits either way.  A v too
    small or too large for the dual to resolve raises ConfigurationError.
    """
    _positive(v, "v")
    kv = lk.cell_values()
    budget = 1.0 / v
    box = _nonzero_box(kv)
    # h rounds by about 2^-52 a cell near gdot = 1: a budget 1/v below 1e3 times that is lost
    most = _div(2.0 ** 52 / 1e3, math.prod(s.stop - s.start for s in box) * lk.cell_volume)
    if v > most:
        raise ConfigurationError(f"v must be at most {most:.17g} for this kernel, the largest "
                                 "v the Gamma_v dual resolves")
    kmax = float(np.max(np.abs(kv[box]), initial=0.0))

    def endpoint(sign):
        return _gamma_endpoint(lk, box, kmax, budget, sign)

    if thread_count() > 1:
        with ThreadPoolExecutor(max_workers=1) as pool:
            upper = pool.submit(endpoint, +1.0)
            try:
                lo, eta_lo, gd_lo = endpoint(-1.0)
            finally:
                # read even when the lower endpoint raised: an error of the
                # upper one comes first, as in the serial order
                hi, eta_hi, gd_hi = upper.result()
    else:
        hi, eta_hi, gd_hi = endpoint(+1.0)
        lo, eta_lo, gd_lo = endpoint(-1.0)
    cert = {"eta_hi": eta_hi, "eta_lo": eta_lo,
            "gdot_hi": gd_hi, "gdot_lo": gd_lo}
    return IntervalJ(lo, hi, v, cert)


def theorem2_threshold(density, box, c: float, lk: LocalizedKernel) -> float:
    """Predicted persistent relative-deviation magnitude under ER scaling:
    delta = min(hi - 1, 1 - lo) of the Gamma interval at v = c f(x0)."""
    _positive(c, "ER constant c")
    fx0 = density.sup_on(box)
    iv = gamma_interval(lk, c * fx0)
    return min(iv.hi - 1.0, 1.0 - iv.lo)
