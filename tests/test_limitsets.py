import gc
import math
import tracemalloc

import numpy as np
import pytest

from scipy.optimize import brentq

from wavedens.basis import build_family
from wavedens.errors import NumericalError
from wavedens.kernel import ProjectionKernel, localize
from wavedens.limitsets import (gamma_interval, h_poisson, strassen_extremal,
                                theorem2_threshold)
from wavedens.sampling import make_density

STEP = 2.0 ** -10


def _haar_lk():
    pk = ProjectionKernel(build_family("haar"), 1)
    return localize(pk, 0, np.zeros(1), STEP)


def _db4_lk():
    pk = ProjectionKernel(build_family("db4"), 1)
    return localize(pk, 0, np.zeros(1), STEP)


def _bisect_h(budget, lo, hi):
    """Scalar oracle: solve t log t - t + 1 = budget on a monotone branch."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (h_poisson(mid) - budget) * (h_poisson(lo) - budget) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_h_poisson_values():
    assert h_poisson(1.0) == 0.0
    assert h_poisson(0.0) == 1.0
    assert h_poisson(-0.5) == math.inf
    assert abs(h_poisson(math.e) - 1.0) < 1e-12
    arr = h_poisson(np.array([0.0, 1.0, 2.0]))
    assert arr.shape == (3,)
    assert abs(arr[2] - (2 * math.log(2) - 1)) < 1e-12


def _h_scalar(t):
    if t > 0.0:
        return t * math.log(t) - t + 1.0
    return 1.0 if t == 0.0 else math.inf


def test_h_poisson_matches_scalar_definition():
    ts = [2.0, 0.0, -1.0, math.nan, -0.0, 1e-300]
    assert h_poisson(np.array(ts)).tolist() == [_h_scalar(t) for t in ts]
    assert [h_poisson(t) for t in ts] == [_h_scalar(t) for t in ts]
    # all-positive arrays skip the masks: same values as with a zero beside them
    pos = np.array([2.0, 1e-300, 0.5, 3.7, 1e300, 1.0])
    masked = h_poisson(np.append(pos, 0.0))[:-1]
    assert np.array_equal(h_poisson(pos), masked)


def test_strassen_extremal_is_one():
    for lk in (_haar_lk(), _db4_lk()):
        val, gdot = strassen_extremal(lk)
        assert abs(val - 1.0) < 1e-3
        # extremal density saturates the energy constraint
        energy = float(np.sum(gdot ** 2)) * lk.cell_volume
        assert abs(energy - 1.0) < 1e-12


def test_gamma_interval_haar_v1():
    iv = gamma_interval(_haar_lk(), 1.0)
    assert abs(iv.lo - 0.0) < 1e-6
    assert abs(iv.hi - math.e) < 1e-6


def test_gamma_interval_matches_scalar_oracle():
    # Haar: optimal gdot is constant a on supp Ktilde, solving h(a) = 1/v
    lk = _haar_lk()
    for v in (0.25, 0.5, 1.0, 4.0, 100.0, 1e6):
        iv = gamma_interval(lk, v)
        hi_oracle = _bisect_h(1.0 / v, 1.0, 1e6)
        lo_oracle = 0.0 if 1.0 / v >= 1.0 else _bisect_h(1.0 / v, 1.0, 1e-30)
        assert abs(iv.hi - hi_oracle) < 1e-6
        assert abs(iv.lo - lo_oracle) < 1e-6


def test_gamma_interval_monotone_in_v():
    lk = _db4_lk()
    vs = np.logspace(-1, 5, 10)
    prev = None
    for v in vs:
        iv = gamma_interval(lk, v)
        assert iv.lo <= 1.0 <= iv.hi
        if prev is not None:
            assert iv.hi <= prev.hi + 1e-12
            assert iv.lo >= prev.lo - 1e-12
        prev = iv
    # collapse toward [1, 1]: width at v = 1e5 below the sqrt(2 sigma^2 / v) scale
    assert prev.hi - prev.lo < 3.0 * math.sqrt(2.0 * lk.sigma ** 2 / vs[-1])


def test_gamma_certificates_feasible():
    lk = _db4_lk()
    iv = gamma_interval(lk, 2.0)
    vol = lk.cell_volume
    for key in ("gdot_hi", "gdot_lo"):
        cost = float(np.sum(h_poisson(iv.certificate[key])) * vol)
        assert cost <= 1.0 / 2.0 + 1e-8


def test_gamma_rejects_nonpositive_v():
    with pytest.raises(ValueError):
        gamma_interval(_haar_lk(), 0.0)
    # NaN passed a v <= 0 check and failed inside brentq
    with pytest.raises(ValueError, match="v must be positive"):
        gamma_interval(_haar_lk(), math.nan)


@pytest.mark.parametrize("c", [0.0, math.nan, math.inf])
def test_theorem2_threshold_rejects_c_that_is_not_positive_and_finite(c):
    den = make_density("uniform01", 1)
    with pytest.raises(ValueError, match="ER constant c must be positive"):
        theorem2_threshold(den, ((0.25,), (0.75,)), c, _haar_lk())


def test_theorem2_threshold_closed_form():
    # uniform density, Haar, c = 0.5: v = 0.5, budget 2 >= 1 so lo = 0 and
    # the binding side is 1 - lo = 1
    den = make_density("uniform01", 1)
    delta = theorem2_threshold(den, ((0.25,), (0.75,)), 0.5, _haar_lk())
    assert abs(delta - 1.0) < 1e-9


def _plain_h(t):
    """h with masks on every input (the cost's original form)."""
    t = np.atleast_1d(np.asarray(t, float))
    out = np.full(t.shape, np.inf)
    pos = t > 0.0
    tp = t[pos]
    out[pos] = tp * np.log(tp) - tp + 1.0
    out[t == 0.0] = 1.0
    return out


def _plain_endpoint(kv, vol, budget, sign):
    """The Gamma_v dual without shortcuts: no memo, the clip on every call,
    the masked h; same bracket, brentq tolerances and checks."""

    def gdot_of(eta):
        return np.exp(np.clip(sign * kv / eta, -500.0, 500.0))

    def cost(eta):
        return float(np.sum(_plain_h(gdot_of(eta))) * vol)

    if sign < 0:
        slack_cost = float(np.count_nonzero(kv > 0.0)) * vol
        if np.all(kv >= 0.0) and slack_cost <= budget + 1e-12:
            return 0.0, 0.0, np.where(kv > 0.0, 0.0, 1.0)
    hi_eta = 1.0
    while cost(hi_eta) > budget and hi_eta < 1e18:
        hi_eta *= 4.0
    if cost(hi_eta) > budget:
        raise NumericalError("no bracket")
    eta = brentq(lambda e: cost(e) - budget, 1e-12, hi_eta,
                 xtol=1e-300, rtol=8.9e-16, maxiter=500)
    if abs(cost(eta) - budget) > 1e-9:
        raise NumericalError("tolerance")
    gd = gdot_of(eta)
    return float(np.sum(kv * gd) * vol), float(eta), gd


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("family", ["haar", "db4", "db6"])
def test_gamma_interval_equals_plain_dual(family, d):
    # v = 0.1 and 1 take Haar's closed-form lower endpoint, v = 1e6 nearly
    # collapses the interval, and brentq's probe at eta = 1e-12 makes the
    # clip bind wherever the dual is solved; the off-center localizations
    # put the kernel's nonzero box off the middle of the domain box
    step = 2.0 ** -6 if d == 1 else 2.0 ** -2
    pk = ProjectionKernel(build_family(family), d)
    for j, x in ((0, 0.0), (2, 0.3), (5, 0.71)):
        lk = localize(pk, j, np.full(d, x), step)
        kv, vol = lk.cell_values(), lk.cell_volume
        for v in (0.1, 1.0, 2.0, 1e6):
            iv = gamma_interval(lk, v)
            hi, eta_hi, gd_hi = _plain_endpoint(kv, vol, 1.0 / v, +1.0)
            lo, eta_lo, gd_lo = _plain_endpoint(kv, vol, 1.0 / v, -1.0)
            assert (iv.lo, iv.hi) == (lo, hi)
            assert ((iv.certificate["eta_lo"], iv.certificate["eta_hi"])
                    == (eta_lo, eta_hi))
            assert np.array_equal(iv.certificate["gdot_hi"], gd_hi)
            assert np.array_equal(iv.certificate["gdot_lo"], gd_lo)


def test_gamma_interval_holds_no_cost_array_after_it_returns():
    # brentq wraps its callable in a reference cycle, so whatever the cost
    # captures lives until the cyclic GC runs; with the GC off, what three
    # calls leave held must be their certificates and a few small objects,
    # far less than one 384 x 384 cost array (1.2 MB)
    lk = localize(ProjectionKernel(build_family("db4"), 2), 0, np.zeros(2), 2.0 ** -6)
    gamma_interval(lk, 1.0)  # first-call imports and caches
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ivs = [gamma_interval(lk, v) for v in (0.5, 1.0, 2.0)]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    certs = sum(iv.certificate[key].nbytes for iv in ivs
                for key in ("gdot_hi", "gdot_lo"))
    assert held <= certs + 64 * 1024
