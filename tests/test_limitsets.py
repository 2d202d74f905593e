import gc
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from scipy.optimize import brentq

from wavedens import limitsets
from wavedens.basis import build_family
from wavedens.errors import ConfigurationError, NumericalError
from wavedens.kernel import ProjectionKernel, localize
from wavedens.limitsets import (_brentq, gamma_interval, h_poisson,
                                strassen_extremal, theorem2_threshold)
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
    # NaN passed a v <= 0 check and failed inside brentq; True solved Gamma_1;
    # inf returned [0.9999999963, 1.0000000037], where Gamma_inf = {gdot = 1}
    # has the image {1}
    for v in (math.nan, True, math.inf):
        with pytest.raises(ValueError, match="v must be positive and finite"):
            gamma_interval(_haar_lk(), v)
    assert gamma_interval(_haar_lk(), np.float64(2.0)).hi == gamma_interval(_haar_lk(), 2.0).hi


def test_gamma_certificate_is_checked_relative_to_the_budget():
    # the check |cost - 1/v| <= 1e-9 was absolute, so from budgets of a few
    # million the rounding of a correct root failed it: NumericalError at
    # v = 3e-7, 1e-7, 5e-8, 1e-12 and 1e-200, but not at 2e-7 or 1e-6
    lk = _haar_lk()
    his = []
    for v in (1e-6, 3e-7, 2e-7, 1e-7, 5e-8, 1e-12, 1e-200):
        iv = gamma_interval(lk, v)
        cost = float(np.sum(h_poisson(iv.certificate["gdot_hi"])) * lk.cell_volume)
        assert abs(cost * v - 1.0) < 1e-11
        his.append(iv.hi)
    assert all(a < b for a, b in zip(his, his[1:]))


@pytest.mark.parametrize("family", ["haar", "db4"])
def test_gamma_rejects_a_v_below_what_its_dual_resolves(family):
    # raised NumericalError from the root finder: "f(a) and f(b) must have
    # different signs"
    lk = localize(ProjectionKernel(build_family(family), 1), 0, np.zeros(1), 0.0625)
    with pytest.raises(ConfigurationError, match="v must be at least") as info:
        gamma_interval(lk, 1e-300)
    smallest = float(re.search(r"at least (\S+)", str(info.value)).group(1))
    # 1 / the cost at eta = 1e-12, the most the clipped dual reaches
    assert smallest == 1.0 / lk._costs[1.0, 1e-12]
    with pytest.raises(ConfigurationError, match="v must be at least"):
        gamma_interval(lk, smallest / 2.0)


@pytest.mark.parametrize("c", [0.0, math.nan, math.inf, True])
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


def test_gamma_interval_holds_no_cost_array_after_it_returns(monkeypatch):
    # nothing the root finder's callable captures may outlive the call: with
    # the GC off, what three calls leave held must be their certificates and
    # a few small objects, far less than one 384 x 384 cost array (1.2 MB);
    # the cost memo on the kernel holds floats only
    for threads in ("1", "2"):
        monkeypatch.setenv("WAVEDENS_THREADS", threads)
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
        assert held <= certs + 64 * 1024, threads


def _bits(iv):
    """Every output of a gamma_interval call, for comparison with ==."""
    c = iv.certificate
    return (iv.lo, iv.hi, c["eta_lo"], c["eta_hi"],
            c["gdot_lo"].tobytes(), c["gdot_hi"].tobytes())


def _small_lk(family, d, j=0, x=0.0):
    step = 2.0 ** -6 if d == 1 else 2.0 ** -2
    return localize(ProjectionKernel(build_family(family), d), j, np.full(d, x), step)


SWEEP = (0.1, 1.0, 2.0, 37.5, 1e6)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("family", ["haar", "db4", "db6"])
def test_gamma_interval_is_the_same_at_one_and_two_threads(monkeypatch, family, d):
    # two threads solve the endpoints at once; a fresh kernel per thread
    # count, so neither run reads costs the other memoized
    pools = []

    class Counting(limitsets.ThreadPoolExecutor):
        def __init__(self, *args, **kw):
            pools.append(self)
            super().__init__(*args, **kw)

    monkeypatch.setattr(limitsets, "ThreadPoolExecutor", Counting)
    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("WAVEDENS_THREADS", threads)
        runs[threads] = [[_bits(gamma_interval(lk, v)) for v in SWEEP]
                         for lk in (_small_lk(family, d), _small_lk(family, d, 5, 0.71))]
        assert len(pools) == (0 if threads == "1" else 2 * len(SWEEP))
    assert runs["1"] == runs["2"]


@pytest.mark.parametrize("family,d", [("haar", 2), ("db4", 1), ("db6", 2)])
def test_gamma_sweep_is_the_same_in_any_order(family, d):
    # the memo on the kernel changes no value: a forward sweep on one
    # kernel, a reverse sweep on another and a fresh kernel per v agree
    forward_lk, reverse_lk = _small_lk(family, d), _small_lk(family, d)
    forward = [_bits(gamma_interval(forward_lk, v)) for v in SWEEP]
    reverse = [_bits(gamma_interval(reverse_lk, v)) for v in SWEEP[::-1]][::-1]
    fresh = [_bits(gamma_interval(_small_lk(family, d), v)) for v in SWEEP]
    assert forward == reverse == fresh


def test_gamma_interval_reuses_the_costs_of_earlier_calls(monkeypatch):
    calls = []
    h_positive = limitsets._h_positive

    def counted(t, out=None):
        calls.append(t.size)
        return h_positive(t, out=out)

    monkeypatch.setattr(limitsets, "_h_positive", counted)
    lk = _small_lk("db4", 1)
    gamma_interval(lk, 1.0)
    n_first = len(calls)
    gamma_interval(lk, 2.0)
    n_second = len(calls) - n_first
    # the bracket points eta = 1, 4, ... and the probe at 1e-12 are shared
    assert 0 < n_second < n_first
    # the same v again: every cost comes from the memo, and only the two
    # certificate checks run h
    gamma_interval(lk, 2.0)
    assert len(calls) - n_first - n_second == 2


def test_gamma_interval_shares_a_kernel_between_threads(monkeypatch):
    # more threads than cores sweep one kernel at once, each in its own
    # order, with thread switches forced often: every result must equal the
    # serial result on a fresh kernel
    monkeypatch.setenv("WAVEDENS_THREADS", "2")
    expected = {v: _bits(gamma_interval(_small_lk("db4", 2), v)) for v in SWEEP}
    lk = _small_lk("db4", 2)
    results = {}

    def sweep(k):
        results[k] = {v: _bits(gamma_interval(lk, v)) for v in SWEEP[k:] + SWEEP[:k]}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=sweep, args=(k,)) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert list(results.values()) == [expected] * 4


TIGHT = (1e-300, 8.9e-16, 500)  # the tolerances and budget of gamma_interval


def _steps_of_brentq(monkeypatch, f, a, b, tol=TIGHT):
    """(root, f calls, steps) of _brentq, each step the list of the
    denominators it divided by: [] bisects at once, one interpolates, three
    extrapolate (whether the step is then kept or bisected)."""
    events = []
    div = limitsets._div

    def spy(p, q):
        events.append(q)
        return div(p, q)

    def counted(x):
        events.append(None)
        return f(x)

    monkeypatch.setattr(limitsets, "_div", spy)
    root = _brentq(counted, a, b, *tol)
    calls = events.count(None)
    steps, cur = [], None
    for e in events:
        if e is None:
            if cur is not None:
                steps.append(cur)
            cur = []
        else:
            cur.append(e)
    return root, calls, steps[1:]  # the first "step" is the two end calls


def _scipy(f, a, b, tol=TIGHT):
    xtol, rtol, maxiter = tol
    root, res = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter,
                       full_output=True)
    return root, res.function_calls


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x ** 3 - 2.0, 0.0, 2.0),
    (lambda x: math.exp(x) - 2.0, -1.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 2.0),
    (lambda x: math.log(x) - 1.0, 0.5, 10.0),
])
def test_brentq_equals_scipy_on_smooth_roots(monkeypatch, f, a, b):
    root, calls, steps = _steps_of_brentq(monkeypatch, f, a, b)
    assert (root, calls) == _scipy(f, a, b)
    kinds = {len(s) for s in steps}
    assert {1, 3} <= kinds  # both interpolation and extrapolation were tried


def test_brentq_returns_a_root_at_an_end():
    f = lambda x: x - 1.0  # noqa: E731
    for a, b in ((1.0, 3.0), (-1.0, 1.0)):
        calls = []
        root = _brentq(lambda x: calls.append(x) or f(x), a, b, *TIGHT)
        assert root == 1.0 and (root, len(calls)) == _scipy(f, a, b)


def test_brentq_bisects_a_step_function(monkeypatch):
    f = lambda x: -1.0 if x < 1.0 / 3.0 else 1.0  # noqa: E731
    root, calls, steps = _steps_of_brentq(monkeypatch, f, 0.0, 2.0)
    assert (root, calls) == _scipy(f, 0.0, 2.0)
    assert steps and all(s == [] for s in steps)  # |f| never falls: pure bisection


def test_brentq_takes_ieee_results_of_a_zero_denominator(monkeypatch):
    # values near 1e-300 make the extrapolation's slopes underflow to 0;
    # C then divides by zero, gets inf or NaN, and the step test bisects
    f = lambda x: 1e-300 * (x - 0.3) ** 3  # noqa: E731
    root, calls, steps = _steps_of_brentq(monkeypatch, f, 0.0, 2.0)
    assert (root, calls) == _scipy(f, 0.0, 2.0)
    assert any(q == 0.0 for s in steps for q in s)


def test_brentq_stops_on_the_bracket_tolerance():
    f = lambda x: x ** 3 - 2.0  # noqa: E731
    for tol in ((1e-3, 8.9e-16, 500), (0.25, 1e-3, 500)):
        calls = []
        root = _brentq(lambda x: calls.append(x) or f(x), 0.0, 2.0, *tol)
        assert (root, len(calls)) == _scipy(f, 0.0, 2.0, tol)
        assert f(root) != 0.0  # so the stop was |sbis| < delta
    assert _scipy(f, 0.0, 2.0, (0.25, 1e-3, 500))[1] < _scipy(f, 0.0, 2.0)[1]


def test_brentq_works_in_python_floats():
    # numpy-scalar values, as cost(e) - budget with a float64 budget gives:
    # the extrapolation overflows in float64 but not in Python floats
    f = lambda x: np.float64(1e300) * (x - 0.3) ** 3  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        root = _brentq(f, 0.0, 2.0, *TIGHT)
    assert root == _scipy(lambda x: float(f(x)), 0.0, 2.0)[0]


def test_brentq_equals_scipy_on_random_cubics():
    rng = np.random.default_rng(11)
    for _ in range(200):
        c, s = rng.uniform(-3.0, 3.0, 2)
        p = int(rng.choice([1, 3, 5]))
        f = lambda x, c=c, s=s, p=p: s * (x - c) ** p + 1e-3 * math.sin(x)  # noqa: E731
        a, b = -4.0, 4.0 + rng.random()
        calls = []
        root = _brentq(lambda x: calls.append(x) or f(x), a, b, *TIGHT)
        assert (root, len(calls)) == _scipy(f, a, b)


@pytest.mark.parametrize("f,maxiter,match", [
    (lambda x: math.nan, 500, "NaN"),  # at the first end
    (lambda x: -1.0 if x == 0.0 else math.nan, 500, "NaN"),  # at the second end
    (lambda x: x - 1.0 if x in (0.0, 2.0) else math.nan, 500, "NaN"),  # inside
    (lambda x: x * x + 1.0, 500, "different signs"),
    (lambda x: x ** 3 - 2.0, 3, "failed to converge"),
])
def test_brentq_failures_raise_numerical_error(f, maxiter, match):
    with pytest.raises((ValueError, RuntimeError)):  # scipy's exceptions
        brentq(f, 0.0, 2.0, xtol=1e-300, rtol=8.9e-16, maxiter=maxiter)
    with pytest.raises(NumericalError, match=match):
        _brentq(f, 0.0, 2.0, 1e-300, 8.9e-16, maxiter)


def test_gamma_rejects_a_v_above_what_its_dual_resolves():
    # h rounds by about 2^-52 a cell near gdot = 1, and the certificate's
    # tolerance is absolute for budgets below 1, so large v went unnoticed:
    # on this section hi - 1 was 25% low at v = 1e16 and 7.5 times the closed
    # form at 1e18, every endpoint at 1 +- 1.05e-8, and no error was raised
    lk = _haar_lk()
    for v in (1e16, 1e18, 1e300):
        with pytest.raises(ConfigurationError, match="v must be at most") as info:
            gamma_interval(lk, v)
    largest = float(re.search(r"at most (\S+)", str(info.value)).group(1))
    assert 4e12 < largest < 5e12
    with pytest.raises(ConfigurationError, match="v must be at most"):
        gamma_interval(lk, math.nextafter(largest, math.inf))
    # Ktilde is 1 on mass 1, so each endpoint t solves h(t) = 1/v in closed
    # form; (1 + u) log1p(u) - u keeps h's leading u^2 / 2 near t = 1
    iv = gamma_interval(lk, largest)
    for t, side in ((iv.hi, 1.0), (iv.lo, -1.0)):
        a, b = 0.0, 1e-3
        for _ in range(200):
            e = 0.5 * (a + b)
            u = side * e
            a, b = (a, e) if (1.0 + u) * math.log1p(u) - u > 1.0 / largest else (e, b)
        assert abs(side * (t - 1.0) / e - 1.0) < 1e-4
