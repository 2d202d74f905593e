import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavedens import estimator
from wavedens.basis import build_family, eval_phi
from wavedens.errors import ConfigurationError, NumericalError
from wavedens.estimator import (GRID_CAP, SupStatistic, evaluate,
                                evaluate_kernel_form, expected_estimator, fit,
                                make_grid, sup_deviation)
from wavedens.increments import g_tilde_n_x
from wavedens.kernel import ProjectionKernel, kernel_Kj_batch, localize
from wavedens.limitsets import gamma_interval
from wavedens.sampling import Density, SeedSpec, draw, make_density


def _histogram_fhat(sample, j, x):
    """Independent Haar oracle: 2^(dj) * (cell count) / n."""
    sample = np.atleast_2d(sample)
    x = np.atleast_1d(x)
    d = sample.shape[1]
    cells = np.floor(sample * 2.0 ** j)
    target = np.floor(np.asarray(x) * 2.0 ** j)
    hits = np.all(cells == target, axis=1)
    return 2.0 ** (d * j) * hits.mean()


def test_haar_equals_histogram():
    den = make_density("uniform01", 2)
    sample = draw(den, SeedSpec(4), 3000)
    est = fit(build_family("haar"), 3, sample)
    rng = np.random.default_rng(1)
    for x in rng.uniform(0, 1, (25, 2)):
        assert abs(evaluate(est, x) - _histogram_fhat(sample, 3, x)) < 1e-12


def test_total_mass_is_one():
    den = make_density("trunc_gauss_mix", 1)
    sample = draw(den, SeedSpec(5), 2000)
    for fam in ("haar", "db4", "db6"):
        est = fit(build_family(fam), 4, sample)
        assert abs(est.total_mass() - 1.0) < 1e-8


def test_coefficient_vs_kernel_form():
    rng = np.random.default_rng(2)
    for fam in ("haar", "db4"):
        basis = build_family(fam)
        for d in (1, 2):
            den = make_density("cosine_bump", d)
            sample = draw(den, SeedSpec(6), 400)
            for j in (1, 3):
                est = fit(basis, j, sample)
                for x in rng.uniform(0, 1, (5, d)):
                    a = evaluate(est, x)
                    b = evaluate_kernel_form(basis, j, sample, x)
                    assert abs(a - b) < 1e-10


def test_coeffs_sparse_map():
    sample = np.array([[0.1], [0.9]])
    est = fit(build_family("haar"), 1, sample)
    # alpha_{1,0} = alpha_{1,1} = sqrt(2)/2
    assert est.coeffs == {(0,): pytest.approx(np.sqrt(2) / 2),
                          (1,): pytest.approx(np.sqrt(2) / 2)}


def test_expected_estimator_haar_oracle():
    # Haar: E fhat(x) = 2^j * P(dyadic cell of x), analytic via the CDF
    den = make_density("cosine_bump", 1)
    basis = build_family("haar")
    for j in (2, 4):
        for x in (0.3, 0.55):
            lo = np.floor(x * 2 ** j) / 2 ** j
            oracle = 2.0 ** j * den.box_prob([lo], [lo + 2.0 ** -j])
            assert abs(expected_estimator(den, basis, j, x) - oracle) < 1e-7


def test_expected_estimator_uniform_is_one():
    den = make_density("uniform01", 1)
    for fam in ("haar", "db4"):
        # interior point: full kernel mass inside [0, 1]
        val = expected_estimator(den, build_family(fam), 4, 0.5)
        assert abs(val - 1.0) < 1e-7


def test_make_grid_dyadic():
    grid = make_grid(((0.25,), (0.75,)), 3)
    # 5 dyadic points k/8 in [1/4, 3/4] plus 4 midpoints
    assert len(grid) == 9
    assert np.array_equal(grid.points[:, 0], np.arange(4, 13) / 16)
    assert grid.points.min() == 0.25 and grid.points.max() == 0.75
    with pytest.raises(ConfigurationError, match="no dyadic points"):
        make_grid(((0.75,), (0.25,)), 3)  # a reversed box
    # a NaN corner raised ValueError, an infinite one OverflowError
    for box in (((np.nan,), (0.75,)), ((0.25,), (np.inf,)), ((-np.inf,), (0.75,))):
        with pytest.raises(ConfigurationError, match="finite corners"):
            make_grid(box, 3)


def test_make_grid_cap():
    # 2^15 + 1 dyadic points stride down to at most GRID_CAP, no midpoints
    grid = make_grid(((0.0,), (1.0,)), 15)
    assert len(grid) <= GRID_CAP
    scaled = grid.points * 2.0 ** 15
    assert np.array_equal(scaled, np.floor(scaled))
    # every stride-th point, stride ceil((2^15 + 1) / 4096) = 9; below the
    # cap, the dyadic points and their midpoints
    assert np.array_equal(grid.points[:, 0], np.arange(0, 2 ** 15 + 1, 9) / 2.0 ** 15)
    x = make_grid(((0.25,), (0.75,)), 11).points[:, 0]
    assert np.array_equal(x, np.arange(1024, 3073) / 4096.0)
    # at j = 60 the dyadic points of [1/4, 3/4] were built in full before
    # the stride: MemoryError for 4.00 EiB.  No level builds more than the
    # cap now
    for j in (60, 1023, *range(0, 1024, 17)):
        try:
            x = make_grid(((0.25,), (0.75,)), j).points[:, 0]
        except ConfigurationError:
            assert j < 2  # no dyadic point in H
            continue
        assert 1 <= len(x) <= GRID_CAP
        assert x[0] == 0.25 and x[-1] <= 0.75 and np.all(np.diff(x) > 0.0)


def test_make_grid_caps_the_points_of_the_grid(monkeypatch):
    # the cap was per axis, so a 3-D grid held up to GRID_CAP^3 points: 512
    # here, and 2049^3 at j = 12 on [1/4, 3/4]^3 with the real cap
    monkeypatch.setattr(estimator, "GRID_CAP", 8)
    with pytest.raises(ConfigurationError, match="512 grid points at level j=3"):
        make_grid(((0.0,) * 3, (0.875,) * 3), 3)
    assert len(make_grid(((0.0,) * 2, (0.875,) * 2), 3)) == 64  # 8 x 8, the largest


def test_make_grid_rejects_a_negative_level():
    # raised "ValueError: negative shift count"
    with pytest.raises(ConfigurationError, match="level"):
        make_grid(((0.0,), (1.0,)), -1)


def test_sup_deviation_centered_is_zero():
    den = make_density("uniform01", 1)
    basis = build_family("haar")
    grid = make_grid(((0.25,), (0.75,)), 4)
    sample = draw(den, SeedSpec(8), 4096)
    est = fit(basis, 4, sample)
    stat = sup_deviation(est, den, grid, "theorem1",
                         expected=np.atleast_1d(evaluate(est, grid.points)))
    assert stat.sup_dev == 0.0 and stat.inf_dev == 0.0


def test_sup_deviation_matches_histogram_oracle():
    den = make_density("uniform01", 1)
    basis = build_family("haar")
    n, j = 2 ** 16, 5
    sample = draw(den, SeedSpec(1), n)
    est = fit(basis, j, sample)
    grid = make_grid(((0.25,), (0.75,)), j)  # lattice and midpoints
    stat = sup_deviation(est, den, grid, "theorem1")
    norm = np.sqrt(n * 2.0 ** -j / (2.0 * j * np.log(2.0)))
    devs = [norm * (_histogram_fhat(sample, j, x) - 1.0) for x in grid.points]
    assert abs(stat.sup_dev - max(devs)) < 1e-12
    assert abs(stat.inf_dev - min(devs)) < 1e-12


def test_ratio_mode_of_expectation_is_zero():
    # n -> infinity surrogate: Haar cell averages of the uniform density
    den = make_density("uniform01", 1)
    basis = build_family("haar")
    grid = make_grid(((0.25,), (0.75,)), 3)
    efhat = np.array([expected_estimator(den, basis, 3, p) for p in grid.points])
    assert np.max(np.abs(efhat - 1.0)) < 1e-9


def test_sup_deviation_errors():
    den = make_density("uniform01", 1)
    basis = build_family("haar")
    sample = draw(den, SeedSpec(0), 64)
    grid = make_grid(((0.25,), (0.75,)), 2)
    est0 = fit(basis, 0, sample)
    with pytest.raises(ValueError):
        sup_deviation(est0, den, grid, "theorem1")
    est = fit(basis, 2, sample)
    with pytest.raises(ConfigurationError):
        sup_deviation(est, den, grid, "lil")


def test_sup_statistic_rejects_sup_below_inf():
    # a raised error, not an assert, so the check survives python -O
    with pytest.raises(NumericalError):
        SupStatistic(0.1, 0.2, np.array([0.5]))
    with pytest.raises(NumericalError):
        SupStatistic(float("nan"), 0.2, np.array([0.5]))


def test_fit_errors():
    with pytest.raises(ConfigurationError):
        fit(build_family("haar"), -1, np.array([[0.5]]))
    with pytest.raises(ValueError):
        fit(build_family("haar"), 2, np.empty((0, 1)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_form_rejects_an_empty_sample():
    # used to divide by n = 0 and return NaN
    for d in (1, 2):
        with pytest.raises(ValueError, match="empty sample"):
            evaluate_kernel_form(build_family("db4"), 2, np.empty((0, d)), [0.5] * d)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_form_rejects_a_non_finite_sample(bad):
    # evaluate_kernel_form(haar, 3, [0.5, nan], 0.5) used to return 4.0,
    # where fit raised on the same sample
    for basis in (build_family("haar"), build_family("db4")):
        with pytest.raises(ConfigurationError, match="sample must be finite"):
            evaluate_kernel_form(basis, 3, np.array([0.5, bad]), 0.5)


def test_a_sample_fault_comes_before_a_level_fault():
    haar = build_family("haar")
    with pytest.raises(ConfigurationError, match="empty sample"):
        fit(haar, -1, [])
    with pytest.raises(ConfigurationError, match="sample must be finite"):
        evaluate_kernel_form(haar, -1, [np.nan], 0.5)
    for sample in (0.5, np.empty((5, 0)), np.zeros((2, 2, 1))):
        with pytest.raises(ConfigurationError, match=r"shape \(n,\) or \(n, d >= 1\)"):
            fit(haar, -1, sample)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_and_evaluate_reject_non_finite(bad):
    basis = build_family("db4")
    with pytest.raises(ValueError, match="finite"):
        fit(basis, 3, np.array([[0.2, 0.4], [bad, 0.5]]))
    est = fit(basis, 3, np.array([[0.2, 0.4], [0.6, 0.5]]))
    with pytest.raises(ValueError, match="finite"):
        evaluate(est, np.array([0.3, bad]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_rejects_far_outliers_before_allocating():
    # used to raise MemoryError (7.28 PiB) and an invalid int64 cast
    basis = build_family("haar")
    for far in (1e12, 1e300):
        with pytest.raises(ValueError, match=r"coefficient cells at level j=10"):
            fit(basis, 10, np.array([0.5, far]))
    # one far point spans few cells but is past the int64 shift range
    with pytest.raises(ValueError, match=r"2\^62 at level j=10"):
        fit(basis, 10, np.array([1e300, 1e300]))
    assert fit(basis, 10, np.array([0.5, 100.0])).table.size == 102400 - 511


def test_expected_estimator_at_a_non_finite_point_and_at_no_points():
    den = make_density("cosine_bump", 2)
    for basis in (build_family("haar"), build_family("db4")):
        with pytest.raises(ConfigurationError, match="points must be finite"):
            expected_estimator(den, basis, 3, [[0.3, 0.5], [0.4, math.nan]])
        none = expected_estimator(den, basis, 3, np.zeros((0, 2)))
        assert isinstance(none, np.ndarray) and none.shape == (0,)


def test_sup_deviation_refuses_a_density_that_is_0_on_the_grid():
    den = make_density("uniform01", 1)
    est = fit(build_family("haar"), 2, draw(den, SeedSpec(4), 100))
    grid = make_grid(((0.5,), (1.5,)), 2)  # uniform01 is 0 past x = 1
    for mode in ("ratio", "theorem1"):
        with pytest.raises(ConfigurationError, match="strictly positive on the grid"):
            sup_deviation(est, den, grid, mode)
    assert grid._pdfs == {}  # a non-positive f is not kept


def test_expected_estimator_rejects_other_point_shapes():
    # a d = 1 density at two coordinates used to return E fhat(.3) E fhat(.5)
    den = make_density("uniform01", 1)
    basis = build_family("haar")
    with pytest.raises(ValueError, match="shape"):
        expected_estimator(den, basis, 4, np.array([0.3, 0.5]))
    with pytest.raises(ValueError, match="shape"):
        expected_estimator(make_density("uniform01", 2), basis, 4, 0.3)
    one = expected_estimator(den, basis, 4, 0.3)
    assert expected_estimator(den, basis, 4, np.array([0.3])) == one
    # an (m, 1) array is m points
    both = expected_estimator(den, basis, 4, np.array([[0.3], [0.5]]))
    assert np.array_equal(both, [one, expected_estimator(den, basis, 4, 0.5)])
    assert np.array_equal(expected_estimator(den, basis, 4, np.array([[0.3]])), [one])


def test_evaluate_far_points_are_zero_without_warnings():
    # 2^j |x| >= 2^63 used to overflow the int64 floor of the shift loop,
    # and 2^j x past the largest float warned in the multiply
    far = [2.0 ** 60, -2.0 ** 60, 1e300, -1e300, 1.7e308, -1.7e308]
    for fam, d in (("haar", 1), ("db4", 2)):
        basis = build_family(fam)
        est = fit(basis, 4, draw(make_density("cosine_bump", d), SeedSpec(3), 200))
        pts = np.array([[v] * d for v in far] + [[0.5] * d])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = evaluate(est, pts)
            efhat = expected_estimator(make_density("uniform01", d), basis, 3, pts)
        assert np.all(out[:-1] == 0.0) and out[-1] == evaluate(est, pts[-1]) != 0.0
        assert np.all(efhat[:-1] == 0.0) and efhat[-1] > 0.5


DENSITIES = ("uniform01", "cosine_bump", "trunc_gauss_mix")


@pytest.mark.parametrize("fam", ["haar", "db4", "db6"])
@pytest.mark.parametrize("d", [1, 2])
def test_expected_batch_equals_per_point(fam, d):
    # the population coefficients are only built over the shifts the points
    # reach, so one point and the whole batch use different ranges
    basis = build_family(fam)
    rng = np.random.default_rng(d)
    pts = np.vstack([rng.uniform(-0.1, 1.1, (8, d)),
                     make_grid(([0.0] * d, [1.0] * d), 1).points])
    for name in DENSITIES:
        den = make_density(name, d)
        for j in (1, 3):
            batch = expected_estimator(den, basis, j, pts)
            assert np.array_equal(
                batch, [expected_estimator(den, basis, j, p) for p in pts])


@pytest.mark.parametrize("fam", ["db4", "db6"])
def test_expected_estimator_smooth_matches_kernel_form_quadrature(fam):
    # integral K_j(x, y) f(y) dy by a midpoint sum over kernel_Kj_batch on the
    # finer of the two quadrature lattices
    basis = build_family(fam)
    pk = ProjectionKernel(basis, 1)
    xs = np.array([0.0, 0.03, 0.3, 0.5, 0.71, 0.999, 1.0, 1.05])
    for name in ("cosine_bump", "trunc_gauss_mix"):
        den = make_density(name, 1)
        for j in (1, 3):
            step = 2.0 ** -max(j + 10, 15) / 2.0
            ys = (np.arange(round(1.0 / step)) + 0.5)[:, None] * step
            fy = den.pdf(ys)
            for x in xs:
                kv = kernel_Kj_batch(pk, j, np.full(ys.shape, x), ys)
                ref = float(np.sum(kv * fy) * step)
                assert abs(expected_estimator(den, basis, j, x) - ref) < 1e-10


@pytest.mark.parametrize("fam", ["db4", "db6"])
def test_expected_estimator_smooth_converges_over_unit_interval(fam):
    # a quadrature step coarser than phi's 2^-12 table stalled the
    # step-halving gap near 1e-7 from j = 5 and raised NumericalError
    basis = build_family(fam)
    xs = np.linspace(0.0, 1.0, 257)[:, None]
    for name in ("uniform01", "cosine_bump"):
        den = make_density(name, 1)
        for j in (5, 8, 10):
            efhat = expected_estimator(den, basis, j, xs)
            if name == "uniform01":
                # shifts met at x lie inside [0, 1]: E fhat is the partition of unity
                w = basis.width * 2.0 ** -j
                interior = (xs[:, 0] >= w) & (xs[:, 0] <= 1.0 - w)
                assert np.all(np.abs(efhat[interior] - 1.0) < 1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_expected_estimator_haar_is_the_cell_probability(d):
    basis = build_family("haar")
    rng = np.random.default_rng(7)
    for name in ("cosine_bump", "trunc_gauss_mix"):
        den = make_density(name, d)
        for j in (1, 4, 9):
            for x in rng.uniform(0, 1, (10, d)):
                lo = np.floor(x * 2 ** j) / 2 ** j
                cell = 2.0 ** (d * j) * den.box_prob(lo, lo + 2.0 ** -j)
                assert abs(expected_estimator(den, basis, j, x) - cell) < 1e-14


def test_expected_estimator_haar_uniform_is_exactly_one_at_odd_levels():
    # a 2^(j/2) * 2^(j/2) split of the 2^j mass factor gives 1 + 2^-52 here
    den = make_density("uniform01", 1)
    basis = build_family("haar")
    for j in (7, 9, 11):
        assert expected_estimator(den, basis, j, 0.3) == 1.0


class _Aliased:
    """Marginal 1 + 0.5 cos(2 pi 2^15 y): 0.5 at every node (i + 1/2) 2^-15
    and 1 at every node of the half step, so the two sums disagree."""

    def pdf(self, y):
        y = np.asarray(y, float)
        inside = (y >= 0.0) & (y <= 1.0)
        return np.where(inside, 1.0 + 0.5 * np.cos(2.0 * np.pi * 2.0 ** 15 * y), 0.0)


def test_expected_estimator_smooth_quadrature_guard_raises():
    den = Density("aliased", 1, ((1.0, _Aliased()),))
    with pytest.raises(NumericalError):
        expected_estimator(den, build_family("db4"), 3, 0.5)


SHIFT_BASES = {name: build_family(name) for name in ("haar", "db4", "db6")}


def _haar_cell_coeffs(sample, j):
    """Independent Haar oracle for the coefficient map: the exact cell
    counts from np.unique, each scaled as fit scales them."""
    n, d = sample.shape
    cells, counts = np.unique(np.floor(sample * 2.0 ** j).astype(int),
                              axis=0, return_counts=True)
    scale = 2.0 ** (d * j / 2.0) / n
    return {tuple(int(c) for c in cell): float(count * scale)
            for cell, count in zip(cells, counts)}


@st.composite
def _fit_cases(draw_):
    """A basis, dimension, level, a sample whose coordinates are often on the
    level-j lattice (0 and 1 included) and may lie outside [0, 1], negative
    ones included, so that the k-box starts anywhere; and query points:
    lattice points, cell midpoints and points up to width + 2 cells outside
    [-2, 3], and points in [-2^-54, 0) 2^-j, where y - floor(y) rounds to 1."""
    name = draw_(st.sampled_from(sorted(SHIFT_BASES)))
    d = draw_(st.integers(1, 2))
    j = draw_(st.integers(0, 4))
    cells = 2 ** j
    lattice = st.one_of(st.integers(0, cells), st.integers(-2 * cells, 3 * cells))
    coord = st.one_of(lattice.map(lambda m: m / cells), st.floats(0.0, 1.0),
                      st.floats(-2.0, 3.0))
    sample = draw_(st.lists(st.lists(coord, min_size=d, max_size=d),
                            min_size=1, max_size=12))
    reach = SHIFT_BASES[name].width + 2
    query = st.one_of(
        st.integers(-2 * cells - reach, 3 * cells + reach).flatmap(
            lambda m: st.sampled_from([m / cells, (m + 0.5) / cells])),
        st.floats(-2.0 ** -54, 0.0, exclude_max=True).map(lambda t: t / cells))
    points = draw_(st.lists(st.lists(query, min_size=d, max_size=d),
                            min_size=1, max_size=6))
    return name, d, j, np.array(sample), np.array(points)


@settings(max_examples=150, deadline=None)
@given(_fit_cases())
def test_shift_loop_matches_kernel_form_and_histogram(case):
    name, _, j, sample, points = case
    basis = SHIFT_BASES[name]
    est = fit(basis, j, sample)
    fhat = evaluate(est, points)
    # The shifts that can be nonzero at y = 2^j x are floor(y) - (width - 1)
    # .. floor(y), so none of a sample point's shifts reaches a point whose
    # cell lies width or more cells outside the sample's cells.  Floors are
    # exact; sample.min() - width 2^-j in floats rounds for a tiny negative
    # minimum.
    cell = np.floor(points * 2.0 ** j)
    reach = basis.width - 1
    far = np.any((cell > np.floor(sample.max(axis=0) * 2.0 ** j) + reach)
                 | (cell < np.floor(sample.min(axis=0) * 2.0 ** j) - reach), axis=1)
    assert np.all(fhat[far] == 0.0)
    for x, value in zip(points, fhat):
        assert abs(value - evaluate_kernel_form(basis, j, sample, x)) < 1e-10
    if name == "haar":
        assert est.coeffs == _haar_cell_coeffs(sample, j)


def test_haar_keeps_a_point_just_below_a_cell_edge():
    # -1e-57 lies in the cell [-1, 0), but -1e-57 - (-1) rounds to 1.0, where
    # the Haar phi is 0; fit and the kernel form both dropped the point
    haar = build_family("haar")
    sample = np.array([[-1.37e-57]])
    est = fit(haar, 0, sample)
    assert est.coeffs == _haar_cell_coeffs(sample, 0) == {(-1,): 1.0}
    for x in (-1.0, -0.5):
        assert evaluate(est, x) == evaluate_kernel_form(haar, 0, sample, x) == 1.0
    assert evaluate_kernel_form(haar, 0, sample, 0.0) == 0.0


def test_haar_evaluates_a_point_just_below_zero_in_its_cell():
    # -2^-57 lies in the cell [-1, 0) at y = 2^3 x, where -2^-57 - (-1) rounds
    # to 1.0 and the Haar phi is 0; the table must be read at floor(y)
    haar = build_family("haar")
    sample = np.array([[0.3], [-0.01]])
    est = fit(haar, 3, sample)
    x = [[-2.0 ** -60]]
    value = evaluate(est, x)[0]
    assert value == pytest.approx(4.0, abs=1e-12)
    assert value == pytest.approx(evaluate_kernel_form(haar, 3, sample, x[0]), abs=1e-12)


def test_haar_fit_in_three_dimensions_counts_cells():
    rng = SeedSpec(11).rng()
    # around [-1.5, 2.5)^3, so origin is negative on every axis; a tenth of
    # the points repeat so that some cells hold several
    sample = rng.random((400, 3)) * 4.0 - 1.5
    sample[::10] = sample[1]
    haar = build_family("haar")
    for j in (0, 2, 3):
        est = fit(haar, j, sample)
        assert np.all(est.origin == np.floor(sample.min(axis=0) * 2.0 ** j))
        assert est.coeffs == _haar_cell_coeffs(sample, j)
        x = sample[1]
        assert abs(evaluate(est, x) - evaluate_kernel_form(haar, j, sample, x)) < 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_checks_the_bounds_before_scaling():
    # 1e307 * 2^10 used to overflow in numpy, warn, then fail as "not finite"
    basis = build_family("haar")
    for sample in ([1e307], [-1e307], [[0.5, 1e307]], [0.5, 1e308]):
        with pytest.raises(ValueError, match=r"2\^62 at level j=10"):
            fit(basis, 10, np.array(sample))


def _one_bincount_fit(sample, j):
    """(origin, table, cells): Haar fit's origin and table as one np.bincount
    of floor(2^j x) - origin over the whole sample, and the table's size."""
    n, d = sample.shape
    k = np.floor(sample * 2.0 ** j).astype(np.int64)
    origin = k.min(axis=0)
    shape = tuple(int(s) for s in k.max(axis=0) - origin + 1)
    cells = math.prod(shape)
    counts = np.bincount(np.ravel_multi_index((k - origin).T, shape), minlength=cells)
    return origin, (counts * (2.0 ** (d * j / 2.0) / n)).reshape(shape), cells


def _haar_sample(rng, n, d, j, lo=-0.75, hi=1.25):
    """n points in (lo, hi)^d, some of them on the level-j lattice (negative
    integers after scaling among them) and some just below 0."""
    sample = rng.uniform(lo, hi, (n, d))
    sample[::3] = np.round(sample[::3] * 2.0 ** j) / 2.0 ** j
    sample[1::4] = -2.0 ** -60
    return sample


def test_haar_fit_counts_across_block_boundaries(monkeypatch):
    # blocks of max(4, cells) rows: where the cells are fewer than the
    # points a fit runs several blocks, the last one often short; where
    # they are more one block holds the sample
    monkeypatch.setattr(estimator, "_BLOCK_ROWS", 4)
    haar = build_family("haar")
    rng = np.random.default_rng(2026)
    for d in (1, 2, 3):
        seen = set()
        for n, j, span in itertools.product((1, 3, 4, 5, 17), (0, 1, 3),
                                            ((-0.75, 1.25), (-0.25, 0.25))):
            sample = _haar_sample(rng, n, d, j, *span)
            origin, table, cells = _one_bincount_fit(sample, j)
            seen.add(cells < n)
            est = fit(haar, j, sample)
            assert np.array_equal(est.origin, origin)
            assert np.array_equal(est.table, table)
        assert seen == {True, False}


@pytest.mark.parametrize("n", [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1])
def test_haar_fit_counts_across_the_real_block_boundary(n):
    haar = build_family("haar")
    rng = np.random.default_rng(n)
    for d, j in ((1, 10), (2, 4)):
        sample = _haar_sample(rng, n, d, j)
        origin, table, cells = _one_bincount_fit(sample, j)
        assert cells < estimator._BLOCK_ROWS
        est = fit(haar, j, sample)
        assert np.array_equal(est.origin, origin)
        assert np.array_equal(est.table, table)


def test_haar_fit_holds_no_sample_sized_temporary():
    # the one-shot count held 2^j x and its int64 floor, twice the sample
    sample = np.random.default_rng(5).random((2 ** 18, 1))
    haar = build_family("haar")
    fit(haar, 10, sample[:10])  # first-call imports and caches
    tracemalloc.start()
    try:
        fit(haar, 10, sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sample.nbytes // 2


def _per_offset_shift_loop(sf, j, sample, points):
    """fit's table at sample and evaluate's values at points as they were
    before phi was shared across offsets: one eval_phi per axis of every
    offset tuple, the product in axis order, the offsets ascending with the
    last axis fastest, and np.add.at in sample order (smooth bases only)."""
    w, d = sf.width, sample.shape[1]
    scale = 2.0 ** j
    origin = np.floor(sample.min(axis=0) * scale).astype(np.int64) - (w - 1)
    shape = tuple(np.floor(sample.max(axis=0) * scale).astype(np.int64) - origin + 1)

    def shifts(xs):
        """(table index of each shift, phi product) per offset at xs (m, d)."""
        first = np.floor(xs) - (w - 1)  # exact floats at these scales
        for offset in itertools.product(range(w), repeat=d):
            vals = None
            for i, o in enumerate(offset):
                phi = eval_phi(sf, xs[:, i] - (first[:, i] + o))
                vals = phi if vals is None else vals * phi
            yield (first + offset).astype(np.int64) - origin, vals

    table = np.zeros(shape)
    for idx, vals in shifts(sample * scale):
        np.add.at(table, tuple(idx.T), vals)
    norm = 2.0 ** (d * j / 2.0)
    table *= norm / len(sample)
    values = np.zeros(len(points))
    for idx, vals in shifts(points * scale):
        inside = np.all((idx >= 0) & (idx < shape), axis=1)
        coeff = np.zeros(len(points))
        coeff[inside] = table[tuple(idx[inside].T)]
        values += coeff * vals
    return table, values * norm


@pytest.mark.parametrize("name", ["db4", "db6"])
@pytest.mark.parametrize("d", [1, 2])
def test_shared_phi_keeps_the_bits_of_the_per_offset_loop(name, d):
    basis = SHIFT_BASES[name]
    sample = draw(make_density("cosine_bump", d), SeedSpec(7), 3000)
    points = SeedSpec(8).rng().random((200, d)) * 1.5 - 0.25
    est = fit(basis, 4, sample)
    table, values = _per_offset_shift_loop(basis, 4, sample, points)
    assert est.table.tobytes() == table.tobytes()
    assert evaluate(est, points).tobytes() == values.tobytes()


@pytest.mark.parametrize("name", ["haar", "db4", "db6"])
@pytest.mark.parametrize("d", [1, 2])
def test_shift_loop_calls_eval_phi_once_per_axis_and_offset(monkeypatch, name, d):
    basis = SHIFT_BASES[name]
    calls = []

    def counting(sf, x):
        calls.append(len(x))
        return eval_phi(sf, x)

    monkeypatch.setattr(estimator, "eval_phi", counting)
    sample = SeedSpec(9).rng().random((500, d))
    est = fit(basis, 3, sample)
    # Haar fit counts cells with no shift loop
    assert len(calls) == (0 if name == "haar" else d * basis.width)
    calls.clear()
    evaluate(est, sample[:40])
    assert calls == [40] * (d * basis.width)


@pytest.mark.parametrize("y", [[0.3, 5.7, 2.0, -1.25], [2.0 ** 53 + 54, 2.0 ** 53 + 56]])
def test_smooth_fit_scatters_the_factors_evaluate_gathers(y):
    # Past |2^j x| = 2^53 a shift is not an exact float, and the factors were
    # taken at rounded arguments: at 2^53 + 54 the table read phi(2), phi(2),
    # 0 where phi(2), phi(1), phi(0) is right.  A smooth fit there raises
    basis, j = SHIFT_BASES["db4"], 60
    sample = (np.array(y) / 2.0 ** j)[:, None]
    if max(abs(v) for v in y) >= 2.0 ** 52:
        with pytest.raises(ValueError, match=r"2\^52 at level j=60"):
            fit(basis, j, sample)
        return
    est = fit(basis, j, sample)
    (first,), (factors,) = estimator._plan(basis, j, sample)
    table = np.zeros(est.table.shape)
    for o, phi in enumerate(factors):
        np.add.at(table, first - est.origin[0] + o, phi)
    assert est.table.tobytes() == (table * (2.0 ** (j / 2.0) / len(y))).tobytes()


def test_smooth_fit_below_2_to_the_52_takes_phi_at_the_integers():
    # the far end of what a smooth fit accepts: y = 2^j x and its shifts are
    # exact floats, so one point's table is phi at y - floor(y) + 2, 1, 0
    basis, j = SHIFT_BASES["db4"], 60
    for y in (2.0 ** 52 - 1, 1 - 2.0 ** 52, 2.0 ** 52 - 0.5):
        est = fit(basis, j, np.array([[y / 2.0 ** j]]))
        assert est.origin[0] == math.floor(y) - 2
        phi = eval_phi(basis, y - math.floor(y) + np.array([2.0, 1.0, 0.0]))
        assert est.table.ravel().tobytes() == (phi * 2.0 ** 30).tobytes()
        assert evaluate(est, y / 2.0 ** j) == sum(p * p for p in phi) * 2.0 ** 60
    with pytest.raises(ValueError, match=r"2\^52 at level j=60"):
        fit(basis, j, np.array([[2.0 ** -8]]))
    assert fit(SHIFT_BASES["haar"], j, np.array([[2.0 ** -8]])).table.size == 1


@pytest.mark.parametrize("name", ["haar", "db4"])
@pytest.mark.parametrize("d", [1, 2])
def test_evaluate_at_no_points(name, d):
    # the table-coverage test raised "zero-size array to reduction operation
    # minimum"; Density.pdf returns an empty array here too
    est = fit(SHIFT_BASES[name], 3, SeedSpec(9).rng().random((100, d)))
    values = evaluate(est, np.zeros((0, d)))
    assert values.shape == (0,) and values.dtype == np.float64


@pytest.mark.parametrize("name", ["haar", "db4", "db6"])
@pytest.mark.parametrize("d", [1, 2])
def test_a_grid_evaluates_as_its_points_do(name, d):
    # A grid keeps its plan across fits.  The second fit, on a sample in
    # [0.3, 0.35]^d, has a table that misses the grid's shifts near 3/4,
    # where fhat is 0, so the first fit's plan runs with the mask
    basis = SHIFT_BASES[name]
    grid = make_grid(((0.25,) * d, (0.75,) * d), 4)
    wide = draw(make_density("cosine_bump", d), SeedSpec(31), 2000)
    narrow = 0.3 + 0.05 * SeedSpec(32).rng().random((300, d))
    for sample in (wide, narrow):
        est = fit(basis, 4, sample)
        values = evaluate(est, grid)
        assert values.tobytes() == evaluate(est, grid.points).tobytes()
    assert np.any(values == 0.0) and np.any(values > 0.0)


@pytest.mark.parametrize("name", ["haar", "db4", "db6"])
@pytest.mark.parametrize("d", [1, 2])
def test_a_grid_evaluated_again_calls_eval_phi_no_more(monkeypatch, name, d):
    basis = SHIFT_BASES[name]
    calls = []

    def counting(sf, x):
        calls.append(len(x))
        return eval_phi(sf, x)

    monkeypatch.setattr(estimator, "eval_phi", counting)
    grid = make_grid(((0.25,) * d, (0.75,) * d), 3)
    rng = SeedSpec(9).rng()
    ests = [fit(basis, j, rng.random((500, d))) for j in (3, 3, 2)]
    calls.clear()
    first = evaluate(ests[0], grid)
    assert calls == [len(grid)] * (d * basis.width)
    calls.clear()
    again = evaluate(ests[1], grid)
    assert calls == []
    assert again.tobytes() != first.tobytes()
    evaluate(ests[2], grid)  # another level is another plan
    assert calls == [len(grid)] * (d * basis.width)


def test_expected_estimator_at_a_level_past_float_resolution():
    # np.clip(..., 1 << 1000) raised OverflowError; a Haar cell near 0.9 at
    # j = 61 is below float spacing, and its probability read 0.0
    den = make_density("uniform01", 1)
    haar, db4 = build_family("haar"), build_family("db4")
    assert expected_estimator(den, haar, 1000, 0.0) == 1.0
    # E fhat(2^-j y) does not depend on j at the edge of the support
    assert expected_estimator(den, db4, 1000, 0.0) == \
        pytest.approx(expected_estimator(den, db4, 5, 0.0), abs=1e-9)
    for basis, j, x in ((haar, 1000, 0.5), (db4, 1000, 0.5), (haar, 61, 0.9),
                        (db4, 52, 0.9)):
        with pytest.raises(ConfigurationError, match=f"level j={j}"):
            expected_estimator(den, basis, j, x)
    assert expected_estimator(den, haar, 52, 0.9) == 1.0


def test_objects_that_hold_arrays_compare_by_identity():
    # == between two of them raised ValueError (the truth value of an array
    # is ambiguous) and hash raised TypeError, so no memo could key on them
    den = make_density("uniform01", 2)
    sample = draw(den, SeedSpec(3), 50)
    box = ((0.25,) * 2, (0.75,) * 2)

    def lk():
        return localize(ProjectionKernel(build_family("haar"), 1), 0, 0.0, 0.25)

    def grid():
        return make_grid(box, 2)

    makers = [lambda: build_family("db4"), lambda: fit(build_family("haar"), 2, sample),
              grid, lk, lambda: gamma_interval(lk(), 1.0),
              lambda: g_tilde_n_x(sample, den, (0.5, 0.5), 2, 1.0, grid_step=0.25),
              lambda: sup_deviation(fit(build_family("haar"), 2, sample), den, grid(),
                                    "ratio")]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b and len({a, b, a}) == 2, type(a).__name__


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family", ["haar", "db4", "db6"])
def test_evaluate_keeps_its_bits_on_a_zero_padded_table(family, d):
    # _apply gathers every shift through one path, each axis factor times
    # 1.0 or 0.0 as its shift lies inside the table box.  A table padded
    # with w zero cells a side, its origin moved by w, holds the same
    # alpha_hat with every shift of these points inside, so both give the
    # same bits inside, at the edge of and outside the box, and so does
    # the negated table, whose masked terms are -0
    basis = build_family(family)
    w, j = basis.width, 3
    rng = np.random.default_rng(7 * d + w)
    est = fit(basis, j, rng.uniform(0.3, 0.6, (150, d)))
    # per axis, coordinates at and next to the edges of the shifts' reach
    edges = [np.array([o + s for s in (-w, -1, 0, 1, w - 1, w)]
                      + [o + m - 1 + s for s in (-1, 0, 1, w - 1, w, w + 1)], float) / 2 ** j
             for o, m in zip(est.origin, est.table.shape)]
    edges = [np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)])
             for e in edges]
    lo, hi = est.origin / 2 ** j, (est.origin + est.table.shape + w) / 2 ** j
    point_sets = [rng.uniform(lo, hi, (60, d)),
                  np.stack([rng.choice(e, 200) for e in edges], axis=1),
                  rng.uniform(lo - 2.0, hi + 2.0, (200, d))]
    for table in (est.table, -est.table):
        a = estimator.WaveletDensityEstimator(basis, j, est.n, d, est.origin, table)
        b = estimator.WaveletDensityEstimator(basis, j, est.n, d, est.origin - w,
                                              np.pad(table, w))
        for pts in point_sets:
            assert evaluate(a, pts).tobytes() == evaluate(b, pts).tobytes()
