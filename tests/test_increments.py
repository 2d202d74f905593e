import math

import numpy as np
import pytest

from wavedens.basis import build_family
from wavedens.errors import ConfigurationError
from wavedens.estimator import evaluate_kernel_form
from wavedens.increments import (cell_density, from_cell_density, g_n_x,
                                 g_tilde_n_x, increment, relation_check,
                                 theta)
from wavedens.kernel import ProjectionKernel, localize
from wavedens.sampling import SeedSpec, draw, make_density

STEP = 2.0 ** -10


def test_increment_direct():
    den = make_density("uniform01", 1)
    sample = draw(den, SeedSpec(1), 400)
    x, h = np.array([0.5]), 2.0 ** -4
    val = increment(sample, den, x, h, (np.array([-1.0]), np.array([1.0])))
    inside = np.mean(np.abs(sample[:, 0] - 0.5) <= h)
    expected = math.sqrt(400) * (inside - 2 * h)
    assert abs(val - expected) < 1e-12


def test_increment_degenerate_box():
    den = make_density("uniform01", 1)
    sample = draw(den, SeedSpec(1), 10)
    with pytest.raises(ValueError):
        increment(sample, den, [0.5], 0.1, ([1.0], [-1.0]))


def test_gnx_values_against_direct_count():
    den = make_density("cosine_bump", 1)
    sample = draw(den, SeedSpec(2), 1000)
    x, j = np.array([0.5]), 3
    g = g_n_x(sample, den, x, j, grid_step=STEP)
    h = 2.0 ** -j
    fx = float(den.pdf(x))
    denom = math.sqrt(2.0 * fx * h * math.log(1.0 / h))
    # check a few corners directly: g(s) = sqrt(n)(P_n - P)[s, 1] / denom
    for s in (-1.0, -0.25, 0.0, 0.5):
        idx = int(round((s + 1.0) / STEP))
        lo = x + s * h
        hi = x + 1.0 * h
        count = np.mean(np.all((sample >= lo) & (sample < hi), axis=1))
        # corner counts use right-open binning except the top edge
        prob = den.box_prob(lo, hi)
        direct = math.sqrt(1000) * (count - prob) / denom
        assert abs(g.values[idx] - direct) < 1e-9


def test_gtilde_monotone():
    den = make_density("uniform01", 2)
    sample = draw(den, SeedSpec(3), 500)
    g = g_tilde_n_x(sample, den, np.array([0.5, 0.5]), 2, c=1.0,
                    grid_step=2.0 ** -4)
    assert np.all(g.values >= 0.0)
    assert np.all(np.diff(g.values, axis=0) <= 1e-12)
    assert np.all(np.diff(g.values, axis=1) <= 1e-12)


def test_cell_density_roundtrip():
    rng = np.random.default_rng(4)
    axes = (np.linspace(-1, 1, 17),)
    gdot = rng.normal(size=16)
    g = from_cell_density(axes, gdot)
    np.testing.assert_allclose(cell_density(g), gdot, atol=1e-10)


def test_cell_density_roundtrip_2d():
    rng = np.random.default_rng(5)
    axes = (np.linspace(-1, 1, 9),) * 2
    gdot = rng.normal(size=(8, 8))
    g = from_cell_density(axes, gdot)
    np.testing.assert_allclose(cell_density(g), gdot, atol=1e-10)


def test_theta_linearity():
    rng = np.random.default_rng(6)
    pk = ProjectionKernel(build_family("haar"), 1)
    lk = localize(pk, 0, np.zeros(1), 2.0 ** -4)
    axes = lk.axes
    g1 = from_cell_density(axes, rng.normal(size=32))
    g2 = from_cell_density(axes, rng.normal(size=32))
    g3 = from_cell_density(axes,
                           2.0 * cell_density(g1) - 0.5 * cell_density(g2))
    lin = 2.0 * theta(lk, g1) - 0.5 * theta(lk, g2)
    assert abs(theta(lk, g3) - lin) < 1e-12


def test_theta_of_unit_density_is_mass():
    # gdot == 1 -> theta_unnormalized = integral of Ktilde = 1
    for fam in ("haar", "db4"):
        pk = ProjectionKernel(build_family(fam), 1)
        lk = localize(pk, 0, np.zeros(1), STEP)
        g = from_cell_density(lk.axes, np.ones(len(lk.axes[0]) - 1))
        assert abs(theta(lk, g, normalized=False) - 1.0) < 1e-9


def test_theta_boundedness():
    # |theta(g)| <= (tv / sigma) * sup|g|
    rng = np.random.default_rng(7)
    pk = ProjectionKernel(build_family("db4"), 1)
    lk = localize(pk, 0, np.zeros(1), STEP)
    bound = lk.tv / lk.sigma
    for _ in range(20):
        g = from_cell_density(lk.axes,
                              rng.normal(size=len(lk.axes[0]) - 1))
        assert abs(theta(lk, g)) <= bound * np.max(np.abs(g.values)) + 1e-9


def test_relation_identity_haar():
    den = make_density("uniform01", 1)
    sample = draw(den, SeedSpec(7), 1000)
    assert relation_check(sample, den, [0.5], 4, build_family("haar")) < 1e-9


def test_relation_identity_db4():
    den = make_density("cosine_bump", 1)
    sample = draw(den, SeedSpec(8), 500)
    assert relation_check(sample, den, [0.4], 3, build_family("db4")) < 1e-6


def test_relation_identity_single_point():
    den = make_density("uniform01", 1)
    sample = np.array([[0.37]])
    assert relation_check(sample, den, [0.5], 4, build_family("haar")) < 1e-9


def test_gnx_rejects_level_zero():
    den = make_density("uniform01", 1)
    sample = draw(den, SeedSpec(0), 50)
    with pytest.raises(ValueError):
        g_n_x(sample, den, [0.5], 0)


def test_grid_step_must_tile():
    den = make_density("uniform01", 1)
    sample = draw(den, SeedSpec(0), 50)
    with pytest.raises(ConfigurationError):
        g_n_x(sample, den, [0.5], 3, grid_step=0.3)


def test_theta_rejects_a_foreign_lattice():
    # theta used to resample such a g nearest-lower onto the kernel's
    # lattice: the first call returned -0.1297
    den = make_density("cosine_bump", 1)
    sample = draw(den, SeedSpec(2), 1000)
    lk = localize(ProjectionKernel(build_family("db4"), 1), 0, np.zeros(1), STEP)
    finer = g_n_x(sample, den, [0.5], 3, halfwidth=3.0, grid_step=2.0 ** -12)
    with pytest.raises(ConfigurationError, match="lattice"):
        theta(lk, finer)
    narrower = g_n_x(sample, den, [0.5], 3)  # the default W = 1 lattice
    with pytest.raises(ConfigurationError, match="lattice"):
        theta(lk, narrower)
    same = g_n_x(sample, den, [0.5], 3, halfwidth=3.0, grid_step=STEP)
    assert math.isfinite(theta(lk, same))


def _kernel_form_at(den, sample, p):
    return evaluate_kernel_form(build_family("haar"), 2, sample, p)


def _box(d):
    return -np.ones(d), np.ones(d)


POINT_CALLS = {
    "evaluate_kernel_form": _kernel_form_at,
    "increment_x": lambda den, sample, p: increment(
        sample, den, p, 0.01, _box(den.dimension)),
    "increment_s": lambda den, sample, p: increment(
        sample, den, np.full(den.dimension, 0.5), 0.01,
        (p, _box(den.dimension)[1])),
    "increment_u": lambda den, sample, p: increment(
        sample, den, np.full(den.dimension, 0.5), 0.01,
        (-np.full(den.dimension, 0.3), p)),
    "box_prob_lo": lambda den, sample, p: den.box_prob(
        p, np.full(den.dimension, 0.6)),
    "box_prob_hi": lambda den, sample, p: den.box_prob(
        np.full(den.dimension, 0.2), p),
    "box_prob_grid_hi": lambda den, sample, p: den.box_prob_grid(
        [np.array([0.2])] * den.dimension, p).item(),
}


@pytest.mark.parametrize("call", sorted(POINT_CALLS))
def test_a_point_needs_exactly_d_coordinates(call):
    # at d = 2, [0.3] used to be broadcast to (0.3, 0.3)
    f = POINT_CALLS[call]
    den2 = make_density("uniform01", 2)
    sample2 = draw(den2, SeedSpec(9), 200)
    for p in ([0.3], 0.3, [0.3, 0.3, 0.3], [[0.3, 0.3]]):
        with pytest.raises(ValueError, match="shape"):
            f(den2, sample2, p)
    assert math.isfinite(f(den2, sample2, [0.3, 0.3]))
    # at d = 1 a scalar is a point
    den1 = make_density("cosine_bump", 1)
    sample1 = draw(den1, SeedSpec(9), 200)
    assert f(den1, sample1, 0.3) == f(den1, sample1, [0.3])


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
def test_gtilde_rejects_c_that_is_not_positive_and_finite(c):
    # c = NaN gave all-NaN values, c = inf all zeros
    den = make_density("uniform01", 1)
    sample = draw(den, SeedSpec(3), 100)
    with pytest.raises(ValueError, match="c must be positive"):
        g_tilde_n_x(sample, den, 0.5, 3, c, grid_step=2.0 ** -4)
