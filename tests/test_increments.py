import math

import numpy as np
import pytest

from wavedens.basis import build_family
from wavedens.errors import ConfigurationError
from wavedens.estimator import (evaluate, evaluate_kernel_form,
                                expected_estimator, fit, make_grid,
                                sup_deviation)
from wavedens.experiments import ExperimentConfig, ResolutionSchedule
from wavedens.increments import (cell_density, from_cell_density, g_n_x,
                                 g_tilde_n_x, relation_check, theta)
from wavedens.kernel import (ProjectionKernel, kernel_K_batch, kernel_Kj_batch,
                             localize)
from wavedens.sampling import SeedSpec, draw, make_density

STEP = 2.0 ** -10


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


def test_relation_check_rejects_a_level_out_of_range():
    # both raised ZeroDivisionError: log(1/h) = 0 at j = 0, 1/h at h = 0.0
    den = make_density("uniform01", 1)
    sample = draw(den, SeedSpec(0), 50)
    for j in (0, -1, 2000):
        with pytest.raises(ConfigurationError, match="level j"):
            relation_check(sample, den, [0.5], j, build_family("haar"))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_relation_check_rejects_a_non_finite_sample(bad):
    # [0.5, nan] used to give a residual of 0.0
    den = make_density("uniform01", 1)
    for fam in ("haar", "db4"):
        with pytest.raises(ConfigurationError, match="sample must be finite"):
            relation_check(np.array([0.5, bad]), den, 0.5, 3, build_family(fam))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("increment", [g_n_x, g_tilde_n_x])
def test_increment_functions_reject_an_empty_sample(increment):
    # used to divide by n = 0: 2,049 NaN values, or a RuntimeWarning
    args = (1.0,) if increment is g_tilde_n_x else ()
    for d in (1, 2):
        den = make_density("uniform01", d)
        with pytest.raises(ConfigurationError, match="empty sample"):
            increment(np.empty((0, d)), den, [0.5] * d, 2, *args)


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


@pytest.mark.parametrize("halfwidth", [math.nan, math.inf, 0.0])
def test_an_increment_lattice_needs_a_positive_finite_halfwidth(halfwidth):
    # NaN raised a bare ValueError from round(), inf an OverflowError
    den = make_density("uniform01", 1)
    with pytest.raises(ConfigurationError, match="halfwidth must be positive and finite"):
        g_n_x(draw(den, SeedSpec(1), 50), den, [0.5], 2, halfwidth=halfwidth)


def test_theta_rejects_an_increment_of_another_dimension():
    lk = localize(ProjectionKernel(build_family("haar"), 1), 0, np.zeros(1), 0.25)
    den2 = make_density("uniform01", 2)
    g = g_n_x(draw(den2, SeedSpec(2), 200), den2, [0.5, 0.5], 2, grid_step=0.25)
    with pytest.raises(ConfigurationError, match="increment and kernel dimensions differ"):
        theta(lk, g)


HAAR = build_family("haar")


def _kernel_form_at(den, sample, p):
    return evaluate_kernel_form(HAAR, 2, sample, p)


def _grid_sum(box):
    return make_grid(box, 3).points.sum()


# The one-point arguments: a (d,) array, or a scalar when d = 1.  A box is
# two such points; make_grid takes d from its first corner.
POINT_CALLS = {
    "evaluate_kernel_form": _kernel_form_at,
    "box_prob_lo": lambda den, sample, p: den.box_prob(
        p, np.full(den.dimension, 0.6)),
    "box_prob_hi": lambda den, sample, p: den.box_prob(
        np.full(den.dimension, 0.2), p),
    "box_prob_grid_hi": lambda den, sample, p: den.box_prob_grid(
        [np.array([0.2])] * den.dimension, p).item(),
    "localize_center": lambda den, sample, p: localize(
        ProjectionKernel(HAAR, den.dimension), 1, p, 0.25).sigma,
    "g_n_x_center": lambda den, sample, p: g_n_x(
        sample, den, p, 2, grid_step=0.25).values.sum(),
    "g_tilde_n_x_center": lambda den, sample, p: g_tilde_n_x(
        sample, den, p, 2, 1.0, grid_step=0.25).values.sum(),
    "relation_check_center": lambda den, sample, p: relation_check(
        sample, den, p, 2, HAAR),
    "make_grid_lo": lambda den, sample, p: _grid_sum((p, np.full(den.dimension, 0.6))),
    "make_grid_hi": lambda den, sample, p: _grid_sum((np.full(den.dimension, 0.2), p)),
    "sup_on_lo": lambda den, sample, p: den.sup_on((p, np.full(den.dimension, 0.6))),
    "sup_on_hi": lambda den, sample, p: den.sup_on((np.full(den.dimension, 0.2), p)),
}


# The point-array arguments: one point as above, or an (m, d) array of m.
ARRAY_CALLS = {
    "evaluate": lambda den, sample, p: evaluate(fit(HAAR, 2, sample), p),
    "pdf": lambda den, sample, p: den.pdf(p),
    "expected_estimator": lambda den, sample, p: expected_estimator(den, HAAR, 2, p),
}


@pytest.mark.parametrize("call", sorted({**POINT_CALLS, **ARRAY_CALLS}))
def test_a_point_needs_exactly_d_coordinates(call):
    # at d = 2, [0.3] used to be broadcast to (0.3, 0.3); make_grid raised
    # IndexError on a short upper corner.  A (1, d) array raises only where
    # a single point is taken; the point-array calls read it as one point.
    f = {**POINT_CALLS, **ARRAY_CALLS}[call]
    den2 = make_density("uniform01", 2)
    sample2 = draw(den2, SeedSpec(9), 200)
    shapes = [[0.3], 0.3, [0.3, 0.3, 0.3]]
    if call in POINT_CALLS:
        shapes.append([[0.3, 0.3]])
    for p in shapes:
        with pytest.raises(ConfigurationError, match="shape"):
            f(den2, sample2, p)
    assert math.isfinite(f(den2, sample2, [0.3, 0.3]))
    # at d = 1 a scalar is a point
    den1 = make_density("cosine_bump", 1)
    sample1 = draw(den1, SeedSpec(9), 200)
    assert f(den1, sample1, 0.3) == f(den1, sample1, [0.3])


@pytest.mark.parametrize("call", sorted(ARRAY_CALLS))
def test_points_are_one_point_or_an_m_by_d_array(call):
    # the batch E fhat read (2, 1) points at d = 2 as one point (0.3, 0.6)
    f = ARRAY_CALLS[call]
    den2 = make_density("uniform01", 2)
    sample2 = draw(den2, SeedSpec(9), 200)
    for p in ([0.3], 0.3, [0.3, 0.3, 0.3], [[0.3], [0.6]], [[0.3, 0.3, 0.3]],
              [[[0.3, 0.3]]]):
        with pytest.raises(ConfigurationError, match="shape"):
            f(den2, sample2, p)
    pts = [[0.3, 0.3], [0.6, 0.6]]
    both = f(den2, sample2, pts)
    assert both.shape == (2,)
    assert np.array_equal(both, [np.ravel(f(den2, sample2, p))[0] for p in pts])
    den1 = make_density("cosine_bump", 1)
    sample1 = draw(den1, SeedSpec(9), 200)
    assert np.array_equal(f(den1, sample1, 0.3), f(den1, sample1, [0.3]))
    assert f(den1, sample1, [[0.3], [0.6]]).shape == (2,)


def _pk(d):
    return ProjectionKernel(HAAR, d)


# The kernel batches: (..., d) arrays with d = pk.dimension on the last
# axis, whose leading axes broadcast.
BATCH_CALLS = {
    "kernel_K_batch_x": lambda d, p: kernel_K_batch(_pk(d), p, np.full(d, 0.4)),
    "kernel_K_batch_y": lambda d, p: kernel_K_batch(_pk(d), np.full(d, 0.4), p),
    "kernel_Kj_batch_x": lambda d, p: kernel_Kj_batch(_pk(d), 3, p, np.full(d, 0.35)),
    "kernel_Kj_batch_y": lambda d, p: kernel_Kj_batch(_pk(d), 3, np.full(d, 0.35), p),
}


@pytest.mark.parametrize("call", sorted(BATCH_CALLS))
def test_kernel_batches_need_d_on_the_last_axis(call):
    # at d = 2, ([0.3], [0.9]) was a 1-D kernel and [[0.4]] was broadcast
    # over both coordinates
    f = BATCH_CALLS[call]
    for p in ([0.3], 0.3, [0.3, 0.3, 0.3], [[0.3]], [[0.3, 0.3, 0.3]]):
        with pytest.raises(ConfigurationError, match="shape"):
            f(2, p)
    one, other = f(2, [0.3, 0.3]), f(2, [0.6, 0.6])
    assert one.shape == ()
    assert np.array_equal(f(2, [[[0.3, 0.3]], [[0.6, 0.6]]]), [[one], [other]])
    with pytest.raises(ConfigurationError, match="shape"):
        f(1, 0.3)  # no last axis
    assert f(1, [0.3]) == f(1, [[0.3]])[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", sorted(BATCH_CALLS))
def test_kernel_batches_reject_non_finite_entries(call, bad):
    # kernel_Kj_batch on Haar at (inf, inf) used to return 8.0
    for d in (1, 2):
        with pytest.raises(ConfigurationError, match="points must be finite"):
            BATCH_CALLS[call](d, [[0.3] * d, [bad] + [0.3] * (d - 1)])
    db4 = ProjectionKernel(build_family("db4"), 1)
    with pytest.raises(ConfigurationError, match="points must be finite"):
        kernel_K_batch(db4, [[bad]], [[0.5]])  # NaN used to give 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family,x,j,bound", [("db4", 0.3, 60, 52), ("haar", 1e306, 10, 62),
                                              ("haar", 1.5, 62, 62)])
def test_kernel_batches_take_the_reach_rule_of_fit(family, x, j, bound):
    # db4 at j = 60 returned [0.] where fit raised; Haar at 1e306 warned of
    # an overflow in the scaling, then raised "points must be finite"
    basis = build_family(family)
    match = rf"2\^{bound} at level j={j}"
    with pytest.raises(ConfigurationError, match=match):
        fit(basis, j, [x])
    with pytest.raises(ConfigurationError, match=match):
        kernel_Kj_batch(ProjectionKernel(basis, 1), j, [[0.5]], [[x]])
    with pytest.raises(ConfigurationError, match=match):
        evaluate_kernel_form(basis, j, [x], 0.5)
    with pytest.raises(ConfigurationError, match=match):
        relation_check([0.5], make_density("uniform01", 1), x, j, basis)


def test_kernel_Kj_batch_takes_what_fit_takes_at_the_reach_bound():
    # the far end of the rule: fit's table and the kernel agree there
    basis, j = build_family("db4"), 60
    for y in (2.0 ** 52 - 1, 1 - 2.0 ** 52):
        x = y / 2.0 ** j
        kj = kernel_Kj_batch(ProjectionKernel(basis, 1), j, [x], [x])
        assert kj > 0.0 and math.isclose(kj, evaluate(fit(basis, j, [x]), x), rel_tol=1e-12)


def test_relation_check_requires_a_positive_density_at_x():
    # relation_check raised ZeroDivisionError where g_n_x raises this
    den = make_density("uniform01", 1)
    with pytest.raises(ValueError, match=r"f\(x\) must be positive"):
        g_n_x([0.5, 0.7], den, 1.5, 2)
    with pytest.raises(ValueError, match=r"f\(x\) must be positive"):
        relation_check([0.5, 0.7], den, 1.5, 2, HAAR)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernel_form_rejects_a_non_finite_point(bad):
    # Haar at NaN used to return 0.0; D4 at inf warned "invalid value in
    # subtract", while evaluate raised at both
    den = make_density("uniform01", 1)
    sample = draw(den, SeedSpec(4), 50)
    for fam in ("haar", "db4"):
        with pytest.raises(ConfigurationError, match="points must be finite"):
            evaluate_kernel_form(build_family(fam), 3, sample, bad)
    with pytest.raises(ConfigurationError, match="points must be finite"):
        relation_check(sample, den, bad, 3, HAAR)


def test_sup_deviation_needs_expected_on_every_grid_point():
    # one value of E fhat used to be applied to all 9 grid points
    den = make_density("uniform01", 1)
    est = fit(HAAR, 3, draw(den, SeedSpec(8), 256))
    grid = make_grid(((0.25,), (0.75,)), 3)
    for bad in (np.array([0.5]), np.ones((len(grid), 1)), np.ones(len(grid) + 1)):
        with pytest.raises(ConfigurationError, match="shape"):
            sup_deviation(est, den, grid, "theorem1", expected=bad)
    given = sup_deviation(est, den, grid, "theorem1", expected=np.ones(len(grid)))
    computed = sup_deviation(est, den, grid, "theorem1")  # E fhat = 1 inside
    assert (given.sup_dev, given.inf_dev) == (computed.sup_dev, computed.inf_dev)


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, True])
def test_gtilde_rejects_c_that_is_not_positive_and_finite(c):
    # c = NaN gave all-NaN values, c = inf all zeros, c = True those of c = 1
    den = make_density("uniform01", 1)
    sample = draw(den, SeedSpec(3), 100)
    with pytest.raises(ValueError, match="c must be positive"):
        g_tilde_n_x(sample, den, 0.5, 3, c, grid_step=2.0 ** -4)


UNIFORM1 = make_density("uniform01", 1)
SAMPLE1 = draw(UNIFORM1, SeedSpec(9), 200)

# Every public function that takes a level j, called at level j.
LEVEL_CALLS = {
    "fit": lambda j: fit(HAAR, j, SAMPLE1),
    "expected_estimator": lambda j: expected_estimator(UNIFORM1, HAAR, j, 0.3),
    "evaluate_kernel_form": lambda j: evaluate_kernel_form(HAAR, j, SAMPLE1, 0.3),
    "make_grid": lambda j: make_grid(((0.25,), (0.75,)), j),
    "kernel_Kj_batch": lambda j: kernel_Kj_batch(_pk(1), j, [0.3], [0.4]),
    "localize": lambda j: localize(_pk(1), j, [0.3], 0.25),
    "g_n_x": lambda j: g_n_x(SAMPLE1, UNIFORM1, 0.5, j, grid_step=0.25),
    "g_tilde_n_x": lambda j: g_tilde_n_x(SAMPLE1, UNIFORM1, 0.5, j, 1.0, grid_step=0.25),
    "relation_check": lambda j: relation_check(SAMPLE1, UNIFORM1, 0.5, j, HAAR),
}


@pytest.mark.parametrize("j", [2.5, True])
@pytest.mark.parametrize("call", sorted(LEVEL_CALLS))
def test_a_level_must_be_an_integer(call, j):
    # fit(haar, 2.5, s) built a table at scale 2^2.5 and kernel_Kj_batch
    # returned 2^1.5; make_grid raised TypeError; fit stored level True
    with pytest.raises(ConfigurationError, match="level j must be an integer"):
        LEVEL_CALLS[call](j)
    LEVEL_CALLS[call](np.int64(2))


def test_a_numpy_integer_level_is_the_python_int():
    # 1 << np.int64(70) overflowed: E fhat read 0.0 where level 70 raises,
    # and make_grid returned one NaN point
    with pytest.raises(ConfigurationError, match="finer than the float lattice"):
        expected_estimator(UNIFORM1, HAAR, np.int64(70), 0.5)
    box = ((0.25,), (0.75,))
    assert np.array_equal(make_grid(box, np.int64(70)).points, make_grid(box, 70).points)
    assert type(fit(HAAR, np.int64(3), SAMPLE1).level) is int


def _config(d):
    return ExperimentConfig(1, "uniform01", d, "haar", ((0.25,), (0.75,)),
                            ResolutionSchedule("CRS", {"gamma": 0.5}), (64,), 1, 0)


# Every public function that takes a dimension d.
DIMENSION_CALLS = {
    "make_density": lambda d: make_density("uniform01", d),
    "ProjectionKernel": lambda d: ProjectionKernel(HAAR, d),
    "ResolutionSchedule": lambda d: ResolutionSchedule("CRS", {"gamma": 0.5}, d),
    "ExperimentConfig.validate": lambda d: _config(d).validate(),
}


@pytest.mark.parametrize("d", [2.5, True, 0])
@pytest.mark.parametrize("call", sorted(DIMENSION_CALLS))
def test_a_dimension_must_be_an_integer_at_least_1(call, d):
    # make_density("uniform01", 2.5) and ProjectionKernel(haar, 1.5) were accepted
    with pytest.raises(ConfigurationError, match="dimension must be an integer >= 1"):
        DIMENSION_CALLS[call](d)
    DIMENSION_CALLS[call](np.int64(1))
