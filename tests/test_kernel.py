import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from wavedens.basis import build_family, eval_phi
from wavedens.errors import ConfigurationError
from wavedens.kernel import (LocalizedKernel, ProjectionKernel, _corner_axes,
                             cell_lower_corners, kernel_K_batch,
                             kernel_Kj_batch, localize)
from wavedens.sampling import _grid_points

STEP = 2.0 ** -10


def test_haar_kernel_is_cell_indicator():
    pk = ProjectionKernel(build_family("haar"), 1)
    assert kernel_K_batch(pk, [0.3], [0.7]) == 1.0  # same unit cell
    assert kernel_K_batch(pk, [0.3], [1.2]) == 0.0
    assert kernel_K_batch(pk, [-0.5], [-0.1]) == 1.0


def test_kernel_symmetry():
    rng = np.random.default_rng(5)
    for fam in ("haar", "db4"):
        pk = ProjectionKernel(build_family(fam), 2)
        for _ in range(20):
            x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            assert abs(kernel_K_batch(pk, x, y) - kernel_K_batch(pk, y, x)) < 1e-12


def test_db4_diagonal_value():
    # K(0,0) = sum_k phi(k)^2 = ((1+s3)/2)^2 + ((1-s3)/2)^2 = 2
    pk = ProjectionKernel(build_family("db4"), 1)
    assert abs(kernel_K_batch(pk, [0.0], [0.0]) - 2.0) < 1e-9


def test_rescaled_kernel():
    pk = ProjectionKernel(build_family("haar"), 1)
    assert kernel_Kj_batch(pk, 3, [0.3], [0.3]) == 8.0
    assert kernel_Kj_batch(pk, 3, [0.3], [0.5]) == 0.0  # different dyadic cells


def test_rescaled_kernel_rejects_negative_level():
    # used to return 0.5, a level-(-1) kernel, where fit and E fhat raise
    pk = ProjectionKernel(build_family("haar"), 1)
    with pytest.raises(ConfigurationError):
        kernel_Kj_batch(pk, -1, [0.3], [0.9])


def test_batch_matches_scalar():
    # oracle: K(x, y) = sum_k prod_i phi(x_i - k_i) phi(y_i - k_i) over a
    # fixed k range wide enough for x, y in [-1, 1]^2, not the batch's window
    rng = np.random.default_rng(6)
    sf = build_family("db4")
    pk = ProjectionKernel(sf, 2)
    x, y = rng.uniform(-1, 1, (30, 2)), rng.uniform(-1, 1, (30, 2))
    batch = kernel_K_batch(pk, x, y)
    for i in range(30):
        oracle = sum(eval_phi(sf, x[i][0] - k0) * eval_phi(sf, y[i][0] - k0)
                     * eval_phi(sf, x[i][1] - k1) * eval_phi(sf, y[i][1] - k1)
                     for k0, k1 in itertools.product(range(-8, 8), repeat=2))
        assert abs(batch[i] - oracle) < 1e-12


def test_localize_haar_section():
    pk = ProjectionKernel(build_family("haar"), 1)
    lk = localize(pk, 0, np.zeros(1), STEP)
    assert abs(lk.sigma - 1.0) < 1e-12
    assert abs(lk.tv - 2.0) < 1e-12
    assert abs(lk.integral() - 1.0) < 1e-12
    # section is the indicator of [0, 1)
    mid = lk.values[len(lk.values) // 2]  # s = 0
    assert mid == 1.0
    assert lk.values[0] == 0.0  # s = -1
    # sigma, tv and gamma_interval's cost memo hold for these values only
    with pytest.raises(ValueError, match="read-only"):
        lk.cell_values()[0] = 1.0


def test_localize_db4_norm_and_mass():
    pk = ProjectionKernel(build_family("db4"), 1)
    lk = localize(pk, 0, np.zeros(1), STEP)
    assert abs(lk.sigma - math.sqrt(2.0)) < 1e-4
    assert abs(lk.integral() - 1.0) < 1e-9  # partition of unity
    assert np.isfinite(lk.tv) and lk.tv > 2.0


def test_dyadic_invariance():
    # Ktilde_{j,x} equals Ktilde_{0,0} whenever 2^j x is an integer vector
    for fam in ("haar", "db4"):
        for d in (1, 2):
            pk = ProjectionKernel(build_family(fam), d)
            step = STEP if d == 1 else 2.0 ** -4
            ref = localize(pk, 0, np.zeros(d), step)
            # centers x with 2^3 x integer
            for x in np.random.default_rng(1).integers(-8, 8, size=(3, d)) / 8:
                lk = localize(pk, 3, x, step)
                assert np.max(np.abs(lk.values - ref.values)) < 1e-10


def test_localize_2d_tensorizes():
    pk1 = ProjectionKernel(build_family("haar"), 1)
    pk2 = ProjectionKernel(build_family("haar"), 2)
    step = 2.0 ** -4
    lk1 = localize(pk1, 0, np.zeros(1), step)
    lk2 = localize(pk2, 0, np.zeros(2), step)
    outer = np.multiply.outer(lk1.values, lk1.values)
    assert np.max(np.abs(lk2.values - outer)) < 1e-12
    assert abs(lk2.sigma - lk1.sigma ** 2) < 1e-12


def test_cell_lower_corners_shape():
    pk = ProjectionKernel(build_family("haar"), 2)
    lk = localize(pk, 0, np.zeros(2), 0.5)
    corners = cell_lower_corners(lk)
    assert corners.shape == (16, 2)
    assert corners[0].tolist() == [-1.0, -1.0]


def test_localize_rejects_bad_step():
    pk = ProjectionKernel(build_family("haar"), 1)
    with pytest.raises(ConfigurationError):
        localize(pk, 0, np.zeros(1), 0.3)
    with pytest.raises(ConfigurationError):
        localize(pk, 0, np.zeros(1), -0.1)
    with pytest.raises(ConfigurationError):
        localize(pk, 0, np.zeros(2), 0.5)
    with pytest.raises(ConfigurationError, match="grid_step"):
        localize(pk, 0, np.zeros(1), math.nan)


def test_localize_rejects_negative_level():
    # used to return a level-(-3) section with sigma = 1.0, where
    # kernel_Kj_batch and fit raise
    pk = ProjectionKernel(build_family("haar"), 1)
    with pytest.raises(ConfigurationError, match="level j must be >= 0"):
        localize(pk, -3, [0.0], 2.0 ** -4)


@pytest.mark.parametrize("center", [[math.nan], [math.inf], [0.5, math.nan]])
def test_localize_rejects_a_non_finite_center(center):
    # a NaN center gave an all-zero kernel with sigma = 0.0
    pk = ProjectionKernel(build_family("db4"), len(center))
    with pytest.raises(ConfigurationError, match="center must be finite"):
        localize(pk, 0, np.array(center), 2.0 ** -4)


def test_tv_nan_above_1d():
    pk = ProjectionKernel(build_family("haar"), 2)
    lk = localize(pk, 0, np.zeros(2), 0.5)
    assert isinstance(lk, LocalizedKernel)
    assert math.isnan(lk.tv)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family", ["haar", "db4", "db6"])
def test_localize_equals_kernel_batch(family, d):
    # the outer product of 1-D sections has the bits of the full-lattice batch
    pk = ProjectionKernel(build_family(family), d)
    step = {1: 2.0 ** -7, 2: 2.0 ** -3, 3: 2.0 ** -1}[d]
    for j, x in ((1, np.full(d, 0.3)), (3, np.linspace(0.11, 0.83, d)),
                 (2, np.linspace(-0.4, 0.6, d))):
        lk = localize(pk, j, x, step)
        z = 2.0 ** j * x
        batch = kernel_K_batch(pk, z, z + _grid_points(lk.axes))
        assert np.array_equal(lk.values, batch.reshape(lk.values.shape))


@pytest.mark.parametrize("step,last", [(2.0 ** -10, 44), (2.0 ** -6, 48)])
def test_localize_raises_where_its_lattice_cannot_resolve_the_step(step, last):
    # at x = 0.3 the Haar section left the exact K(frac(2^j x), frac(2^j x) + s)
    # from the first level where 2^j x passes 2^53 step; at j = 60 it gave
    # sigma = sqrt 2 and integral 2.0, and db4's section was all 0
    pk = ProjectionKernel(build_family("haar"), 1)
    for j in range(1, last + 1):
        lk = localize(pk, j, 0.3, step)
        y = Fraction(0.3) * 2 ** j
        frac = float(y - math.floor(y))
        exact = kernel_K_batch(pk, [frac], (frac + lk.axes[0])[:, None])
        assert np.array_equal(lk.values, exact) and lk.integral() == 1.0
    for family in ("haar", "db4"):
        for j in (last + 1, 60):
            with pytest.raises(ConfigurationError, match="cannot resolve step"):
                localize(ProjectionKernel(build_family(family), 1), j, 0.3, step)
        # the largest |x_i| sets the bound
        with pytest.raises(ConfigurationError, match="cannot resolve step"):
            localize(ProjectionKernel(build_family(family), 2), last + 1, [0.0, -0.3], step)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("family", ["haar", "db4", "db6"])
def test_kernel_Kj_sum_scales_to_the_kernel_sum_bit_for_bit(family, d):
    # relation_check takes sum_i K(2^j x, 2^j X_i) as 2^(-dj) sum_i K_j(x, X_i)
    # from one kernel pass: K_j = 2^(dj) K, and a power-of-two scale commutes
    # with every rounding of the pairwise sum
    pk = ProjectionKernel(build_family(family), d)
    rng = np.random.default_rng(11 * d + pk.basis.width)
    for _ in range(25):
        j, n = int(rng.integers(0, 9)), int(rng.integers(1, 700))
        x = rng.uniform(-1.0, 2.0, d)
        y = x + rng.uniform(-4.0, 4.0, (n, d)) * 2.0 ** -j
        kj = kernel_Kj_batch(pk, j, x, y).sum() * 2.0 ** (-d * j)
        assert kj.tobytes() == kernel_K_batch(pk, 2.0 ** j * x, 2.0 ** j * y).sum().tobytes()


@pytest.mark.parametrize("step", [True, math.inf, 0.0, -STEP, math.nan])
def test_grid_step_must_be_a_positive_finite_number(step):
    # True was taken as a step of 1, inf reported "evenly divide"
    pk = ProjectionKernel(build_family("haar"), 1)
    with pytest.raises(ConfigurationError, match="grid_step must be positive and finite"):
        localize(pk, 0, np.zeros(1), step)


@pytest.mark.parametrize("step", [1e-320, 1e-300])
def test_a_corner_lattice_past_max_table_cells_is_refused(step):
    # 2W / 1e-320 is inf and round(inf) raised OverflowError; 1e-300 reached
    # numpy's "Maximum allowed size exceeded"
    pk = ProjectionKernel(build_family("haar"), 1)
    with pytest.raises(ConfigurationError, match="more than 268435456 lattice corners"):
        localize(pk, 0, np.zeros(1), step)


def test_the_corner_bound_counts_all_d_coordinates():
    # 513^3 corners are inside 2^28 and 1025^3 past it; only the axes are built
    assert [len(ax) for ax in _corner_axes(1.0, 2.0 ** -8, 3)] == [513] * 3
    with pytest.raises(ConfigurationError, match="in d = 3"):
        _corner_axes(1.0, 2.0 ** -9, 3)
    # the largest lattice in use, db6's in 2-D at step 2^-6, is far inside
    assert len(_corner_axes(build_family("db6").width, 2.0 ** -6, 2)[0]) == 641
