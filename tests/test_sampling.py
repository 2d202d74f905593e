import math
import tracemalloc

import numpy as np
import pytest

from wavedens.errors import ConfigurationError
from wavedens.sampling import _PPF_NODES, Density, SeedSpec, _ndtr, draw, make_density

DENSITIES = ("uniform01", "cosine_bump", "trunc_gauss_mix")


def test_seed_spec_determinism():
    a = draw(make_density("uniform01", 2), SeedSpec(3, 1), 100)
    b = draw(make_density("uniform01", 2), SeedSpec(3, 1), 100)
    np.testing.assert_array_equal(a, b)


def test_distinct_replications_differ():
    den = make_density("cosine_bump", 1)
    a = draw(den, SeedSpec(3, 0), 100)
    b = draw(den, SeedSpec(3, 1), 100)
    assert np.max(np.abs(a - b)) > 1e-3


def test_draw_inside_unit_cube():
    for name in DENSITIES:
        den = make_density(name, 2)
        pts = draw(den, SeedSpec(0), 500)
        assert pts.shape == (500, 2)
        assert np.all(pts >= 0.0) and np.all(pts <= 1.0)


def test_pdf_integrates_to_one():
    xs = (np.arange(1 << 14) + 0.5) * 2.0 ** -14
    for name in DENSITIES:
        den = make_density(name, 1)
        mass = float(np.sum(den.pdf(xs[:, None])) * 2.0 ** -14)
        assert abs(mass - 1.0) < 1e-6


def test_cdf_matches_pdf():
    xs = np.linspace(0.01, 0.99, 23)
    for name in DENSITIES:
        den = make_density(name, 1)
        eps = 1e-6
        deriv = (den.cdf1(xs + eps) - den.cdf1(xs - eps)) / (2 * eps)
        pdf = den.pdf(xs[:, None])
        assert np.max(np.abs(deriv - pdf)) < 1e-4


def test_box_prob_consistency():
    den = make_density("trunc_gauss_mix", 2)
    p = den.box_prob([0.2, 0.3], [0.6, 0.9])
    q = ((den.cdf1(0.6) - den.cdf1(0.2)) * (den.cdf1(0.9) - den.cdf1(0.3)))
    # mixture does not factor across coordinates component-wise; compare
    # against the explicit component sum instead
    direct = 0.0
    for w, m in den.components:
        direct += w * float((m.cdf(0.6) - m.cdf(0.2)) * (m.cdf(0.9) - m.cdf(0.3)))
    assert abs(p - direct) < 1e-14
    assert isinstance(q, float) or q.shape == ()


def test_box_prob_grid_matches_scalar():
    den = make_density("cosine_bump", 2)
    axes = [np.linspace(0.1, 0.5, 5), np.linspace(0.2, 0.6, 4)]
    hi = np.array([0.8, 0.9])
    grid = den.box_prob_grid(axes, hi)
    assert grid.shape == (5, 4)
    for i in range(5):
        for k in range(4):
            scalar = den.box_prob([axes[0][i], axes[1][k]], hi)
            assert abs(grid[i, k] - scalar) < 1e-14


def _box_prob_grid_one_cdf_per_value(den, lo_axes, hi):
    """box_prob_grid as it was: cdf on hi[i] alone, then on the axis."""
    total = 0.0
    for w, m in den.components:
        factors = [np.maximum(float(m.cdf(hi[i])) - m.cdf(np.asarray(ax, float)), 0.0)
                   for i, ax in enumerate(lo_axes)]
        part = factors[0]
        for f in factors[1:]:
            part = np.multiply.outer(part, f)
        total = total + w * part
    return total


@pytest.mark.parametrize("name", DENSITIES)
def test_box_prob_grid_keeps_the_bits_of_a_cdf_call_per_value(name):
    # hi[i] now rides in the axis's cdf call; _ndtr's masks and numpy's SIMD
    # loops see other array lengths, and the values must not move
    rng = np.random.default_rng(7)
    for d in (1, 2):
        den = make_density(name, d)
        for size in (1, 2, 3, 7, 8, 9, 16, 33, 129):
            for _ in range(5):
                axes = [rng.uniform(-0.2, 1.2, size) for _ in range(d)]
                hi = rng.uniform(-0.1, 1.1, d)
                got = den.box_prob_grid(axes, hi)
                assert got.tobytes() == _box_prob_grid_one_cdf_per_value(den, axes, hi).tobytes()


@pytest.mark.parametrize("args", [(1.5,), (-1,), (2 ** 64,), (True,), (0, -1),
                                  (0, 2 ** 64), (0, 1.0), ("3",)])
def test_seed_spec_takes_integers_in_0_to_2_64(args):
    # SeedSpec(1.5) drew seed 1's stream; -1 and 2^64 raised OverflowError
    with pytest.raises(ConfigurationError, match=r"must be an integer in \[0, 2\^64\)"):
        SeedSpec(*args)
    top = 2 ** 64 - 1
    assert SeedSpec(top, top).rng().random() == SeedSpec(np.uint64(top), top).rng().random()


@pytest.mark.parametrize("n", [2.5, True, 0, -3, "5"])
def test_draw_takes_an_integer_n_of_at_least_1(n):
    # 2.5, True and "5" raised TypeError, 0 and -3 a bare ValueError
    with pytest.raises(ConfigurationError, match="n must be an integer >= 1"):
        draw(make_density("uniform01", 1), SeedSpec(0), n)


def test_draw_takes_a_numpy_integer_n():
    den = make_density("cosine_bump", 2)
    assert draw(den, SeedSpec(4), np.int64(7)).tobytes() == draw(den, SeedSpec(4), 7).tobytes()


def test_empirical_frequencies_match_pdf():
    den = make_density("trunc_gauss_mix", 1)
    pts = draw(den, SeedSpec(9), 200_000)[:, 0]
    hist, edges = np.histogram(pts, bins=32, range=(0.0, 1.0), density=True)
    mids = 0.5 * (edges[:-1] + edges[1:])
    cell_avg = np.array([den.box_prob([lo], [hi]) for lo, hi in
                         zip(edges[:-1], edges[1:])]) * 32
    assert np.max(np.abs(hist - cell_avg)) < 0.06


def test_sup_on():
    uni = make_density("uniform01", 1)
    assert uni.sup_on(((0.25,), (0.75,))) == 1.0
    cos = make_density("cosine_bump", 1)
    assert abs(cos.sup_on(((0.0,), (1.0,))) - 1.5) < 1e-9
    assert abs(cos.sup_on(((0.25,), (0.75,))) - 1.0) < 1e-9
    # a reversed box used to return 1.0; a NaN corner fails the same check
    for box in (((0.75,), (0.25,)), ((float("nan"),), (0.75,)), ((0.25,), (float("nan"),))):
        with pytest.raises(ConfigurationError, match="lo <= hi"):
            uni.sup_on(box)
    with pytest.raises(ConfigurationError, match="lo <= hi"):
        make_density("uniform01", 2).sup_on(((0.25, 0.75), (0.75, 0.5)))


def test_sup_on_in_3d_searches_at_most_257_squared_points():
    # the search grid had 257^3 = 16.97M points in 3-D, about 1 GB and 1-3 s a
    # call, and 4.4e9 in 4-D; now 40^3 and 16^4.  The pinned value is the
    # 257^3 search's
    box = ((0.25, 0.1, 0.3), (0.75, 0.6, 0.95))
    tracemalloc.start()
    try:
        got = make_density("trunc_gauss_mix", 3).sup_on(box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(19.344059458131085, rel=1e-15, abs=0.0)
    assert peak < 16e6
    assert make_density("cosine_bump", 3).sup_on(((0.0,) * 3, (1.0,) * 3)) == 1.5 ** 3
    assert make_density("cosine_bump", 4).sup_on(((0.0,) * 4, (1.0,) * 4)) == 1.5 ** 4


def test_make_density_errors():
    with pytest.raises(ConfigurationError):
        make_density("gaussian", 1)
    with pytest.raises(ConfigurationError):
        make_density("uniform01", 0)


def test_draw_errors():
    with pytest.raises(ValueError):
        draw(make_density("uniform01", 1), SeedSpec(0), 0)


def test_density_pdf_shapes():
    den = make_density("cosine_bump", 2)
    single = den.pdf(np.array([0.5, 0.5]))
    assert isinstance(single, float)
    batch = den.pdf(np.full((7, 2), 0.5))
    assert batch.shape == (7,)
    assert abs(batch[0] - single) < 1e-15


def test_density_pdf_rejects_other_point_shapes():
    den1 = make_density("cosine_bump", 1)
    with pytest.raises(ValueError):
        den1.pdf(np.array([0.1, 0.2, 0.3]))  # was the product of three densities
    assert isinstance(den1.pdf(np.array([0.1])), float)
    assert den1.pdf(np.array([[0.1], [0.2], [0.3]])).shape == (3,)
    assert isinstance(den1.pdf(0.1), float)  # a scalar is one point at d = 1
    den2 = make_density("cosine_bump", 2)
    for bad in (np.array([0.5]), np.array([0.5, 0.5, 0.5]), np.full((4, 3), 0.5),
                np.full((2, 2, 2), 0.5)):
        with pytest.raises(ValueError):
            den2.pdf(bad)


def test_box_prob_grid_rejects_another_number_of_axes():
    den = make_density("trunc_gauss_mix", 2)
    with pytest.raises(ValueError):  # was the first coordinate's slab alone
        den.box_prob_grid([np.array([0.2])], [0.6, 0.6])
    with pytest.raises(ValueError):  # was an IndexError
        den.box_prob_grid([np.array([0.2])] * 3, [0.6, 0.6])
    grid = den.box_prob_grid([np.array([0.2])] * 2, [0.6, 0.6])
    assert grid.shape == (1, 1)
    assert grid[0, 0] == den.box_prob([0.2, 0.2], [0.6, 0.6])


def _bisection_ppf(marginal, u):
    """The 60-step bisection that inverted cosine_bump before Newton did."""
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = marginal.cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cosine_ppf_matches_bisection_to_rounding():
    marginal = make_density("cosine_bump", 1).components[0][1]
    edges = np.array([0.0, 5e-324, 1e-300, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0])
    u = np.concatenate([SeedSpec(20260823).rng().random(1 << 16), edges])
    x = marginal.ppf(u)
    assert np.max(np.abs(x - _bisection_ppf(marginal, u))) <= 4.5e-16
    assert np.max(np.abs(marginal.cdf(x) - u)) <= 2.3e-16
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert np.all(np.diff(x[np.argsort(u)]) >= 0.0)
    assert marginal.ppf(np.array([0.0]))[0] == 0.0
    assert marginal.ppf(np.array([1.0]))[0] == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cosine_ppf_at_and_between_its_table_nodes():
    # ppf interpolates a table of the inverse at u = i / N: check at every
    # node, every node midpoint and one ulp either side of 64 nodes
    marginal = make_density("cosine_bump", 1).components[0][1]
    nodes = np.arange(_PPF_NODES + 1) / _PPF_NODES
    mids = (np.arange(_PPF_NODES) + 0.5) / _PPF_NODES
    some = nodes[_PPF_NODES // 64::_PPF_NODES // 64]
    near = np.concatenate([np.nextafter(some, -1.0), np.nextafter(some, 2.0)])
    u = np.sort(np.clip(np.concatenate([nodes, mids, near]), 0.0, 1.0))
    x = marginal.ppf(u)
    assert np.max(np.abs(x - _bisection_ppf(marginal, u))) <= 4.5e-16
    assert np.max(np.abs(marginal.cdf(x) - u)) <= 2.3e-16
    assert np.all(np.diff(x) >= 0.0)


def _normal_points():
    return np.concatenate([np.linspace(-8.0, 8.0, 160001),
                           SeedSpec(20261020).rng().normal(0.0, 3.0, 1 << 14)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ndtr_matches_scipy_ndtr():
    # _ndtr ports the Cephes ndtr that scipy wraps; only exp differs
    from scipy.special import ndtr
    t = _normal_points()
    assert np.max(np.abs(_ndtr(t) - ndtr(t)) / ndtr(t)) <= 1e-13
    # the exp(-w^2) R(w) / S(w) tail from w = 8, to where Phi is subnormal
    t = -np.linspace(8.0 * math.sqrt(2.0), 37.0, 20001)
    assert np.max(np.abs(_ndtr(t) - ndtr(t)) / ndtr(t)) <= 1e-13
    # and against the C library's erfc, an independent approximation
    t = _normal_points()[::7]
    ref = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in t])
    assert np.max(np.abs(_ndtr(t) - ref) / ref) <= 1e-13


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ndtr_center_symmetry_and_limits():
    assert _ndtr(0.0) == _ndtr(-0.0) == 0.5
    t = _normal_points()
    assert np.max(np.abs(_ndtr(t) + _ndtr(-t) - 1.0)) <= 2.0 ** -53
    edges = np.array([np.inf, 40.0, 1e300, -np.inf, -40.0, -1e300])
    assert _ndtr(edges).tolist() == [1.0] * 3 + [0.0] * 3
    assert np.isnan(_ndtr(np.nan))
    assert np.all(np.diff(_ndtr(np.linspace(-8.0, 8.0, 160001))) >= 0.0)


def test_ndtr_keeps_the_shapes_of_scipy_ndtr():
    from scipy.special import ndtr
    for t in (0.3, np.float64(-1.2), np.array(2.5), [0.1, -0.4], np.zeros((2, 3)),
              np.zeros(0)):
        got, ref = _ndtr(t), ndtr(t)
        assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
        assert got.dtype == np.float64
