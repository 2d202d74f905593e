"""Property tests of the corner-lattice primitives that kernel, increments
and limitsets share: the lattice constructor, cell counting, box summation
and its alternating-difference inverse."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wavedens.basis import build_family
from wavedens.errors import ConfigurationError
from wavedens.increments import _cell_counts, g_n_x, g_tilde_n_x
from wavedens.kernel import (ProjectionKernel, _box_diff, _box_sum,
                             _corner_axes, localize)
from wavedens.sampling import SeedSpec, draw, make_density

BASES = {name: build_family(name) for name in ("haar", "db4")}

cell_arrays = st.integers(1, 2).flatmap(lambda d: arrays(
    float, st.tuples(*[st.integers(1, 12)] * d),
    elements=st.floats(-1e3, 1e3, allow_subnormal=False)))


@settings(max_examples=200, deadline=None)
@given(cell_arrays)
def test_box_diff_inverts_box_sum(cells):
    corners = _box_sum(cells)
    assert corners.shape == tuple(k + 1 for k in cells.shape)
    for ax in range(cells.ndim):  # g vanishes on the top faces
        assert not np.any(np.take(corners, -1, axis=ax))
    tol = 1e-12 * max(1.0, float(np.abs(cells).sum()))
    np.testing.assert_allclose(corners[(0,) * cells.ndim], cells.sum(), rtol=0, atol=tol)
    np.testing.assert_allclose(_box_diff(corners), cells, rtol=0, atol=4 * tol)


def _increment(d, step, halfwidth):
    density = make_density("uniform01", d)
    sample = draw(density, SeedSpec(5), 50)
    return g_n_x(sample, density, np.full(d, 0.5), 2, halfwidth=halfwidth,
                 grid_step=step)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(BASES)), st.integers(1, 2), st.integers(0, 4))
def test_localize_and_increments_share_the_lattice(name, d, k):
    basis = BASES[name]
    step = 2.0 ** -k
    lk = localize(ProjectionKernel(basis, d), 0, np.zeros(d), step)
    g = _increment(d, step, float(basis.width))
    assert len(lk.axes) == len(g.axes) == d
    for a, b in zip(lk.axes, g.axes):
        np.testing.assert_array_equal(a, b)
    assert lk.values.shape == g.values.shape


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(BASES)), st.integers(2, 40), st.floats(0.05, 0.95))
def test_step_not_dividing_the_box_is_rejected(name, m, frac):
    basis = BASES[name]
    step = 2.0 * basis.width / (m + frac)
    with pytest.raises(ConfigurationError):
        localize(ProjectionKernel(basis, 1), 0, np.zeros(1), step)
    with pytest.raises(ConfigurationError):
        _increment(1, step, float(basis.width))


def _points_on_the_lattice(rng, axes, n):
    """n points per coordinate: random ones over a box 20% wider than the
    lattice, one on every edge, the last edge repeated, the float next to
    every edge on both sides, and the floats just outside both ends."""
    cols = []
    for ax in axes:
        col = np.concatenate([
            rng.uniform(1.2 * ax[0], 1.2 * ax[-1], n), ax, np.full(5, ax[-1]),
            np.nextafter(ax, -math.inf), np.nextafter(ax, math.inf)])
        cols.append(col)
    size = max(len(c) for c in cols)
    return np.stack([rng.permutation(np.resize(c, size)) for c in cols], axis=1)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("halfwidth,m", [(1.0, 2), (1.0, 128), (3.0, 96),
                                         (1.0, 10), (5.0, 12)])
def test_cell_counts_equal_histogramdd(d, halfwidth, m):
    step = 2.0 * halfwidth / m
    axes = _corner_axes(halfwidth, step, d)
    rng = np.random.default_rng(m + d)
    u = _points_on_the_lattice(rng, axes, 400)
    ref, _ = np.histogramdd(u, bins=list(axes))
    # the float floor misses the cell of a point next to an edge: one too
    # high on every lattice, and one too low where the step is not a power
    # of two and the edges are rounded, so both corrections are exercised
    ax = axes[0]
    v = u[(u[:, 0] >= ax[0]) & (u[:, 0] < ax[-1]), 0]
    raw = np.floor((v - ax[0]) / step)
    cell = np.searchsorted(ax, v, side="right") - 1
    assert np.any(raw > cell)
    assert np.any(raw < cell) == (m in (10, 12))
    got = _cell_counts(u, axes, step)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    # the last edge is in the last cell; the float beyond it in none
    last = np.full((1, d), axes[0][-1])
    assert _cell_counts(last, axes, step)[(-1,) * d] == 1.0
    assert not _cell_counts(np.nextafter(last, math.inf), axes, step).any()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("increment", [g_n_x, g_tilde_n_x])
def test_increment_functions_reject_a_non_finite_sample(increment, bad):
    # histogramdd dropped NaN and infinite rows without a word
    density = make_density("uniform01", 1)
    sample = draw(density, SeedSpec(5), 50)
    sample[7, 0] = bad
    args = (1.0,) if increment is g_tilde_n_x else ()
    with pytest.raises(ValueError, match="sample must be finite"):
        increment(sample, density, [0.5], 2, *args, grid_step=2.0 ** -4)


def test_increment_functions_drop_a_far_point_without_a_warning():
    # 2^10 (1e308 - 0.5) overflows to inf: off the lattice, as the point is
    density = make_density("uniform01", 1)
    sample = np.array([[0.5], [0.5 + 2.0 ** -12], [1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        g = g_tilde_n_x(sample, density, [0.5], 10, 1.0, grid_step=2.0 ** -4)
    # the same values as with the point at 0.9, also off the lattice
    ref = g_tilde_n_x(np.array([[0.5], [0.5 + 2.0 ** -12], [0.9]]), density,
                      [0.5], 10, 1.0, grid_step=2.0 ** -4)
    assert g.values.any() and np.array_equal(g.values, ref.values)
