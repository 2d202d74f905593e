"""Property tests of the corner-lattice primitives that kernel, increments
and limitsets share: the lattice constructor, box summation and its
alternating-difference inverse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wavedens.basis import build_family
from wavedens.errors import ConfigurationError
from wavedens.increments import g_n_x
from wavedens.kernel import ProjectionKernel, _box_diff, _box_sum, localize
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
