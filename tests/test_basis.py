import math

import numpy as np
import pytest

from wavedens.basis import (FAMILIES, build_daubechies, build_family,
                            build_haar, eval_phi)
from wavedens.errors import ConfigurationError

SQRT3 = math.sqrt(3.0)


def test_haar_is_indicator():
    sf = build_haar()
    xs = np.array([-0.5, 0.0, 0.3, 0.999, 1.0, 1.5])
    np.testing.assert_array_equal(eval_phi(sf, xs), [0, 1, 1, 1, 0, 0])


def test_filters_sum_to_two():
    for fam in ("haar", "db4", "db6"):
        sf = build_family(fam)
        assert abs(sum(sf.filter) - 2.0) < 1e-14


def test_supports():
    assert build_family("haar").support == (0, 1)
    assert build_family("db4").support == (0, 3)
    assert build_family("db6").support == (0, 5)


def test_db4_integer_values_closed_form():
    sf = build_daubechies(2)
    assert abs(eval_phi(sf, 1.0) - (1 + SQRT3) / 2) < 1e-9
    assert abs(eval_phi(sf, 2.0) - (1 - SQRT3) / 2) < 1e-9


def test_zero_outside_support():
    for fam in ("haar", "db4", "db6"):
        sf = build_family(fam)
        a, b = sf.support
        assert eval_phi(sf, a - 0.25) == 0.0
        assert eval_phi(sf, b + 0.25) == 0.0


def test_partition_of_unity():
    # sum_k phi(x - k) = 1; exact at dyadic table points, interpolation-
    # limited elsewhere
    for fam in ("db4", "db6"):
        sf = build_family(fam)
        xs = np.linspace(0.0, 1.0, 513, endpoint=False)
        total = np.zeros_like(xs)
        for k in range(-sf.width, 1):
            total += eval_phi(sf, xs - k)
        assert np.max(np.abs(total - 1.0)) < 1e-6


def test_refinement_relation_on_table():
    for fam in ("db4", "db6"):
        sf = build_family(fam)
        xs = np.linspace(*sf.support, 257)
        lhs = eval_phi(sf, xs)
        rhs = np.zeros_like(xs)
        for k, ck in enumerate(sf.filter):
            rhs += ck * eval_phi(sf, 2 * xs - k)
        assert np.max(np.abs(lhs - rhs)) < 1e-4


def test_gram_orthonormality():
    for fam in ("haar", "db4", "db6"):
        sf = build_family(fam)
        step = 2.0 ** -sf.table_depth
        a, b = sf.support
        xs = a + step * np.arange(sf.width << sf.table_depth)
        base = eval_phi(sf, xs)
        for k in range(0, sf.width):
            inner = float(np.sum(base * eval_phi(sf, xs + k)) * step)
            assert abs(inner - (1.0 if k == 0 else 0.0)) < 1e-4


def test_integral_is_one():
    # left-rule integral at table resolution
    for fam in ("haar", "db4", "db6"):
        sf = build_family(fam)
        integral = float(sf.values[:-1].sum() * 2.0 ** -sf.table_depth)
        assert abs(integral - 1.0) < 1e-12


def test_unknown_family_raises():
    with pytest.raises(ConfigurationError):
        build_family("meyer")
    with pytest.raises(ConfigurationError):
        build_daubechies(4)


def test_build_family_builds_each_of_families_by_its_name():
    assert [build_family(name).name for name in FAMILIES] == list(FAMILIES)
    for name in ("db8", "HAAR", "", None, ["haar"]):
        with pytest.raises(ConfigurationError, match="unknown scaling-function family"):
            build_family(name)
