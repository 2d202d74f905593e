"""Every malformed argument raises ConfigurationError, with its message.

These ten checks raised a bare ValueError, so the class a caller had to
catch depended on the module that did the checking."""

import math

import numpy as np
import pytest

from wavedens.basis import build_family
from wavedens.errors import ConfigurationError
from wavedens.estimator import evaluate, expected_estimator, fit, make_grid, sup_deviation
from wavedens.increments import g_n_x, g_tilde_n_x, relation_check
from wavedens.kernel import ProjectionKernel, localize
from wavedens.limitsets import gamma_interval, theorem2_threshold
from wavedens.sampling import SeedSpec, draw, make_density

HAAR = build_family("haar")
UNIFORM = make_density("uniform01", 1)
SAMPLE = draw(UNIFORM, SeedSpec(3), 200)
STEP = 2.0 ** -4


def _lk():
    return localize(ProjectionKernel(HAAR, 1), 0, np.zeros(1), STEP)


SITES = {
    "fit_table_cells": (
        lambda: fit(HAAR, 10, np.array([0.5, 1e12])),
        r"sample spans 1\.024e\+15 coefficient cells at level j=10, more than the "
        r"268435456 fit allocates"),
    "evaluate_finite": (
        lambda: evaluate(fit(HAAR, 2, SAMPLE), [math.nan]),
        "^points must be finite$"),
    "expected_estimator_finite": (
        lambda: expected_estimator(UNIFORM, HAAR, 2, [math.inf]),
        "^points must be finite$"),
    "sup_deviation_density": (  # uniform01 is 0 on [1.5, 2]
        lambda: sup_deviation(fit(HAAR, 2, SAMPLE), UNIFORM, make_grid(((1.5,), (2.0,)), 2),
                              "ratio"),
        "^density must be strictly positive on the grid$"),
    "corner_counts_fx": (
        lambda: g_n_x(SAMPLE, UNIFORM, [1.5], 2, grid_step=STEP),
        r"^f\(x\) must be positive$"),
    "relation_check_fx": (
        lambda: relation_check(SAMPLE, UNIFORM, [1.5], 2, HAAR),
        r"^f\(x\) must be positive$"),
    "box_prob_grid_axes": (
        lambda: UNIFORM.box_prob_grid([np.zeros(2), np.zeros(2)], [1.0]),
        "^lo_axes must hold d = 1 axes, got 2$"),
    "g_tilde_n_x_c": (
        lambda: g_tilde_n_x(SAMPLE, UNIFORM, [0.5], 2, 0.0, grid_step=STEP),
        "^c must be positive and finite, got 0.0$"),
    "gamma_interval_v": (
        lambda: gamma_interval(_lk(), -1.0),
        "^v must be positive and finite, got -1.0$"),
    "theorem2_threshold_c": (
        lambda: theorem2_threshold(UNIFORM, ((0.25,), (0.75,)), math.inf, _lk()),
        "^ER constant c must be positive and finite, got inf$"),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_a_malformed_argument_raises_configuration_error(site):
    call, message = SITES[site]
    with pytest.raises(ConfigurationError, match=message):
        call()
