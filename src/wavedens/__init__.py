"""Multivariate linear wavelet-projection density estimation, with the
empirical-process machinery and Monte Carlo experiments that probe its
uniform fluctuation rate and its failure of consistency under
Erdos-Renyi-type bandwidths."""

from .basis import (ScalingFunction, build_daubechies, build_family,
                    build_haar, eval_phi)
from .errors import ConfigurationError, NumericalError
from .estimator import (EvaluationGrid, SupStatistic, WaveletDensityEstimator,
                        evaluate, evaluate_kernel_form, expected_estimator,
                        fit, make_grid, sup_deviation)
from .experiments import (ExperimentConfig, ResolutionSchedule, RunRecord,
                          emit_report, realized_ratio, run_theorem1,
                          run_theorem2, schedule_level)
from .increments import (IncrementFunction, cell_density, from_cell_density,
                         g_n_x, g_tilde_n_x, relation_check, theta)
from .kernel import (LocalizedKernel, ProjectionKernel, cell_lower_corners,
                     kernel_K_batch, kernel_Kj_batch, localize)
from .limitsets import (IntervalJ, gamma_interval, h_poisson, strassen_extremal,
                        theorem2_threshold)
from .sampling import Density, SeedSpec, draw, make_density

__version__ = "0.1.0"

__all__ = [
    "ScalingFunction", "build_daubechies", "build_family", "build_haar",
    "eval_phi",
    "ConfigurationError", "NumericalError",
    "EvaluationGrid", "SupStatistic", "WaveletDensityEstimator",
    "evaluate", "evaluate_kernel_form", "expected_estimator", "fit",
    "make_grid", "sup_deviation",
    "ExperimentConfig", "ResolutionSchedule", "RunRecord", "emit_report",
    "realized_ratio", "run_theorem1", "run_theorem2", "schedule_level",
    "IncrementFunction", "cell_density", "from_cell_density", "g_n_x",
    "g_tilde_n_x", "relation_check", "theta",
    "LocalizedKernel", "ProjectionKernel", "cell_lower_corners",
    "kernel_K_batch", "kernel_Kj_batch", "localize",
    "IntervalJ", "gamma_interval", "h_poisson", "strassen_extremal",
    "theorem2_threshold",
    "Density", "SeedSpec", "draw", "make_density",
    "__version__",
]
