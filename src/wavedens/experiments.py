"""Resolution schedules and Monte Carlo drivers for the two theorems.

The CRS regime keeps n h_n / log n growing (uniform consistency, exact
LIL fluctuation rate); the ER regime pins it near a constant c, where
uniform consistency fails.  Each (n, replication) pair owns a
counter-based stream, so every record is reproducible in isolation.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .basis import build_family
from .errors import ConfigurationError
from .estimator import _expected_at, fit, make_grid, sup_deviation
from .kernel import ProjectionKernel, localize
from .limitsets import theorem2_threshold
from .sampling import SeedSpec, draw, make_density

DEFAULT_RATIO_THRESHOLD_FRACTION = 0.25


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class ResolutionSchedule:
    regime: str  # "CRS" | "ER"
    params: dict
    dimension: int = 1

    def __post_init__(self):
        if self.regime == "CRS":
            g = self.params.get("gamma")
            if not isinstance(g, numbers.Real) or not 0.0 < g < 1.0:
                raise ConfigurationError("CRS schedule needs gamma in (0, 1)")
        elif self.regime == "ER":
            c = self.params.get("c")
            if not (isinstance(c, numbers.Real) and 0.0 < c < math.inf):
                raise ConfigurationError("ER schedule needs a finite c > 0")
        else:
            raise ConfigurationError(f"unknown schedule regime {self.regime!r}")


def schedule_level(schedule: ResolutionSchedule, n: int) -> int:
    """Multiresolution level j_n for sample size n."""
    if n < 4:
        raise ConfigurationError("n must be >= 4")
    d = schedule.dimension
    if schedule.regime == "CRS":
        return max(1, int(math.floor(schedule.params["gamma"] * math.log2(n) / d)))
    c = schedule.params["c"]
    return max(1, int(round(math.log2(n / (c * math.log(n))) / d)))


def realized_ratio(schedule: ResolutionSchedule, n: int) -> float:
    """The realized n h_n / log n at the quantized level."""
    j = schedule_level(schedule, n)
    h = 2.0 ** (-schedule.dimension * j)
    return n * h / math.log(n)


@dataclass(frozen=True)
class ExperimentConfig:
    theorem: int
    density: str
    dimension: int
    basis: str
    h: tuple  # hypercube H as (lo, hi) per coordinate
    schedule: ResolutionSchedule
    n_grid: tuple
    replications: int
    base_seed: int
    grid: str = "dyadic"
    output: str | None = None
    ratio_threshold: float | None = None  # theorem 2; None = derive from limit sets

    def validate(self):
        """Check the config's invariants; returns the density and the
        scaling function it names."""
        if not _is_int(self.theorem) or self.theorem not in (1, 2):
            raise ConfigurationError("theorem must be 1 or 2")
        if not _is_int(self.dimension) or self.dimension < 1:
            raise ConfigurationError("dimension must be an integer >= 1")
        if not self.n_grid:
            raise ConfigurationError("n_grid must be nonempty")
        if not all(_is_int(n) for n in self.n_grid):
            raise ConfigurationError("n_grid entries must be integers")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ConfigurationError("n_grid must be strictly increasing")
        if min(self.n_grid) < 4:
            raise ConfigurationError("n_grid entries must be >= 4")
        if not _is_int(self.replications) or self.replications < 1:
            raise ConfigurationError("replications must be an integer >= 1")
        if not _is_int(self.base_seed) or not 0 <= self.base_seed < 2 ** 64:
            raise ConfigurationError("base_seed must be an integer in [0, 2^64)")
        lo, hi = (np.atleast_1d(np.asarray(v, float)) for v in self.h)
        if len(lo) != self.dimension or len(hi) != self.dimension:
            raise ConfigurationError("H must have one (lo, hi) pair per dimension")
        if not np.all((0.0 <= lo) & (lo < hi) & (hi <= 1.0)):  # NaN fails too
            raise ConfigurationError("H must be a nondegenerate box inside [0, 1]^d")
        if self.schedule.dimension != self.dimension:
            raise ConfigurationError("schedule dimension mismatch")
        if self.theorem == 1 and self.schedule.regime != "CRS":
            raise ConfigurationError("theorem 1 requires the CRS regime")
        if self.grid not in ("dyadic", "uniform"):
            raise ConfigurationError(f"unknown grid kind {self.grid!r}")
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigurationError("output must be a path string")
        rt = self.ratio_threshold
        if rt is not None and not (isinstance(rt, numbers.Real) and 0.0 < rt < math.inf):
            raise ConfigurationError("ratio_threshold must be a positive number")
        return make_density(self.density, self.dimension), build_family(self.basis)

    def to_dict(self) -> dict:
        lo, hi = (np.atleast_1d(np.asarray(v, float)) for v in self.h)
        return {
            "theorem": self.theorem,
            "density": self.density,
            "dimension": self.dimension,
            "basis": self.basis,
            "h": [list(lo), list(hi)],
            "schedule": {"regime": self.schedule.regime, **self.schedule.params},
            "n_grid": list(self.n_grid),
            "replications": self.replications,
            "base_seed": self.base_seed,
            "grid": self.grid,
            "output": self.output,
            "ratio_threshold": self.ratio_threshold,
            "log_convention": "natural",
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict) or not isinstance(data["schedule"], dict):
            raise ConfigurationError("the config and its schedule must be JSON objects")
        sched = dict(data["schedule"])
        regime = sched.pop("regime")
        schedule = ResolutionSchedule(regime, sched, data["dimension"])
        h = data["h"]
        if not (isinstance(h, list) and len(h) == 2 and all(
                isinstance(v, list) and all(isinstance(b, numbers.Real) for b in v)
                for v in h)):
            raise ConfigurationError("h must be [lo, hi] with one list of numbers each")
        if not isinstance(data["n_grid"], list):
            raise ConfigurationError("n_grid must be a list")
        return cls(
            theorem=data["theorem"],
            density=data["density"],
            dimension=data["dimension"],
            basis=data["basis"],
            h=(tuple(h[0]), tuple(h[1])),
            schedule=schedule,
            n_grid=tuple(data["n_grid"]),
            replications=data["replications"],
            base_seed=data["base_seed"],
            grid=data.get("grid", "dyadic"),
            output=data.get("output"),
            ratio_threshold=data.get("ratio_threshold"),
        )


@dataclass(frozen=True)
class RunRecord:
    replication: int
    n: int
    level: int
    sup_dev: float
    inf_dev: float
    argmax: tuple
    stream_index: int


def _thread_count() -> int:
    raw = os.environ.get("WAVEDENS_THREADS", "0")
    try:
        k = int(raw)
    except ValueError:
        k = 0
    if k <= 0:
        k = min(os.cpu_count() or 1, 8)
    return k


def _run_pairs(config: ExperimentConfig, density, basis, mode: str) -> dict:
    """Execute all (n, replication) pairs; returns {n: (per-n facts, records
    in replication order)} in n_grid order.  One thread pool serves every n;
    its map keeps replication order."""
    threads = _thread_count()
    groups = {}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        run = pool.map if threads > 1 and config.replications > 1 else map
        for n_idx, n in enumerate(config.n_grid):
            j = schedule_level(config.schedule, n)
            grid = make_grid(config.h, j, config.grid)
            expected = None
            if mode == "theorem1":
                expected = _expected_at(density, basis, j, grid.points)
            info = {"level": j, "ratio": realized_ratio(config.schedule, n),
                    "grid_size": len(grid)}

            def one(rep, n=n, j=j, grid=grid, expected=expected, n_idx=n_idx):
                idx = n_idx * config.replications + rep
                sample = draw(density, SeedSpec(config.base_seed, idx), n)
                est = fit(basis, j, sample)
                stat = sup_deviation(est, density, grid, mode, expected=expected)
                return RunRecord(rep, n, j, stat.sup_dev, stat.inf_dev,
                                 tuple(stat.argmax), idx)

            groups[n] = (info, list(run(one, range(config.replications))))
    return groups


def _kendall_tau(values, tol: float = 0.0) -> float:
    """Kendall trend statistic; pairs closer than tol count as ties.

    The tolerance absorbs Monte Carlo noise in medians (standard error
    about 1.25 sd / sqrt(replications)), so a flat-but-noisy sequence
    reads as trendless rather than as a reversal.
    """
    conc = disc = 0
    for i in range(len(values)):
        for k in range(i + 1, len(values)):
            if values[k] > values[i] + tol:
                conc += 1
            elif values[k] < values[i] - tol:
                disc += 1
    pairs = len(values) * (len(values) - 1) // 2
    return (conc - disc) / pairs if pairs else 0.0


def _quantiles(xs):
    arr = np.asarray(xs, float)
    return {"median": float(np.median(arr)),
            "q25": float(np.quantile(arr, 0.25)),
            "q75": float(np.quantile(arr, 0.75)),
            "min": float(arr.min()), "max": float(arr.max())}


def run_theorem1(config: ExperimentConfig) -> dict:
    """Monte Carlo check of the exact LIL fluctuation rate under CRS."""
    if config.schedule.regime != "CRS":
        raise ConfigurationError("theorem 1 experiment requires a CRS schedule")
    groups = _run_pairs(config, *config.validate(), "theorem1")
    summary = {}
    for n, (info, recs) in groups.items():
        summary[str(n)] = {
            **info,
            "sup_dev": _quantiles([r.sup_dev for r in recs]),
            "inf_dev": _quantiles([r.inf_dev for r in recs]),
        }
    top = list(config.n_grid)[-3:]
    sup_meds = [summary[str(n)]["sup_dev"]["median"] for n in top]
    inf_meds = [summary[str(n)]["inf_dev"]["median"] for n in top]
    last = summary[str(config.n_grid[-1])]
    predicates = {
        "median_sup_in_band": 0.75 <= last["sup_dev"]["median"] <= 1.25,
        "median_inf_in_band": -1.25 <= last["inf_dev"]["median"] <= -0.75,
        "sup_trend_toward_one":
            _kendall_tau([abs(m - 1.0) for m in sup_meds], tol=0.03) <= 0.0,
        "inf_trend_toward_minus_one":
            _kendall_tau([abs(m + 1.0) for m in inf_meds], tol=0.03) <= 0.0,
    }
    # finite-n proxy for the dense-range statement: spread of attained values
    empirical_range = [last["inf_dev"]["median"], last["sup_dev"]["median"]]
    records = [r for _, recs in groups.values() for r in recs]
    return {"config": config.to_dict(), "records": records,
            "summary": summary, "empirical_range_last_n": empirical_range,
            "predicates": predicates, "passed": all(predicates.values())}


def _ratio_threshold(config: ExperimentConfig, density, basis) -> tuple:
    if config.ratio_threshold is not None:
        return float(config.ratio_threshold), None
    if config.schedule.regime == "ER":
        pk = ProjectionKernel(basis, config.dimension)
        step = 2.0 ** -10 if config.dimension == 1 else 2.0 ** -5
        lk = localize(pk, 0, np.zeros(config.dimension), step)
        delta = theorem2_threshold(density, config.h, config.schedule.params["c"], lk)
        return DEFAULT_RATIO_THRESHOLD_FRACTION * delta, delta
    # CRS contrast run: no limit-set delta; use the bare fraction
    return DEFAULT_RATIO_THRESHOLD_FRACTION, None


def run_theorem2(config: ExperimentConfig) -> dict:
    """Monte Carlo check of non-consistency under ER scaling.

    Under an ER schedule the headline is the minimum over n of the
    fraction of replications whose sup relative deviation exceeds the
    threshold; under a CRS schedule (contrast run) the headline is the
    fraction below the threshold at the largest n.
    """
    density, basis = config.validate()
    threshold, delta = _ratio_threshold(config, density, basis)
    groups = _run_pairs(config, density, basis, "ratio")
    summary = {}
    for n, (info, recs) in groups.items():
        sups = [r.sup_dev for r in recs]
        frac = float(np.mean([s >= threshold for s in sups]))
        summary[str(n)] = {**info, "sup_ratio_dev": _quantiles(sups),
                           "fraction_exceeding": frac}
    fractions = [summary[str(n)]["fraction_exceeding"] for n in config.n_grid]
    last_frac = fractions[-1]
    if config.schedule.regime == "ER":
        headline = min(fractions)
        predicates = {"min_fraction_exceeding_ge_090": headline >= 0.9}
    else:
        headline = 1.0 - last_frac
        predicates = {"fraction_below_at_largest_n_ge_090": headline >= 0.9}
    records = [r for _, recs in groups.values() for r in recs]
    return {"config": config.to_dict(), "records": records, "summary": summary,
            "threshold": threshold, "limit_delta": delta,
            "headline_fraction": headline,
            "predicates": predicates, "passed": all(predicates.values())}


def _format_point(pt) -> str:
    return ";".join(repr(float(v)) for v in pt)


def emit_report(report: dict, path: str):
    """Write records CSV and summary JSON; byte-deterministic per config."""
    cfg = report["config"]
    csv_path, json_path = path + ".csv", path + ".json"
    lines = ["theorem,n,j,rep,sup_dev,inf_dev,argmax,seed"]
    for r in report["records"]:
        lines.append(",".join([
            str(cfg["theorem"]), str(r.n), str(r.level), str(r.replication),
            repr(r.sup_dev), repr(r.inf_dev), _format_point(r.argmax),
            str(r.stream_index),
        ]))
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    payload = {k: v for k, v in report.items() if k != "records"}
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
