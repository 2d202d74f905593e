"""Resolution schedules and Monte Carlo drivers for the two theorems.

The CRS regime keeps n h_n / log n growing (uniform consistency, exact
LIL fluctuation rate); the ER regime pins it near a constant c, where
uniform consistency fails.  Each (n, replication) pair owns a
counter-based stream, so every record is reproducible in isolation.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from ._threads import thread_count
from .basis import build_family
from .errors import ConfigurationError
from .estimator import expected_estimator, fit, make_grid, sup_deviation
from .kernel import ProjectionKernel, localize
from .limitsets import theorem2_threshold
from .sampling import (SeedSpec, _as_point, _check_dimension, _is_int, _is_real, draw,
                       make_density)

DEFAULT_RATIO_THRESHOLD_FRACTION = 0.25


@dataclass(frozen=True)
class ResolutionSchedule:
    regime: str  # "CRS" | "ER"
    params: dict
    dimension: int = 1

    def __post_init__(self):
        _check_dimension(self.dimension)
        if self.regime == "CRS":
            g = self.params.get("gamma")
            if not (_is_real(g) and 0.0 < g < 1.0):
                raise ConfigurationError("CRS schedule needs gamma in (0, 1)")
        elif self.regime == "ER":
            c = self.params.get("c")
            if not (_is_real(c) and 0.0 < c < math.inf):
                raise ConfigurationError("ER schedule needs a finite c > 0")
        else:
            raise ConfigurationError(f"unknown schedule regime {self.regime!r}")
        if len(self.params) > 1:  # the param checked above, and nothing else
            raise ConfigurationError(
                f"{self.regime} schedule takes one param, got {list(self.params)}")


def schedule_level(schedule: ResolutionSchedule, n: int) -> int:
    """Multiresolution level j_n for an integer sample size n >= 4."""
    if not (_is_int(n) and n >= 4):
        raise ConfigurationError(f"n must be an integer >= 4, got {n!r}")
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

    def validate(self):
        """Check the config's invariants; returns the density and the
        scaling function it names."""
        if not _is_int(self.theorem) or self.theorem not in (1, 2):
            raise ConfigurationError("theorem must be 1 or 2")
        _check_dimension(self.dimension)
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
        SeedSpec(self.base_seed)
        lo, hi = (_as_point(v, self.dimension) for v in self.h)
        if not np.all((0.0 <= lo) & (lo < hi) & (hi <= 1.0)):  # NaN fails too
            raise ConfigurationError("H must be a nondegenerate box inside [0, 1]^d")
        if self.schedule.dimension != self.dimension:
            raise ConfigurationError("schedule dimension mismatch")
        if self.theorem == 1 and self.schedule.regime != "CRS":
            raise ConfigurationError("theorem 1 requires the CRS regime")
        return make_density(self.density, self.dimension), build_family(self.basis)

    def to_dict(self) -> dict:
        """The config as JSON data: each field under its name, as is but for
        the three whose JSON form differs, and the log convention."""
        lo, hi = (_as_point(v, self.dimension) for v in self.h)
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "h": [list(lo), list(hi)],
                "schedule": {"regime": self.schedule.regime, **self.schedule.params},
                "n_grid": list(self.n_grid), "log_convention": "natural"}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict) or not isinstance(data["schedule"], dict):
            raise ConfigurationError("the config and its schedule must be JSON objects")
        unknown = set(data) - {f.name for f in fields(cls)} - {"log_convention"}
        if unknown:
            raise ConfigurationError(f"unknown config keys {sorted(unknown)}")
        if data.get("log_convention", "natural") != "natural":
            raise ConfigurationError('log_convention must be "natural"')
        sched = dict(data["schedule"])
        regime = sched.pop("regime")
        schedule = ResolutionSchedule(regime, sched, data["dimension"])
        h = data["h"]
        if not (isinstance(h, list) and len(h) == 2 and all(
                isinstance(v, list) and all(_is_real(b) for b in v)
                for v in h)):
            raise ConfigurationError("h must be [lo, hi] with one list of numbers each")
        if not isinstance(data["n_grid"], list):
            raise ConfigurationError("n_grid must be a list")
        # data[name]: a missing key raises KeyError, where cls(**data) would
        # raise TypeError
        return cls(**{**{f.name: data[f.name] for f in fields(cls)},
                      "h": (tuple(h[0]), tuple(h[1])), "schedule": schedule,
                      "n_grid": tuple(data["n_grid"])})


@dataclass(frozen=True)
class RunRecord:
    replication: int
    n: int
    level: int
    sup_dev: float
    inf_dev: float
    argmax: tuple
    stream_index: int


def _run_pairs(config: ExperimentConfig, density, basis, mode: str) -> dict:
    """Execute all (n, replication) pairs; returns {n: (per-n facts, records
    in replication order)} in n_grid order.  One thread pool serves every n;
    its map keeps replication order."""
    threads = thread_count()
    groups = {}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        run = pool.map if threads > 1 and config.replications > 1 else map
        for n_idx, n in enumerate(config.n_grid):
            j = schedule_level(config.schedule, n)
            grid = make_grid(config.h, j)
            expected = None
            if mode == "theorem1":
                expected = expected_estimator(density, basis, j, grid.points)
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
    if config.theorem != 1:
        raise ConfigurationError(f"run_theorem1 got a theorem-{config.theorem} config")
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


def _threshold(config: ExperimentConfig, density, basis) -> tuple:
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
    if config.theorem != 2:
        raise ConfigurationError(f"run_theorem2 got a theorem-{config.theorem} config")
    density, basis = config.validate()
    threshold, delta = _threshold(config, density, basis)
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


def _write_csv(path: str, header: str, rows) -> None:
    """A header line, then each row of strings joined by commas."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    """payload as JSON with sorted keys, indent 2 and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_report(report: dict, path: str):
    """Write records CSV and summary JSON; byte-deterministic per config."""
    cfg = report["config"]
    csv_path, json_path = path + ".csv", path + ".json"
    _write_csv(csv_path, "theorem,n,j,rep,sup_dev,inf_dev,argmax,seed",
               ([str(cfg["theorem"]), str(r.n), str(r.level), str(r.replication),
                 repr(r.sup_dev), repr(r.inf_dev),
                 ";".join(repr(float(v)) for v in r.argmax), str(r.stream_index)]
                for r in report["records"]))
    _write_json(json_path, {k: v for k, v in report.items() if k != "records"})
    return csv_path, json_path
