"""Workload passes and the checks of their outputs.

A pass drives wavedens only through its public entry points: the theorem
workloads call `wavedens.cli.main` in-process, the analytic workload calls
library functions.  Every call resolves the function through its module
at call time, so the tracer's wrappers are used when they are installed.
Checks run after the timed region and return a list of problems (empty
when the pass is correct).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import wavedens.cli
from wavedens import basis as wb
from wavedens import estimator as we
from wavedens import increments as wi
from wavedens import kernel as wk
from wavedens import limitsets as wl
from wavedens import sampling as ws

from catalog import ACCEPTANCE_SEED, CONTRAST_SEED, WORKLOADS

REFERENCE = Path(__file__).resolve().parent / "reference.json"

H1 = [[0.25], [0.75]]
H2 = [[0.25, 0.25], [0.75, 0.75]]
N_ACCEPTANCE = [2 ** k for k in range(12, 21)]
N_DB4_2D = [2 ** k for k in range(12, 15)]
REPLICATIONS = 30
ORACLE_RECORDS = 3  # replications recomputed by an independent path
CHECK_RTOL = 1e-9


def theorem_configs(workload: str, seed: int) -> list[dict]:
    """Experiment configs of a theorem workload for one base seed."""
    haar = {"density": "uniform01", "dimension": 1, "basis": "haar", "h": H1,
            "n_grid": N_ACCEPTANCE, "replications": REPLICATIONS,
            "base_seed": seed}
    crs = {"regime": "CRS", "gamma": 0.6}
    er = {"regime": "ER", "c": 0.5}
    if workload == "t1_crs_haar":
        return [dict(haar, theorem=1, schedule=crs)]
    if workload == "t2_er_haar":
        # The acceptance pair uses seed 11 for the contrast; other seeds get
        # a stream key of their own.
        contrast = CONTRAST_SEED if seed == ACCEPTANCE_SEED else seed + 1
        return [dict(haar, theorem=2, schedule=er),
                dict(haar, theorem=2, schedule=crs, n_grid=N_ACCEPTANCE[-1:],
                     base_seed=contrast)]
    if workload == "t2_er_db4_cosine_2d":
        return [{"theorem": 2, "density": "cosine_bump", "dimension": 2,
                 "basis": "db4", "h": H2, "schedule": er, "n_grid": N_DB4_2D,
                 "replications": REPLICATIONS, "base_seed": seed}]
    raise KeyError(workload)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _level(cfg: dict, n: int) -> int:
    """j_n from the README's schedule formulas."""
    sch, d = cfg["schedule"], cfg["dimension"]
    if sch["regime"] == "CRS":
        return max(1, math.floor(sch["gamma"] * math.log2(n) / d))
    return max(1, round(math.log2(n / (sch["c"] * math.log(n))) / d))


def read_records(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{"n": int(r["n"]), "j": int(r["j"]), "rep": int(r["rep"]),
             "sup": float(r["sup_dev"]), "inf": float(r["inf_dev"]),
             "argmax": np.array([float(v) for v in r["argmax"].split(";")]),
             "stream": int(r["seed"])} for r in rows]


def summary_medians(cfg: dict, summary: dict) -> dict:
    """Per-n medians of the statistics a report summarises."""
    keys = ("sup_dev", "inf_dev") if cfg["theorem"] == 1 else ("sup_ratio_dev",)
    return {str(n): {k: summary["summary"][str(n)][k]["median"] for k in keys}
            for n in cfg["n_grid"]}


def _haar_oracle(cfg: dict, rec: dict) -> tuple:
    """sup/inf deviation over the grid with fhat by histogram counting and
    E fhat as the exact cell probability (acceptance 1's oracle)."""
    density = ws.make_density(cfg["density"], 1)
    n, j = rec["n"], rec["j"]
    sample = ws.draw(density, ws.SeedSpec(cfg["base_seed"], rec["stream"]), n)
    scale = 2.0 ** j
    counts = np.bincount(np.floor(sample[:, 0] * scale).astype(np.int64),
                         minlength=(1 << j) + 1)
    grid = we.make_grid(cfg["h"], j).points[:, 0]
    cell = np.floor(grid * scale).astype(np.int64)
    fhat = scale * counts[cell] / n
    f = density.pdf(grid[:, None])
    if cfg["theorem"] == 1:
        efhat = scale * (density.cdf1((cell + 1) / scale) - density.cdf1(cell / scale))
        dev = np.sqrt(n / scale / (2.0 * f * j * math.log(2.0))) * (fhat - efhat)
    else:
        dev = np.abs(fhat / f - 1.0)
    return float(dev.max()), float(dev.min())


def _kernel_oracle(cfg: dict, rec: dict) -> float:
    """Relative deviation at the reported argmax, fhat in kernel form
    (acceptance 2's identity)."""
    density = ws.make_density(cfg["density"], cfg["dimension"])
    basis = wb.build_family(cfg["basis"])
    sample = ws.draw(density, ws.SeedSpec(cfg["base_seed"], rec["stream"]),
                     rec["n"])
    x = rec["argmax"]
    fhat = we.evaluate_kernel_form(basis, rec["j"], sample, x)
    return abs(fhat / float(density.pdf(x)) - 1.0)


class TheoremPass:
    """One pass of a theorem workload: the CLI on each config in turn."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.configs = theorem_configs(workload, seed)
        self.jobs = []
        for i, cfg in enumerate(self.configs):
            cfg_path = work_dir / f"{workload}-{i}.config.json"
            cfg_path.write_text(json.dumps(cfg))
            argv = [f"theorem{cfg['theorem']}", "--config", str(cfg_path),
                    "--output", str(work_dir / f"{workload}-{i}")]
            self.jobs.append(argv)

    def outputs(self, i: int) -> tuple:
        out = self.jobs[i][-1]
        return out + ".csv", out + ".json"

    def run(self) -> list[int]:
        with contextlib.redirect_stdout(io.StringIO()):
            return [wavedens.cli.main(argv) for argv in self.jobs]

    def check(self, codes: list[int]) -> list[str]:
        problems = []
        default = self.seed == WORKLOADS[self.workload].default_seed
        reference = (json.loads(REFERENCE.read_text())["medians"][self.workload]
                     if default else None)
        pick = random.Random(self.seed)
        for i, (cfg, code) in enumerate(zip(self.configs, codes)):
            tag = f"{self.workload}[{i}]"
            csv_path, json_path = self.outputs(i)
            if code not in (0, 1):
                problems.append(f"{tag}: exit code {code}")
                continue
            summary = json.loads(Path(json_path).read_text())
            if (code == 0) != summary["passed"]:
                problems.append(f"{tag}: exit code {code} disagrees with summary")
            if default and code != 0:
                problems.append(f"{tag}: acceptance predicates failed at the "
                                f"acceptance seed: {summary['predicates']}")
            records = read_records(csv_path)
            if len(records) != len(cfg["n_grid"]) * cfg["replications"]:
                problems.append(f"{tag}: {len(records)} records")
                continue
            medians = summary_medians(cfg, summary)
            stat = "sup_dev" if cfg["theorem"] == 1 else "sup_ratio_dev"
            for n in cfg["n_grid"]:
                sups = [r["sup"] for r in records if r["n"] == n]
                if not _close(float(np.median(sups)), medians[str(n)][stat], 1e-12):
                    problems.append(f"{tag}: n={n} summary median disagrees "
                                    "with the records")
            if reference is not None:
                for n, stats in reference[i].items():
                    for k, v in stats.items():
                        if not _close(medians[n][k], v, CHECK_RTOL):
                            problems.append(f"{tag}: n={n} {k} median "
                                            f"{medians[n][k]!r} != reference {v!r}")
            for rec in pick.sample(records, ORACLE_RECORDS):
                where = f"{tag}: n={rec['n']} rep={rec['rep']}"
                if rec["j"] != _level(cfg, rec["n"]):
                    problems.append(f"{where}: level {rec['j']}")
                    continue
                if cfg["basis"] == "haar":
                    sup, inf = _haar_oracle(cfg, rec)
                    if not (_close(rec["sup"], sup, CHECK_RTOL)
                            and _close(rec["inf"], inf, CHECK_RTOL)):
                        problems.append(f"{where}: ({rec['sup']!r}, {rec['inf']!r})"
                                        f" != oracle ({sup!r}, {inf!r})")
                else:
                    dev = _kernel_oracle(cfg, rec)
                    if not _close(rec["sup"], dev, CHECK_RTOL):
                        problems.append(f"{where}: sup {rec['sup']!r} != kernel "
                                        f"form {dev!r}")
        return problems


V_SWEEP = np.logspace(-1, 6, 10)
LOCALIZE_STEP = {1: 2.0 ** -12, 2: 2.0 ** -6}
INCREMENT_LEVEL = {1: 6, 2: 3}
INCREMENT_N = 2 ** 16
INCREMENT_CENTERS = 16
RELATION_DENSITIES = ("uniform01", "cosine_bump", "trunc_gauss_mix")


class LimitObjectsPass:
    """The analytic layer: localized kernels, Gamma_v sweeps, the Strassen
    extremum, increment functions with theta, and the acceptance-3
    relation battery (drawn exactly as acceptance 3 does for seed 103)."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.battery = []
        for i in range(100):
            fam = "db4" if i % 5 in (3, 4) else "haar"
            d = 1 if fam == "db4" else int(rng.integers(1, 3))
            n = int(rng.integers(1, 800))
            j = int(rng.integers(1, 6 if d == 1 else 4))
            stream = int(rng.integers(1 << 30))
            x = rng.uniform(0.2, 0.8, d)
            self.battery.append((fam, d, RELATION_DENSITIES[i % 3], n, j, stream, x))
        self.centers = {d: rng.uniform(0.2, 0.8, (INCREMENT_CENTERS, d))
                        for d in (1, 2)}

    def run(self) -> dict:
        spec = WORKLOADS["limit_objects"]
        bases = {fam: wb.build_family(fam) for fam in spec.families}
        out = {"gamma": {}, "strassen": {}, "theta": [], "relation": []}
        haar_lk = {}
        for fam, basis in bases.items():
            for d, step in LOCALIZE_STEP.items():
                lk = wk.localize(wk.ProjectionKernel(basis, d), 0, np.zeros(d), step)
                out["gamma"][fam, d] = [wl.gamma_interval(lk, v) for v in V_SWEEP]
                out["strassen"][fam, d] = wl.strassen_extremal(lk)[0]
                if fam == "haar":
                    haar_lk[d] = lk
        out["haar_v1"] = wl.gamma_interval(haar_lk[1], 1.0)
        for d in spec.dimensions:
            density = ws.make_density(spec.density, d)
            sample = ws.draw(density, ws.SeedSpec(self.seed, d), INCREMENT_N)
            j, step = INCREMENT_LEVEL[d], LOCALIZE_STEP[d]
            for x in self.centers[d]:
                g = wi.g_n_x(sample, density, x, j, grid_step=step)
                gt = wi.g_tilde_n_x(sample, density, x, j, 1.0, grid_step=step)
                out["theta"].append((wi.theta(haar_lk[d], g),
                                     wi.theta(haar_lk[d], gt)))
        densities = {}
        for fam, d, name, n, j, stream, x in self.battery:
            if (name, d) not in densities:
                densities[name, d] = ws.make_density(name, d)
            den = densities[name, d]
            sample = ws.draw(den, ws.SeedSpec(stream), n)
            out["relation"].append(
                (fam, wi.relation_check(sample, den, x, j, bases[fam])))
        return out

    def check(self, out: dict) -> list[str]:
        problems = []
        v1 = out["haar_v1"]
        if abs(v1.lo) > 1e-6 or abs(v1.hi - math.e) > 1e-6:
            problems.append(f"haar v=1 interval [{v1.lo!r}, {v1.hi!r}] != [0, e]")
        for key, ivs in out["gamma"].items():
            for a, b in zip(ivs, ivs[1:]):
                if b.hi > a.hi + 1e-12 or b.lo < a.lo - 1e-12:
                    problems.append(f"{key}: Gamma endpoints not monotone in v "
                                    f"at v={b.v!r}")
        for key, val in out["strassen"].items():
            if abs(val - 1.0) > 1e-3:
                problems.append(f"{key}: Strassen value {val!r}")
        for fam, res in out["relation"]:
            if res > (1e-9 if fam == "haar" else 1e-6):
                problems.append(f"{fam}: relation residual {res!r}")
        if not np.all(np.isfinite(out["theta"])):
            problems.append("theta is not finite")
        return problems


def make_pass(workload: str, seed: int, work_dir: Path):
    if workload == "limit_objects":
        return LimitObjectsPass(seed)
    return TheoremPass(workload, seed, work_dir)
