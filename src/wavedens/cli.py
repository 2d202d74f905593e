"""Command-line entry point.

Subcommands mirror the library layers: basis tables, localized kernel
sections, density estimates, increment functions, limit-set intervals, and
the two Monte Carlo experiments.  Exit codes: 0 success, 1 experiment
predicate failure, 2 I/O or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .basis import FAMILIES, build_family
from .errors import ConfigurationError, NumericalError
from .estimator import evaluate, expected_estimator, fit, make_grid
from .experiments import (ExperimentConfig, _write_csv, _write_json, emit_report,
                          run_theorem1, run_theorem2)
from .increments import g_n_x, g_tilde_n_x
from .kernel import ProjectionKernel, cell_lower_corners, localize
from .limitsets import gamma_interval
from .sampling import SeedSpec, _grid_points, draw, make_density


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_table(path: str, prefix: str, points, names: list, *columns):
    """CSV of points, one column per coordinate, then the named value columns."""
    coords = [f"{prefix}_{i + 1}" for i in range(points.shape[1])]
    _write_csv(path, ",".join(coords + names),
               ([_fmt(c) for c in p] + [_fmt(v) for v in vals]
                for p, *vals in zip(points, *columns)))


def _cmd_basis(args) -> int:
    sf = build_family(args.family)
    a, _ = sf.support
    xs = a + np.arange(len(sf.values)) * 2.0 ** -sf.table_depth
    _write_csv(args.emit, "x,phi",
               ([_fmt(x), _fmt(v)] for x, v in zip(xs, sf.values)))
    return 0


def _cmd_kernel(args) -> int:
    side = os.path.splitext(args.emit)[0] + ".json"  # limitsets' side file, same rule
    if side == args.emit:
        raise ConfigurationError(f"--emit {args.emit!r} is also the path of its JSON side file")
    pk = ProjectionKernel(build_family(args.family), args.dim)
    center = np.asarray([float(v) for v in args.center.split(",")])
    lk = localize(pk, args.level, center, args.step)
    _write_table(args.emit, "s", cell_lower_corners(lk), ["ktilde"],
                 lk.cell_values().ravel())
    _write_json(side, {"sigma": lk.sigma, "tv": lk.tv, "integral": lk.integral()})
    return 0


def _cmd_estimate(args) -> int:
    basis = build_family(args.family)
    density = make_density(args.density, args.dim)
    sample = draw(density, SeedSpec(args.seed), args.n)
    est = fit(basis, args.level, sample)
    box = (np.zeros(args.dim), np.ones(args.dim))
    grid = make_grid(box, args.level)
    fhat = evaluate(est, grid.points)
    f = density.pdf(grid.points)
    efhat = expected_estimator(density, basis, args.level, grid.points)
    _write_table(args.emit, "x", grid.points, ["fhat", "efhat", "f"], fhat, efhat, f)
    return 0


def _cmd_increments(args) -> int:
    density = make_density(args.density, args.dim)
    sample = draw(density, SeedSpec(args.seed), args.n)
    x = np.asarray([float(v) for v in args.center.split(",")])
    if args.kind == "gnx":
        g = g_n_x(sample, density, x, args.level, grid_step=args.step)
    else:
        g = g_tilde_n_x(sample, density, x, args.level, args.c,
                        grid_step=args.step)
    _write_table(args.emit, "s", _grid_points(g.axes), ["value"], g.values.ravel())
    return 0


def _cmd_limitsets(args) -> int:
    pk = ProjectionKernel(build_family(args.family), args.dim)
    lk = localize(pk, 0, np.zeros(args.dim), args.step)
    iv = gamma_interval(lk, args.v)
    grid_csv = os.path.splitext(args.emit)[0] + "_grid.csv"  # never args.emit
    _write_table(grid_csv, "s", cell_lower_corners(lk), ["ktilde", "gdot_lo", "gdot_hi"],
                 lk.cell_values().ravel(), iv.certificate["gdot_lo"].ravel(),
                 iv.certificate["gdot_hi"].ravel())
    _write_json(args.emit, {"v": iv.v, "lo": iv.lo, "hi": iv.hi,
                             "eta_lo": iv.certificate["eta_lo"],
                             "eta_hi": iv.certificate["eta_hi"],
                             "certificate_grid_csv": grid_csv})
    return 0


def _load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        data = json.load(fh)
    return ExperimentConfig.from_dict(data)


def _cmd_theorem(args) -> int:
    config = _load_config(args.config)
    report = run_theorem1(config) if args.which == 1 else run_theorem2(config)
    csv_path, json_path = emit_report(report, args.output or f"theorem{args.which}")
    status = "pass" if report["passed"] else "FAIL"
    print(f"theorem{args.which}: {status}  records={csv_path} summary={json_path}")
    for name, ok in report["predicates"].items():
        print(f"  {name}: {'pass' if ok else 'FAIL'}")
    return 0 if report["passed"] else 1


def _cmd_validate(args) -> int:
    config = _load_config(args.config)
    config.validate()
    print("config ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wavedens",
        description="Wavelet-projection density estimation and its "
                    "fluctuation/consistency experiments.")
    sub = p.add_subparsers(dest="command", required=True)
    # the options that several subcommands take, one parent parser each
    family, dim, step, sample, emit, config = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    family.add_argument("--family", required=True, choices=FAMILIES)
    dim.add_argument("--dim", type=int, default=1)
    step.add_argument("--step", type=float, default=2.0 ** -10)
    sample.add_argument("--density", required=True)
    sample.add_argument("--n", type=int, required=True)
    sample.add_argument("--seed", type=int, default=0)
    emit.add_argument("--emit", required=True)
    config.add_argument("--config", required=True)

    def command(name, handler, summary, parents, **defaults):
        c = sub.add_parser(name, help=summary, parents=parents)
        c.set_defaults(handler=handler, **defaults)
        return c

    command("basis", _cmd_basis, "emit a scaling-function value table", [family, emit])
    k = command("kernel", _cmd_kernel, "emit a localized kernel section",
                [family, dim, step, emit])
    k.add_argument("--level", type=int, default=0)
    k.add_argument("--center", default="0")
    e = command("estimate", _cmd_estimate, "fit and tabulate the estimator",
                [family, dim, sample, emit])
    e.add_argument("--level", type=int, required=True)
    g = command("increments", _cmd_increments, "emit an increment function table",
                [dim, sample, step, emit])
    g.add_argument("--kind", required=True, choices=["gnx", "gtilde"])
    g.add_argument("--level", type=int, required=True)
    g.add_argument("--center", default="0.5")
    g.add_argument("--c", type=float, default=1.0)
    ls = command("limitsets", _cmd_limitsets, "emit a Gamma_v image interval",
                 [family, dim, step, emit])
    ls.add_argument("--v", type=float, required=True)
    for which in (1, 2):
        t = command(f"theorem{which}", _cmd_theorem,
                    f"run the theorem-{which} experiment", [config], which=which)
        t.add_argument("--output", default=None)
    command("validate", _cmd_validate, "check a config file's invariants", [config])
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, NumericalError, OSError, KeyError) as exc:  # ConfigurationError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
