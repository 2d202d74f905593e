"""Tests of the benchmark itself (about 30 s on two cores):

    python3 -m pytest benchmarks/test_bench.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from catalog import WORKLOADS  # noqa: E402
from tracing import Tracer, summarize_pass  # noqa: E402
from workloads import TheoremPass, make_pass  # noqa: E402

# Span names each workload must show in its trace (the layers it calls).
EXPECTED_SPANS = {
    "t1_crs_haar": (
        "cli.main", "experiments.run", "experiments.emit_report",
        "basis.build_family", "basis.eval_phi", "sampling.draw",
        "estimator.fit", "estimator.evaluate", "estimator.expected_estimator",
        "estimator.make_grid", "estimator.sup_deviation",
        "kernel.kernel_Kj_batch"),
    "t2_er_haar": (
        "cli.main", "experiments.run", "experiments.emit_report",
        "basis.build_family", "basis.eval_phi", "sampling.draw",
        "estimator.fit", "estimator.evaluate", "estimator.make_grid",
        "estimator.sup_deviation", "kernel.localize",
        "limitsets.gamma_interval", "limitsets.h_poisson",
        "limitsets.theorem2_threshold"),
    "t2_er_db4_cosine_2d": (
        "cli.main", "experiments.run", "experiments.emit_report",
        "basis.build_family", "basis.eval_phi", "sampling.draw",
        "estimator.fit", "estimator.evaluate", "estimator.make_grid",
        "estimator.sup_deviation", "kernel.localize",
        "limitsets.gamma_interval", "limitsets.h_poisson",
        "limitsets.theorem2_threshold"),
    "limit_objects": (
        "basis.build_family", "basis.eval_phi", "sampling.draw",
        "estimator.expected_estimator", "kernel.localize",
        "kernel.kernel_Kj_batch", "increments.g_n_x", "increments.g_tilde_n_x",
        "increments.theta", "increments.relation_check",
        "limitsets.gamma_interval", "limitsets.h_poisson",
        "limitsets.strassen_extremal"),
}


@pytest.fixture(autouse=True)
def all_threads(monkeypatch):
    monkeypatch.setenv("WAVEDENS_THREADS", str(len(os.sched_getaffinity(0))))


def _traced_run(job):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_pass(0)
        try:
            result = job.run()
        finally:
            tracer.end_pass()
    finally:
        tracer.uninstall()
    return result, summarize_pass(tracer, 0, 1)


@pytest.mark.parametrize("workload", ["t1_crs_haar", "t2_er_haar"])
def test_tracing_keeps_records_byte_identical(workload, tmp_path):
    job = TheoremPass(workload, WORKLOADS[workload].default_seed, tmp_path)
    codes = job.run()
    plain = [Path(job.outputs(i)[0]).read_bytes() for i in range(len(codes))]
    codes, summary = _traced_run(job)
    traced = [Path(job.outputs(i)[0]).read_bytes() for i in range(len(codes))]
    assert traced == plain
    assert job.check(codes) == []
    assert set(EXPECTED_SPANS[workload]) <= set(summary["stats"])


@pytest.mark.parametrize("workload", ["t2_er_db4_cosine_2d", "limit_objects"])
def test_trace_shows_every_layer_the_workload_calls(workload, tmp_path):
    job = make_pass(workload, WORKLOADS[workload].default_seed, tmp_path)
    result, summary = _traced_run(job)
    assert job.check(result) == []
    assert set(EXPECTED_SPANS[workload]) <= set(summary["stats"])


def test_check_rejects_a_corrupted_record(tmp_path):
    seed = 5  # not the acceptance seed: only the seed-free checks apply
    job = TheoremPass("t2_er_haar", seed, tmp_path)
    codes = job.run()
    assert job.check(codes) == []
    csv_path = Path(job.outputs(1)[0])
    lines = csv_path.read_text().splitlines()
    head, rows = lines[0], [r.split(",") for r in lines[1:]]
    for r in rows:
        r[4] = repr(float(r[4]) * (1 + 1e-6))
    csv_path.write_text("\n".join([head] + [",".join(r) for r in rows]) + "\n")
    assert job.check(codes) != []


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "t1_crs_haar", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
