"""wavedens benchmark: end-to-end and per-layer numbers for four workloads.

    python3 benchmarks/run.py --workload t1_crs_haar --seed 1 --seconds 22 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, default seeds

Run from the root of a checkout; wavedens is imported from its src/.
With --trace 0 a run measures, each in fresh interpreters:

  run_s        wall seconds of one pass at WAVEDENS_THREADS=1 (median)
  run_s_mt     the same pass at WAVEDENS_THREADS=nproc (median)
  setup_s      import wavedens and build the workload's bases and density
               (median of several fresh interpreters)
  peak_rss_mb  ru_maxrss of that process after its first, one-thread pass

With --trace 1 the passes run with every public wavedens function wrapped
in a span, and the run reports the per-layer metrics of catalog.PER_LAYER.
Every pass is checked after its timed region; error_rate counts the passes
whose check failed or raised.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Full
results, machine facts and spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 3


def machine_facts(threads: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "l2": caches.get("L2", "unknown"), "l3": caches.get("L3", "unknown"),
            "machine": platform.machine(), "git_sha": sha,
            "wavedens_threads": [1, threads]}


def _worker(args: list, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:3]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, deadline: float) -> dict:
    nproc = len(os.sched_getaffinity(0))
    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine_facts(nproc)}
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker(["setup", "--workload", name], deadline)["setup_s"])
    res = _worker(["passes", "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(trace)),
                   "--threads", str(nproc), "--out", str(out_dir)], deadline)
    passes = res["passes"]
    failed = [p for p in passes if p["problems"]]
    result.update(versions=res["versions"], wavedens_path=res["wavedens_path"],
                  setup_samples=setups, passes=passes,
                  attempted=len(passes), failed=len(failed))
    samples = {}
    if trace:
        samples = {k: [v] for k, v in res["layers"].items()}
        result["span_names"] = res["span_names"]
    else:
        for key, threads in (("run_s", 1), ("run_s_mt", nproc)):
            samples[key] = [p["wall"] for p in passes if p["threads"] == threads
                            and not p["warmup"] and p["wall"] is not None]
        samples["setup_s"] = setups
        samples["peak_rss_mb"] = [res["peak_rss_mb"]]
    result["metrics"] = {k: {"value": statistics.median(v), "samples": len(v)}
                         for k, v in samples.items() if v}
    return result


def _print_table(result: dict, metrics) -> None:
    m = result["machine"]
    v = result["versions"]
    print(f"workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu']!r} "
          f"L2={m['l2']} L3={m['l3']} python={v['python']} "
          f"numpy={v['numpy']} scipy={v['scipy']} sha={m['git_sha']} "
          f"WAVEDENS_THREADS={m['wavedens_threads']}")
    for metric in metrics:
        got = result["metrics"].get(metric.name)
        if got is not None:
            print(f"  {metric.name:42s} {got['value']:>14.6g} {metric.unit:6s} "
                  f"median of {got['samples']}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'error_rate':42s} {rate:>14.6g} {'frac':6s} "
          f"{result['failed']} of {result['attempted']} passes")
    for p in result["passes"]:
        for problem in p["problems"][:3]:
            print(f"  FAILED ({p['threads']} threads): {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, help="base seed (default: the "
                   "workload's acceptance seed)")
    p.add_argument("--seconds", type=int, default=22,
                   help="measuring time of a run, set-up probes excluded")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2 ** 63:
        p.error("--seed must be in [0, 2^63)")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (ROOT / "src" / "wavedens" / "__init__.py").is_file():
        print(f"error: no wavedens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metrics = PER_LAYER if args.trace else END_TO_END
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = ROOT / ".bench_out"
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = []
    for name in names:
        seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
        try:
            res = run_workload(name, seed, args.seconds, bool(args.trace),
                               out_dir, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
                KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _print_table(res, metrics)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (out_dir / "results").mkdir(parents=True, exist_ok=True)
        (out_dir / "results" / f"{name}-seed{seed}-trace{args.trace}-{stamp}.json"
         ).write_text(json.dumps(res, indent=1))
        results.append(res)
    missing = [(r["workload"], m.name) for r in results for m in metrics
               if m.name not in r["metrics"]]
    if missing:
        print(f"error: no samples for {missing}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    prefix = len(results) > 1
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {(f"{r['workload']}.{m.name}" if prefix else m.name):
                       {"value": r["metrics"][m.name]["value"], "unit": m.unit}
                       for r in results for m in metrics}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
