"""Child process of the benchmark: one set-up probe or one workload's passes.

    python3 benchmarks/worker.py setup  --workload W
    python3 benchmarks/worker.py passes --workload W --seed S --seconds T
                                        --trace 0|1 --threads K --out DIR

Prints one JSON object as its last line.  Each invocation is a fresh
interpreter that runs a single workload, so set-up time and peak memory
are never shared between workloads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from catalog import PER_LAYER, WORKLOADS  # noqa: E402


def use_checkout_source():
    """Import wavedens from this checkout's src/ and nowhere else."""
    if not (SRC / "wavedens" / "__init__.py").is_file():
        raise SystemExit(f"error: no wavedens package under {SRC}")
    sys.path.insert(0, str(SRC))


def setup_probe(workload: str) -> dict:
    """Seconds to import wavedens and build the workload's bases and density."""
    spec = WORKLOADS[workload]
    t0 = perf_counter()
    import wavedens
    for fam in spec.families:
        wavedens.build_family(fam)
    for d in spec.dimensions:
        wavedens.make_density(spec.density, d)
    return {"setup_s": perf_counter() - t0}


def _schedule(trace: bool, nproc: int):
    """(threads, traced) of the alternating timed passes, and of the closing
    pass.  Each pass alternates with the kind it is compared against, so
    drift on the machine falls on both sides alike."""
    if trace:
        return [(1, False), (1, True)], [(nproc, True)]
    return [(1, False), (nproc, False)], []


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               nproc: int, out_dir: Path) -> dict:
    import numpy
    import scipy

    import wavedens
    from tracing import Tracer, summarize_pass
    from workloads import make_pass

    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    if trace:
        tracer.install()
    passes = []
    summaries = []
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        job = make_pass(workload, seed, Path(tmp))

        def one(threads: int, traced: bool, warmup: bool = False):
            os.environ["WAVEDENS_THREADS"] = str(threads)
            rec = {"threads": threads, "traced": traced, "warmup": warmup,
                   "wall": None, "problems": []}
            pid = len(passes)
            passes.append(rec)
            if traced:
                tracer.begin_pass(pid)
            try:
                t0 = perf_counter()
                result = job.run()
                rec["wall"] = perf_counter() - t0
            except Exception:  # a failed pass is counted, not fatal
                rec["problems"].append(traceback.format_exc(limit=5))
                return
            finally:
                if traced:
                    tracer.end_pass()
            if traced:
                summaries.append((threads, summarize_pass(tracer, pid, threads)))
            try:
                rec["problems"] = job.check(result)
            except Exception:
                rec["problems"].append(traceback.format_exc(limit=5))

        # The first pass of a process runs cold (allocator growth, page
        # faults of the first large arrays); it is checked but not timed.
        # Peak memory is read after it: a one-thread pass allocates in a
        # fixed order, while the peak of a pooled pass depends on how the
        # replications happen to overlap.
        one(1, False, warmup=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kinds, closing = _schedule(trace, nproc)
        last = {kind: passes[0]["wall"] or 0.0 for kind in kinds + closing}
        t_start = perf_counter()
        for k in itertools.count():
            kind = kinds[k % len(kinds)]
            reserve = sum(last[c] for c in closing)
            if (k >= len(kinds) and
                    perf_counter() - t_start + last[kind] + reserve > seconds):
                break
            one(*kind)
            last[kind] = passes[-1]["wall"] or last[kind]
        for threads, traced in closing:
            one(threads, traced)
    result = {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "wavedens": wavedens.__version__},
        "wavedens_path": str(Path(wavedens.__file__).resolve().parent),
    }
    if trace:
        tracer.uninstall()
        tracer.save(out_dir / f"trace-{workload}.npz")
        result["layers"] = _layer_metrics(passes, summaries)
        result["span_names"] = sorted({n for _, s in summaries for n in s["stats"]})
    return result


def _layer_metrics(passes, summaries) -> dict:
    """Per-layer metrics: medians over the traced one-thread passes, the
    parallel efficiency of the traced nproc pass, and the tracing overhead
    against the untraced one-thread passes."""
    from tracing import layer_metric

    one_thread = [s for threads, s in summaries if threads == 1]
    many = [s for threads, s in summaries if threads != 1] or one_thread
    out = {}
    for m in PER_LAYER:
        if m.name == "experiments.parallel_eff":
            vals = [s["parallel_eff"] for s in many]
        elif m.name == "trace.pass_s":
            vals = [s["wall"] for s in one_thread]
        elif m.name == "trace.spans":
            vals = [s["spans"] for s in one_thread]
        elif m.name == "trace.overhead_frac":
            walls = {tr: [p["wall"] for p in passes if p["threads"] == 1
                          and p["traced"] == tr and not p["warmup"]
                          and p["wall"] is not None]
                     for tr in (False, True)}
            vals = [statistics.median(walls[True]) / statistics.median(walls[False])
                    - 1.0] if walls[True] and walls[False] else []
        else:
            vals = [layer_metric(m.name, s) for s in one_thread]
        if vals:
            out[m.name] = statistics.median(vals)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=["setup", "passes"])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--threads", type=int, default=len(os.sched_getaffinity(0)))
    p.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = p.parse_args(argv)
    use_checkout_source()
    if args.mode == "setup":
        result = setup_probe(args.workload)
    else:
        seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
        result = run_passes(args.workload, seed, args.seconds, bool(args.trace),
                            args.threads, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
