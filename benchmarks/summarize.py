"""Fold benchmark results into one BENCH_<tag>.json record.

    python3 benchmarks/summarize.py --tag seed --out benchmarks/BENCH_seed.json

Reads the per-run result files that run.py writes to .bench_out/results/
(or the files given with --results) and records, per workload, the median
and quartiles over runs of every end-to-end metric, the per-layer metrics
of the traced runs, the failures, and the machine each number came from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _spread(values: list) -> dict:
    med = statistics.median(values)
    out = {"median": med, "runs": len(values), "min": min(values),
           "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_frac=(q3 - q1) / med if med else None)
    return out


def summarize(results: list[dict], tag: str) -> dict:
    machines = {json.dumps(r["machine"] | {"wavedens_threads": None},
                           sort_keys=True) for r in results}
    first = results[0]
    record = {"tag": tag,
              "git_sha": sorted({r["machine"]["git_sha"] for r in results}),
              "machine": first["machine"], "versions": first["versions"],
              "machines_seen": len(machines), "workloads": {}}
    for name in WORKLOADS:
        runs = [r for r in results if r["workload"] == name]
        if not runs:
            continue
        timed = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        entry = {"seeds": sorted({r["seed"] for r in runs}),
                 "seconds": sorted({r["seconds"] for r in runs}),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        entry["end_to_end"] = {
            m.name: dict(_spread([r["metrics"][m.name]["value"] for r in timed]),
                         unit=m.unit, bound=m.bound)
            for m in END_TO_END if timed}
        entry["per_layer"] = {
            m.name: dict(_spread([r["metrics"][m.name]["value"] for r in traced]),
                         unit=m.unit)
            for m in PER_LAYER if traced}
        record["workloads"][name] = entry
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--results", type=Path, nargs="*",
                   help="result files (default: .bench_out/results/*.json)")
    args = p.parse_args(argv)
    files = args.results or sorted((BENCH.parent / ".bench_out" / "results").glob("*.json"))
    results = [json.loads(f.read_text()) for f in files]
    if not results:
        print("error: no result files", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(summarize(results, args.tag), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
