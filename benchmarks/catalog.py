"""What the benchmark runs: workloads and the objects each builds.  Metric
names, units and bounds are read from BENCHMARK.json at the root of the
checkout.

Standard library only, so that the orchestrator and the set-up probe can
read it before numpy or wavedens is imported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text())

# Acceptance seeds (tests/test_acceptance.py): BASE_SEED for the Monte Carlo
# drivers, the acceptance-3 generator seed for the analytic layer.
ACCEPTANCE_SEED = 20260823
CONTRAST_SEED = 11
RELATION_SEED = 103


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    families: tuple  # scaling functions the workload builds
    density: str
    dimensions: tuple


WORKLOADS = {w.name: w for w in (
    Workload("t1_crs_haar", ACCEPTANCE_SEED, ("haar",), "uniform01", (1,)),
    Workload("t2_er_haar", ACCEPTANCE_SEED, ("haar",), "uniform01", (1,)),
    Workload("t2_er_db4_cosine_2d", ACCEPTANCE_SEED, ("db4",), "cosine_bump", (2,)),
    Workload("limit_objects", RELATION_SEED, ("haar", "db4", "db6"),
             "trunc_gauss_mix", (1, 2)),
)}

if list(WORKLOADS) != [w["name"] for w in SPEC["workloads"]]:
    raise RuntimeError("BENCHMARK.json and catalog.WORKLOADS disagree")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = tuple(Metric(**m) for m in SPEC["end_to_end"])
PER_LAYER = tuple(Metric(**m) for m in SPEC["per_layer"])
