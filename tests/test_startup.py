"""What a fresh interpreter loads: wavedens, its theorem runs and every
density need numpy alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import wavedens

SRC = str(Path(wavedens.__file__).resolve().parent.parent)

SCRIPT = r"""
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import wavedens
from wavedens.cli import main
out = {"import": scipy_modules()}
tmp = Path(sys.argv[1])
haar_er = {"theorem": 2, "density": "uniform01", "dimension": 1, "basis": "haar",
           "h": [[0.25], [0.75]], "schedule": {"regime": "ER", "c": 1.0},
           "n_grid": [1024, 4096], "replications": 3, "base_seed": 11}
db4_2d = {"theorem": 2, "density": "cosine_bump", "dimension": 2, "basis": "db4",
          "h": [[0.25, 0.25], [0.75, 0.75]], "schedule": {"regime": "ER", "c": 0.5},
          "n_grid": [4096], "replications": 2, "base_seed": 5}
codes = []
for name, cfg in (("haar", haar_er), ("db4", db4_2d)):
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(cfg))
    codes.append(main(["theorem2", "--config", str(path),
                       "--output", str(tmp / f"{name}_out")]))
out["codes"] = codes
out["runs"] = scipy_modules()
for d in (1, 2):
    den = wavedens.make_density("trunc_gauss_mix", d)
    den.cdf1([0.0, 0.3, 1.0])
    den.box_prob([0.2] * d, [0.6] * d)
    den.pdf([0.5] * d)
out["trunc_gauss_mix"] = scipy_modules()
print(json.dumps(out))
"""


def test_import_and_theorem_runs_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] and all(c in (0, 1) for c in out["codes"])
    assert out["import"] == []
    assert out["runs"] == []
    # its normal CDF is sampling._ndtr, in numpy
    assert out["trunc_gauss_mix"] == []
