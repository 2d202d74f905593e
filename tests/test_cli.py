import json

import numpy as np
import pytest

from wavedens.cli import main

CFG1 = {
    "theorem": 1, "density": "uniform01", "dimension": 1, "basis": "haar",
    "h": [[0.25], [0.75]], "schedule": {"regime": "CRS", "gamma": 0.5},
    "n_grid": [4096, 16384], "replications": 3, "base_seed": 11,
}


def _write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_basis_table(tmp_path):
    out = tmp_path / "phi.csv"
    assert main(["basis", "--family", "db4", "--emit", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,phi"
    xs = np.array([float(l.split(",")[0]) for l in lines[1:]])
    assert np.all(np.diff(xs) > 0)
    assert xs[0] == 0.0 and xs[-1] == 3.0
    # 17 significant digits round-trip
    phi = [float(l.split(",")[1]) for l in lines[1:]]
    assert any(abs(v) > 0 for v in phi)


def test_kernel_sidecar(tmp_path):
    out = tmp_path / "kt.csv"
    code = main(["kernel", "--family", "haar", "--level", "0",
                 "--center", "0", "--step", "0.0625", "--emit", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "s_1,ktilde"
    side = json.loads((tmp_path / "kt.json").read_text())
    assert side["sigma"] == pytest.approx(1.0)
    assert side["tv"] == pytest.approx(2.0)
    assert side["integral"] == pytest.approx(1.0)


def test_estimate(tmp_path):
    out = tmp_path / "fhat.csv"
    code = main(["estimate", "--family", "haar", "--level", "3",
                 "--density", "uniform01", "--n", "512", "--seed", "1",
                 "--emit", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x_1,fhat,efhat,f"
    row = lines[1].split(",")
    assert float(row[3]) == 1.0  # uniform density


def test_increments(tmp_path):
    out = tmp_path / "g.csv"
    code = main(["increments", "--kind", "gtilde", "--density", "uniform01",
                 "--level", "3", "--n", "200", "--seed", "1",
                 "--center", "0.5", "--step", "0.03125", "--emit", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s_1,value"
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(v >= 0 for v in vals)


def test_limitsets(tmp_path):
    out = tmp_path / "iv.json"
    code = main(["limitsets", "--family", "haar", "--v", "1.0",
                 "--emit", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["lo"] == pytest.approx(0.0, abs=1e-9)
    assert payload["hi"] == pytest.approx(np.e)
    grid = (tmp_path / "iv_grid.csv").read_text().splitlines()
    assert grid[0] == "s_1,ktilde,gdot_lo,gdot_hi"


def test_validate_and_theorem1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, CFG1)
    assert main(["validate", "--config", cfg]) == 0
    out = str(tmp_path / "t1")
    code = main(["theorem1", "--config", cfg, "--output", out])
    captured = capsys.readouterr().out
    assert "theorem1:" in captured
    assert code in (0, 1)
    assert (tmp_path / "t1.csv").exists()
    assert (tmp_path / "t1.json").exists()


def test_theorem2(tmp_path):
    data = dict(CFG1, theorem=2,
                schedule={"regime": "ER", "c": 1.0})
    cfg = _write_cfg(tmp_path, data)
    out = str(tmp_path / "t2")
    code = main(["theorem2", "--config", cfg, "--output", out])
    assert code in (0, 1)
    summary = json.loads((tmp_path / "t2.json").read_text())
    assert summary["threshold"] > 0


def test_theorem_mismatch_is_config_error(tmp_path):
    cfg = _write_cfg(tmp_path, CFG1)
    assert main(["theorem2", "--config", cfg]) == 2


def test_missing_config_is_io_error(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2


def test_bad_config_is_error(tmp_path):
    bad = dict(CFG1, n_grid=[16384, 4096])
    cfg = _write_cfg(tmp_path, bad)
    assert main(["validate", "--config", cfg]) == 2
    # wrong types and out-of-range values: exit 2, never a traceback
    malformed = [{"replications": "2"}, {"base_seed": -1}, {"base_seed": 2 ** 70},
                 {"n_grid": [4096.0]}, {"h": [0.25, 0.75]}]
    for i, change in enumerate(malformed):
        cfg = _write_cfg(tmp_path, dict(CFG1, theorem=2, **change), f"bad{i}.json")
        assert main(["validate", "--config", cfg]) == 2, change
        out = str(tmp_path / f"bad{i}")
        assert main(["theorem2", "--config", cfg, "--output", out]) == 2, change


def test_malformed_json_is_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 2
