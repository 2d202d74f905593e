import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_estimate_smooth_basis_at_a_fine_level(tmp_path):
    # E fhat over [0, 1] used to fail its quadrature check from j = 5 (exit 2)
    out = tmp_path / "fhat.csv"
    code = main(["estimate", "--family", "db4", "--level", "6",
                 "--density", "cosine_bump", "--n", "512", "--emit", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "x_1,fhat,efhat,f"


def test_increments_gnx(tmp_path):
    out = tmp_path / "g.csv"
    code = main(["increments", "--kind", "gnx", "--density", "cosine_bump",
                 "--level", "3", "--n", "200", "--seed", "1",
                 "--center", "0.5", "--step", "0.03125", "--emit", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "s_1,value"


@pytest.mark.parametrize("argv", [
    ["kernel", "--family", "db4", "--center", "nan"],
    ["kernel", "--family", "haar", "--dim", "2", "--center", "0.5,inf",
     "--step", "0.0625"],
    ["increments", "--kind", "gtilde", "--density", "uniform01", "--level", "3",
     "--n", "50", "--c", "nan", "--step", "0.0625"],
    ["limitsets", "--family", "haar", "--v", "nan", "--step", "0.0625"],
])
def test_non_finite_inputs_exit_2(tmp_path, capsys, argv):
    assert main(argv + ["--emit", str(tmp_path / "out.csv")]) == 2
    assert "must be" in capsys.readouterr().err


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


def test_validate_rejects_values_the_run_cannot_use(tmp_path):
    # each of these used to print "config ok" and fail or crash in the run
    bad = [{"h": [[float("nan")], [0.75]]},
           {"schedule": {"regime": "ER", "c": float("nan")}},
           {"schedule": {"regime": "ER", "c": float("inf")}},
           {"grid": "hexagonal"}, {"output": 3}, {"ratio_threshold": "0.25"},
           {"h": [[None], [0.75]]}, {"n_grid": 4096}, {"schedule": 1}]
    for i, change in enumerate(bad):
        cfg = _write_cfg(tmp_path, dict(CFG1, theorem=2, **change), f"bad{i}.json")
        assert main(["validate", "--config", cfg]) == 2, change
    assert main(["validate", "--config", _write_cfg(tmp_path, [CFG1])]) == 2


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
# field values near the valid ones, so that fuzzing reaches the later checks
_NEAR = {
    "theorem": st.sampled_from([1, 2, 3, 1.0, "1"]),
    "density": st.sampled_from(["uniform01", "cosine_bump", "nope", ""]),
    "dimension": st.sampled_from([0, 1, 2, 1.5, -1, True]),
    "basis": st.sampled_from(["haar", "db4", "db6", "db9"]),
    "h": st.lists(st.lists(st.floats(-1.0, 2.0) | st.integers(-1, 2) | st.none(),
                           max_size=3), max_size=3),
    "schedule": st.fixed_dictionaries(
        {"regime": st.sampled_from(["CRS", "ER", "crs", 1])},
        optional={"gamma": _JSON | st.floats(), "c": _JSON | st.floats()}),
    "n_grid": st.lists(st.integers(-5, 2 ** 20) | st.floats(), max_size=4),
    "replications": st.integers(-2, 5) | st.floats(),
    "base_seed": st.integers(-2, 2 ** 65),
}


@st.composite
def _fuzzed_configs(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    data = dict(CFG1)
    for key in draw(st.lists(st.sampled_from(sorted(_NEAR)), max_size=4)):
        if draw(st.booleans()):
            data[key] = draw(_NEAR[key] | _JSON)
        else:
            data.pop(key, None)
    return data


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_fuzzed_configs())
def test_fuzzed_configs_validate_to_0_or_2(tmp_path, data):
    cfg = _write_cfg(tmp_path, data)
    assert main(["validate", "--config", cfg]) in (0, 2)
