import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavedens.basis import FAMILIES
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
    # exited 0 and wrote "v": Infinity, which is not JSON
    ["limitsets", "--family", "haar", "--v", "inf", "--step", "0.0625"],
])
def test_non_finite_inputs_exit_2(tmp_path, capsys, argv):
    assert main(argv + ["--emit", str(tmp_path / "out.csv")]) == 2
    assert "must be" in capsys.readouterr().err


def test_kernel_negative_level_exits_2(tmp_path, capsys):
    out = tmp_path / "k.csv"
    assert main(["kernel", "--family", "haar", "--level", "-2",
                 "--step", "0.0625", "--emit", str(out)]) == 2
    assert "level j must be >= 0" in capsys.readouterr().err
    assert not out.exists()


_SAMPLE = ["--density", "uniform01", "--n", "50", "--step", "0.0625"]


@pytest.mark.parametrize("argv", [
    ["kernel", "--family", "haar", "--level", "2000", "--step", "0.0625"],
    ["estimate", "--family", "haar", "--level", "2000", "--density", "uniform01",
     "--n", "50"],
    ["increments", "--kind", "gnx", "--level", "2000", *_SAMPLE],
    ["increments", "--kind", "gtilde", "--level", "-3", *_SAMPLE],
    ["increments", "--kind", "gtilde", "--level", "2000", *_SAMPLE],
])
def test_a_level_out_of_range_exits_2(tmp_path, capsys, argv):
    # level 2000 overflowed 2^j (exit 1 with a traceback), and gtilde
    # took any level: -3 gave values, 2000 gave nan after RuntimeWarnings
    out = tmp_path / "out.csv"
    assert main(argv + ["--emit", str(out)]) == 2
    assert "level j must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--family", "haar", "--level", "3", "--density", "uniform01",
     "--n", "50", "--seed", "-1"],
    ["increments", "--kind", "gnx", "--level", "3", *_SAMPLE,
     "--seed", str(2 ** 64)],
])
def test_a_seed_out_of_range_exits_2(tmp_path, capsys, argv):
    # both raised OverflowError: exit 1 with a traceback
    out = tmp_path / "out.csv"
    assert main(argv + ["--emit", str(out)]) == 2
    assert "error: base_seed must be an integer in [0, 2^64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["abc", "-1"])
@pytest.mark.parametrize("command", ["theorem1", "limitsets"])
def test_malformed_thread_count_exits_2(tmp_path, capsys, monkeypatch, threads, command):
    # a malformed value used to fall back to the CPU count in silence
    monkeypatch.setenv("WAVEDENS_THREADS", threads)
    if command == "theorem1":
        argv = ["theorem1", "--config", _write_cfg(tmp_path, CFG1),
                "--output", str(tmp_path / "t1")]
    else:
        argv = ["limitsets", "--family", "haar", "--v", "1.0",
                "--emit", str(tmp_path / "iv.json")]
    assert main(argv) == 2
    assert "WAVEDENS_THREADS must be an integer >= 0" in capsys.readouterr().err


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


@pytest.mark.parametrize("change", [{"schedule": {"regime": "ER", "c": True}},
                                    {"h": [[False], [True]]}])
def test_a_bool_is_not_a_config_number(tmp_path, capsys, change):
    # both ran: theorem 2 on c = 1 (its summary echoed "c": true) and on H = [0, 1]
    cfg = _write_cfg(tmp_path, dict(CFG1, theorem=2, **change))
    out = tmp_path / "run"
    for argv in (["validate"], ["theorem2", "--output", str(out)]):
        assert main(argv + ["--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert not out.with_suffix(".csv").exists()


def test_family_takes_its_choices_from_families(tmp_path, capsys):
    for name in FAMILIES:
        assert main(["basis", "--family", name, "--emit", str(tmp_path / "phi.csv")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--family", "db8", "--emit", str(tmp_path / "phi.csv")])
    assert exc.value.code == 2 and "invalid choice: 'db8'" in capsys.readouterr().err


_HAAR = {"density": "uniform01", "dimension": 1, "basis": "haar", "h": [[0.25], [0.75]],
         "n_grid": [2 ** k for k in range(12, 21)], "replications": 30,
         "base_seed": 20260823}
_CRS, _ER = {"regime": "CRS", "gamma": 0.6}, {"regime": "ER", "c": 0.5}


@pytest.mark.parametrize("config, sha256, summary_sha256", [
    pytest.param(dict(_HAAR, theorem=1, schedule=_CRS), "c79e8aa4c8c0ddfb",
                 "07c34268a2c2f4a8", id="t1_crs_haar"),
    pytest.param(dict(_HAAR, theorem=2, schedule=_ER), "0dc9c713eb9e17ec",
                 "b27ebcf595a2815e", id="t2_er_haar"),
    pytest.param(dict(_HAAR, theorem=2, schedule=_CRS, n_grid=[2 ** 20], base_seed=11),
                 "6e35b0705d1e6799", "314be41cbbf872ee", id="t2_crs_haar_contrast"),
    pytest.param({"theorem": 2, "density": "cosine_bump", "dimension": 2, "basis": "db4",
                  "h": [[0.25, 0.25], [0.75, 0.75]], "schedule": _ER,
                  "n_grid": [4096, 8192, 16384], "replications": 30,
                  "base_seed": 20260823}, "c0b658de660581a4", "7783ffc5b97345c5",
                 id="t2_er_db4_cosine_2d"),
])
def test_records_keep_their_bytes(tmp_path, config, sha256, summary_sha256):
    # the benchmark's Haar and D4 configs at their default seeds: a moved
    # bit in any record, or in the summary and its echo of the config,
    # shows here
    out = tmp_path / "run"
    main([f"theorem{config['theorem']}", "--config", _write_cfg(tmp_path, config),
          "--output", str(out)])
    assert hashlib.sha256(out.with_suffix(".csv").read_bytes()).hexdigest()[:16] == sha256
    summary = out.with_suffix(".json").read_bytes()
    assert hashlib.sha256(summary).hexdigest()[:16] == summary_sha256


@pytest.mark.parametrize("args,grid_sha256,sha256", [
    pytest.param(["--family", "haar", "--v", "0.1", "--step", "0.0625"],
                 "c2288e5207cbe013", "e077b157d4286cb0", id="haar-closed-form-lower"),
    pytest.param(["--family", "db4", "--dim", "2", "--v", "2", "--step", "0.25"],
                 "0b311bc49389b9fa", "ecdcbe4981f1f1b0", id="db4-2d"),
    pytest.param(["--family", "db6", "--v", "1e6", "--step", "0.015625"],
                 "0c424fdba62439a3", "b97735324c2fe4f8", id="db6-narrow"),
])
def test_limitsets_certificate_keeps_its_bytes(tmp_path, monkeypatch, args, grid_sha256,
                                               sha256):
    # the certificate grid is rebuilt from the kernel and eta when read: a
    # moved bit in a gdot, eta or endpoint shows here.  The JSON names the
    # grid CSV by the path given, so the run emits into the working directory
    monkeypatch.chdir(tmp_path)
    assert main(["limitsets", *args, "--emit", "iv.json"]) == 0
    assert hashlib.sha256((tmp_path / "iv_grid.csv").read_bytes()).hexdigest()[:16] == grid_sha256
    assert hashlib.sha256((tmp_path / "iv.json").read_bytes()).hexdigest()[:16] == sha256


def test_a_missing_config_key_exits_2(tmp_path, capsys):
    # from_dict reads each field by name: a missing one is a KeyError (exit
    # 2), where building the config from the JSON object as is would raise
    # TypeError (exit 1)
    for key in CFG1:
        data = {k: v for k, v in CFG1.items() if k != key}
        assert main(["validate", "--config", _write_cfg(tmp_path, data)]) == 2, key
        assert capsys.readouterr().err == f"error: '{key}'\n"


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
           {"output": "run"}, {"ratio_threshold": 0.25},
           {"h": [[None], [0.75]]}, {"n_grid": 4096}, {"schedule": 1},
           # keys the run would ignore
           {"ratio_treshold": 0.1}, {"grid": "dyadic"}, {"log_convention": "log2"},
           {"schedule": {"regime": "CRS", "gamma": 0.6, "c": 5}}]
    for i, change in enumerate(bad):
        cfg = _write_cfg(tmp_path, dict(CFG1, theorem=2, **change), f"bad{i}.json")
        assert main(["validate", "--config", cfg]) == 2, change
    assert main(["validate", "--config", _write_cfg(tmp_path, [CFG1])]) == 2
    # theorem 1 never reads ratio_threshold
    t1 = _write_cfg(tmp_path, dict(CFG1, ratio_threshold=0.25), "t1.json")
    assert main(["validate", "--config", t1]) == 2


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


def test_side_files_replace_only_the_extension_of_emit(tmp_path, monkeypatch, capsys):
    # the side file's path was cut at the last dot anywhere in --emit:
    # kernel --emit runs.v2/k wrote ./runs.json, limitsets --emit runs.v2/iv
    # wrote ./runs_grid.csv and named it in its JSON, and kernel --emit k.json
    # overwrote its own table with the side file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs.v2").mkdir()
    kernel = ["kernel", "--family", "haar", "--step", "0.0625", "--emit"]
    assert main(kernel + ["runs.v2/k"]) == 0
    assert main(kernel + ["runs.v2/k.csv"]) == 0
    assert main(["limitsets", "--family", "haar", "--v", "1.0", "--step", "0.0625",
                 "--emit", "runs.v2/iv"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.v2"]
    assert sorted(p.name for p in (tmp_path / "runs.v2").iterdir()) == [
        "iv", "iv_grid.csv", "k", "k.csv", "k.json"]
    payload = json.loads((tmp_path / "runs.v2" / "iv").read_text())
    assert payload["certificate_grid_csv"] == "runs.v2/iv_grid.csv"
    assert json.loads((tmp_path / "runs.v2" / "k.json").read_text())["sigma"] == 1.0
    # a side file that is --emit itself is refused before anything is written
    assert main(kernel + ["k.json"]) == 2
    assert "side file" in capsys.readouterr().err
    assert not (tmp_path / "k.json").exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "--family", "haar", "--step", "1e-320"],
    ["kernel", "--family", "haar", "--step", "1e-300"],
    ["limitsets", "--family", "haar", "--v", "1", "--step", "1e-320"],
    ["limitsets", "--family", "haar", "--v", "1", "--step", "1e-300"],
    ["increments", "--kind", "gnx", "--density", "uniform01", "--n", "10", "--level", "2",
     "--step", "1e-320"],
])
def test_a_lattice_too_large_to_build_exits_2(tmp_path, capsys, argv):
    # a step of 1e-320 ended in an OverflowError traceback, exit 1
    out = tmp_path / "out.csv"
    assert main(argv + ["--emit", str(out)]) == 2
    assert "lattice corners" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
