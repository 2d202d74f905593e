import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavedens import experiments
from wavedens._threads import thread_count
from wavedens.errors import ConfigurationError
from wavedens.estimator import make_grid
from wavedens.experiments import (ExperimentConfig, ResolutionSchedule,
                                  emit_report, realized_ratio, run_theorem1,
                                  run_theorem2, schedule_level)
from wavedens.sampling import Density

H = ((0.25,), (0.75,))


def _crs(gamma=0.5, d=1):
    return ResolutionSchedule("CRS", {"gamma": gamma}, d)


def _er(c=1.0, d=1):
    return ResolutionSchedule("ER", {"c": c}, d)


def _config(**kw):
    base = dict(theorem=1, density="uniform01", dimension=1, basis="haar",
                h=H, schedule=_crs(), n_grid=(4096, 8192),
                replications=3, base_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_schedule_levels():
    assert schedule_level(_er(1.0), 1024) == 7
    assert schedule_level(_crs(0.5), 1024) == 5
    assert schedule_level(_crs(0.5, d=2), 1024) == 2
    assert schedule_level(_crs(0.05), 1024) == 1  # floor clamps at 1


@pytest.mark.parametrize("n", [5.5, 1024.0, True, "1024", 2])
def test_schedule_level_takes_an_integer_n_of_at_least_4(n):
    # n = 5.5 used to give level 1
    for f in (schedule_level, realized_ratio):
        with pytest.raises(ConfigurationError, match="n must be an integer >= 4"):
            f(_crs(0.5), n)
    assert schedule_level(_crs(0.5), np.int64(1024)) == schedule_level(_crs(0.5), 1024)


def test_er_ratio_near_constant():
    sched = _er(1.0)
    ratios = [realized_ratio(sched, 2 ** k) for k in range(10, 21)]
    # quantized j keeps n h / log n within a factor ~sqrt(2) of c
    assert all(2.0 ** -0.75 <= r <= 2.0 ** 0.75 for r in ratios)


def test_crs_ratio_grows():
    sched = _crs(0.6)
    ratios = [realized_ratio(sched, 2 ** k) for k in (10, 14, 18, 22)]
    assert ratios[-1] > 4.0 * ratios[0]


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        ResolutionSchedule("CRS", {"gamma": 1.5})
    with pytest.raises(ConfigurationError):
        ResolutionSchedule("ER", {"c": -1.0})
    with pytest.raises(ConfigurationError):
        ResolutionSchedule("POISSON", {})
    with pytest.raises(ConfigurationError, match="one param"):
        ResolutionSchedule("CRS", {"gamma": 0.6, "c": 5})
    with pytest.raises(ConfigurationError):
        schedule_level(_crs(), 2)


def test_a_bool_is_not_a_schedule_param_or_a_corner():
    # "c": true passed as c = 1, and "h": [[false], [true]] as H = [0, 1]
    with pytest.raises(ConfigurationError, match="ER schedule needs a finite c > 0"):
        ResolutionSchedule("ER", {"c": True})
    with pytest.raises(ConfigurationError, match="CRS schedule needs gamma"):
        ResolutionSchedule("CRS", {"gamma": True})
    data = dict(_config(theorem=2).to_dict(), h=[[False], [True]])
    with pytest.raises(ConfigurationError, match="h must be"):
        ExperimentConfig.from_dict(data)
    assert ResolutionSchedule("ER", {"c": np.float64(0.5)}).params["c"] == 0.5


def test_config_roundtrip():
    cfg = _config()
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again.to_dict() == cfg.to_dict()


@st.composite
def _configs(draw):
    d = draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        schedule = ResolutionSchedule("CRS", {"gamma": draw(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))}, d)
    else:
        schedule = ResolutionSchedule("ER", {"c": draw(
            st.floats(0.0, 1e6, exclude_min=True))}, d)
    bounds = st.tuples(*[finite] * d)
    return ExperimentConfig(
        theorem=draw(st.sampled_from([1, 2])),
        density=draw(st.sampled_from(["uniform01", "cosine_bump", "trunc_gauss_mix"])),
        dimension=d,
        basis=draw(st.sampled_from(["haar", "db4", "db6"])),
        h=(draw(bounds), draw(bounds)),
        schedule=schedule,
        n_grid=tuple(draw(st.lists(st.integers(4, 2 ** 40), min_size=1,
                                   max_size=4, unique=True).map(sorted))),
        replications=draw(st.integers(1, 1000)),
        base_seed=draw(st.integers(0, 2 ** 64 - 1)),
    )


@settings(max_examples=200, deadline=None)
@given(_configs())
def test_config_json_roundtrip_property(cfg):
    data = json.loads(json.dumps(cfg.to_dict()))
    again = ExperimentConfig.from_dict(data)
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()


def test_config_validation():
    with pytest.raises(ConfigurationError):
        _config(theorem=3).validate()
    with pytest.raises(ConfigurationError):
        _config(n_grid=(8192, 4096)).validate()
    with pytest.raises(ConfigurationError):
        _config(replications=0).validate()
    with pytest.raises(ConfigurationError):
        _config(h=((0.8,), (0.2,))).validate()
    with pytest.raises(ConfigurationError):
        _config(h=((-0.1,), (0.5,))).validate()
    for h in (((0.25,), (0.75, 0.75)), ((0.25, 0.25), (0.75, 0.75)), ((0.25,), [[0.75]])):
        with pytest.raises(ConfigurationError, match="shape"):  # H's corners are (d,) points
            _config(h=h).validate()
    with pytest.raises(ConfigurationError):
        _config(density="unknown").validate()
    with pytest.raises(ConfigurationError):
        _config(theorem=1, schedule=_er()).validate()
    with pytest.raises(ConfigurationError):
        _config(dimension=2, schedule=_crs(0.5, d=1)).validate()


def test_config_validation_reaches_each_n_grid_and_schedule_check():
    for n_grid, message in (((), "n_grid must be nonempty"),
                            ((2, 4096), "n_grid entries must be >= 4")):
        with pytest.raises(ConfigurationError, match=message):
            _config(n_grid=n_grid).validate()
    # with H in 2-D, so that H's shape is not what fails
    with pytest.raises(ConfigurationError, match="schedule dimension mismatch"):
        _config(dimension=2, h=((0.25, 0.25), (0.75, 0.75)), schedule=_crs(0.5, d=1)).validate()


def test_run_theorem1_smoke():
    rep = run_theorem1(_config(n_grid=(4096, 16384), replications=4,
                               base_seed=11))
    assert set(rep["predicates"]) == {
        "median_sup_in_band", "median_inf_in_band",
        "sup_trend_toward_one", "inf_trend_toward_minus_one"}
    assert len(rep["records"]) == 8
    rec = rep["records"][0]
    assert rec.n == 4096 and rec.replication == 0 and rec.stream_index == 0
    last = rep["summary"]["16384"]
    assert last["sup_dev"]["median"] >= last["inf_dev"]["median"]


def test_run_theorem2_er_smoke():
    cfg = _config(theorem=2, schedule=_er(1.0), n_grid=(4096, 16384),
                  replications=4, base_seed=11)
    rep = run_theorem2(cfg)
    assert rep["limit_delta"] is not None
    assert rep["threshold"] == pytest.approx(0.25 * rep["limit_delta"])
    assert 0.0 <= rep["headline_fraction"] <= 1.0


def test_run_theorem2_crs_contrast():
    cfg = _config(theorem=2, schedule=_crs(0.6), n_grid=(65536,),
                  replications=4, base_seed=11)
    rep = run_theorem2(cfg)
    assert rep["limit_delta"] is None
    assert rep["threshold"] == 0.25
    assert "fraction_below_at_largest_n_ge_090" in rep["predicates"]


def test_run_theorem2_evaluates_the_density_on_a_grid_once_per_n(monkeypatch):
    # sup_deviation called density.pdf(grid.points) in every replication
    grids, args = [], []

    def recording_grid(*a):
        grids.append(make_grid(*a))
        return grids[-1]

    def recording_pdf(self, x):
        args.append(x)
        return pdf(self, x)

    pdf = Density.pdf
    monkeypatch.setattr(experiments, "make_grid", recording_grid)
    monkeypatch.setattr(Density, "pdf", recording_pdf)
    monkeypatch.setenv("WAVEDENS_THREADS", "1")
    run_theorem2(_config(theorem=2, schedule=_er(1.0), n_grid=(1024, 2048, 4096),
                         replications=30, base_seed=11))
    assert len(grids) == 3
    assert [sum(x is grid.points for x in args) for grid in grids] == [1, 1, 1]


def test_each_driver_runs_only_its_own_theorem():
    # each used to run the other theorem's config; the report kept its theorem
    with pytest.raises(ConfigurationError, match="theorem-1 config"):
        run_theorem2(_config())
    with pytest.raises(ConfigurationError, match="theorem-2 config"):
        run_theorem1(_config(theorem=2))


def test_stream_indices_partition():
    rep = run_theorem1(_config(n_grid=(4096, 8192), replications=3))
    idx = sorted(r.stream_index for r in rep["records"])
    assert idx == list(range(6))


def test_emit_report_deterministic(tmp_path):
    cfg = _config(replications=2)
    paths = []
    for tag in ("a", "b"):
        rep = run_theorem1(cfg)
        paths.append(emit_report(rep, str(tmp_path / tag)))
    csv_a = open(paths[0][0], "rb").read()
    csv_b = open(paths[1][0], "rb").read()
    assert csv_a == csv_b
    header = csv_a.decode().splitlines()[0]
    assert header == "theorem,n,j,rep,sup_dev,inf_dev,argmax,seed"
    payload = json.load(open(paths[0][1]))
    assert payload["config"]["log_convention"] == "natural"


def test_records_roundtrip_floats(tmp_path):
    rep = run_theorem1(_config(replications=2))
    csv_path, _ = emit_report(rep, str(tmp_path / "r"))
    lines = open(csv_path).read().splitlines()[1:]
    for rec, line in zip(rep["records"], lines):
        cols = line.split(",")
        assert float(cols[4]) == rec.sup_dev  # repr round-trips exactly
        assert float(cols[5]) == rec.inf_dev


def test_one_thread_pool_per_run(monkeypatch):
    pools = []

    class Counting(experiments.ThreadPoolExecutor):
        def __init__(self, *args, **kw):
            pools.append(self)
            super().__init__(*args, **kw)

    monkeypatch.setenv("WAVEDENS_THREADS", "1")
    serial = run_theorem1(_config(n_grid=(4096, 8192, 16384)))
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", Counting)
    monkeypatch.setenv("WAVEDENS_THREADS", "2")
    pooled = run_theorem1(_config(n_grid=(4096, 8192, 16384)))
    assert len(pools) == 1
    assert pooled["records"] == serial["records"]


@pytest.mark.parametrize("raw", [None, "0"])
def test_threads_unset_or_zero_means_auto(monkeypatch, raw):
    if raw is None:
        monkeypatch.delenv("WAVEDENS_THREADS", raising=False)
    else:
        monkeypatch.setenv("WAVEDENS_THREADS", raw)
    assert thread_count() == min(os.cpu_count() or 1, 8)


def test_threads_env_override(monkeypatch):
    # the D4 2-D theorem-2 run shares each grid's shift plan across threads
    smooth = _config(theorem=2, density="cosine_bump", dimension=2, basis="db4",
                     h=((0.25, 0.25), (0.75, 0.75)), schedule=_er(0.5, d=2),
                     n_grid=(4096,), replications=4)
    for run, config in ((run_theorem1, _config(replications=3)), (run_theorem2, smooth)):
        monkeypatch.setenv("WAVEDENS_THREADS", "1")
        rep1 = run(config)
        monkeypatch.setenv("WAVEDENS_THREADS", "4")
        rep4 = run(config)
        assert rep1["records"] == rep4["records"]  # sup_dev, inf_dev and argmax
