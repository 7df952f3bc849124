import argparse
import csv
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from yoasovi.acceptance import TemperatureSchedule
from yoasovi.cli import apply_overrides, build_parser
from yoasovi.driver import IterationRecord, RunConfig, run
from yoasovi.harness import (ExperimentMatrix, any_cell_failed, build_matrix,
                             emit_trajectory, format_table, load_config,
                             make_preset, read_trace, run_matrix, write_trace,
                             write_trajectory)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.001
        return self.t


def quick_template(**kw):
    base = dict(method="yoasovi-naive", learning_rate=5e-7, max_iters=30,
                patience=100, schedule=TemperatureSchedule("linear", 0.1),
                kmeans_style_init=True)
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# presets

def test_preset_shapes_and_names():
    for name, p, K in [("sim-p2k2", 2, 2), ("sim-p2k3", 2, 3), ("sim-p3k4", 3, 4)]:
        spec, data = make_preset(name)
        assert (spec.K, spec.p) == (K, p)
        assert data.values.shape == (500, p)
        assert data.name == name


def test_preset_is_reproducible_and_seedable():
    _, a = make_preset("sim-p2k2")
    _, b = make_preset("sim-p2k2")
    np.testing.assert_array_equal(a.values, b.values)
    _, c = make_preset("sim-p2k2", seed=999)
    assert not np.array_equal(a.values, c.values)


def test_preset_accepts_parameter_overrides():
    spec, data = make_preset("sim-p2k2", N=100, means=[[-6.0, 0.0], [6.0, 0.0]],
                             sds=np.full((2, 2), 0.5), weights=[0.9, 0.1])
    assert data.N == 100
    # dominant tight cluster near x = -6
    assert np.mean(data.values[:, 0] < 0) > 0.75


def test_preset_rejects_unknown_name_and_bad_dimension():
    with pytest.raises(ValueError):
        make_preset("sim-p9k9")
    with pytest.raises(ValueError):
        make_preset("sim-p2k2", means=[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


# ---------------------------------------------------------------------------
# the run matrix

def test_matrix_writes_one_trace_per_run_and_a_summary(tmp_path):
    spec, data = make_preset("sim-p2k2", N=60)
    matrix = ExperimentMatrix(
        datasets=(("sim-p2k2", spec, data),),
        methods=(("yoasovi-naive", quick_template()),
                 ("qmcvi", quick_template(method="qmcvi", samples=5,
                                          schedule=TemperatureSchedule()))),
        replicates=3, base_seed=5)
    rows = run_matrix(matrix, tmp_path, clock=FakeClock())

    traces = sorted(p.name for p in (tmp_path / "traces").glob("*.csv"))
    assert len(traces) == 6
    assert "sim-p2k2__qmcvi__r0.csv" in traces
    assert (tmp_path / "summary.csv").exists()
    assert len(rows) == 2
    assert {r.method for r in rows} == {"yoasovi-naive", "qmcvi"}
    assert all(r.runs == 3 and r.errors == 0 for r in rows)


def test_replicate_seeds_offset_from_base(tmp_path):
    spec, data = make_preset("sim-p2k2", N=60)
    matrix = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                              methods=(("yoasovi-naive", quick_template()),),
                              replicates=2, base_seed=41)
    run_matrix(matrix, tmp_path, clock=FakeClock())
    for r, seed in ((0, 41), (1, 42)):
        got = read_trace(tmp_path / "traces" / f"sim-p2k2__yoasovi-naive__r{r}.csv")
        direct = run(quick_template(seed=seed, model=spec), data, clock=FakeClock())
        assert [x.elbo for x in got] == [x.elbo for x in direct.records]


def test_rerun_is_byte_identical_under_injected_clock(tmp_path):
    spec, data = make_preset("sim-p2k2", N=60)
    matrix = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                              methods=(("yoasovi-naive", quick_template()),),
                              replicates=2, base_seed=0)
    run_matrix(matrix, tmp_path / "a", clock=FakeClock())
    run_matrix(matrix, tmp_path / "b", clock=FakeClock())
    for rel in ["summary.csv", "traces/sim-p2k2__yoasovi-naive__r0.csv",
                "traces/sim-p2k2__yoasovi-naive__r1.csv"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_aborted_runs_show_up_in_the_errors_column(tmp_path):
    spec, data = make_preset("sim-p2k2", N=60)
    exploding = quick_template(method="mcvi", samples=2, learning_rate=1e6,
                               schedule=TemperatureSchedule())
    matrix = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                              methods=(("mcvi", exploding),), replicates=3, base_seed=0)
    rows = run_matrix(matrix, tmp_path)
    assert rows[0].errors == 3
    assert any_cell_failed(rows)
    # partial traces still on disk
    assert len(list((tmp_path / "traces").glob("*.csv"))) == 3


def test_degenerate_cell_still_gets_a_summary_row(tmp_path):
    spec, data = make_preset("sim-p2k2", N=80)
    degenerate = RunConfig(method="yoasovi-naive", learning_rate=0.1, max_iters=50)
    matrix = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                              methods=(("fine", quick_template()), ("degenerate", degenerate)),
                              replicates=1, base_seed=0)
    rows = run_matrix(matrix, tmp_path)
    assert [(r.method, r.errors) for r in rows] == [("fine", 0), ("degenerate", 1)]
    with open(tmp_path / "summary.csv", newline="") as fh:
        written = list(csv.DictReader(fh))
    assert [(r["method"], r["errors"]) for r in written] == [("fine", "0"), ("degenerate", "1")]


def test_single_replicate_sd_is_zero(tmp_path):
    spec, data = make_preset("sim-p2k2", N=60)
    matrix = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                              methods=(("yoasovi-naive", quick_template()),),
                              replicates=1, base_seed=7)
    rows = run_matrix(matrix, tmp_path, clock=FakeClock())
    assert rows[0].elbo_sd == 0.0
    assert rows[0].iterations_sd == 0.0


def test_summary_row_statistics_match_trace_files(tmp_path):
    from yoasovi.driver import final_elbo
    spec, data = make_preset("sim-p2k2", N=60)
    matrix = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                              methods=(("yoasovi-naive", quick_template()),),
                              replicates=4, base_seed=2)
    rows = run_matrix(matrix, tmp_path, clock=FakeClock())
    elbos = [final_elbo(read_trace(tmp_path / "traces" / f"sim-p2k2__yoasovi-naive__r{r}.csv"))
             for r in range(4)]
    assert rows[0].elbo_mean == pytest.approx(np.mean(elbos), abs=1e-12)
    assert rows[0].elbo_sd == pytest.approx(np.std(elbos), abs=1e-12)


def test_parallel_jobs_agree_with_serial(tmp_path):
    spec, data = make_preset("sim-p2k2", N=60)
    matrix = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                              methods=(("yoasovi-naive", quick_template()),),
                              replicates=2, base_seed=0)
    serial = run_matrix(matrix, tmp_path / "s", jobs=1)
    parallel = run_matrix(matrix, tmp_path / "p", jobs=2)
    assert [r.elbo_mean for r in serial] == pytest.approx(
        [r.elbo_mean for r in parallel], abs=1e-12)
    with pytest.raises(ValueError):
        run_matrix(matrix, tmp_path / "x", jobs=2, clock=FakeClock())


def test_format_table_mentions_every_cell(tmp_path):
    spec, data = make_preset("sim-p2k2", N=60)
    matrix = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                              methods=(("yoasovi-naive", quick_template()),),
                              replicates=1, base_seed=0)
    rows = run_matrix(matrix, tmp_path, clock=FakeClock())
    table = format_table(rows)
    assert "sim-p2k2" in table and "yoasovi-naive" in table


# ---------------------------------------------------------------------------
# trace file round trips

def test_trace_round_trip(tmp_path):
    spec, data = make_preset("sim-p2k2", N=60)
    trace = run(quick_template(seed=0, model=spec), data, clock=FakeClock())
    write_trace(trace, tmp_path / "t.csv")
    back = read_trace(tmp_path / "t.csv")
    assert back == list(trace.records)
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert header == "iter,elapsed_s,elbo,accepted,M"


def test_trace_round_trip_without_temperature(tmp_path):
    rec = IterationRecord(t=1, elapsed_s=0.5, elbo=-10.0, accepted=True, M=None)
    trace = run(quick_template(method="mcvi", samples=2, max_iters=3,
                               schedule=TemperatureSchedule(), seed=0,
                               model=make_preset("sim-p2k2", N=60)[0]),
                make_preset("sim-p2k2", N=60)[1], clock=FakeClock())
    write_trace(trace, tmp_path / "m.csv")
    back = read_trace(tmp_path / "m.csv")
    assert all(r.M is None for r in back)
    assert rec.M is None  # sanity on the record type itself


def test_read_trace_rejects_foreign_header(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace(f)


# ---------------------------------------------------------------------------
# trajectories

def test_emit_trajectory_filters_by_horizon():
    recs = [IterationRecord(t=i, elapsed_s=0.5 * i, elbo=-float(i), accepted=True)
            for i in range(1, 11)]
    rows = emit_trajectory(recs, horizon_seconds=2.0)
    assert rows == [(0.5, -1.0), (1.0, -2.0), (1.5, -3.0), (2.0, -4.0)]
    assert emit_trajectory(recs, horizon_seconds=0.0) == []
    with pytest.raises(ValueError):
        emit_trajectory(recs, horizon_seconds=-1.0)


def test_write_trajectory_format(tmp_path):
    out = tmp_path / "traj.csv"
    write_trajectory([("a", [(0.5, -1.0)]), ("b", [(0.25, -2.0), (0.75, -3.0)])], out)
    lines = out.read_text().splitlines()
    assert lines[0] == "series,elapsed_s,elbo"
    assert lines[1].startswith("a,0.5,")
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# config files and overrides

FULL_CONFIG = """
model:
  K: 3
  p: 2
  prior_mean_scale: 4.0
  prior_dirichlet_alpha: 2.0
  prior_logsd_scale: 0.7
run:
  method: yoasovi-metropolis
  samples: 1
  learning_rate: 1.0e-4
  max_iters: 77
  patience: 13
  seed: 3
  kmeans_style_init: true
  temper:
    kind: linear
    k: 0.25
data:
  csv: {csv_path}
experiment:
  replicates: 4
  base_seed: 21
  jobs: 2
  out: {out_dir}
"""


def test_config_mirrors_every_field(tmp_path):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("0.1,0.2\n0.3,0.4\n1.0,1.1\n")
    text = FULL_CONFIG.format(csv_path=csv_path, out_dir=tmp_path / "res")
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(text)

    matrix, options = build_matrix(load_config(cfg_file))
    (label, template), = matrix.methods
    assert label == "yoasovi-metropolis"
    assert template.method == "yoasovi-metropolis"
    assert template.samples == 1
    assert template.learning_rate == 1e-4
    assert template.max_iters == 77
    assert template.patience == 13
    assert template.kmeans_style_init is True
    assert template.schedule == TemperatureSchedule("linear", 0.25)
    spec = template.model
    assert (spec.K, spec.p) == (3, 2)
    assert spec.prior_mean_scale == 4.0
    assert spec.prior_dirichlet_alpha == 2.0
    assert spec.prior_logsd_scale == 0.7
    assert matrix.replicates == 4
    assert matrix.base_seed == 21
    assert options == {"jobs": 2, "out": str(tmp_path / "res")}
    name, _, dataset = matrix.datasets[0]
    assert name == "pts"
    assert dataset.values.shape == (3, 2)


def _ns(**kw):
    fields = dict(method=None, samples=None, temper=None, k=None, patience=None,
                  max_iters=None, lr=None, seed=None, data=None, preset=None,
                  replicates=None, jobs=None, out=None)
    fields.update(kw)
    return argparse.Namespace(**fields)


def test_every_flag_overrides_its_config_key():
    cfg = {"run": {"method": "mcvi", "samples": 100, "learning_rate": 1e-3,
                   "max_iters": 500, "patience": 10, "temper": {"kind": "log", "k": 1.0}},
           "data": {"preset": "sim-p2k2"},
           "experiment": {"replicates": 10, "base_seed": 0, "jobs": 1, "out": "r"}}
    args = _ns(method="yoasovi-naive", temper="linear", k=0.5, patience=3,
               max_iters=9, lr=2e-6, seed=77, preset="sim-p2k3", replicates=2,
               jobs=4, out="elsewhere")
    out = apply_overrides(cfg, args)
    assert out["run"]["method"] == "yoasovi-naive"
    assert out["run"]["samples"] == 1  # implied by the method switch
    assert out["run"]["temper"] == {"kind": "linear", "k": 0.5}
    assert out["run"]["patience"] == 3
    assert out["run"]["max_iters"] == 9
    assert out["run"]["learning_rate"] == 2e-6
    assert out["data"] == {"preset": "sim-p2k3"}
    assert out["experiment"]["base_seed"] == 77
    assert out["experiment"]["replicates"] == 2
    assert out["experiment"]["jobs"] == 4
    assert out["experiment"]["out"] == "elsewhere"
    # the original dict is untouched
    assert cfg["run"]["method"] == "mcvi"


def test_data_flag_replaces_preset():
    cfg = {"run": {"method": "mcvi"}, "data": {"preset": "sim-p2k2"}}
    out = apply_overrides(cfg, _ns(data="obs.csv"))
    assert out["data"] == {"csv": "obs.csv"}


def test_method_flag_picks_matching_experiment_entry():
    cfg = {"run": {"method": "mcvi", "samples": 1},
           "experiment": {"methods": [{"method": "mcvi", "samples": 100},
                                      {"method": "qmcvi", "samples": 10}]}}
    out = apply_overrides(cfg, _ns(method="qmcvi"))
    assert out["experiment"]["methods"] == [{"method": "qmcvi", "samples": 10}]


# ---------------------------------------------------------------------------
# command line, end to end

def write_quick_config(tmp_path, lr="5.0e-7"):
    cfg = f"""
model: {{K: 2, p: 2}}
run:
  method: yoasovi-naive
  learning_rate: {lr}
  max_iters: 30
  patience: 100
  kmeans_style_init: true
  temper: {{kind: linear, k: 0.1}}
data: {{preset: sim-p2k2, n: 60}}
experiment: {{replicates: 2, base_seed: 0, out: {tmp_path / "res"}}}
"""
    path = tmp_path / "quick.yaml"
    path.write_text(cfg)
    return path


def cli(*argv):
    return subprocess.run([sys.executable, "-m", "yoasovi.cli", *argv],
                          capture_output=True, text=True)


def test_cli_run_and_trajectory_round_trip(tmp_path):
    cfg = write_quick_config(tmp_path)
    res = cli("run", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    assert "yoasovi-naive" in res.stdout
    trace = tmp_path / "res" / "traces" / "sim-p2k2__yoasovi-naive__r0.csv"
    assert trace.exists()

    out = tmp_path / "traj.csv"
    res2 = cli("trajectory", "--trace", str(trace), "--horizon", "100", "--out", str(out))
    assert res2.returncode == 0, res2.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "series,elapsed_s,elbo"
    assert len(lines) == 1 + len(read_trace(trace))


def test_cli_exit_code_when_every_replicate_fails(tmp_path):
    cfg = write_quick_config(tmp_path, lr="1.0e6")
    res = cli("run", "--config", str(cfg))
    assert res.returncode == 1


def test_cli_flag_overrides_reach_the_run(tmp_path):
    cfg = write_quick_config(tmp_path)
    out = tmp_path / "alt"
    res = cli("run", "--config", str(cfg), "--max-iters", "5",
              "--replicates", "1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    trace = read_trace(out / "traces" / "sim-p2k2__yoasovi-naive__r0.csv")
    assert len(trace) <= 5


def test_parser_rejects_unknown_method():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--config", "x.yaml", "--method", "vb"])


def test_parser_rejects_data_with_preset():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", "--config", "x.yaml", "--data", "pts.csv",
                                   "--preset", "sim-p3k4"])
    assert exc.value.code == 2
