import argparse
import concurrent.futures
import csv
import multiprocessing
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from yoasovi import harness
from yoasovi.acceptance import TemperatureSchedule
from yoasovi.cli import apply_overrides, build_parser, main
from yoasovi.driver import RunConfig, RunSummary, RunTrace, TraceColumns, run
from yoasovi.errors import ParseError
from yoasovi.harness import (ExperimentMatrix, any_cell_failed, build_matrix,
                             emit_trajectory, format_table, load_config,
                             make_preset, read_trace, run_matrix, write_summary,
                             write_trace, write_trajectory)


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
    spec, data = make_preset("sim-p2k2", N=100)
    assert data.N == 100


def test_preset_rejects_unknown_name_and_non_integer_size_or_seed():
    with pytest.raises(ValueError):
        make_preset("sim-p9k9")
    with pytest.raises(TypeError, match="^N must be an integer, got 2.5$"):
        make_preset("sim-p2k2", N=2.5)
    with pytest.raises(TypeError, match="^seed must be an integer, got '7'$"):
        make_preset("sim-p2k2", seed="7")
    with pytest.raises(ValueError, match="^seed must be >= 0, got -3$"):
        make_preset("sim-p2k2", seed=-3)


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


def test_duplicate_method_labels_are_rejected():
    """Two entries of one method would write their traces to the same
    files, and the second run would overwrite the first."""
    cfg = {"model": {}, "run": {"method": "mcvi", "learning_rate": 5e-7},
           "data": {"preset": "sim-p2k2", "n": 60},
           "experiment": {"methods": [{"samples": 100}, {"samples": 10}]}}
    with pytest.raises(ValueError, match="'mcvi'"):
        build_matrix(cfg)
    spec, data = make_preset("sim-p2k2", N=60)
    ExperimentMatrix(datasets=(("a", spec, data), ("b", spec, data)),
                     methods=(("mcvi", quick_template(method="mcvi")),), replicates=1)


def test_labelled_entries_of_one_method_share_a_matrix(tmp_path):
    """An experiment.methods label names the entry's cells, so mcvi at
    S=100 and at S=10 each get their own trace files and summary row."""
    cfg = {"model": {}, "run": {"method": "mcvi", "learning_rate": 5e-7, "max_iters": 3},
           "data": {"preset": "sim-p2k2", "n": 60},
           "experiment": {"methods": [{"samples": 100, "label": "mcvi-S100"},
                                      {"samples": 10, "label": "mcvi-S10"}],
                          "replicates": 2}}
    matrix, _ = build_matrix(cfg)
    assert [(label, t.method, t.samples) for label, t in matrix.methods] == [
        ("mcvi-S100", "mcvi", 100), ("mcvi-S10", "mcvi", 10)]
    rows = run_matrix(matrix, tmp_path, clock=FakeClock())
    traces = {p.name for p in (tmp_path / "traces").glob("*.csv")}
    assert traces == {f"sim-p2k2__mcvi-S{S}__r{r}.csv" for S in (100, 10) for r in (0, 1)}
    assert [(r.method, r.runs, r.errors) for r in rows] == [("mcvi-S100", 2, 0),
                                                           ("mcvi-S10", 2, 0)]
    with open(tmp_path / "summary.csv", newline="") as fh:
        assert [row["method"] for row in csv.DictReader(fh)] == ["mcvi-S100", "mcvi-S10"]


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


EVERY_METHOD = (("mcvi", quick_template(method="mcvi", samples=3)),
                ("qmcvi", quick_template(method="qmcvi", samples=10)),
                ("yoasovi-naive", quick_template()),
                ("yoasovi-metropolis", quick_template(method="yoasovi-metropolis")))


def test_parallel_jobs_agree_with_serial(tmp_path):
    """Pooled runs of every method give the serial runs' traces and summary
    rows, all but their wall times, so whatever the parent does before the
    pool starts takes nothing from any run's stream."""
    spec, data = make_preset("sim-p2k2", N=60)
    matrix = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                              methods=EVERY_METHOD, replicates=2, base_seed=0)
    serial = run_matrix(matrix, tmp_path / "s", jobs=1)
    parallel = run_matrix(matrix, tmp_path / "p", jobs=2)
    assert [r.elbo_mean for r in serial] == pytest.approx(
        [r.elbo_mean for r in parallel], abs=1e-12)
    untimed = [f for f in harness.SUMMARY_FIELDS if not f.startswith("seconds_")]
    assert ([[getattr(r, f) for f in untimed] for r in serial]
            == [[getattr(r, f) for f in untimed] for r in parallel])
    names = sorted(p.name for p in (tmp_path / "s" / "traces").iterdir())
    assert len(names) == 8
    assert names == sorted(p.name for p in (tmp_path / "p" / "traces").iterdir())
    for name in names:
        s, p = (read_trace(tmp_path / side / "traces" / name) for side in ("s", "p"))
        assert s.elbo.tobytes() == p.elbo.tobytes(), name
        assert s.accepted.tolist() == p.accepted.tolist(), name
        assert (s.M is None) == (p.M is None) == name.split("__")[1].endswith("cvi"), name
        assert s.M is None or s.M.tobytes() == p.M.tobytes(), name
    with pytest.raises(ValueError):
        run_matrix(matrix, tmp_path / "x", jobs=2, clock=FakeClock())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
def test_only_a_fork_pool_gets_one_warm_source_of_each_kind_first(tmp_path, monkeypatch):
    """run_matrix builds one throwaway source per point-source kind of its
    runs (dimension 1, seed 0) in the parent, before a fork pool starts:
    none at jobs=1, and none for a spawn or forkserver pool, whose workers
    would not inherit it.  The non-fork pools are stubs that run the tasks
    in this process, so no worker is started for them."""
    events = []
    real_make_source = harness.make_source

    def recording_make_source(kind, dimension, seed):
        events.append(("source", kind, dimension, seed))
        return real_make_source(kind, dimension, seed=seed)

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, mp_context=None, **kwargs):
            events.append(("pool", mp_context.get_start_method()))
            super().__init__(max_workers=max_workers, mp_context=mp_context, **kwargs)

    class InProcess:
        def __init__(self, max_workers=None, mp_context=None):
            events.append(("pool", mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    get_context = multiprocessing.get_context
    monkeypatch.setattr(harness, "make_source", recording_make_source)
    spec, data = make_preset("sim-p2k2", N=60)
    matrix = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                              methods=EVERY_METHOD[:3], replicates=2, base_seed=0)

    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: get_context("fork"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    assert [r.errors for r in run_matrix(matrix, tmp_path / "fork", jobs=2)] == [0, 0, 0]
    assert events == [("source", "pseudo-random", 1, 0), ("source", "sobol-scrambled", 1, 0),
                      ("pool", "fork")]

    events.clear()
    run_matrix(matrix, tmp_path / "serial", jobs=1)
    assert events == []

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    for method in ("spawn", "forkserver"):
        if method not in multiprocessing.get_all_start_methods():
            continue
        events.clear()
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda m=None, method=method: get_context(method))
        assert [r.errors for r in run_matrix(matrix, tmp_path / method, jobs=2)] == [0, 0, 0]
        assert events == [("pool", method)]


def test_the_pool_starts_at_most_one_worker_per_run(tmp_path, monkeypatch):
    """A fork pool starts every worker it may use up front, so run_matrix
    asks for min(jobs, runs) of them: 2 for 2 runs at jobs=8, and jobs when
    there are more runs.  A matrix with no runs starts no pool."""
    asked = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            asked.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    spec, data = make_preset("sim-p2k2", N=60)
    for replicates, jobs in [(2, 8), (3, 2)]:
        matrix = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                                  methods=(("yoasovi-naive", quick_template()),),
                                  replicates=replicates, base_seed=0)
        rows = run_matrix(matrix, tmp_path / f"r{replicates}", jobs=jobs)
        assert [row.errors for row in rows] == [0]
    empty = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),), methods=())
    assert run_matrix(empty, tmp_path / "none", jobs=4) == []
    assert asked == [2, 2]


def test_format_table_mentions_every_cell(tmp_path):
    spec, data = make_preset("sim-p2k2", N=60)
    matrix = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                              methods=(("yoasovi-naive", quick_template()),),
                              replicates=1, base_seed=0)
    rows = run_matrix(matrix, tmp_path, clock=FakeClock())
    table = format_table(rows)
    assert "sim-p2k2" in table and "yoasovi-naive" in table


def _summary(iterations, seconds, elbo, dic, converged=False, error=None):
    return RunSummary(iterations=iterations, wall_seconds=seconds, final_elbo=elbo, dic=dic,
                      converged=converged, density_evals=iterations, error=error)


FIXED_CELLS = [  # finished; no accepted iteration and no DIC; all errors; a comma
    ("sim-p2k2", "mcvi", [_summary(120, 1.25, -1234.5, 2470.0, converged=True),
                          _summary(80, 0.75, -1240.25, 2480.5)]),
    ("sim-p2k2", "yoasovi-naive", [_summary(3, 0.0125, None, None)]),
    ("sim-p2k2", "big", [_summary(7, 0.5, None, None, error="NumericError: x")] * 2),
    ("a,b", "qmcvi", [_summary(41, 2.0 / 3.0, -17.0 / 3.0, 11.0)]),
]

FIXED_TABLE = """\
dataset    method                        iters          seconds                   elbo                    dic   conv  err
-------------------------------------------------------------------------------------------------------------------------
sim-p2k2   mcvi                   100.0 (20.0)    1.000 (0.250)          -1237.4 (2.9)           2475.2 (5.2)   0.50    0
sim-p2k2   yoasovi-naive             3.0 (0.0)    0.013 (0.000)                      -                      -   0.00    0
sim-p2k2   big                               -                -                      -                      -   0.00    2
a,b        qmcvi                    41.0 (0.0)    0.667 (0.000)             -5.7 (0.0)             11.0 (0.0)   0.00    0"""

FIXED_SUMMARY_CSV = """\
dataset,method,runs,errors,iterations_mean,iterations_sd,seconds_mean,seconds_sd,elbo_mean,elbo_sd,dic_mean,dic_sd,converged_frac
sim-p2k2,mcvi,2,0,100.0,20.0,1.0,0.25,-1237.375,2.875,2475.25,5.25,0.5
sim-p2k2,yoasovi-naive,1,0,3.0,0.0,0.0125,0.0,,,,,0.0
sim-p2k2,big,2,2,,,,,,,,,0.0
"a,b",qmcvi,1,0,41.0,0.0,0.6666666666666666,0.0,-5.666666666666667,0.0,11.0,0.0,0.0
"""


def test_summary_table_csv_and_rows_are_pinned_for_fixed_cells(tmp_path):
    rows = [harness._summarise_cell(*cell) for cell in FIXED_CELLS]
    assert format_table(rows) == FIXED_TABLE
    write_summary(rows, tmp_path / "summary.csv")
    assert (tmp_path / "summary.csv").read_bytes() == FIXED_SUMMARY_CSV.encode()
    assert repr(rows[1]) == (
        "SummaryRow(dataset='sim-p2k2', method='yoasovi-naive', runs=1, errors=0, "
        "iterations_mean=3.0, iterations_sd=0.0, seconds_mean=0.0125, seconds_sd=0.0, "
        "elbo_mean=None, elbo_sd=None, dic_mean=None, dic_sd=None, converged_frac=0.0)")
    assert pickle.loads(pickle.dumps(rows)) == rows


# ---------------------------------------------------------------------------
# trace file round trips

def test_trace_round_trip(tmp_path):
    spec, data = make_preset("sim-p2k2", N=60)
    trace = run(quick_template(seed=0, model=spec), data, clock=FakeClock())
    write_trace(trace, tmp_path / "t.csv")
    back = read_trace(tmp_path / "t.csv")
    assert list(back) == list(trace.records)
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert header == "iter,elapsed_s,elbo,accepted,M"


def test_trace_round_trip_without_temperature(tmp_path):
    """Each record field lands under its own column, a rejected iteration
    as 0 and a missing temperature as an empty cell, and reads back."""
    trace = run(quick_template(method="mcvi", samples=2, max_iters=3,
                               schedule=TemperatureSchedule(), seed=0,
                               model=make_preset("sim-p2k2", N=60)[0]),
                make_preset("sim-p2k2", N=60)[1], clock=FakeClock())
    write_trace(trace, tmp_path / "m.csv")
    back = read_trace(tmp_path / "m.csv")
    assert list(back) == list(trace.records) and all(r.M is None for r in back)
    columns = TraceColumns(elapsed_s=[0.25, 0.5], elbo=[-7.5, -6.0], accepted=[False, True])
    write_trace(RunTrace(columns=columns, summary=None), tmp_path / "h.csv")
    assert (tmp_path / "h.csv").read_text() == (
        "iter,elapsed_s,elbo,accepted,M\n1,0.25,-7.5,0,\n2,0.5,-6.0,1,\n")
    assert list(read_trace(tmp_path / "h.csv")) == list(columns)


# floats a careless format would change: exponent forms, the smallest
# subnormal, a signed zero, and a sum and a quotient that need 17 digits
AWKWARD = [1e-05, 1e+16, 5e-324, -0.0, 0.1 + 0.2, 1 / 3]


@pytest.mark.parametrize("with_M", [True, False], ids=["M", "no-M"])
def test_trace_cells_are_str_of_each_float_and_read_back_bit_for_bit(tmp_path, with_M):
    n = len(AWKWARD)
    accepted = [t % 2 == 0 for t in range(n)]
    M = AWKWARD[2:] + AWKWARD[:2] if with_M else None
    columns = TraceColumns(elapsed_s=AWKWARD, elbo=AWKWARD[::-1], accepted=accepted, M=M)
    write_trace(RunTrace(columns=columns, summary=None), tmp_path / "t.csv")
    want = ["iter,elapsed_s,elbo,accepted,M"] + [
        ",".join([str(t), str(e), str(elbo), "1" if a else "0", "" if m is None else str(m)])
        for t, e, elbo, a, m in zip(range(1, n + 1), AWKWARD, AWKWARD[::-1], accepted,
                                    M or [None] * n)]
    assert (tmp_path / "t.csv").read_bytes() == ("\n".join(want) + "\n").encode()
    back = read_trace(tmp_path / "t.csv")
    for name in ("elapsed_s", "elbo", "accepted"):
        got, sent = getattr(back, name), getattr(columns, name)
        assert got.dtype == sent.dtype and got.tobytes() == sent.tobytes(), name
    if with_M:
        assert back.M.tobytes() == columns.M.tobytes()
    else:
        assert back.M is None
    assert list(back) == list(columns)


def test_read_trace_rejects_foreign_header(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace(f)


@pytest.mark.parametrize("rows, message", [
    ("1,0.5,-1.0,1,\n3,1.0,-2.0,1,\n", "row 3 has iter 3, expected 2"),
    ("1,0.5,-1.0,1,1.5\n2,1.0,-2.0,1,\n", "row 3 has no M value, unlike row 2"),
    ("1,0.5,-1.0,1,\n2,1.0,-2.0,1,1.5\n", "row 3 has an M value, unlike row 2"),
    ("1,0.5,-1.0,2,\n", "bad cell at row 2, column 4: '2'"),
    ("1,0.5,-1.0,0,\n2,1.0,-2.0,-1,\n", "bad cell at row 3, column 4: '-1'"),
    ("1,0.5,-1.0,true,\n", "bad cell at row 2, column 4: 'true'"),
    ("1,nan,-1.0,1,\n", "bad cell at row 2, column 2: 'nan'"),
    ("1,0.5,nan,1,\n", "bad cell at row 2, column 3: 'nan'"),
    ("1,0.5,-1.0,1,1.5\n2,1.0,-inf,1,1.5\n", "bad cell at row 3, column 3: '-inf'"),
    ("1,inf,-1.0,1,1.5\n", "bad cell at row 2, column 2: 'inf'"),
    ("1,0.5,-1.0,1,nan\n", "bad cell at row 2, column 5: 'nan'"),
    ("1,0.5,-1.0,1,1.5\n2,1.0,-2.0,1,inf\n", "bad cell at row 3, column 5: 'inf'"),
    ("1,0.5,nan,2,\n2,inf,-10.0,-1,\n", "bad cell at row 2, column 3: 'nan'"),
    ("+1,0.5,-1.0,1,\n 2,1_0.5,-2.0,0,\n", "bad cell at row 2, column 1: '+1'"),
    ("1,0.5,-1.0,1,\n 2,1_0.5,-2.0,0,\n", "bad cell at row 3, column 1: ' 2'"),
    ("1,0.5,-1.0,1,\n2,1_0.5,-2.0,0,\n", "bad cell at row 3, column 2: '1_0.5'"),
    ("1_0,0.5,-1.0,1,\n", "bad cell at row 2, column 1: '1_0'"),
    ("01,0.5,-1.0,1,\n", "bad cell at row 2, column 1: '01'"),
    ("1,+0.5,-1.0,1,\n", "bad cell at row 2, column 2: '+0.5'"),
    ("1,0.5, -1.0,1,\n", "bad cell at row 2, column 3: ' -1.0'"),
    ("1,0.5,-1.0,1,1.5 \n", "bad cell at row 2, column 5: '1.5 '"),
    ("1,0.5,-1.0,1,1_5\n", "bad cell at row 2, column 5: '1_5'"),
])
def test_read_trace_names_a_row_no_run_writes(tmp_path, rows, message):
    f = tmp_path / "t.csv"
    f.write_text("iter,elapsed_s,elbo,accepted,M\n" + rows)
    with pytest.raises(ParseError, match=re.escape(f"{f}: {message}")):
        read_trace(f)


def test_a_write_that_fails_leaves_the_previous_file_and_no_temporary_file(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text("previous\n")

    def rows():
        yield ["a", 1.5]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        harness._write_csv(path, ["name", "value"], rows())
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]
    harness._write_csv(path, ["name", "value"], [["a", 1.5]])
    assert path.read_text() == "name,value\na,1.5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]


# ---------------------------------------------------------------------------
# trajectories

def test_emit_trajectory_filters_by_horizon():
    recs = TraceColumns(elapsed_s=[0.5 * i for i in range(1, 11)],
                        elbo=[-float(i) for i in range(1, 11)], accepted=[True] * 10)
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


def test_method_flag_keeps_entries_that_take_their_method_from_run():
    """An entry without its own method runs run.method, so --method keeps it
    when run.method matches and drops it when not."""
    cfg = {"model": {}, "run": {"method": "mcvi", "learning_rate": 5e-7},
           "data": {"preset": "sim-p2k2", "n": 60},
           "experiment": {"methods": [{"samples": 100, "label": "big"},
                                      {"samples": 10, "label": "small"},
                                      {"method": "qmcvi", "samples": 5}]}}
    def cells(*flags):
        return {label: (t.method, t.samples) for label, t in templates(*flags, cfg=cfg).items()}
    everything = {"big": ("mcvi", 100), "small": ("mcvi", 10), "qmcvi": ("qmcvi", 5)}
    assert cells() == everything
    assert cells("--method", "mcvi") == {"big": ("mcvi", 100), "small": ("mcvi", 10)}
    assert cells("--method", "qmcvi") == {"qmcvi": ("qmcvi", 5)}
    assert cells("--method", "yoasovi-naive") == {"yoasovi-naive": ("yoasovi-naive", 1)}


def test_data_flag_on_a_csv_replaces_only_the_path(tmp_path):
    """label_column stays, so the class column is still dropped (p=2, not 3)."""
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).write_text("x,y,species\n0.1,0.2,1\n0.3,0.4,2\n1.0,1.1,1\n")
    cfg = {"run": {"method": "mcvi"},
           "data": {"csv": str(tmp_path / "a.csv"), "label_column": "species"}}
    out = apply_overrides(cfg, _ns(data=str(tmp_path / "b.csv")))
    assert out["data"] == {"csv": str(tmp_path / "b.csv"), "label_column": "species"}
    matrix, _ = build_matrix({"model": {"K": 2}, "experiment": {}, **out})
    name, spec, data = matrix.datasets[0]
    assert (name, spec.p, data.values.shape) == ("b", 2, (3, 2))


def test_preset_flag_on_a_preset_replaces_only_the_name():
    """n and seed stay, so --preset on n: 200 still fits 200 points."""
    cfg = {"run": {"method": "mcvi"}, "data": {"preset": "sim-p2k2", "n": 200, "seed": 7}}
    out = apply_overrides(cfg, _ns(preset="sim-p2k3"))
    assert out["data"] == {"preset": "sim-p2k3", "n": 200, "seed": 7}
    matrix, _ = build_matrix({"model": {}, "experiment": {}, **out})
    name, spec, data = matrix.datasets[0]
    assert (name, spec.K, data.N) == ("sim-p2k3", 3, 200)
    np.testing.assert_array_equal(data.values, make_preset("sim-p2k3", N=200, seed=7)[1].values)



def test_data_flags_drop_the_model_keys_their_data_pins(tmp_path):
    """A flag beats the config: --preset fits its own K and p over a model
    that states others, and --data its own p, where the same model beside
    that data in the file exits 2 (the K- and p-against cases below)."""
    (tmp_path / "pts.csv").write_text("0.1,0.2,0.3\n0.3,0.4,0.5\n1.0,1.1,1.2\n")
    cfg = {"model": {"K": 2, "p": 2}, "run": {"method": "mcvi"},
           "data": {"preset": "sim-p2k2", "n": 60}, "experiment": {}}
    for args, want in ((_ns(preset="sim-p3k4"), (4, 3)),
                       (_ns(data=str(tmp_path / "pts.csv")), (2, 3))):
        matrix, _ = build_matrix(apply_overrides(cfg, args))
        [(_, spec, _)] = matrix.datasets
        assert (spec.K, spec.p) == want
    assert cfg["model"] == {"K": 2, "p": 2}

# One precedence for run settings: flag, then the kept experiment.methods
# entry, then the run section, then the RunConfig defaults.

PRECEDENCE_CONFIG = {
    "model": {"K": 2, "p": 2},
    "run": {"method": "yoasovi-naive", "samples": 1, "learning_rate": 1e-3,
            "max_iters": 50, "patience": 10, "temper": {"kind": "linear", "k": 0.1}},
    "data": {"preset": "sim-p2k2", "n": 60},
    "experiment": {"methods": [
        {"method": "mcvi", "samples": 100, "learning_rate": 2e-3, "max_iters": 40,
         "patience": 20, "temper": {"kind": "constant", "k": 0.3}},
        {"method": "yoasovi-naive", "samples": 1, "temper": {"k": 0.2}}]},
}


def templates(*flags, cfg=PRECEDENCE_CONFIG):
    args = build_parser().parse_args(["run", "--config", "unused.yaml", *flags])
    matrix, _ = build_matrix(apply_overrides(cfg, args))
    return dict(matrix.methods)


def test_samples_flag_beats_the_kept_entry():
    assert templates("--method", "mcvi")["mcvi"].samples == 100
    assert templates("--method", "mcvi", "--samples", "5")["mcvi"].samples == 5


@pytest.mark.parametrize("flag,value,field", [
    ("--lr", "5e-06", "learning_rate"), ("--patience", "7", "patience"),
    ("--max-iters", "9", "max_iters"), ("--temper", "log", "kind"), ("--k", "0.7", "k")])
def test_run_setting_flag_beats_every_entry(flag, value, field):
    for template in templates(flag, value).values():
        owner = template.schedule if field in ("kind", "k") else template
        assert str(getattr(owner, field)) == value


def test_entry_beats_run_section_and_temper_merges_one_level_deep():
    got = templates()
    assert got["mcvi"].learning_rate == 2e-3
    assert got["mcvi"].schedule == TemperatureSchedule("constant", 0.3)
    assert got["yoasovi-naive"].learning_rate == 1e-3
    assert got["yoasovi-naive"].schedule == TemperatureSchedule("linear", 0.2)


def test_samples_flag_reaches_yoasovi_entries_and_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({**PRECEDENCE_CONFIG,
                                   "experiment": {**PRECEDENCE_CONFIG["experiment"],
                                                  "out": str(tmp_path / "res")}}))
    assert main(["run", "--config", str(cfg), "--samples", "7"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "yoasovi run: error: acceptance sampling estimates from exactly one draw; "
        "samples must be 1"]
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("key,value,error", [
    pytest.param("replicates", 2.5, "replicates must be an integer, got 2.5",
                 id="replicates-2.5-2.5"),
    pytest.param("jobs", 1.9, "jobs must be an integer, got 1.9", id="jobs-1.9-1.9"),
    pytest.param("base_seed", 3.7, "base_seed must be an integer, got 3.7",
                 id="base_seed-3.7-3.7"),
    pytest.param("replicates", "1.0e3", "replicates must be an integer, got '1.0e3'",
                 id="replicates-1.0e3-'1.0e3'"),
    pytest.param("jobs", 0, "jobs must be >= 1, got 0", id="jobs-0"),
    pytest.param("jobs", -3, "jobs must be >= 1, got -3", id="jobs--3"),
    pytest.param("out", 5, "out must be a string, got 5", id="out-5"),
    # the data section's n is make_preset's N
    pytest.param("data.n", 2.5, "N must be an integer, got 2.5", id="data.n-2.5"),
    pytest.param("data.n", "60", "N must be an integer, got '60'", id="data.n-'60'"),
    pytest.param("data.seed", 1.5, "seed must be an integer, got 1.5", id="data.seed-1.5"),
    pytest.param("base_seed", -2, "base_seed must be >= 0, got -2", id="base_seed--2"),
    pytest.param("data.seed", -3, "seed must be >= 0, got -3", id="data.seed--3")])
def test_cli_non_integer_experiment_setting_is_one_line_and_exit_2(tmp_path, capsys,
                                                                  key, value, error):
    cfg = write_quick_config(tmp_path)
    loaded = load_config(cfg)
    section, _, name = key.rpartition(".")
    loaded[section or "experiment"][name] = value
    cfg.write_text(yaml.safe_dump(loaded))
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"yoasovi run: error: {error}"]
    assert not (tmp_path / "res").exists()


def test_matrix_rejects_a_negative_base_seed_by_name():
    spec, data = make_preset("sim-p2k2", N=60)
    with pytest.raises(ValueError, match="^base_seed must be >= 0, got -1$"):
        ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                         methods=(("yoasovi-naive", quick_template()),), base_seed=-1)


@pytest.mark.parametrize("edit,argv,error", [
    pytest.param({}, ["--seed", "-1"], "base_seed must be >= 0, got -1", id="flag"),
    pytest.param({"run": {"method": "mcvi", "temper": 5}}, [],
                 "run.temper must be a mapping, got 5", id="run.temper"),
    pytest.param({"experiment": {"methods": [{"method": "mcvi", "temper": [1]}]}}, [],
                 "experiment.methods[0].temper must be a mapping, got [1]", id="entry.temper"),
    pytest.param({"experiment": {"methods": [{"method": "mcvi", "temper": [1]}]}},
                 ["--k", "0.3"], "experiment.methods[0].temper must be a mapping, got [1]",
                 id="entry.temper-k"),
    pytest.param({"model": {"prior_mean_scale": float("nan")}}, [],
                 "prior_mean_scale must be positive and finite, got nan", id="model-nan")])
def test_cli_bad_setting_is_one_line_naming_it_and_exit_2(tmp_path, capsys, edit, argv,
                                                         error):
    cfg = write_quick_config(tmp_path)
    loaded = load_config(cfg)
    for section, keys in edit.items():
        loaded[section] = {**loaded[section], **keys}
    cfg.write_text(yaml.safe_dump(loaded))
    assert main(["run", "--config", str(cfg), *argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("yoasovi run: error: "), lines
    assert lines[0].endswith(error), lines
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("flags", [[], ["--method", "mcvi"]], ids=["plain", "method"])
def test_cli_null_section_runs_as_an_empty_one(tmp_path, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.yaml").write_text(
        "model:\nrun: {method: mcvi, max_iters: 3, learning_rate: 5.0e-7}\n"
        "data: {preset: sim-p2k2, n: 60}\nexperiment:\n")
    assert load_config(tmp_path / "cfg.yaml")["experiment"] == {}
    assert main(["run", "--config", "cfg.yaml", *flags]) == 0
    assert (tmp_path / "results" / "traces" / "sim-p2k2__mcvi__r0.csv").exists()


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
    # the RuntimeWarning policy of pyproject's filterwarnings, in the child too
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "yoasovi.cli",
                           *argv],
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
    cfg = write_quick_config(tmp_path, lr="1.0e+6")
    res = cli("run", "--config", str(cfg))
    assert res.returncode == 1
    assert "Traceback" not in res.stderr


# case -> (text the error line must contain, config); each config runs on
# the preset sim-p2k2 with n=60 unless it sets its own data section
_RUN = {"method": "mcvi", "max_iters": 3, "learning_rate": 5e-7}
_BAD_CONFIGS = {
    "repeated-method": ("'mcvi'", {"run": {"method": "mcvi", "learning_rate": 5e-7},
                                   "experiment": {"methods": [{"samples": 100},
                                                              {"samples": 10}]}}),
    "unknown-run-key": ("'foo'", {"run": {"method": "mcvi", "foo": 1}}),
    "unknown-temper-key": ("'bogus'", {"run": {"method": "yoasovi-naive",
                                               "temper": {"kind": "linear", "bogus": 1}}}),
    "unknown-model-key": ("'bogus'", {"model": {"K": 2, "p": 2, "bogus": 1},
                                      "run": {"method": "mcvi"}}),
    "run-key-the-harness-sets": ("'model'", {"run": {**_RUN, "model": {"K": 2}}}),
    "unknown-section": ("'experiments'", {"run": _RUN, "experiments": {"replicates": 3}}),
    "unknown-data-key": ("'N'", {"run": _RUN, "data": {"preset": "sim-p2k2", "N": 60}}),
    "label-column-with-preset": ("'label_column'", {
        "run": _RUN, "data": {"preset": "sim-p2k2", "label_column": "label"}}),
    "n-with-csv": ("'n'", {"run": _RUN, "data": {"csv": "pts.csv", "n": 2}}),
    "seed-in-an-entry": ("'seed'", {"run": _RUN,
                                    "experiment": {"methods": [{"samples": 10, "seed": 3}]}}),
    "seed-in-run": ("unknown run key 'seed'", {"run": {**_RUN, "seed": 3}}),
    "no-method": ("missing run key 'method'", {"run": {"max_iters": 3},
                                               "experiment": {"methods": [{"samples": 10}]}}),
    "csv-without-K": ("missing model key 'K'", {"run": _RUN, "data": {"csv": "pts.csv"}}),
    "K-against-preset": ("model.K is 3, but sim-p2k2 has K=2", {"model": {"K": 3},
                                                                "run": _RUN}),
    "p-against-preset": ("model.p is 3, but sim-p2k2 has p=2", {"model": {"p": 3},
                                                                "run": _RUN}),
    "p-against-csv": ("model.p is 3, but pts has p=2", {
        "model": {"K": 2, "p": 3}, "run": _RUN, "data": {"csv": "pts.csv"}}),
    "label-only-csv": ("lab.csv: no data column besides label column 'species'", {
        "model": {"K": 2}, "run": _RUN, "data": {"csv": "lab.csv", "label_column": "species"}}),
    "unknown-experiment-key": ("'replicate'", {"run": _RUN,
                                               "experiment": {"replicate": 3}}),
    "section-not-a-mapping": ("section run", {"run": "mcvi"}),
    "bare-entry": ("'mcvi'", {"run": _RUN, "experiment": {"methods": ["mcvi"]}}),
    "bare-entry-with-method": ("'mcvi'", {"run": _RUN, "experiment": {"methods": ["mcvi"]}}),
    "fewer-rows-than-K": ("N=3 rows, fewer than K=4", {
        "run": _RUN, "data": {"preset": "sim-p3k4", "n": 3}}),
    "fewer-csv-rows-than-K": ("N=3 rows, fewer than K=4", {
        "model": {"K": 4}, "run": _RUN, "data": {"csv": "pts.csv"}}),
    "fewer-csv-rows-than-K-kmeans": ("N=3 rows, fewer than K=4", {
        "model": {"K": 4}, "run": {**_RUN, "kmeans_style_init": True},
        "data": {"csv": "pts.csv"}}),
}
_BAD_FLAGS = {"bare-entry-with-method": ["--method", "mcvi"]}
# the CSV files a case's data section may name
_CSV_FILES = {"pts.csv": "0.1,0.2\n0.3,0.4\n1.0,1.1\n", "lab.csv": "species\n1\n2\n3\n"}


@pytest.mark.parametrize("case", [*_BAD_CONFIGS, "malformed-yaml", "control-character",
                                  "missing-config", "unknown-preset"])
def test_cli_config_error_is_one_line_and_exit_2(tmp_path, case):
    """A config that cannot become a matrix is a usage error (exit 2, one
    line on stderr), not exit 1, which means every replicate of a cell
    failed."""
    cfg = write_quick_config(tmp_path)
    argv = ["run", "--config", str(cfg), *_BAD_FLAGS.get(case, [])]
    named = ""
    if case in _BAD_CONFIGS:
        named, bad = _BAD_CONFIGS[case]
        bad = {"data": {"preset": "sim-p2k2", "n": 60}, **bad}
        if "csv" in bad["data"]:
            csv_path = tmp_path / bad["data"]["csv"]
            csv_path.write_text(_CSV_FILES[csv_path.name])
            bad["data"] = {**bad["data"], "csv": str(csv_path)}
        bad["experiment"] = {**bad.get("experiment", {}), "out": str(tmp_path / "res")}
        cfg.write_text(yaml.safe_dump(bad))
    elif case == "malformed-yaml":
        cfg.write_text("run: {method: mcvi\ndata: {preset: sim-p2k2}\n")
    elif case == "control-character":
        cfg.write_text('run: {method: mcvi}\ndata: {preset: "sim\x01p2k2"}\n')
    elif case == "missing-config":
        argv[2] = str(tmp_path / "absent.yaml")
    else:
        argv += ["--preset", "sim-p9k9"]
    res = cli(*argv)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("yoasovi run: error: "), res.stderr
    assert named in lines[0]
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("label", ["", "runs/mcvi", 7])
def test_cli_bad_method_label_is_one_line_and_exit_2(tmp_path, label):
    """A label names trace files, so it must be a non-empty string without
    a path separator; so must a dataset name, in a matrix built in code."""
    spec, data = make_preset("sim-p2k2", N=60)
    with pytest.raises(ValueError, match="^label must be a non-empty string"):
        ExperimentMatrix(datasets=(("sim", spec, data),), methods=((label, quick_template()),))
    with pytest.raises(ValueError, match="^dataset name must be a non-empty string"):
        ExperimentMatrix(datasets=((label, spec, data),), methods=(("m", quick_template()),))
    cfg = write_quick_config(tmp_path)
    bad = yaml.safe_load(cfg.read_text())
    bad["experiment"]["methods"] = [{"method": "mcvi", "samples": 10, "label": label}]
    cfg.write_text(yaml.safe_dump(bad))
    res = cli("run", "--config", str(cfg))
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("yoasovi run: error: label "), res.stderr
    assert repr(label) in lines[0]
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("lr,k,field", [("1.0e6", "0.1", "learning_rate"),
                                         ("5.0e-7", "1e-1", "k")])
def test_cli_yaml_float_read_as_a_string_is_one_line_and_exit_2(tmp_path, lr, k, field):
    # YAML 1.1 needs a dot and a signed exponent: 1.0e6 and 1e-1 load as strings
    cfg = write_quick_config(tmp_path, lr=lr)
    cfg.write_text(cfg.read_text().replace("k: 0.1", f"k: {k}"))
    res = cli("run", "--config", str(cfg))
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert lines == [f"yoasovi run: error: {field} must be a number, got "
                     f"'{lr if field == 'learning_rate' else k}'"], res.stderr
    assert not (tmp_path / "res").exists()


def test_malformed_yaml_names_the_file_and_line(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("model: {K: 2, p: 2}\nrun: {method: mcvi\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(cfg))}, line 3: "):
        load_config(cfg)


# A malformed trace row, each on line 2 of the file.
_BAD_TRACE_ROWS = {"short-row": "1,0.5,-10.0", "long-row": "1,0.5,-10.0,1,,7",
                   "bad-cell": "1,0.5,abc,1,"}


@pytest.mark.parametrize("case", ["missing-trace", "foreign-header", "negative-horizon",
                                  "nan-horizon", *_BAD_TRACE_ROWS])
def test_cli_trajectory_input_error_is_one_line_and_exit_2(tmp_path, case):
    trace = tmp_path / "run.csv"
    trace.write_text("iter,elapsed_s,elbo,accepted,M\n1,0.5,-10.0,1,\n")
    horizon = "1.0"
    if case == "missing-trace":
        trace = tmp_path / "absent.csv"
    elif case == "foreign-header":
        trace.write_text("t,seconds,value\n1,0.5,-10.0\n")
    elif case in _BAD_TRACE_ROWS:
        trace.write_text(f"iter,elapsed_s,elbo,accepted,M\n{_BAD_TRACE_ROWS[case]}\n")
    else:
        horizon = "-1" if case == "negative-horizon" else "nan"
    out = tmp_path / "traj.csv"
    res = cli("trajectory", "--trace", str(trace), "--horizon", horizon, "--out", str(out))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("yoasovi trajectory: error: "), res.stderr
    if case in _BAD_TRACE_ROWS:
        assert f"{trace}: " in lines[0] and "row 2" in lines[0], lines[0]
    assert not out.exists()


def test_cli_trajectory_refuses_two_traces_of_one_label(tmp_path):
    """A series is labelled by its trace's file name less .csv, so traces of
    one name in two directories would give two series of one label: the
    command names the label on one stderr line, exits 2 and writes
    nothing.  Traces of distinct names in one call are written."""
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        for name in ("r0", "r1"):
            (tmp_path / d / f"{name}.csv").write_text(
                "iter,elapsed_s,elbo,accepted,M\n1,0.5,-10.0,1,\n")
    out = tmp_path / "traj.csv"
    res = cli("trajectory", "--trace", str(tmp_path / "a" / "r0.csv"), "--trace",
              str(tmp_path / "a" / "r1.csv"), "--trace", str(tmp_path / "b" / "r0.csv"),
              "--horizon", "1.0", "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.splitlines() == [
        "yoasovi trajectory: error: two traces give the series label 'r0'"], res.stderr
    assert not out.exists()
    res = cli("trajectory", "--trace", str(tmp_path / "a" / "r0.csv"), "--trace",
              str(tmp_path / "b" / "r1.csv"), "--horizon", "1.0", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_text().splitlines()[1:] == ["r0,0.5,-10.0", "r1,0.5,-10.0"]


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


# ---------------------------------------------------------------------------
# inputs at the edges of the boundary

@pytest.mark.parametrize("flag,value,field,want", [("--k", "0.3", "k", 0.3),
                                                   ("--temper", "log", "kind", "log")])
def test_an_empty_run_temper_takes_a_temper_flag(tmp_path, flag, value, field, want):
    (tmp_path / "cfg.yaml").write_text(
        "run: {method: yoasovi-naive, temper: }\ndata: {preset: sim-p2k2, n: 60}\n")
    args = build_parser().parse_args(["run", "--config", str(tmp_path / "cfg.yaml"),
                                      flag, value])
    matrix, _ = build_matrix(apply_overrides(load_config(args.config), args))
    assert [getattr(t.schedule, field) for _, t in matrix.methods] == [want]


def one_error_line(capsys, command: str) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"yoasovi {command}: error: "), lines
    return lines[0]


def test_cli_run_into_an_existing_file_is_one_line_and_exit_2(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    cfg = write_quick_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "taken")]) == 2
    assert "taken" in one_error_line(capsys, "run")


@pytest.mark.parametrize("blocked, jobs", [("summary.csv", "1"),
                                           ("traces/sim-p2k2__yoasovi-naive__r0.csv", "2")])
def test_cli_run_with_an_unwritable_output_is_one_line_and_exit_2(tmp_path, capsys,
                                                                   blocked, jobs):
    (tmp_path / "res" / blocked).mkdir(parents=True)
    cfg = write_quick_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--max-iters", "3", "--jobs", jobs]) == 2
    assert blocked.rsplit("/", 1)[-1] in one_error_line(capsys, "run")


@pytest.mark.parametrize("bug", [ValueError, TypeError])
def test_cli_run_lets_an_error_inside_a_run_end_in_a_traceback(tmp_path, monkeypatch, bug):
    # only building the matrix and writing its files are input errors (exit 2)
    def broken_run(*args, **kwargs):
        raise bug("a bug in the run")
    monkeypatch.setattr(harness, "_run_one", broken_run)
    cfg = write_quick_config(tmp_path)
    with pytest.raises(bug, match="a bug in the run"):
        main(["run", "--config", str(cfg), "--max-iters", "3"])


def test_cli_trajectory_into_a_directory_is_one_line_and_exit_2(tmp_path, capsys):
    trace = tmp_path / "run.csv"
    trace.write_text("iter,elapsed_s,elbo,accepted,M\n1,0.5,-10.0,1,\n")
    (tmp_path / "traj").mkdir()
    assert main(["trajectory", "--trace", str(trace), "--horizon", "1.0",
                 "--out", str(tmp_path / "traj")]) == 2
    assert "traj" in one_error_line(capsys, "trajectory")


def run_on_csv(tmp_path, name: str, rows: str) -> int:
    """`yoasovi run` of mcvi with k-means++ seeding on a K=2 model of the CSV."""
    (tmp_path / name).write_text(rows)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("model: {K: 2}\n"
                   "run: {method: mcvi, samples: 2, max_iters: 3, learning_rate: 5.0e-7,"
                   " kmeans_style_init: true}\n"
                   f"experiment: {{out: {tmp_path / 'res'}}}\n")
    return main(["run", "--config", str(cfg), "--data", str(tmp_path / name)])


def test_summary_csv_quotes_a_dataset_name_with_a_comma(tmp_path):
    assert run_on_csv(tmp_path, "a,b.csv", "0.1,0.2\n0.3,0.4\n1.0,1.1\n") == 0
    with open(tmp_path / "res" / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["dataset"], r["method"], r["errors"]) for r in rows] == [("a,b", "mcvi", "0")]
    assert None not in rows[0]  # no cell beyond the header


def test_kmeans_seeding_runs_on_one_repeated_point(tmp_path):
    assert run_on_csv(tmp_path, "same.csv", "1.0,2.0\n" * 4) == 0
    with open(tmp_path / "res" / "summary.csv", newline="") as fh:
        [row] = csv.DictReader(fh)
    assert row["errors"] == "0"
