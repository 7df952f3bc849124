"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import bench
import tracer
import workloads
from yoasovi import driver, gmm

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path / "out")


def run_toy(capsys, workload, trace=False):
    code = bench.main(workload, seed=3, seconds=0, trace=trace, sizes="toy")
    captured = capsys.readouterr()
    *lines, last = captured.out.strip().splitlines()
    return code, json.loads(last), lines, captured.err


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_every_workload_prints_every_metric(capsys, workload, trace):
    code, result, lines, _ = run_toy(capsys, workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] for line in lines), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_density_fails_the_checks(capsys, monkeypatch):
    real = gmm.log_likelihood
    monkeypatch.setattr(gmm, "log_likelihood",
                        lambda spec, data, params: real(spec, data, params) * (1 + 1e-6))
    code, result, _, err = run_toy(capsys, "single-draw")
    assert code == 1 and not result["correct"] and result["failed"] >= 1
    assert "spot check" in err


@pytest.mark.parametrize("workload", ["multi-draw", "matrix"])
def test_wrong_evaluation_count_fails_the_checks(capsys, monkeypatch, workload):
    real = driver.estimate

    def estimate(lam, log_joint_z, src, S):
        log_joint_z(lam.m)  # one evaluation more than the draws
        return real(lam, log_joint_z, src, S)

    monkeypatch.setattr(driver, "estimate", estimate)
    code, result, _, err = run_toy(capsys, workload)
    assert code == 1 and not result["correct"]
    assert "density evaluations" in err


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "single-draw",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_keeps_ten_samples_above_it():
    value, label = bench.tail(range(100))
    assert value == 89 and label.startswith("p90")
    value, label = bench.tail([3.0, 1.0, 2.0])
    assert value == 2.0 and label.startswith("p50")


def test_self_time_subtracts_children_of_the_same_process():
    spans = [(1, 0, None, "a", 0.0, 10.0, None),
             (1, 1, 0, "b", 1.0, 4.0, None),
             (1, 2, 0, "b", 5.0, 6.0, None),
             (2, 0, None, "a", 0.0, 1.0, None)]
    layers = tracer.Layers(spans)
    assert layers.calls == {"a": 2, "b": 2}
    assert layers.self_time["a"] == pytest.approx(6.0 + 1.0)
    assert layers.self_time["b"] == pytest.approx(4.0)
