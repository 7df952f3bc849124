"""The benchmark wraps yoasovi functions by module attribute
(perfbench/tracer.py, PATCHES).  A renamed or deleted attribute, or a run
that stopped calling through one, would only show up when the benchmark
runs; this checks every one still resolves, and that runs still reach the
draw layer and the DIC phase through them."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from yoasovi import driver, estimators, gmm, sequences
from yoasovi.driver import RunConfig, build_gmm_problem, run_problem
from yoasovi.harness import make_preset

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_patched_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.PATCHES
               if not callable(getattr(owner, attr, None))]
    assert tracer.PATCHES
    assert missing == []


@pytest.mark.parametrize("method", ["yoasovi-naive", "qmcvi"])
def test_runs_still_reach_the_draw_layer_names(monkeypatch, method):
    """The draw-layer spans wrap estimators.sample, estimators.log_q and
    SequenceSource.next_point; a run that stopped calling them through
    those names would leave the spans blind.  The target is called once
    per draw."""
    calls = dict.fromkeys(["sample", "log_q", "next_point"], 0)
    for owner, attr in ((estimators, "sample"), (estimators, "log_q"),
                        (sequences.SequenceSource, "next_point")):
        real = getattr(owner, attr)

        def counted(*args, _real=real, _attr=attr):
            calls[_attr] += 1
            return _real(*args)

        monkeypatch.setattr(owner, attr, counted)
    spec, data = make_preset("sim-p2k2", N=60)
    problem = build_gmm_problem(spec, data, kmeans_style_init=True)
    targets = 0

    def target(z):
        nonlocal targets
        targets += 1
        return problem.target(z)

    samples = 1 if method == "yoasovi-naive" else 10
    cfg = RunConfig(method=method, samples=samples, learning_rate=5e-7, max_iters=40,
                    patience=100, seed=1, model=spec, kmeans_style_init=True)
    trace = run_problem(cfg, dataclasses.replace(problem, target=target, dic=None))
    assert trace.summary.error is None and trace.summary.iterations == 40
    assert targets == trace.summary.density_evals == samples * 40
    assert min(calls.values()) > 0, calls


def test_a_run_still_reaches_the_dic_phase_names(monkeypatch):
    """The DIC spans wrap driver.posterior_draw_set, driver.constrain,
    gmm.dic and gmm.log_likelihood; one driver.run of a GMM config calls
    each of them through those names."""
    calls = dict.fromkeys(["posterior_draw_set", "constrain", "dic", "log_likelihood"], 0)
    for owner, attr in ((driver, "posterior_draw_set"), (driver, "constrain"),
                        (gmm, "dic"), (gmm, "log_likelihood")):
        real = getattr(owner, attr)

        def counted(*args, _real=real, _attr=attr):
            calls[_attr] += 1
            return _real(*args)

        monkeypatch.setattr(owner, attr, counted)
    spec, data = make_preset("sim-p2k2", N=60)
    cfg = RunConfig(method="yoasovi-naive", samples=1, learning_rate=5e-7, max_iters=40,
                    patience=100, seed=1, model=spec, kmeans_style_init=True)
    trace = driver.run(cfg, data)
    assert trace.summary.error is None and trace.summary.dic is not None
    assert min(calls.values()) >= 1, calls
