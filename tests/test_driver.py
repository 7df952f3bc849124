import dataclasses
import hashlib
import math

import numpy as np
import pytest

from yoasovi.acceptance import TemperatureSchedule
from yoasovi.driver import (Problem, RunConfig, build_gmm_problem, final_elbo,
                            posterior_draw_set, run, run_problem)
from yoasovi.driver import IterationRecord
from yoasovi.errors import NumericError
from yoasovi.harness import make_preset
from yoasovi.meanfield import VariationalParams, constrain, sample
from yoasovi.sequences import EPS


class FakeClock:
    def __init__(self, step=0.01):
        self.t, self.step = 0.0, step

    def __call__(self):
        self.t += self.step
        return self.t


def flat_init(dim):
    return lambda rng: VariationalParams(m=np.zeros(dim), log_s=np.full(dim, -1.0))


def collapsing_problem():
    """Target whose values fall off a cliff after the first evaluation, so
    every later estimate is a certain rejection under a harsh temperature."""
    state = {"calls": 0}

    def target(z):
        state["calls"] += 1
        return -100.0 * (2.0 ** state["calls"])

    return Problem(dim=1, target=target, init=flat_init(1))


def small_gmm(N=80):
    spec, data = make_preset("sim-p2k2", N=N)
    return spec, data


# ---------------------------------------------------------------------------
# config validation

def test_config_rejects_unknown_method():
    with pytest.raises(ValueError):
        RunConfig(method="gibbs")


def test_acceptance_methods_are_single_draw():
    with pytest.raises(ValueError):
        RunConfig(method="yoasovi-naive", samples=10)
    RunConfig(method="yoasovi-metropolis", samples=1)
    RunConfig(method="mcvi", samples=100)


def test_config_bounds():
    with pytest.raises(ValueError):
        RunConfig(method="mcvi", learning_rate=0.0)
    with pytest.raises(ValueError):
        RunConfig(method="mcvi", max_iters=0)
    with pytest.raises(ValueError):
        RunConfig(method="mcvi", patience=0)


def test_run_requires_model():
    spec, data = small_gmm()
    with pytest.raises(ValueError):
        run(RunConfig(method="mcvi"), data)


# ---------------------------------------------------------------------------
# plain Monte Carlo methods

def test_mcvi_runs_to_the_iteration_cap():
    spec, data = small_gmm()
    cfg = RunConfig(method="mcvi", samples=5, learning_rate=5e-7, max_iters=40,
                    seed=0, model=spec)
    trace = run(cfg, data, clock=FakeClock())
    assert len(trace.records) == 40
    assert all(r.accepted for r in trace.records)
    assert all(r.M is None for r in trace.records)
    assert [r.t for r in trace.records] == list(range(1, 41))
    assert trace.summary.converged is False
    assert trace.summary.error is None
    assert trace.summary.iterations == 40


def test_density_evaluations_scale_with_sample_count():
    spec, data = small_gmm()
    for S in (1, 10, 25):
        cfg = RunConfig(method="mcvi", samples=S, learning_rate=5e-7,
                        max_iters=12, seed=1, model=spec)
        assert run(cfg, data).summary.density_evals == 12 * S


def test_methods_draw_from_different_sources():
    spec, data = small_gmm()
    base = dict(samples=5, learning_rate=5e-7, max_iters=10, seed=3, model=spec)
    mc = run(RunConfig(method="mcvi", **base), data)
    qmc = run(RunConfig(method="qmcvi", **base), data)
    assert [r.elbo for r in mc.records] != [r.elbo for r in qmc.records]


# ---------------------------------------------------------------------------
# acceptance sampling

def test_certain_rejection_exhausts_patience():
    """One fresh-start acceptance, then exactly `patience` consecutive
    rejections ending with converged=True."""
    cfg = RunConfig(method="yoasovi-naive", learning_rate=1e-6, max_iters=500,
                    patience=7, schedule=TemperatureSchedule("constant", 1e6), seed=2)
    trace = run_problem(cfg, collapsing_problem(), clock=FakeClock())
    flags = [r.accepted for r in trace.records]
    assert flags == [True] + [False] * 7
    assert trace.summary.converged is True
    assert trace.summary.iterations == 8
    assert trace.summary.dic is None  # not a mixture problem


def test_rejection_leaves_lambda_untouched():
    mk = lambda iters: RunConfig(method="yoasovi-naive", learning_rate=1e-6,
                                 max_iters=iters, patience=5,
                                 schedule=TemperatureSchedule("constant", 1e6), seed=4)
    after_accept = run_problem(mk(1), collapsing_problem(), clock=FakeClock())
    full = run_problem(mk(200), collapsing_problem(), clock=FakeClock())
    assert full.records[0].accepted and not any(r.accepted for r in full.records[1:])
    np.testing.assert_array_equal(full.final_lambda.m, after_accept.final_lambda.m)
    np.testing.assert_array_equal(full.final_lambda.log_s, after_accept.final_lambda.log_s)
    # and the accepted step did move the parameters
    assert not np.array_equal(after_accept.final_lambda.m, np.zeros(1))


def test_acceptance_method_records_temperature():
    spec, data = small_gmm()
    cfg = RunConfig(method="yoasovi-naive", learning_rate=5e-7, max_iters=15,
                    patience=50, schedule=TemperatureSchedule("linear", 0.1),
                    seed=5, model=spec)
    trace = run(cfg, data, clock=FakeClock())
    for r in trace.records:
        assert r.M == pytest.approx(0.1 * r.t)
    assert trace.summary.density_evals == trace.summary.iterations


def test_rejected_iterations_still_counted_and_recorded():
    cfg = RunConfig(method="yoasovi-naive", learning_rate=1e-6, max_iters=30,
                    patience=10, schedule=TemperatureSchedule("constant", 1e6), seed=6)
    trace = run_problem(cfg, collapsing_problem())
    assert trace.summary.iterations == len(trace.records) == 11
    assert [r.t for r in trace.records] == list(range(1, 12))


# ---------------------------------------------------------------------------
# failures

def failing_problem(fail_at):
    state = {"calls": 0}

    def target(z):
        state["calls"] += 1
        if state["calls"] == fail_at:
            raise NumericError("synthetic overflow")
        return -50.0 - z[0] ** 2

    return Problem(dim=1, target=target, init=flat_init(1))


def test_numeric_failure_yields_partial_trace():
    cfg = RunConfig(method="yoasovi-naive", learning_rate=1e-4, max_iters=100,
                    patience=50, seed=7)
    trace = run_problem(cfg, failing_problem(fail_at=5), clock=FakeClock())
    assert trace.summary.iterations == len(trace.records) == 4
    assert "iteration 5" in trace.summary.error
    assert trace.summary.converged is False
    # ending ELBO still defined from what was recorded
    assert math.isfinite(trace.summary.final_elbo)


def test_non_finite_target_value_aborts_cleanly():
    bad = Problem(dim=1, target=lambda z: math.inf, init=flat_init(1))
    cfg = RunConfig(method="mcvi", samples=3, learning_rate=1e-3, max_iters=10, seed=8)
    trace = run_problem(cfg, bad)
    assert trace.records == ()
    assert trace.summary.error is not None
    assert trace.summary.final_elbo is None


# ---------------------------------------------------------------------------
# ending ELBO

def rec(t, elbo, accepted):
    return IterationRecord(t=t, elapsed_s=0.1 * t, elbo=elbo, accepted=accepted)


def test_final_elbo_takes_tail_of_accepted_records():
    records = [rec(t, float(-t), True) for t in range(1, 16)]
    assert final_elbo(records) == pytest.approx(np.mean(range(6, 16)) * -1.0)


def test_final_elbo_short_history():
    records = [rec(1, -5.0, True), rec(2, -3.0, True), rec(3, -4.0, True)]
    assert final_elbo(records) == pytest.approx(-4.0)


def test_final_elbo_skips_rejections():
    records = [rec(1, -5.0, True)] + [rec(t, -1000.0, False) for t in range(2, 30)]
    assert final_elbo(records) == pytest.approx(-5.0)


def test_final_elbo_empty_trace_is_an_error():
    with pytest.raises(ValueError):
        final_elbo([])
    with pytest.raises(ValueError):
        final_elbo([rec(1, -2.0, False)])


# ---------------------------------------------------------------------------
# determinism

def test_identical_seed_gives_identical_trace():
    spec, data = small_gmm()
    cfg = RunConfig(method="yoasovi-metropolis", learning_rate=5e-7, max_iters=60,
                    patience=100, schedule=TemperatureSchedule("linear", 0.1),
                    seed=11, model=spec, kmeans_style_init=True)
    a = run(cfg, data, clock=FakeClock())
    b = run(cfg, data, clock=FakeClock())
    assert a.records == b.records  # includes elapsed_s under the fake clock
    assert a.summary == b.summary
    c = run(dataclasses.replace(cfg, seed=12), data, clock=FakeClock())
    assert [r.elbo for r in c.records] != [r.elbo for r in a.records]


def test_wall_time_excludes_setup():
    # clock ticks once at loop start, once per record, once at loop exit
    clock = FakeClock(step=0.25)
    cfg = RunConfig(method="mcvi", samples=2, learning_rate=1e-6, max_iters=4, seed=0)
    prob = Problem(dim=1, target=lambda z: -1.0 - z[0] ** 2, init=flat_init(1))
    trace = run_problem(cfg, prob, clock=clock)
    np.testing.assert_allclose([r.elapsed_s for r in trace.records],
                               [0.25, 0.5, 0.75, 1.0])
    assert trace.summary.wall_seconds == pytest.approx(1.25)


# ---------------------------------------------------------------------------
# work-normalized progress

def test_single_draw_method_needs_fewer_evaluations_to_match_mcvi():
    """For each seed, take the best ELBO the 100-draw baseline ever reaches
    and count density evaluations until each method first gets there.
    Median over seeds should favor the single-draw method by a wide margin."""
    spec, data = make_preset("sim-p2k2", N=60)
    yo_cost, mc_cost = [], []
    for seed in range(5):
        yo = run(RunConfig(method="yoasovi-naive", learning_rate=5e-7, max_iters=80,
                           patience=100, schedule=TemperatureSchedule("linear", 0.1),
                           seed=seed, model=spec, kmeans_style_init=True), data)
        mc = run(RunConfig(method="mcvi", samples=100, learning_rate=5e-7,
                           max_iters=80, seed=seed, model=spec,
                           kmeans_style_init=True), data)
        threshold = max(r.elbo for r in mc.records)
        mc_cost.append(100 * next(r.t for r in mc.records if r.elbo >= threshold))
        hits = [r.t for r in yo.records if r.accepted and r.elbo >= threshold]
        yo_cost.append(hits[0] if hits else math.inf)
    assert np.median(yo_cost) < np.median(mc_cost)


# ---------------------------------------------------------------------------
# posterior draws

def test_posterior_draw_set_produces_valid_parameters():
    spec, data = small_gmm()
    lam = VariationalParams(m=np.zeros(spec.n_unconstrained),
                            log_s=np.full(spec.n_unconstrained, -1.0))
    draws = posterior_draw_set(lam, 50, spec, rng=np.random.default_rng(0))
    assert len(draws) == 50
    for th in draws[:5]:
        th.validate(spec)
    again = posterior_draw_set(lam, 50, spec, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(draws[0].means, again[0].means)
    with pytest.raises(ValueError):
        posterior_draw_set(lam, 0, spec, rng=np.random.default_rng(0))


def test_posterior_draw_set_matches_per_draw_sampling():
    spec, data = small_gmm()
    rng = np.random.default_rng(21)
    lam = VariationalParams(m=rng.normal(0.0, 3.0, spec.n_unconstrained),
                            log_s=rng.normal(-1.0, 0.5, spec.n_unconstrained))
    draws = posterior_draw_set(lam, 200, spec, rng=np.random.default_rng(5))
    u = np.clip(np.random.default_rng(5).random((200, lam.dim)), EPS, 1.0 - EPS)
    assert len(draws) == len(u)
    for th, u_i in zip(draws, u):
        one, _ = constrain(sample(lam, u_i).z, spec)
        for field in ("weights", "means", "sds"):
            np.testing.assert_array_equal(getattr(th, field), getattr(one, field))


@pytest.mark.parametrize("method,samples,seed", [
    ("yoasovi-naive", 1, 0), ("yoasovi-naive", 1, 2), ("yoasovi-naive", 1, 5),
    ("mcvi", 10, 2), ("mcvi", 10, 3)])
def test_degenerate_draw_ends_the_run_with_an_error(method, samples, seed):
    # at this rate one step drives a log sd or a mean far out, so a later
    # draw's sd underflows to 0 or its density is non-finite
    spec, data = small_gmm()
    trace = run(RunConfig(method=method, samples=samples, learning_rate=0.1, max_iters=50,
                          seed=seed, model=spec), data)
    assert trace.summary.error is not None
    assert trace.summary.dic is None


def test_gmm_run_reports_dic():
    spec, data = small_gmm()
    cfg = RunConfig(method="qmcvi", samples=5, learning_rate=5e-7, max_iters=20,
                    seed=9, model=spec)
    trace = run(cfg, data)
    assert trace.summary.dic is not None
    assert math.isfinite(trace.summary.dic)


# ---------------------------------------------------------------------------
# behaviour parity of the optimisation and DIC paths

# (method, seed): iterations, density_evals, sha256 of the accepted column as
# a 0/1 string (first 16 hex digits), ending ELBO, DIC.  Recorded with the
# scipy logsumexp and softmax and the per-draw DIC loop, at criterion 08's
# settings on sim-p2k2; any change in the draws or the acceptance decisions
# shows up here.
PARITY = {
    ("mcvi", 0): (500, 50000, "4ec297ba99da804f", -2259.108130824348, 4957.785139907875),
    ("mcvi", 1): (500, 50000, "4ec297ba99da804f", -2270.8513565522003, 5086.834864956264),
    ("mcvi", 2): (500, 50000, "4ec297ba99da804f", -2077.841053743162, 4591.626513443975),
    ("qmcvi", 0): (500, 5000, "4ec297ba99da804f", -2246.468994590543, 4959.275103628443),
    ("qmcvi", 1): (500, 5000, "4ec297ba99da804f", -2295.402541916669, 5092.125875254413),
    ("qmcvi", 2): (500, 5000, "4ec297ba99da804f", -2068.518517442118, 4597.568054760776),
    ("yoasovi-naive", 0): (310, 310, "8041821810e3386b", -2026.6121074045745, 5552.802094007006),
    ("yoasovi-naive", 1): (445, 445, "0dce1479f5043877", -1997.523379895838, 5902.189423870536),
    ("yoasovi-naive", 2): (446, 446, "acbb60aae8448cd3", -1881.8036959868048, 5097.933279720471),
    ("yoasovi-metropolis", 0): (477, 477, "68dd5b53e1deea40", -2178.280614308754, 5702.772114189867),
    ("yoasovi-metropolis", 1): (433, 433, "cc8b873a3d05ffd0", -2011.7049833867554, 5960.380778973676),
    ("yoasovi-metropolis", 2): (500, 500, "aa627d04990e6d53", -1912.1866418700483, 5287.122121757283),
}


_SINGLE_DRAW = dict(patience=100, schedule=TemperatureSchedule("linear", 0.1))
PARITY_SETTINGS = {"mcvi": dict(samples=100), "qmcvi": dict(samples=10),
                   "yoasovi-naive": _SINGLE_DRAW, "yoasovi-metropolis": _SINGLE_DRAW}


@pytest.fixture(scope="module")
def sim_p2k2():
    return make_preset("sim-p2k2", N=500)


@pytest.mark.parametrize("method,seed", sorted(PARITY))
def test_runs_reproduce_pinned_behaviour(sim_p2k2, method, seed):
    spec, data = sim_p2k2
    cfg = RunConfig(method=method, learning_rate=5e-7, max_iters=500, model=spec,
                    kmeans_style_init=True, seed=seed, **PARITY_SETTINGS[method])
    trace = run(cfg, data)
    s = trace.summary
    iterations, evals, flags_sha, elbo, dic = PARITY[method, seed]
    flags = "".join("1" if r.accepted else "0" for r in trace.records)
    assert (s.iterations, s.density_evals) == (iterations, evals)
    assert hashlib.sha256(flags.encode()).hexdigest()[:16] == flags_sha
    assert s.density_evals == cfg.samples * s.iterations
    assert s.final_elbo == pytest.approx(elbo, rel=1e-9, abs=0)
    assert s.dic == pytest.approx(dic, rel=1e-9, abs=0)
