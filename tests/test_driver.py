import dataclasses
import gc
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yoasovi.acceptance import TemperatureSchedule
from yoasovi.driver import (Problem, RunConfig, build_gmm_problem, final_elbo,
                            posterior_draw_set, run, run_problem)
from yoasovi.driver import IterationRecord, TraceColumns
from yoasovi.errors import NumericError
from yoasovi.estimators import DrawStream, estimate
from yoasovi import gmm
from yoasovi.gmm import Dataset, GmmParams, constrain
from yoasovi.harness import make_preset
from yoasovi.meanfield import VariationalParams, log_q, sample
from yoasovi.sequences import EPS, make_source


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

    return Problem(target=target, init=flat_init(1))


def scripted_problem(script):
    """1-D target that lands 1000 above the last accepted level where the
    script says accept and 1000 below it where it says reject.  Against
    log_q's O(1) share of the estimate and a temperature of 1e6, every
    decision is then certain."""
    state = {"level": -1e5, "calls": 0}

    def target(z):
        accept = script[state["calls"]]
        state["calls"] += 1
        value = state["level"] + (1000.0 if accept else -1000.0)
        if accept:
            state["level"] = value
        return value

    return Problem(target=target, init=flat_init(1))


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


def test_config_rejects_a_negative_seed_by_name():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -5$"):
        RunConfig(method="mcvi", seed=-5)
    RunConfig(method="mcvi", seed=0)


@pytest.mark.parametrize("name,value", [
    ("learning_rate", "1.0e6"), ("learning_rate", None), ("samples", "10"),
    ("samples", 10.0), ("max_iters", True), ("patience", "10"), ("seed", 1.5)])
def test_config_rejects_a_non_numeric_field_by_name(name, value):
    # YAML 1.1 reads `learning_rate: 1.0e6` as the string '1.0e6'
    with pytest.raises(TypeError, match=rf"^{name} must be .*, got {re.escape(repr(value))}$"):
        RunConfig(method="mcvi", **{name: value})


def test_run_requires_model():
    spec, data = small_gmm()
    with pytest.raises(ValueError):
        run(RunConfig(method="mcvi"), data)


# ---------------------------------------------------------------------------
# plain Monte Carlo methods

def test_mcvi_runs_to_the_iteration_cap():
    # plain Monte Carlo never rejects, so even patience 1 cannot end a run early
    spec, data = small_gmm()
    cfg = RunConfig(method="mcvi", samples=5, learning_rate=5e-7, max_iters=40,
                    patience=1, seed=0, model=spec)
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


@given(st.lists(st.booleans(), max_size=59), st.integers(min_value=1, max_value=8))
@settings(max_examples=200, deadline=None)
def test_run_stops_after_patience_consecutive_rejections(rest, patience):
    """The fresh start accepts anything, so scripts open with an accept.
    The run ends with converged=True at the end of the first window of
    `patience` scripted rejections, and runs to max_iters without one."""
    script = [True] + rest
    cfg = RunConfig(method="yoasovi-naive", learning_rate=1e-12, max_iters=len(script),
                    patience=patience, schedule=TemperatureSchedule("constant", 1e6), seed=0)
    trace = run_problem(cfg, scripted_problem(script), clock=FakeClock())
    stop = next((t for t in range(patience, len(script) + 1)
                 if not any(script[t - patience:t])), None)
    assert [r.accepted for r in trace.records] == script[:stop]
    assert trace.summary.converged is (stop is not None)
    assert trace.summary.iterations == (stop or len(script))


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

    return Problem(target=target, init=flat_init(1))


def test_numeric_failure_yields_partial_trace():
    cfg = RunConfig(method="yoasovi-naive", learning_rate=1e-4, max_iters=100,
                    patience=50, seed=7)
    trace = run_problem(cfg, failing_problem(fail_at=5), clock=FakeClock())
    assert trace.summary.iterations == len(trace.records) == 4
    assert "iteration 5" in trace.summary.error
    assert trace.summary.converged is False
    # ending ELBO still defined from what was recorded
    assert math.isfinite(trace.summary.final_elbo)


def test_degenerate_reference_ends_the_run_with_an_error():
    # the target equals log_q at the fixed lambda, so w == 0.0 on every
    # draw: the first estimate is accepted with a zero gradient, and the
    # second is compared against a reference ELBO of exactly zero
    lam = VariationalParams(m=np.array([0.3, -0.2]), log_s=np.array([-1.0, 0.5]))
    prob = Problem(target=lambda z: log_q(lam, z), init=lambda rng: lam)
    cfg = RunConfig(method="yoasovi-naive", learning_rate=1e-3, max_iters=10, seed=4)
    trace = run_problem(cfg, prob, clock=FakeClock())
    assert [(r.elbo, r.accepted) for r in trace.records] == [(0.0, True)]
    assert "iteration 2" in trace.summary.error
    assert "reference ELBO is exactly zero" in trace.summary.error
    assert trace.summary.density_evals == 2
    assert trace.summary.converged is False


def test_non_finite_target_value_aborts_cleanly():
    bad = Problem(target=lambda z: math.inf, init=flat_init(1))
    cfg = RunConfig(method="mcvi", samples=3, learning_rate=1e-3, max_iters=10, seed=8)
    trace = run_problem(cfg, bad)
    assert trace.records == ()
    assert trace.summary.error is not None
    assert trace.summary.final_elbo is None


# ---------------------------------------------------------------------------
# ending ELBO

def rec(t, elbo, accepted):
    return IterationRecord(t=t, elapsed_s=0.1 * t, elbo=elbo, accepted=accepted)


def as_columns(records):
    return TraceColumns(elapsed_s=[r.elapsed_s for r in records],
                        elbo=[r.elbo for r in records], accepted=[r.accepted for r in records])


def test_final_elbo_takes_tail_of_accepted_records():
    records = [rec(t, float(-t), True) for t in range(1, 16)]
    assert final_elbo(as_columns(records)) == pytest.approx(np.mean(range(6, 16)) * -1.0)


def test_final_elbo_short_history():
    records = [rec(1, -5.0, True), rec(2, -3.0, True), rec(3, -4.0, True)]
    assert final_elbo(as_columns(records)) == pytest.approx(-4.0)


def test_final_elbo_skips_rejections():
    records = [rec(1, -5.0, True)] + [rec(t, -1000.0, False) for t in range(2, 30)]
    assert final_elbo(as_columns(records)) == pytest.approx(-5.0)


def test_final_elbo_empty_trace_is_an_error():
    with pytest.raises(ValueError):
        final_elbo(as_columns([]))
    with pytest.raises(ValueError):
        final_elbo(as_columns([rec(1, -2.0, False)]))


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
    prob = Problem(target=lambda z: -1.0 - z[0] ** 2, init=flat_init(1))
    trace = run_problem(cfg, prob, clock=clock)
    np.testing.assert_allclose([r.elapsed_s for r in trace.records],
                               [0.25, 0.5, 0.75, 1.0])
    assert trace.summary.wall_seconds == pytest.approx(1.25)


def test_a_finished_trace_holds_no_object_per_iteration():
    """A single-draw run of 1000 iterations keeps its trace as columns:
    under 48 B per iteration retained (a record object per iteration, with
    its floats, took about 170 B)."""
    n = 1000
    cfg = RunConfig(method="yoasovi-naive", learning_rate=1e-3, max_iters=n, patience=n + 1,
                    schedule=TemperatureSchedule("linear", 0.1), seed=3)
    prob = Problem(target=lambda z: -0.5 * float(z @ z), init=flat_init(2))
    run_problem(cfg, prob)  # imports and caches settle outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_problem(cfg, prob)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert trace.summary.iterations == len(trace.records) == n
    assert retained / n < 48, f"{retained / n:.1f} B per iteration"


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
# where GmmParams are checked

def count_validate_calls(monkeypatch):
    calls = []
    real = GmmParams.validate
    monkeypatch.setattr(GmmParams, "validate",
                        lambda self, spec: calls.append(1) or real(self, spec))
    return calls


def test_the_target_path_never_validates(monkeypatch):
    """constrain builds valid params, so neither a run's iterations nor an
    S=10 estimate check them; the DIC at the end of a run checks its stacked
    draws and its plug-in point once each, through gmm.dic."""
    spec, data = small_gmm()
    calls = count_validate_calls(monkeypatch)
    cfg = RunConfig(method="yoasovi-naive", learning_rate=5e-7, max_iters=20, patience=100,
                    seed=4, model=spec, kmeans_style_init=True)
    problem = build_gmm_problem(spec, data, kmeans_style_init=True)
    trace = run_problem(cfg, dataclasses.replace(problem, dic=None))
    assert trace.summary.iterations == 20 and trace.summary.error is None
    lam = problem.init(np.random.default_rng(0))
    est = estimate(lam, problem.target, DrawStream(make_source("sobol-scrambled", lam.dim, 1)),
                   10)
    assert math.isfinite(est.elbo)
    assert calls == []
    assert run(cfg, data).summary.dic is not None
    assert len(calls) == 2


def test_the_target_is_the_checked_log_joint_plus_ldj():
    """The unchecked target, scored in z's coordinates, agrees with the
    public, checked gmm.log_joint plus the Jacobian term to 1e-12 relative
    at single draws and at rows of a stacked sample (a dropped prior or
    Jacobian term misses by at least a nat), also at an sd just short of
    overflowing, and fails where log_joint fails."""
    spec, data = small_gmm()
    target = build_gmm_problem(spec, data).target
    rng = np.random.default_rng(8)
    lam = VariationalParams(m=rng.normal(0.0, 2.0, spec.n_unconstrained),
                            log_s=rng.normal(-1.0, 0.5, spec.n_unconstrained))
    rows = sample(lam, rng.random((6, lam.dim))).z
    big = lam.m.copy()
    big[-1] = 709.78  # exp(709.78) is finite, its square is not
    for z in [lam.m, sample(lam, rng.random(lam.dim)).z, *rows, big]:
        params = constrain(z, spec)
        ldj = np.log(params.weights).sum() + np.log(params.sds).sum()
        want = gmm.log_joint(spec, data, params) + ldj
        assert abs(target(z) - want) <= 1e-12 * abs(want)
    for index, value, message in [
        (slice(0, spec.K - 1), 800.0, r"(?s)non-finite \(.*-inf"),  # the pinned weight underflows to 0
        (slice(0, spec.K - 1), np.inf, r"(?s)non-finite \(nan\)"),  # inf - inf: every log weight nan
        # the pinned weight underflows, and the last mean, next to the log
        # sds in z, is no sd: the sd edges read only the log-sd block
        ([0, spec.K - 2 + spec.K * spec.p], [800.0, -800.0], r"(?s)non-finite \(.*-inf"),
        (-1, -745.2, "^an sd underflowed to 0$"),  # exp(-745.2) is 0
        (-1, 709.8, "^an sd overflowed to inf$"),  # exp(709.8) is inf
    ]:
        far = lam.m.copy()
        far[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=message):
                target(far)
    heavy = lam.m.copy()
    heavy[: spec.K - 1] = 800.0
    with pytest.raises(NumericError, match="non-finite"):
        gmm.log_joint(spec, data, constrain(heavy, spec))


def test_the_target_takes_one_z():
    """The problem's target is gmm.unconstrained_target(spec, data), built
    once per problem: a float of one z of shape (n_unconstrained,), of the
    bits a target built anew gives; a stacked, wrong-length or 0-d z raises
    ValueError naming its shape."""
    spec, data = small_gmm()
    target = build_gmm_problem(spec, data).target
    fresh = gmm.unconstrained_target(spec, data)
    rng = np.random.default_rng(33)
    for z in rng.normal(0.0, 1.0, (5, spec.n_unconstrained)):
        got = target(z)
        assert type(got) is float
        assert got == fresh(z)
    n = spec.n_unconstrained
    for shape in [(2, n), (1, n), (n - 1,), (n + 1,), ()]:
        message = re.escape(f"expected one z of shape ({n},), got shape {shape}")
        for score in (target, fresh):
            with pytest.raises(ValueError, match=message):
                score(np.zeros(shape))


@pytest.mark.parametrize("kmeans_style", [False, True])
def test_the_gmm_problem_starts_at_initial_z_with_log_s_minus_1(kmeans_style):
    """The mixture's init is gmm.initial_z from the same rng state for m and
    -1 everywhere for log_s, and leaves the rng where initial_z leaves it."""
    spec, data = small_gmm()
    init = build_gmm_problem(spec, data, kmeans_style_init=kmeans_style).init
    rng, same = np.random.default_rng(21), np.random.default_rng(21)
    lam = init(rng)
    np.testing.assert_array_equal(lam.m, gmm.initial_z(spec, data, same, kmeans_style))
    np.testing.assert_array_equal(lam.log_s, np.full(spec.n_unconstrained, -1.0))
    assert rng.random() == same.random()


def test_a_gmm_problem_needs_data_of_the_specs_dimension():
    spec, data = small_gmm()
    wide = Dataset(np.hstack([data.values, data.values[:, :1]]))
    with pytest.raises(ValueError, match="data dimension 3 does not match spec p=2"):
        build_gmm_problem(spec, wide)


# ---------------------------------------------------------------------------
# posterior draws

def test_posterior_draw_set_produces_valid_parameters():
    spec, data = small_gmm()
    lam = VariationalParams(m=np.zeros(spec.n_unconstrained),
                            log_s=np.full(spec.n_unconstrained, -1.0))
    draws = posterior_draw_set(lam, 50, spec, rng=np.random.default_rng(0))
    assert draws.weights.shape == (50, spec.K)
    for i in range(5):
        GmmParams(draws.weights[i], draws.means[i], draws.sds[i]).validate(spec)
    again = posterior_draw_set(lam, 50, spec, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(draws.means[0], again.means[0])
    with pytest.raises(ValueError):
        posterior_draw_set(lam, 0, spec, rng=np.random.default_rng(0))


def test_posterior_draw_set_matches_per_draw_sampling():
    spec, data = small_gmm()
    rng = np.random.default_rng(21)
    lam = VariationalParams(m=rng.normal(0.0, 3.0, spec.n_unconstrained),
                            log_s=rng.normal(-1.0, 0.5, spec.n_unconstrained))
    draws = posterior_draw_set(lam, 200, spec, rng=np.random.default_rng(5))
    u = np.clip(np.random.default_rng(5).random((200, lam.dim)), EPS, 1.0 - EPS)
    assert len(draws.weights) == len(u)
    for i, u_i in enumerate(u):
        one = constrain(sample(lam, u_i).z, spec)
        for field in ("weights", "means", "sds"):
            np.testing.assert_array_equal(getattr(draws, field)[i], getattr(one, field))


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


def quadratic_problem(dic=None):
    return Problem(target=lambda z: -1.0 - z[0] ** 2, init=flat_init(1), dic=dic)


DIC_CONFIG = RunConfig(method="mcvi", samples=2, learning_rate=1e-3, max_iters=5, seed=3)


def test_summary_reports_the_problems_own_dic():
    seen = []

    def dic(lam, rng):
        seen.append((lam, float(lam.m[0]) + rng.random()))
        return seen[-1][1]

    traces = [run_problem(DIC_CONFIG, quadratic_problem(dic)) for _ in range(2)]
    assert [t.summary.dic for t in traces] == [value for _, value in seen]
    assert seen[0][1] == seen[1][1]
    assert all(lam is t.final_lambda for (lam, _), t in zip(seen, traces))


def test_a_numeric_error_in_the_problems_dic_reports_none():
    def dic(lam, rng):
        raise NumericError("synthetic DIC overflow")

    trace = run_problem(DIC_CONFIG, quadratic_problem(dic))
    assert trace.summary.error is None
    assert trace.summary.dic is None


def test_dic_draws_with_an_overflowed_sd_report_none():
    """A final lambda far enough out that some of DIC's draws carry an sd of
    inf: those draws pass the parameter check, gmm.dic raises NumericError
    at its plug-in point, and the run ends with no DIC and no error."""
    spec, data = small_gmm()
    m = np.zeros(spec.n_unconstrained)
    m[-1] = 709.0  # a draw of this log sd above 709.78 overflows
    far = VariationalParams(m=m, log_s=np.zeros(spec.n_unconstrained))
    problem = Problem(target=lambda z: 0.0, init=lambda rng: far,
                      dic=build_gmm_problem(spec, data).dic)
    draws = posterior_draw_set(far, 1000, spec, np.random.default_rng(0))
    assert np.isinf(draws.sds).any() and not np.isnan(draws.sds).any()
    trace = run_problem(dataclasses.replace(DIC_CONFIG, learning_rate=1e-12), problem)
    assert trace.summary.error is None
    assert trace.summary.dic is None


def test_a_problem_without_dic_reports_none():
    trace = run_problem(DIC_CONFIG, quadratic_problem())
    assert trace.summary.error is None
    assert trace.summary.dic is None


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
