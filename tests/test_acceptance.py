"""Acceptance gate: every release criterion as one test, one pass/fail line
each (run with -v).  Tolerances are stated inline next to each assertion.

The slow entries are criterion 4 (bounded at 10 s), criterion 5 (2 min) and
criterion 8 (10 min); everything else is quick arithmetic or short runs.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.special import ndtri

from yoasovi.acceptance import TemperatureSchedule, accept_probability, temperature
from yoasovi.driver import (Problem, RunConfig, final_elbo, run, run_problem)
from yoasovi.errors import NumericError
from yoasovi.estimators import DrawStream, estimate
from yoasovi.gmm import Dataset, GmmParams, GmmSpec, dic
from yoasovi.harness import ExperimentMatrix, make_preset, run_matrix
from yoasovi.meanfield import VariationalParams, initial_params, log_q, sample, score
from yoasovi.sequences import make_source

from validation import ConjugateOracle, closed_form_elbo, finite_diff


def report(num, desc, ok, detail=""):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def conjugate_instance():
    """Equal prior and likelihood variance 0.02, thirty points near 0.2.
    Posterior mean is then the data total over N + 1."""
    y = np.random.default_rng(42).normal(0.2, math.sqrt(0.02), 30)
    oracle = ConjugateOracle.from_data(y, prior_var=0.02, lik_var=0.02)
    return oracle, oracle.posterior()[0]


def test_criterion_01_acceptance_rule_worked_example():
    p_naive = accept_probability("naive", 1.5, -2500.0, -1500.0)
    p_metro = accept_probability("metropolis", 1.5, -2500.0, -1500.0)
    exact_zero = p_naive == 0.0
    exp_minus_one = abs(p_metro - math.exp(-1.0)) <= 1e-12
    certain = all(
        accept_probability(rule, M, L_prev + gain, L_prev) == 1.0
        for rule in ("naive", "metropolis")
        for M in (0.0, 1.5, 50.0)
        for L_prev in (-1500.0, -3.0)
        for gain in (0.0, 1e-9, 10.0, 1e6))
    report(1, "worked probabilities and certain acceptance on improvement",
           exact_zero and exp_minus_one and certain,
           f"naive={p_naive} metro={p_metro:.15f}")


def test_criterion_02_metropolis_dominates_naive():
    rng = np.random.default_rng(2024)
    strict = True
    for _ in range(10_000):
        L_prev = float(rng.uniform(-1e4, -1e-2))
        rel_gap = float(rng.uniform(1e-4, 3.0))
        M = float(rng.uniform(0.05, 5.0))
        L_new = L_prev - rel_gap * abs(L_prev)
        if accept_probability("metropolis", M, L_new, L_prev) <= \
           accept_probability("naive", M, L_new, L_prev):
            strict = False
            break
    equal_at_zero_gap = all(
        accept_probability("metropolis", 1.0, L, L) ==
        accept_probability("naive", 1.0, L, L) == 1.0
        for L in (-1.0, -777.0, -1e4))
    report(2, "metropolis is strictly more permissive except at zero gap",
           strict and equal_at_zero_gap)


def test_criterion_03_log_schedule_freezes_acceptance():
    sched = TemperatureSchedule("log", 1.0)
    L_prev, L_new = -1000.0, -3000.0
    ok = True
    last = 1.0
    for t in range(1, 10_001):
        p = accept_probability("naive", temperature(sched, t), L_new, L_prev)
        ok = ok and p <= last + 1e-15
        last = p
    ok = ok and last == 0.0
    report(3, "log-tempered acceptance is nonincreasing over 10^4 iterations "
              "and reaches zero", ok, f"final p={last}")


def test_criterion_04_score_identity_and_gradient_check():
    t0 = time.perf_counter()
    lam = VariationalParams(m=np.array([0.4, -1.2, 0.0]),
                            log_s=np.array([-0.5, 0.2, -1.0]))
    src = make_source("pseudo-random", 3, seed=404)
    scores = np.array([score(lam, sample(lam, src.next_point(1)[0]).z)
                       for _ in range(100_000)])
    se = scores.std(axis=0) / math.sqrt(scores.shape[0])
    identity_ok = bool(np.all(np.abs(scores.mean(axis=0)) < 3.0 * se))

    z = np.array([0.1, -0.9, 0.7])
    packed = np.concatenate([lam.m, lam.log_s])
    num = finite_diff(lambda th: log_q(
        VariationalParams(m=th[:3], log_s=th[3:]), z), packed, step=1e-6)
    got = score(lam, z)
    rel = np.max(np.abs(got - num) / np.maximum(1.0, np.abs(num)))
    gradient_ok = rel <= 1e-5

    wall = time.perf_counter() - t0
    report(4, "score mean within 3 SE of zero at 1e5 draws and score matches "
              "finite differences at 1e-5 relative, under 10 s",
           identity_ok and gradient_ok and wall < 10.0,
           f"rel={rel:.2e} wall={wall:.1f}s")


def test_criterion_05_conjugate_recovery():
    t0 = time.perf_counter()
    oracle, post_mean = conjugate_instance()

    # part one: 1e5 averaged single-draw estimates against the closed forms
    m, s = 0.1, 0.5
    lam = VariationalParams(m=np.array([m]), log_s=np.array([math.log(s)]))
    exact_val, exact_grad = closed_form_elbo(oracle, m, s)
    S = 100_000
    est = estimate(lam, oracle.log_joint, DrawStream(make_source("pseudo-random", 1, seed=55)),
                   S=S)
    rng = np.random.default_rng(56)
    z = m + s * ndtri(rng.random((S, 1)))
    w = np.array([oracle.log_joint(zi) - log_q(lam, zi) for zi in z])
    sc = np.array([score(lam, zi) for zi in z])
    se_elbo = w.std() / math.sqrt(S)
    se_grad = (sc * w[:, None]).std(axis=0) / math.sqrt(S)
    target_grad = np.array([exact_grad[0], s * exact_grad[1]])  # (m, log_s) space
    moments_ok = abs(est.elbo - exact_val) < 3 * se_elbo and \
        bool(np.all(np.abs(est.grad - target_grad) < 3 * se_grad))

    # part two: single-draw acceptance sampling finds the posterior mean
    prob = Problem(target=oracle.log_joint,
                   init=lambda r: VariationalParams(m=np.zeros(1),
                                                    log_s=np.full(1, -1.0)))
    errs = []
    for seed in range(20):
        cfg = RunConfig(method="yoasovi-naive", learning_rate=1.5e-4,
                        max_iters=4000, patience=50,
                        schedule=TemperatureSchedule("log", 2.5), seed=seed)
        trace = run_problem(cfg, prob)
        errs.append(abs(trace.final_lambda.m[0] - post_mean))
    median_err = float(np.median(errs))
    recovery_ok = median_err < 0.1

    wall = time.perf_counter() - t0
    report(5, "single-draw estimates match conjugate closed forms and the "
              "sampler recovers the posterior mean within 0.1, under 2 min",
           moments_ok and recovery_ok and wall < 120.0,
           f"median err={median_err:.4f} wall={wall:.1f}s")


def test_criterion_06_scrambled_sequence_variance():
    spec, data = make_preset("sim-p2k2")
    from yoasovi.driver import build_gmm_problem
    prob = build_gmm_problem(spec, data)
    lam = initial_params(spec, data, np.random.default_rng(5), kmeans_style=True)

    def spread(kind, base):
        vals = [estimate(lam, prob.target, DrawStream(make_source(kind, lam.dim, base + i)),
                         S=10).elbo for i in range(200)]
        return float(np.var(vals))

    v_sobol = spread("sobol-scrambled", 10_000)
    v_pseudo = spread("pseudo-random", 20_000)
    report(6, "scrambled low-discrepancy draws strictly cut the variance of "
              "ten-draw ELBO estimates over 200 replications",
           v_sobol < v_pseudo, f"ratio={v_sobol / v_pseudo:.3f}")


def test_criterion_07_stall_detection():
    state = {"calls": 0}

    def collapsing(z):
        state["calls"] += 1
        return -100.0 * (2.0 ** state["calls"])

    prob = Problem(target=collapsing,
                   init=lambda r: VariationalParams(m=np.zeros(1),
                                                    log_s=np.full(1, -1.0)))
    cfg = RunConfig(method="yoasovi-naive", learning_rate=1e-6, max_iters=500,
                    patience=10, schedule=TemperatureSchedule("constant", 1e9), seed=1)
    trace = run_problem(cfg, prob)
    flags = [r.accepted for r in trace.records]
    shape_ok = flags == [True] + [False] * 10
    report(7, "an unattainable bar yields exactly `patience` consecutive "
              "rejections and converged=True",
           shape_ok and trace.summary.converged,
           f"iterations={trace.summary.iterations}")


def test_criterion_08_simulated_benchmark():
    t0 = time.perf_counter()
    spec, data = make_preset("sim-p2k2", N=500)
    shared = dict(learning_rate=5e-7, max_iters=500, model=spec,
                  kmeans_style_init=True)
    methods = {
        "mcvi": RunConfig(method="mcvi", samples=100,
                          schedule=TemperatureSchedule(), **shared),
        "qmcvi": RunConfig(method="qmcvi", samples=10,
                           schedule=TemperatureSchedule(), **shared),
        "yoasovi-naive": RunConfig(method="yoasovi-naive", samples=1, patience=100,
                                   schedule=TemperatureSchedule("linear", 0.1),
                                   **shared),
    }
    summaries = {name: [] for name in methods}
    # replicate by replicate, each cycling through the methods, so a slow
    # phase of a shared host lands on every method and not on one
    for r in range(10):
        for name, template in methods.items():
            tr = run(dataclasses.replace(template, seed=r), data)
            assert tr.summary.error is None
            summaries[name].append(tr.summary)

    evals_ok = all(
        s.density_evals == {"mcvi": 100, "qmcvi": 10, "yoasovi-naive": 1}[n] * s.iterations
        for n, group in summaries.items() for s in group)

    med = lambda n, f: float(np.median([getattr(s, f) for s in summaries[n]]))
    time_ratio = med("yoasovi-naive", "wall_seconds") / med("qmcvi", "wall_seconds")
    time_ok = time_ratio < 0.20
    elbo_margin = med("yoasovi-naive", "final_elbo") - med("qmcvi", "final_elbo")
    elbo_ok = elbo_margin >= 0.0

    wall = time.perf_counter() - t0
    report(8, "ten-replicate benchmark: single-draw runs in under 20% of the "
              "ten-draw wall time, matches or beats its ending ELBO, and every "
              "method spends exactly its draw budget per iteration, under 10 min",
           evals_ok and time_ok and elbo_ok and wall < 600.0,
           f"time_ratio={time_ratio:.3f} elbo_margin={elbo_margin:+.1f} "
           f"wall={wall:.0f}s")


def test_criterion_09_trace_files_are_reproducible(tmp_path):
    class TickClock:
        def __init__(self):
            self.t = 0.0

        def __call__(self):
            self.t += 0.001
            return self.t

    spec, data = make_preset("sim-p2k2")
    template = RunConfig(method="yoasovi-naive", learning_rate=5e-7, max_iters=80,
                         patience=100, schedule=TemperatureSchedule("linear", 0.1),
                         kmeans_style_init=True)
    matrix = ExperimentMatrix(datasets=(("sim-p2k2", spec, data),),
                              methods=(("yoasovi-naive", template),),
                              replicates=2, base_seed=0)
    run_matrix(matrix, tmp_path / "first", clock=TickClock())
    run_matrix(matrix, tmp_path / "second", clock=TickClock())
    identical = all(
        (tmp_path / "first" / rel).read_bytes() == (tmp_path / "second" / rel).read_bytes()
        for rel in ["traces/sim-p2k2__yoasovi-naive__r0.csv",
                    "traces/sim-p2k2__yoasovi-naive__r1.csv", "summary.csv"])
    report(9, "identical config and seed reproduce trace files byte for byte",
           identical)


def test_criterion_10_dic_hand_computation():
    spec = GmmSpec(K=1, p=1)
    data = Dataset(np.array([[0.5], [-0.5]]))
    d1 = GmmParams(weights=np.array([1.0]), means=np.array([[0.0]]),
                   sds=np.array([[1.0]]))
    d2 = GmmParams(weights=np.array([1.0]), means=np.array([[1.0]]),
                   sds=np.array([[2.0]]))

    def loglik(m, s):
        return sum(-0.5 * math.log(2 * math.pi * s * s) - (y - m) ** 2 / (2 * s * s)
                   for y in (0.5, -0.5))

    d_bar = 0.5 * (-2 * loglik(0.0, 1.0) - 2 * loglik(1.0, 2.0))
    hand = 2 * d_bar - (-2 * loglik(0.5, 1.5))
    got = dic(spec, data, GmmParams(*(np.stack([getattr(d1, f), getattr(d2, f)])
                                      for f in ("weights", "means", "sds"))))
    report(10, "two-draw DIC matches the hand computation to 1e-8",
           abs(got - hand) <= 1e-8, f"got={got:.10f} hand={hand:.10f}")
