import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from yoasovi import driver, estimators
from yoasovi.driver import RunConfig, build_gmm_problem, run_problem
from yoasovi.errors import NumericError
from yoasovi.estimators import LOOKAHEAD, DrawStream, GradientSample, estimate, update_step
from yoasovi.acceptance import TemperatureSchedule
from yoasovi.harness import make_preset
from yoasovi.meanfield import VariationalParams, log_q, sample, score
from yoasovi.sequences import EPS, make_source

from validation import ConjugateOracle, closed_form_elbo


class FrozenSource:
    """Serves a fixed list of points, so every draw is known in advance."""

    def __init__(self, points):
        self.points = [np.asarray(p, dtype=float) for p in points]
        self.counter = 0

    def next_point(self, n):
        p = np.stack(self.points[self.counter:self.counter + n])
        self.counter += n
        return p


def make_oracle(seed=42, n=30, var=0.02):
    y = np.random.default_rng(seed).normal(0.2, np.sqrt(var), n)
    return ConjugateOracle.from_data(y, prior_var=var, lik_var=var)


def test_single_draw_arithmetic_is_exact():
    """S=1: elbo is the lone integrand and grad is score * integrand."""
    lam = VariationalParams(m=np.array([0.3]), log_s=np.array([-0.5]))
    oracle = make_oracle()
    src = FrozenSource([[0.7]])
    out = estimate(lam, oracle.log_joint, DrawStream(src), S=1)

    z = lam.m + np.exp(lam.log_s) * ndtri(0.7)
    w = oracle.log_joint(z) - log_q(lam, z)
    assert out.elbo == pytest.approx(w, abs=1e-12)
    np.testing.assert_allclose(out.grad, score(lam, z) * w, atol=1e-12)
    assert isinstance(out, GradientSample)


def test_estimate_averages_over_draws():
    lam = VariationalParams(m=np.array([0.0]), log_s=np.array([0.0]))
    oracle = make_oracle()
    pts = [[0.2], [0.5], [0.8]]
    batched = estimate(lam, oracle.log_joint, DrawStream(FrozenSource(pts)), S=3)
    singles = [estimate(lam, oracle.log_joint, DrawStream(FrozenSource([p])), S=1)
               for p in pts]
    assert batched.elbo == pytest.approx(np.mean([s.elbo for s in singles]), abs=1e-12)
    np.testing.assert_allclose(batched.grad,
                               np.mean([s.grad for s in singles], axis=0), atol=1e-12)


def test_one_density_evaluation_per_draw():
    lam = VariationalParams(m=np.zeros(1), log_s=np.zeros(1))
    oracle = make_oracle()
    calls = 0

    def counted(z):
        nonlocal calls
        calls += 1
        return oracle.log_joint(z)

    src = FrozenSource(np.random.default_rng(3).random((17, 1)))
    estimate(lam, counted, DrawStream(src), S=17)
    assert calls == 17
    assert src.counter == 17


def test_estimate_tracks_closed_form_elbo_and_gradient():
    """Average of many single-draw estimates against the exact conjugate
    answers, three standard errors of slack."""
    oracle = make_oracle()
    m, s = 0.1, 0.6
    lam = VariationalParams(m=np.array([m]), log_s=np.array([np.log(s)]))
    exact_val, exact_grad = closed_form_elbo(oracle, m, s)

    src = make_source("pseudo-random", 1, seed=123)
    S = 40_000
    est = estimate(lam, oracle.log_joint, DrawStream(src), S=S)

    # spread measured from an independent vectorized replay of the estimator
    rng = np.random.default_rng(9)
    z = m + s * ndtri(rng.random((S, 1)))
    w = np.array([oracle.log_joint(zi) for zi in z]) - np.array(
        [log_q(lam, zi) for zi in z])
    sc = np.array([score(lam, zi) for zi in z])
    se_elbo = w.std() / np.sqrt(S)
    se_grad = (sc * w[:, None]).std(axis=0) / np.sqrt(S)

    assert abs(est.elbo - exact_val) < 3 * se_elbo
    # closed-form gradient is in (m, s); estimator reports (m, log_s):
    # d/dlog_s = s * d/ds
    target_grad = np.array([exact_grad[0], s * exact_grad[1]])
    assert np.all(np.abs(est.grad - target_grad) < 3 * se_grad)


def per_draw_estimate(lam, log_joint_z, src, S):
    """The per-draw loop: one point, sample, log_q and score per draw, and
    grad and elbo accumulated in draw order."""
    grad = np.zeros(2 * lam.dim)
    elbo = 0.0
    for _ in range(S):
        z = sample(lam, src.next_point(1)[0]).z
        w = float(log_joint_z(z)) - log_q(lam, z)
        grad += score(lam, z) * w
        elbo += w
    return grad / S, elbo / S


@pytest.mark.parametrize("kind", ["pseudo-random", "sobol-scrambled"])
@pytest.mark.parametrize("S", [1, 10, 100])
def test_estimate_is_bit_identical_to_the_per_draw_loop(kind, S):
    spec, data = make_preset("sim-p3k4", N=60)
    prob = build_gmm_problem(spec, data, kmeans_style_init=True)
    init = prob.init(np.random.default_rng(3))
    spread = VariationalParams(m=init.m, log_s=np.linspace(-3.0, 0.5, init.dim))
    for lam in (init, spread):
        for seed in (0, 1):
            got = estimate(lam, prob.target, DrawStream(make_source(kind, lam.dim, seed)), S)
            grad, elbo = per_draw_estimate(lam, prob.target, make_source(kind, lam.dim, seed), S)
            assert got.elbo == elbo
            assert np.array_equal(got.grad, grad)


@pytest.mark.parametrize("S", [1, 10, 100])
def test_grad_read_later_is_the_eager_sum(S):
    """grad, computed when first read, is bit for bit the sum an eager
    estimate formed: one row-wise score, accumulated in draw order."""
    spec, data = make_preset("sim-p2k2", N=60)
    prob = build_gmm_problem(spec, data, kmeans_style_init=True)
    lam = prob.init(np.random.default_rng(5))
    est = estimate(lam, prob.target, DrawStream(make_source("sobol-scrambled", lam.dim, 2)), S)

    z = sample(lam, make_source("sobol-scrambled", lam.dim, 2).next_point(S)).z
    lq = log_q(lam, z)
    sc = score(lam, z)
    grad = np.zeros(2 * lam.dim)
    for s in range(S):
        grad += sc[s] * (float(prob.target(z[s])) - float(lq[s]))
    assert np.array_equal(est.grad, grad / S)
    assert est.grad is est.grad


def test_a_rejected_step_never_scores_its_draw(monkeypatch):
    """The driver reads grad only to update lambda, so over a single-draw
    run score runs once in each accepted iteration and never in a rejected
    one: the score calls made between one estimate and the next are the
    iteration's accepted flag."""
    calls, per_iteration = [], []
    real, real_estimate = estimators.score, driver.estimate
    monkeypatch.setattr(estimators, "score",
                        lambda lam, z: calls.append(1) or real(lam, z))

    def marked(*args):
        per_iteration.append(len(calls))
        return real_estimate(*args)

    monkeypatch.setattr(driver, "estimate", marked)
    spec, data = make_preset("sim-p2k2", N=80)
    cfg = RunConfig(method="yoasovi-naive", learning_rate=5e-7, max_iters=20, patience=100,
                    schedule=TemperatureSchedule("linear", 0.1), seed=4, model=spec,
                    kmeans_style_init=True)
    problem = build_gmm_problem(spec, data, kmeans_style_init=True)
    trace = run_problem(cfg, problem)
    accepted = sum(r.accepted for r in trace.records)
    assert trace.summary.iterations == 20 and 0 < accepted < 20
    assert len(calls) == accepted
    per_iteration.append(len(calls))
    assert np.diff(per_iteration).tolist() == trace.columns.accepted.astype(int).tolist()


@pytest.mark.parametrize("k,S", [(1, 1), (1, 5), (3, 5), (5, 5)])
def test_overflowing_draw_raises_after_the_draws_before_it(k, S):
    # exp(709) * ndtri(0.5) is exactly 0, so those draws sit at m; the draw
    # at 1 - EPS is 7.3 sds out and overflows to inf
    lam = VariationalParams(m=np.array([0.2, -0.1]), log_s=np.full(2, 709.0))
    calls = 0

    def counted(z):
        nonlocal calls
        calls += 1
        return -1.0

    points = [[0.5, 0.5]] * S
    points[k - 1] = [0.5, 1.0 - EPS]
    with pytest.raises(NumericError, match=rf"^draw {k} of {S} overflowed"):
        estimate(lam, counted, DrawStream(FrozenSource(points)), S)
    assert calls == k - 1


def test_a_finite_draw_with_a_non_finite_log_q_is_a_non_finite_integrand():
    # estimate looks at a draw only when its log_q is non-finite, and here
    # the draw is finite: 2 exp(2 log_s) underflows to 0, so log_q is nan
    # (0 / 0) at a draw that sits at m
    lam = VariationalParams(m=np.array([0.2, -0.1]), log_s=np.full(2, -400.0))
    calls = 0

    def counted(z):
        nonlocal calls
        calls += 1
        return -1.0

    with pytest.raises(NumericError, match=r"^non-finite integrand \(nan\) at draw 1 of 3"):
        estimate(lam, counted, DrawStream(FrozenSource([[0.5, 0.5]] * 3)), 3)
    assert calls == 1


def test_estimate_rejects_bad_sample_count():
    lam = VariationalParams(m=np.zeros(1), log_s=np.zeros(1))
    with pytest.raises(ValueError):
        estimate(lam, lambda z: 0.0, DrawStream(FrozenSource([[0.5]])), S=0)


def test_non_finite_integrand_raises_with_draw_index():
    lam = VariationalParams(m=np.zeros(1), log_s=np.zeros(1))
    vals = iter([-1.0, -2.0, np.nan])
    src = make_source("pseudo-random", 1, seed=0)
    with pytest.raises(NumericError, match="draw 3"):
        estimate(lam, lambda z: next(vals), DrawStream(src), S=5)


class CountingSource:
    """A source that counts the points taken from it."""

    def __init__(self, src):
        self.src = src
        self.taken = 0

    def next_point(self, n):
        self.taken += n
        return self.src.next_point(n)


def count_rows(monkeypatch):
    """The number of rows each estimators.sample call computes, in order."""
    rows = []
    real = estimators.sample
    monkeypatch.setattr(estimators, "sample",
                        lambda lam, u: rows.append(len(u)) or real(lam, u))
    return rows


P2K2 = build_gmm_problem(*make_preset("sim-p2k2", N=60), kmeans_style_init=True)
P2K2_INIT = P2K2.init(np.random.default_rng(7))


@given(kind=st.sampled_from(["pseudo-random", "sobol-scrambled"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       script=st.lists(st.tuples(st.sampled_from(["same", "equal", "moved"]),
                                 st.sampled_from([1, 3])), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_the_stream_serves_what_a_per_call_pass_would(kind, seed, script):
    """Whatever the order of unchanged, rebuilt and moved lambdas, every
    served z, integrand, elbo and grad has the bits of one sample and
    log_q call over the same stream positions, and the served points are
    the stream's prefix: the reference takes them from its own copy of the
    source, in order."""
    src = CountingSource(make_source(kind, P2K2_INIT.dim, seed))
    ref_src = make_source(kind, P2K2_INIT.dim, seed)
    draws = DrawStream(src)
    lam, served = P2K2_INIT, 0
    for i, (step, S) in enumerate(script):
        if step == "equal":
            lam = VariationalParams(m=lam.m, log_s=lam.log_s)
        elif step == "moved":
            lam = VariationalParams(m=lam.m + 0.01 * (i + 1), log_s=lam.log_s - 0.02)
        got = estimate(lam, P2K2.target, draws, S)

        z = sample(lam, ref_src.next_point(S)).z
        lq = log_q(lam, z)
        w = np.array([float(P2K2.target(z[s])) - lq[s] for s in range(S)])
        assert np.array_equal(got.z, z)
        assert np.array_equal(got.w, w)
        assert got.elbo == sum(w.tolist()) / S
        assert np.array_equal(got.grad, (score(lam, z) * w[:, None]).sum(axis=0) / S)
        served += S
        assert served <= src.taken <= served + LOOKAHEAD


@pytest.mark.parametrize("k,S,ahead", [(5, 1, True), (8, 3, True), (17, 3, False), (20, 3, True)],
                         ids=["5-1", "8-3", "17-3", "20-3"])
def test_an_overflowing_row_ahead_raises_only_when_served(monkeypatch, k, S, ahead):
    """Point k (1-based in the stream) overflows; with lambda unchanged the
    stream computes it in a refill of LOOKAHEAD rows, either ahead of the
    call that serves it or, at k = 17 and S = 3, in that call's own refill,
    which starts at the one row left over.  Either way the error comes at
    the call that serves it, as draw ((k - 1) % S + 1) of S, after the
    target calls before it."""
    rows = count_rows(monkeypatch)
    lam = VariationalParams(m=np.array([0.2, -0.1]), log_s=np.full(2, 709.0))
    points = [[0.5, 0.5]] * 40
    points[k - 1] = [0.5, 1.0 - EPS]
    calls = 0

    def counted(z):
        nonlocal calls
        calls += 1
        return -1.0

    draws = DrawStream(FrozenSource(points))
    for _ in range((k - 1) // S):
        estimate(lam, counted, draws, S)
    assert (sum(rows) >= k) == ahead  # whether the overflowing row was computed ahead
    with pytest.raises(NumericError, match=rf"^draw {(k - 1) % S + 1} of {S} overflowed"):
        estimate(lam, counted, draws, S)
    assert calls == k - 1


@pytest.mark.parametrize("S", [1, 3, 10, 20])
def test_a_new_lambda_on_every_call_refills_max_of_s_and_lookahead_rows(monkeypatch, S):
    """One refill per lambda: a new lambda on every call computes max(S,
    LOOKAHEAD) rows from the first unserved point, and the points taken
    stay within LOOKAHEAD of those served."""
    rows = count_rows(monkeypatch)
    src = CountingSource(make_source("sobol-scrambled", P2K2_INIT.dim, 4))
    draws = DrawStream(src)
    lam = P2K2_INIT
    for call in range(1, 13):
        lam = VariationalParams(m=lam.m + 1e-3, log_s=lam.log_s)
        estimate(lam, P2K2.target, draws, S)
        assert call * S <= src.taken <= call * S + LOOKAHEAD
    assert LOOKAHEAD == 16 and rows == [max(S, LOOKAHEAD)] * 12


@pytest.mark.parametrize("S, want", [(1, [16, 16, 16]), (3, [16] * 8)])
def test_an_unchanged_lambda_refills_lookahead_rows_from_the_first_unserved(
        monkeypatch, S, want):
    """With lambda unchanged for 40 calls the stream computes LOOKAHEAD rows
    on the first call and whenever it holds fewer than S, recomputing the
    one row left over at S=3; it never takes more than LOOKAHEAD points
    beyond those it served."""
    rows = count_rows(monkeypatch)
    src = CountingSource(make_source("sobol-scrambled", P2K2_INIT.dim, 5))
    draws = DrawStream(src)
    for call in range(1, 41):
        estimate(P2K2_INIT, P2K2.target, draws, S)
        assert src.taken <= call * S + LOOKAHEAD
    assert LOOKAHEAD == 16 and rows == want


def test_update_step_unit_gradient():
    lam = VariationalParams(m=np.array([1.0, 2.0]), log_s=np.array([0.0, -1.0]))
    new = update_step(lam, np.ones(4), rho=0.001)
    np.testing.assert_allclose(new.m, [1.001, 2.001], atol=1e-15)
    np.testing.assert_allclose(new.log_s, [0.001, -0.999], atol=1e-15)
    # original untouched
    np.testing.assert_array_equal(lam.m, [1.0, 2.0])


def test_update_step_validation():
    lam = VariationalParams(m=np.zeros(2), log_s=np.zeros(2))
    with pytest.raises(ValueError):
        update_step(lam, np.ones(4), rho=0.0)
    with pytest.raises(ValueError):
        update_step(lam, np.ones(3), rho=0.1)
    for bad in (np.full(4, 1e308), np.array([0.0, np.nan, 0.0, 0.0])):
        with pytest.raises(NumericError,
                           match="^parameter update produced non-finite values$"):
            update_step(lam, bad, rho=1e308)


def test_scrambled_sequence_reduces_estimator_variance():
    """Repeated S=10 ELBO estimates at a fixed lambda: the scrambled
    low-discrepancy source should come out strictly less variable."""
    oracle = make_oracle()
    lam = VariationalParams(m=np.array([0.15]), log_s=np.array([-1.0]))

    def spread(kind, base):
        vals = [estimate(lam, oracle.log_joint,
                         DrawStream(make_source(kind, 1, seed=base + i)), S=10).elbo
                for i in range(150)]
        return np.var(vals)

    assert spread("sobol-scrambled", 5000) < spread("pseudo-random", 6000)
