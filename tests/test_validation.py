import math

import numpy as np
import pytest
from scipy import integrate, stats

from validation import ConjugateOracle, GaussianTarget, closed_form_elbo, finite_diff
from yoasovi.driver import RunConfig, run_problem
from yoasovi.estimators import DrawStream, estimate
from yoasovi.meanfield import VariationalParams
from yoasovi.sequences import make_source


def oracle_fixture():
    y = np.array([0.3, -0.1, 0.5, 0.2, 0.15, -0.05])
    return ConjugateOracle.from_data(y, prior_var=0.5, lik_var=0.8), y


# ---------------------------------------------------------------------------
# finite differences

def test_finite_diff_on_polynomials():
    def f(x):
        return x[0] ** 2 + 3.0 * x[0] * x[1] - x[1] ** 3

    g = finite_diff(f, np.array([1.0, 2.0]), step=1e-6)
    np.testing.assert_allclose(g, [2.0 + 6.0, 3.0 - 12.0], atol=1e-8)


def test_finite_diff_on_transcendentals():
    g = finite_diff(lambda x: math.sin(x[0]) * math.exp(x[1]),
                    np.array([0.7, -0.2]), step=1e-6)
    np.testing.assert_allclose(
        g, [math.cos(0.7) * math.exp(-0.2), math.sin(0.7) * math.exp(-0.2)], atol=1e-9)


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff(lambda x: 0.0, np.zeros(1), step=0.0)


# ---------------------------------------------------------------------------
# conjugate oracle internals, checked against quadrature

def test_posterior_matches_numeric_integration():
    oracle, y = oracle_fixture()

    def joint(th):
        return math.exp(oracle.log_joint(th))

    Z, _ = integrate.quad(joint, -20, 20)
    m1, _ = integrate.quad(lambda th: th * joint(th), -20, 20)
    m2, _ = integrate.quad(lambda th: th * th * joint(th), -20, 20)
    mean, var = oracle.posterior()
    assert mean == pytest.approx(m1 / Z, abs=1e-10)
    assert var == pytest.approx(m2 / Z - (m1 / Z) ** 2, abs=1e-10)
    assert oracle.log_marginal() == pytest.approx(math.log(Z), abs=1e-10)


def test_equal_variance_posterior_mean_shortcut():
    # with prior and likelihood variance equal, the posterior mean is the
    # data total over N + 1
    rng = np.random.default_rng(1)
    y = rng.normal(0.0, 1.0, 12)
    oracle = ConjugateOracle.from_data(y, prior_var=0.3, lik_var=0.3)
    mean, _ = oracle.posterior()
    assert mean == pytest.approx(y.sum() / 13.0, abs=1e-14)


def test_log_joint_matches_scipy_densities():
    oracle, y = oracle_fixture()
    for th in (-0.5, 0.0, 0.3, 1.7):
        want = stats.norm.logpdf(y, th, math.sqrt(0.8)).sum() \
            + stats.norm.logpdf(th, 0.0, math.sqrt(0.5))
        assert oracle.log_joint(th) == pytest.approx(want, abs=1e-12)


def test_oracle_validation():
    with pytest.raises(ValueError):
        ConjugateOracle(prior_var=0.0, lik_var=1.0, n=3, sum_y=0.0, sum_y_sq=1.0)
    with pytest.raises(ValueError):
        ConjugateOracle(prior_var=1.0, lik_var=1.0, n=0, sum_y=0.0, sum_y_sq=0.0)


# ---------------------------------------------------------------------------
# closed-form ELBO

def test_elbo_value_matches_quadrature():
    oracle, y = oracle_fixture()
    m, s = 0.2, 0.4

    def integrand(th):
        lq = stats.norm.logpdf(th, m, s)
        return (oracle.log_joint(th) - lq) * math.exp(lq)

    want, _ = integrate.quad(integrand, m - 12 * s, m + 12 * s)
    got, _ = closed_form_elbo(oracle, m, s)
    assert got == pytest.approx(want, abs=1e-9)


def test_elbo_gradient_matches_finite_differences():
    oracle, _ = oracle_fixture()
    for m, s in [(0.0, 1.0), (0.3, 0.2), (-1.0, 2.5)]:
        _, grad = closed_form_elbo(oracle, m, s)
        num = finite_diff(lambda x: closed_form_elbo(oracle, x[0], x[1])[0],
                          np.array([m, s]), step=1e-6)
        np.testing.assert_allclose(grad, num, rtol=1e-6, atol=1e-8)


def test_elbo_is_tight_exactly_at_posterior():
    oracle, _ = oracle_fixture()
    mean, var = oracle.posterior()
    value, grad = closed_form_elbo(oracle, mean, math.sqrt(var))
    assert value == pytest.approx(oracle.log_marginal(), abs=1e-12)
    assert np.all(np.abs(grad) < 1e-8)


def test_elbo_never_exceeds_log_marginal_on_grid():
    oracle, _ = oracle_fixture()
    bound = oracle.log_marginal()
    best = -math.inf
    for m in np.linspace(-2.0, 2.0, 20):
        for s in np.linspace(0.05, 3.0, 20):
            val, _ = closed_form_elbo(oracle, m, s)
            assert val <= bound + 1e-12
            best = max(best, val)
    # the grid should get close to the bound without touching it
    assert best < bound
    assert best > bound - 5.0


def test_elbo_rejects_nonpositive_scale():
    oracle, _ = oracle_fixture()
    with pytest.raises(ValueError):
        closed_form_elbo(oracle, 0.0, 0.0)
    with pytest.raises(ValueError):
        closed_form_elbo(oracle, 0.0, -1.0)


# ---------------------------------------------------------------------------
# the d-dimensional Gaussian target

def gaussian_target(c=0.0):
    return GaussianTarget.equicorrelated(9, 0.5, np.random.default_rng(14), c=c)


def test_gaussian_target_elbo_matches_a_1e5_draw_estimate():
    """The closed-form ELBO at a lambda away from the optimum agrees with
    the library's own 1e5-draw estimate within 3 standard errors."""
    target = gaussian_target(c=-3.0)
    rng = np.random.default_rng(5)
    lam = VariationalParams(m=rng.normal(0.0, 1.0, target.dim),
                            log_s=rng.normal(-1.0, 0.3, target.dim))
    est = estimate(lam, target.log_joint,
                   DrawStream(make_source("pseudo-random", target.dim, seed=3)), 100_000)
    se = est.w.std(ddof=1) / math.sqrt(len(est.w))
    assert abs(est.elbo - target.elbo(lam)) < 3.0 * se
    assert target.elbo(lam) < target.elbo(target.optimum()) - 1.0


def test_gaussian_target_elbo_is_flat_at_its_optimum():
    """A central-difference gradient of the closed-form ELBO in (m, log_s)
    is 0 at optimum() to rounding, and not 0 a step away from it."""
    target = gaussian_target()
    d = target.dim

    def elbo(x):
        return target.elbo(VariationalParams(m=x[:d], log_s=x[d:]))

    best = target.optimum()
    x = np.concatenate([best.m, best.log_s])
    np.testing.assert_allclose(finite_diff(elbo, x, step=1e-5), 0.0, atol=1e-7)
    x[0] += 0.1
    x[-1] -= 0.1
    assert np.abs(finite_diff(elbo, x, step=1e-5)).max() > 1e-2


def test_gaussian_target_log_joint_is_row_wise_and_runs():
    """log_joint scores stacked rows as one call per row, a run goes
    through its Problem, and the closed form scores the run's lambda."""
    target = gaussian_target()
    z = np.random.default_rng(2).normal(0.0, 1.0, (4, target.dim))
    got = target.log_joint(z)
    assert got.shape == (4,)
    np.testing.assert_allclose(got, [target.log_joint(row) for row in z], rtol=1e-15)
    assert target.log_joint(target.mu) == target.c
    cfg = RunConfig(method="mcvi", samples=10, learning_rate=1e-3, max_iters=50, seed=1)
    trace = run_problem(cfg, target.problem())
    assert trace.summary.error is None and trace.summary.dic is None
    assert target.elbo(trace.final_lambda) < target.elbo(target.optimum())
    with pytest.raises(ValueError):
        GaussianTarget(mu=np.zeros(2), prec=np.array([[1.0, 2.0], [2.0, 1.0]]))
