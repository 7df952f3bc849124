import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from yoasovi.errors import NumericError
from yoasovi.gmm import Dataset, GmmSpec
from yoasovi.meanfield import (ParamDraw, VariationalParams, constrain,
                               initial_params, log_q, sample, score,
                               unconstrain)
from yoasovi.sequences import make_source
from yoasovi.validation import finite_diff

SPEC22 = GmmSpec(K=2, p=2)


def lam_fixture(dim, seed=0):
    rng = np.random.default_rng(seed)
    return VariationalParams(m=rng.normal(0, 1, dim), log_s=rng.normal(0, 0.3, dim))


# ---------------------------------------------------------------------------
# constrain / unconstrain

@given(arrays(np.float64, 9, elements=st.floats(-20, 20)))
@settings(max_examples=200, deadline=None)
def test_round_trip_through_constrained_space(z):
    params, _ = constrain(z, SPEC22)
    back = unconstrain(params, SPEC22)
    np.testing.assert_allclose(back, z, atol=1e-12, rtol=0)


def test_constrain_produces_valid_params():
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec = GmmSpec(K=int(rng.integers(1, 5)), p=int(rng.integers(1, 4)))
        z = rng.normal(0, 2, spec.n_unconstrained)
        params, ldj = constrain(z, spec)
        params.validate(spec)
        assert np.isfinite(ldj)


def test_constrain_layout():
    # z = [logit | mu11 mu12 mu21 mu22 | log_sd...]; last logit pinned at 0
    z = np.array([0.0, 1.0, 2.0, 3.0, 4.0, -1.0, -1.0, -1.0, -1.0])
    params, _ = constrain(z, SPEC22)
    np.testing.assert_allclose(params.weights, [0.5, 0.5])
    np.testing.assert_allclose(params.means, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(params.sds, np.exp(-1.0) * np.ones((2, 2)))


def test_jacobian_term_matches_numerical_determinant():
    """The tracked term should equal log |det| of z -> (w[:K-1], means, sds),
    measured by finite differences of that map."""
    spec = GmmSpec(K=3, p=1)
    d = spec.n_unconstrained

    def flat(z):
        params, _ = constrain(z, spec)
        return np.concatenate(
            [params.weights[:-1], params.means.ravel(), params.sds.ravel()])

    rng = np.random.default_rng(8)
    for _ in range(5):
        z = rng.normal(0, 1.5, d)
        jac = np.zeros((d, d))
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1e-6
            jac[:, i] = (flat(z + e) - flat(z - e)) / 2e-6
        _, ldj = constrain(z, spec)
        assert ldj == pytest.approx(np.log(abs(np.linalg.det(jac))), abs=1e-5)


def test_constrain_rejects_wrong_length_and_non_finite():
    with pytest.raises(ValueError):
        constrain(np.zeros(5), SPEC22)
    with pytest.raises(NumericError):
        constrain(np.full(9, np.nan), SPEC22)


def test_constrain_rejects_an_sd_that_underflows():
    z = np.zeros((3, 9))
    z[1, 6] = -800.0  # exp(-800) is 0 in double precision
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="underflowed"):
            constrain(z, SPEC22)
        constrain(z[0], SPEC22)


def test_constrain_rows_match_per_row_calls():
    rng = np.random.default_rng(17)
    for spec in (SPEC22, GmmSpec(K=4, p=3), GmmSpec(K=9, p=2)):
        z = rng.normal(0, 2, (23, spec.n_unconstrained))
        params, ldj = constrain(z, spec)
        assert params.weights.shape == (23, spec.K)
        assert params.means.shape == params.sds.shape == (23, spec.K, spec.p)
        assert ldj.shape == (23,)
        for i, z_i in enumerate(z):
            one, ldj_i = constrain(z_i, spec)
            for field in ("weights", "means", "sds"):
                np.testing.assert_array_equal(getattr(params, field)[i], getattr(one, field))
            assert ldj[i] == ldj_i
        np.testing.assert_allclose(unconstrain(params, spec), z, atol=1e-12, rtol=0)
        # two leading axes: the same rows, reshaped
        params2, ldj2 = constrain(z[:22].reshape(2, 11, -1), spec)
        np.testing.assert_array_equal(params2.sds.reshape(22, spec.K, spec.p), params.sds[:22])
        np.testing.assert_array_equal(ldj2.ravel(), ldj[:22])


# ---------------------------------------------------------------------------
# sampling

def test_sample_is_location_scale_transform():
    lam = lam_fixture(9)
    u = np.full(9, 0.731)
    draw = sample(lam, u)
    expected_z = lam.m + np.exp(lam.log_s) * stats.norm.ppf(0.731)
    np.testing.assert_allclose(draw.z, expected_z, atol=1e-12)
    assert isinstance(draw, ParamDraw)


def test_sample_marginals_pass_ks():
    """10^4 pseudo-random draws; each coordinate against its intended
    Gaussian at alpha = 0.001."""
    lam = VariationalParams(m=np.array([1.0, -2.0]), log_s=np.array([0.0, 0.7]))
    src = make_source("pseudo-random", 2, seed=51)
    zs = np.array([sample(lam, src.next_point()).z for _ in range(10_000)])
    for i in range(2):
        res = stats.kstest(zs[:, i], "norm",
                           args=(lam.m[i], np.exp(lam.log_s[i])))
        assert res.pvalue > 0.001


# ---------------------------------------------------------------------------
# density and score

def test_log_q_matches_scipy_product_density():
    lam = lam_fixture(6, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = rng.normal(0, 2, 6)
        want = stats.norm.logpdf(z, lam.m, np.exp(lam.log_s)).sum()
        assert log_q(lam, z) == pytest.approx(want, abs=1e-12)


def test_score_matches_finite_difference_of_log_q():
    lam = lam_fixture(5, seed=6)
    z = np.random.default_rng(7).normal(0, 1, 5)

    def f(theta):
        return log_q(VariationalParams(m=theta[:5], log_s=theta[5:]), z)

    packed = np.concatenate([lam.m, lam.log_s])
    num = finite_diff(f, packed, step=1e-6)
    got = score(lam, z)
    assert got.shape == (10,)
    np.testing.assert_allclose(got, num, rtol=1e-5, atol=1e-7)


def test_score_mean_vanishes_under_q():
    # E_q[score] = 0; 1e5 draws, each coordinate within 3 standard errors
    lam = VariationalParams(m=np.array([0.5, -1.0]), log_s=np.array([-0.2, 0.4]))
    src = make_source("pseudo-random", 2, seed=21)
    scores = np.array([score(lam, sample(lam, src.next_point()).z)
                       for _ in range(100_000)])
    se = scores.std(axis=0) / np.sqrt(scores.shape[0])
    assert np.all(np.abs(scores.mean(axis=0)) < 3.0 * se)


def test_variational_params_validation():
    with pytest.raises(ValueError):
        VariationalParams(m=np.zeros(3), log_s=np.zeros(4))
    with pytest.raises(ValueError):
        VariationalParams(m=np.array([np.inf]), log_s=np.array([0.0]))
    with pytest.raises(ValueError):
        VariationalParams(m=np.zeros((2, 2)), log_s=np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# initialisation

def _toy_data(seed=0, n=40):
    rng = np.random.default_rng(seed)
    half = rng.normal(-3, 0.5, (n // 2, 2))
    other = rng.normal(3, 0.5, (n - n // 2, 2))
    return Dataset(np.vstack([half, other]))


def test_initial_params_layout_and_log_s():
    data = _toy_data()
    lam = initial_params(SPEC22, data, np.random.default_rng(1))
    assert lam.dim == SPEC22.n_unconstrained
    np.testing.assert_array_equal(lam.log_s, -1.0)
    # logit and log-sd blocks start near zero
    assert abs(lam.m[0]) < 0.5
    assert np.all(np.abs(lam.m[5:]) < 0.5)


def test_initial_means_are_data_points():
    data = _toy_data()
    lam = initial_params(SPEC22, data, np.random.default_rng(2))
    starts = lam.m[1:5].reshape(2, 2)
    rows = {tuple(r) for r in np.round(data.values, 12)}
    for s in starts:
        assert tuple(np.round(s, 12)) in rows


def test_kmeans_style_spreads_starting_points():
    """With two tight clusters, distance-weighted seeding should start the
    two means in different clusters nearly always; uniform choice puts both
    in one cluster about half the time."""
    data = _toy_data(seed=5)
    split = 0
    for seed in range(40):
        lam = initial_params(SPEC22, data, np.random.default_rng(seed),
                             kmeans_style=True)
        signs = np.sign(lam.m[1:5].reshape(2, 2)[:, 0])
        split += signs[0] != signs[1]
    assert split >= 36


def test_initial_params_deterministic_per_rng_seed():
    data = _toy_data()
    a = initial_params(SPEC22, data, np.random.default_rng(11), kmeans_style=True)
    b = initial_params(SPEC22, data, np.random.default_rng(11), kmeans_style=True)
    np.testing.assert_array_equal(a.m, b.m)
