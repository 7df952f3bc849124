import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from yoasovi.errors import NumericError
from yoasovi.estimators import update_step
from yoasovi.gmm import Dataset, GmmSpec
from yoasovi.meanfield import (ParamDraw, VariationalParams, initial_params, log_q, sample,
                               score)
from yoasovi.sequences import make_source

from validation import finite_diff

SPEC22 = GmmSpec(K=2, p=2)


def lam_fixture(dim, seed=0):
    rng = np.random.default_rng(seed)
    return VariationalParams(m=rng.normal(0, 1, dim), log_s=rng.normal(0, 0.3, dim))


# ---------------------------------------------------------------------------
# sampling

def test_sample_is_location_scale_transform():
    lam = lam_fixture(9)
    u = np.full(9, 0.731)
    draw = sample(lam, u)
    expected_z = lam.m + np.exp(lam.log_s) * stats.norm.ppf(0.731)
    np.testing.assert_allclose(draw.z, expected_z, atol=1e-12)
    assert isinstance(draw, ParamDraw)


def test_sample_rows_match_per_row_calls():
    lam = lam_fixture(9, seed=2)
    rng = np.random.default_rng(13)
    for shape in ((23, 9), (2, 11, 9)):
        u = rng.random(shape)
        z = sample(lam, u).z
        assert z.shape == shape
        for idx in np.ndindex(shape[:-1]):
            np.testing.assert_array_equal(z[idx], sample(lam, u[idx]).z)


@pytest.mark.parametrize("shape", [(8,), (10,), (23, 8), (9, 1), ()])
def test_sample_rejects_a_wrong_trailing_axis(shape):
    with pytest.raises(ValueError, match="dimension 9"):
        sample(lam_fixture(9), np.full(shape, 0.5))


def test_sample_marginals_pass_ks():
    """10^4 pseudo-random draws; each coordinate against its intended
    Gaussian at alpha = 0.001."""
    lam = VariationalParams(m=np.array([1.0, -2.0]), log_s=np.array([0.0, 0.7]))
    src = make_source("pseudo-random", 2, seed=51)
    zs = np.array([sample(lam, src.next_point(1)[0]).z for _ in range(10_000)])
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


def test_log_q_and_score_rows_match_per_row_calls():
    lam = lam_fixture(9, seed=3)
    rng = np.random.default_rng(19)
    for shape in ((1, 9), (23, 9), (2, 11, 9)):
        z = rng.normal(0, 2, shape)
        lq, sc = log_q(lam, z), score(lam, z)
        assert lq.shape == shape[:-1]
        assert sc.shape == shape[:-1] + (18,)
        for idx in np.ndindex(shape[:-1]):
            one = log_q(lam, z[idx])
            assert isinstance(one, float)
            assert lq[idx] == one
            np.testing.assert_array_equal(sc[idx], score(lam, z[idx]))


def test_score_mean_vanishes_under_q():
    # E_q[score] = 0; 1e5 draws, each coordinate within 3 standard errors
    lam = VariationalParams(m=np.array([0.5, -1.0]), log_s=np.array([-0.2, 0.4]))
    src = make_source("pseudo-random", 2, seed=21)
    scores = np.array([score(lam, sample(lam, src.next_point(1)[0]).z)
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


def _lambdas():
    """lambdas built by initial_params and by update_step, log_s at +-700
    included."""
    spec = GmmSpec(K=2, p=2)
    init = initial_params(spec, _toy_data(), np.random.default_rng(2), kmeans_style=True)
    step = np.random.default_rng(3).normal(0.0, 1.0, 2 * init.dim)
    out = [init, update_step(init, step, 0.1)]
    for log_s in (700.0, -700.0):
        lam = VariationalParams(m=init.m, log_s=np.full(init.dim, log_s))
        out += [lam, update_step(lam, step, 1e-3)]
    return out


def test_cached_lambda_terms_give_the_inline_expressions():
    """sample, log_q and score read exp(log_s), 2 exp(2 log_s) and
    exp(-2 log_s) from lambda; each result equals the expression written
    out here, bit for bit, nan where both are nan."""
    u = np.random.default_rng(4).uniform(0.01, 0.99, (6, 9))
    u[0] = 0.5  # ndtri(0.5) = 0: z = m exactly
    for lam in _lambdas():
        with np.errstate(all="ignore"):
            z_want = lam.m + np.exp(lam.log_s) * ndtri(u)
            z = sample(lam, u).z
            lq_want = (-0.5 * np.log(2.0 * np.pi) - lam.log_s
                       - (z - lam.m) ** 2 / (2.0 * np.exp(2.0 * lam.log_s))).sum(axis=-1)
            d = z - lam.m
            inv_var = np.exp(-2.0 * lam.log_s)
            sc_want = np.concatenate([d * inv_var, d ** 2 * inv_var - 1.0], axis=-1)
            lq, sc = log_q(lam, z), score(lam, z)
            lq_one, sc_one = log_q(lam, z[1]), score(lam, z[1])
        np.testing.assert_array_equal(z, z_want)
        np.testing.assert_array_equal(lq, lq_want)
        np.testing.assert_array_equal(sc, sc_want)
        assert lq_one == lq_want[1] or (np.isnan(lq_one) and np.isnan(lq_want[1]))
        np.testing.assert_array_equal(sc_one, sc_want[1])


def test_lambda_at_extreme_log_s_builds_quietly_and_updates_stay_checked():
    """exp(2 * 700) overflows and exp(-2 * 700) is 0: neither warns, while
    an update to a non-finite lambda is still a NumericError.  log_q and
    score at far draws overflow their squares quietly, to non-finite
    values that estimate and update_step reject."""
    far = np.array([1e200, -1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in _lambdas():
            with pytest.raises(NumericError,
                               match="^parameter update produced non-finite values$"):
                update_step(lam, np.full(2 * lam.dim, 1e308), rho=1e308)
            z = np.repeat(far[:, None], lam.dim, axis=1)
            assert not np.isfinite(log_q(lam, z)).any()
            assert not np.isfinite(log_q(lam, z[0]))
            assert not np.isfinite(score(lam, z)).all(axis=-1).any()
            assert not np.isfinite(score(lam, z[1])).all()


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
