import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.special import ndtri

from yoasovi.errors import NumericError
from yoasovi.estimators import update_step
from yoasovi.gmm import Dataset, GmmSpec, log_joint, unconstrained_log_joint
from yoasovi.meanfield import (ParamDraw, VariationalParams, constrain,
                               initial_params, log_q, sample, score)
from yoasovi.sequences import make_source

from validation import finite_diff

SPEC22 = GmmSpec(K=2, p=2)


def log_jacobian(params):
    """sum log w + sum log sd: the log |Jacobian| of constrain's map, row by
    row."""
    return np.log(params.weights).sum(axis=-1) + np.log(params.sds).sum(axis=(-2, -1))


def lam_fixture(dim, seed=0):
    rng = np.random.default_rng(seed)
    return VariationalParams(m=rng.normal(0, 1, dim), log_s=rng.normal(0, 0.3, dim))


# ---------------------------------------------------------------------------
# constrain

@given(arrays(np.float64, 9, elements=st.floats(-20, 20)))
@settings(max_examples=200, deadline=None)
def test_round_trip_through_constrained_space(z):
    params = constrain(z, SPEC22)
    # the inverse map: logits against the pinned last weight, means, log sds
    w = params.weights
    back = np.concatenate([np.log(w[:-1]) - np.log(w[-1]), params.means.ravel(),
                           np.log(params.sds).ravel()])
    np.testing.assert_allclose(back, z, atol=1e-12, rtol=0)


def test_constrain_produces_valid_params():
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec = GmmSpec(K=int(rng.integers(1, 5)), p=int(rng.integers(1, 4)))
        z = rng.normal(0, 2, spec.n_unconstrained)
        params = constrain(z, spec)
        params.validate(spec)
        assert np.isfinite(log_jacobian(params))


@st.composite
def extreme_z(draw):
    """A spec and z of one row or stacked rows whose weight logits reach
    +-800 (a weight can underflow to 0) and whose log sds reach 800 (an sd
    can overflow to inf), but stay above the -745 where an sd underflows."""
    K, p = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    spec = GmmSpec(K=K, p=p)
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    n = int(np.prod(lead, dtype=int))
    cols = [st.floats(-800, 800)] * (K - 1) + [st.floats(-50, 50)] * (K * p) \
        + [st.floats(-700, 800)] * (K * p)
    rows = [[draw(c) for c in cols] for _ in range(n)]
    return spec, np.array(rows, dtype=float).reshape(lead + (spec.n_unconstrained,))


@given(extreme_z())
@settings(max_examples=300, deadline=None)
def test_constrain_output_always_passes_validate(case):
    """constrain builds valid params by construction, which is why the run's
    target does not call validate once per draw.  Weights that underflow to
    0 and sds that overflow to inf are valid too; log_joint rejects them."""
    spec, z = case
    params = constrain(z, spec)
    params.validate(spec)
    assert params.weights.shape == z.shape[:-1] + (spec.K,)
    data = Dataset(np.zeros((3, spec.p)))
    for idx in np.ndindex(z.shape[:-1]):
        one = constrain(z[idx], spec)
        one.validate(spec)
        if (one.weights == 0.0).any() or np.isinf(one.sds).any():
            with pytest.raises(NumericError, match="log joint is non-finite"):
                log_joint(spec, data, one)


def test_constrain_layout():
    # z = [logit | mu11 mu12 mu21 mu22 | log_sd...]; last logit pinned at 0
    z = np.array([0.0, 1.0, 2.0, 3.0, 4.0, -1.0, -1.0, -1.0, -1.0])
    params = constrain(z, SPEC22)
    np.testing.assert_allclose(params.weights, [0.5, 0.5])
    np.testing.assert_allclose(params.means, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(params.sds, np.exp(-1.0) * np.ones((2, 2)))


def test_jacobian_term_matches_numerical_determinant():
    """The Jacobian term the run's target folds in, unconstrained_log_joint(z)
    less log_joint(constrain(z)), should equal log |det| of
    z -> (w[:K-1], means, sds), measured by finite differences of that map."""
    spec = GmmSpec(K=3, p=1)
    d = spec.n_unconstrained
    data = Dataset(np.random.default_rng(2).normal(0, 2, (20, 1)))

    def flat(z):
        params = constrain(z, spec)
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
        ldj = unconstrained_log_joint(spec, data, z) - log_joint(spec, data, constrain(z, spec))
        assert ldj == pytest.approx(np.log(abs(np.linalg.det(jac))), abs=1e-5)


def test_constrain_rejects_wrong_length_and_non_finite():
    """The length is checked first and named, with z's shape, before z is
    reshaped or checked for finiteness."""
    with pytest.raises(ValueError, match=r"^expected z of length 9 on its last axis, "
                                         r"got shape \(5,\)$"):
        constrain(np.zeros(5), SPEC22)
    # K=2, p=1: a length-4 z has a tail of 3, which does not reshape to (2, 2, 1)
    with pytest.raises(ValueError, match=r"length 5 .*got shape \(4,\)$"):
        constrain(np.zeros(4), GmmSpec(K=2, p=1))
    with pytest.raises(ValueError, match=r"got shape \(8,\)$"):
        constrain(np.full(8, np.nan), SPEC22)
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


def test_constrain_of_no_rows_is_empty_params():
    """No rows of z give parameters with no sets, as log_q gives no values."""
    lam = lam_fixture(9)
    for lead in [(0,), (2, 0)]:
        z = np.empty(lead + (9,))
        params = constrain(z, SPEC22)
        assert params.weights.shape == lead + (2,)
        assert params.means.shape == params.sds.shape == lead + (2, 2)
        assert log_q(lam, z).shape == lead


def test_constrain_rows_match_per_row_calls():
    rng = np.random.default_rng(17)
    for spec in (SPEC22, GmmSpec(K=4, p=3), GmmSpec(K=9, p=2)):
        z = rng.normal(0, 2, (23, spec.n_unconstrained))
        params = constrain(z, spec)
        ldj = log_jacobian(params)
        assert params.weights.shape == (23, spec.K)
        assert params.means.shape == params.sds.shape == (23, spec.K, spec.p)
        assert ldj.shape == (23,)
        for i, z_i in enumerate(z):
            one = constrain(z_i, spec)
            for field in ("weights", "means", "sds"):
                np.testing.assert_array_equal(getattr(params, field)[i], getattr(one, field))
            assert ldj[i] == log_jacobian(one)
        # two leading axes: the same rows, reshaped
        params2 = constrain(z[:22].reshape(2, 11, -1), spec)
        np.testing.assert_array_equal(params2.sds.reshape(22, spec.K, spec.p), params.sds[:22])
        np.testing.assert_array_equal(log_jacobian(params2).ravel(), ldj[:22])


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
