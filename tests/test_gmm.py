import math
import re
import sys
import tracemalloc
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.special import logsumexp

from yoasovi import gmm
from yoasovi.errors import NumericError, ParseError
from yoasovi.gmm import (_LOG_OVERFLOW, _LOG_UNDERFLOW, Dataset, GmmParams, GmmSpec,
                         _log_likelihood, _pass_sets, constrain, dic, log_joint,
                         log_likelihood, log_prior, simulate, unconstrained_log_joint)
from yoasovi.harness import load_csv, make_preset
from yoasovi.meanfield import VariationalParams, log_q


def random_instance(rng, K=None, p=None, N=None):
    K = K or int(rng.integers(2, 4))
    p = p or int(rng.integers(1, 3))
    N = N or int(rng.integers(1, 9))
    spec = GmmSpec(K=K, p=p,
                   prior_mean_scale=float(rng.uniform(1.0, 10.0)),
                   prior_dirichlet_alpha=float(rng.uniform(0.5, 3.0)),
                   prior_logsd_scale=float(rng.uniform(0.5, 2.0)))
    w = rng.dirichlet(np.ones(K))
    params = GmmParams(weights=w,
                       means=rng.uniform(-3.0, 3.0, (K, p)),
                       sds=rng.uniform(0.3, 2.0, (K, p)))
    data = Dataset(rng.uniform(-3.0, 3.0, (N, p)))
    return spec, data, params


def oracle_log_likelihood(spec, data, params):
    """Brute force through scipy.stats, no shared code with the module:
    plain per-point mixture sums."""
    total = 0.0
    for y in data.values:
        dens = 0.0
        for k in range(spec.K):
            comp = 1.0
            for j in range(spec.p):
                comp *= stats.norm.pdf(y[j], params.means[k, j], params.sds[k, j])
            dens += params.weights[k] * comp
        total += math.log(dens)
    return total


def oracle_log_prior(spec, params):
    """Textbook prior densities through scipy.stats."""
    total = stats.dirichlet.logpdf(params.weights,
                                   np.full(spec.K, spec.prior_dirichlet_alpha))
    total += stats.norm.logpdf(params.means, 0.0, spec.prior_mean_scale).sum()
    total += stats.lognorm.logpdf(params.sds, s=spec.prior_logsd_scale).sum()
    return total


def oracle_log_joint(spec, data, params):
    """oracle_log_likelihood plus oracle_log_prior."""
    return oracle_log_likelihood(spec, data, params) + oracle_log_prior(spec, params)


def test_log_joint_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(314)
    for _ in range(50):
        spec, data, params = random_instance(rng)
        assert log_joint(spec, data, params) == pytest.approx(
            oracle_log_joint(spec, data, params), abs=1e-10)


def test_log_joint_single_point_single_component():
    # K=1, p=1: everything reduces to three normal densities and a flat
    # Dirichlet that contributes nothing
    spec = GmmSpec(K=1, p=1, prior_mean_scale=2.0, prior_dirichlet_alpha=1.0,
                   prior_logsd_scale=1.0)
    params = GmmParams(weights=np.array([1.0]), means=np.array([[0.5]]),
                       sds=np.array([[1.5]]))
    data = Dataset(np.array([[2.0]]))
    expected = (stats.norm.logpdf(2.0, 0.5, 1.5)
                + stats.norm.logpdf(0.5, 0.0, 2.0)
                + stats.norm.logpdf(math.log(1.5), 0.0, 1.0) - math.log(1.5))
    assert log_joint(spec, data, params) == pytest.approx(expected, abs=1e-12)


def test_log_joint_finite_in_extreme_corners():
    spec = GmmSpec(K=2, p=1)
    data = Dataset(np.array([[900.0], [-900.0], [0.0]]))
    for means, sds in [
        (np.array([[1e3], [-1e3]]), np.array([[1e-6], [1e-6]])),
        (np.array([[1e3], [1e3]]), np.array([[1e3], [1e-6]])),
        (np.array([[0.0], [0.0]]), np.array([[1e-6], [1e-6]])),
    ]:
        params = GmmParams(weights=np.array([0.5, 0.5]), means=means, sds=sds)
        assert math.isfinite(log_joint(spec, data, params))


def test_zero_weight_component_drops_out():
    spec = GmmSpec(K=2, p=1)
    data = Dataset(np.array([[0.3], [1.2]]))
    both = GmmParams(weights=np.array([1.0, 0.0]),
                     means=np.array([[0.0], [50.0]]), sds=np.array([[1.0], [1.0]]))
    assert math.isfinite(log_likelihood(spec, data, both))
    only = GmmParams(weights=np.array([1.0]), means=np.array([[0.0]]),
                     sds=np.array([[1.0]]))
    assert log_likelihood(spec, data, both) == pytest.approx(
        log_likelihood(GmmSpec(K=1, p=1), data, only), abs=1e-12)


def test_log_joint_raises_on_non_finite():
    # an all -inf row in the log-sum-exp must not form inf - inf on the way
    spec = GmmSpec(K=1, p=1)
    params = GmmParams(weights=np.array([1.0]), means=np.array([[np.inf]]),
                       sds=np.array([[1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            log_joint(spec, Dataset(np.array([[0.0]])), params)
    # a -inf likelihood plus a +inf prior (a zero weight at alpha < 1)
    spec = GmmSpec(K=2, p=1, prior_dirichlet_alpha=0.5)
    params = GmmParams(weights=np.array([1.0, 0.0]), means=np.zeros((2, 1)),
                       sds=np.ones((2, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"^log joint is non-finite \(nan\)"):
            log_joint(spec, Dataset(np.array([[1e200]])), params)
    # an all -inf row through the run's target: log sds at -400 square every
    # residual to inf; a stack of such rows, constrained, scores -inf per row
    # through the stacked kernel
    spec = GmmSpec(K=2, p=1)
    data = Dataset(np.array([[1.0], [2.0]]))
    z = np.array([0.0, 0.0, 0.0, -400.0, -400.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"^log joint is non-finite \(.*-inf"):
            unconstrained_log_joint(spec, data, z)
        assert list(stacked_log_likelihood(spec, data, np.stack([z, z]))) == [-math.inf] * 2


def test_the_re_score_of_non_finite_points_matches_scipy():
    """Flat rows whose coefficients are 0 but for the logit column give each
    component its logit at every point.  Logit rows with an inf, a nan, all
    -inf or an overflowing exp leave the plain pass non-finite, so the
    kernel scores them again: the result is scipy's log-sum-exp over the
    components summed over the points, nan where scipy's is nan and to
    1e-15 relative elsewhere, alone and as rows of a 37-row stack of
    ordinary rows, whose rows keep the bits of their one-row calls."""
    inf, nan = math.inf, math.nan
    spec = GmmSpec(K=2, p=2)
    data = Dataset(np.array([[0.5, -1.0], [1.5, 0.3], [-0.2, 0.8]]))
    logits = slice(4 * spec.K * spec.p, None)
    special = np.zeros((4, 4 * spec.K * spec.p + spec.K))
    special[:, logits] = [[inf, 0.0], [nan, 0.0], [-inf, -inf], [700.0, 710.0]]
    rows = np.zeros((37, special.shape[1]))
    rows[:, logits] = np.random.default_rng(37).uniform(1.0, 3.0, (37, spec.K))
    at = [0, SPECIAL_ROW, 33, 36]
    rows[at] = special
    # the errstate log_likelihood calls the kernel under
    with warnings.catch_warnings(), np.errstate(divide="ignore", over="ignore",
                                                invalid="ignore"):
        warnings.simplefilter("error")
        for flat in (*special, rows):
            got = _log_likelihood(spec, data, flat)
            comp = flat.take(spec.coef_index, axis=-1) @ data.features
            want = logsumexp(comp, axis=-2).sum(-1)
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            np.testing.assert_allclose(np.asarray(got)[ok], np.asarray(want)[ok], rtol=1e-15)
        # 710's exp overflows the plain pass, 710 + log1p(exp(-10)) does not
        assert np.exp(710.0) == inf
        np.testing.assert_array_equal(_log_likelihood(spec, data, rows),
                                      [_log_likelihood(spec, data, r) for r in rows])


def stack(draws):
    return GmmParams(*(np.stack([getattr(th, f) for th in draws])
                       for f in ("weights", "means", "sds")))


def random_draws(rng, spec, B):
    """B parameter sets for spec, with component 0 of every third set at
    weight zero."""
    weights = rng.dirichlet(np.ones(spec.K), size=B)
    weights[::3, 0] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)
    means = rng.uniform(-3.0, 3.0, (B, spec.K, spec.p))
    sds = rng.uniform(0.3, 2.0, (B, spec.K, spec.p))
    return [GmmParams(weights=w, means=m, sds=s) for w, m, s in zip(weights, means, sds)]


def set_pass_sets(monkeypatch, spec, data, sets=16):
    """Lower the kernel's byte budget so that a pass at spec's K and data's
    N takes `sets` sets: at small K and N a whole 37-set stack would
    otherwise fit one pass."""
    monkeypatch.setattr(gmm, "_PASS_BYTES", sets * 8 * spec.K * data.N)
    assert _pass_sets(spec, data) == sets


def test_a_pass_takes_the_sets_whose_component_buffer_fits_256_kib():
    """At N=500 a pass takes 32 sets at K=2, 21 at K=3 and 16 at K=4, so the
    largest preset's pass is no bigger than a fixed 16 sets made it; a set
    whose buffer alone is bigger still goes through, one set a pass."""
    assert gmm._PASS_BYTES == 256 * 1024
    assert [_pass_sets(*make_preset(name)) for name in ("sim-p2k2", "sim-p2k3", "sim-p3k4")] \
        == [32, 21, 16]
    assert _pass_sets(GmmSpec(K=7, p=1), Dataset(np.zeros((10_000, 1)))) == 1


def test_block_kernel_matches_brute_force_per_row(monkeypatch):
    rng = np.random.default_rng(2718)
    spec, data, _ = random_instance(rng, K=3, p=2, N=7)
    # B = 37 is not a multiple of the pass size, so the last pass is short
    set_pass_sets(monkeypatch, spec, data)
    draws = random_draws(rng, spec, 37)
    got = log_likelihood(spec, data, stack(draws))
    assert got.shape == (37,)
    want = [oracle_log_likelihood(spec, data, th) for th in draws]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert [log_likelihood(spec, data, th) for th in draws] == list(got)


def test_log_likelihood_over_two_leading_axes_matches_each_set():
    rng = np.random.default_rng(577)
    spec, data, _ = random_instance(rng, K=3, p=2, N=9)
    draws = random_draws(rng, spec, 2 * 19)
    flat = stack(draws)
    grid = GmmParams(*(getattr(flat, f).reshape((2, 19) + getattr(flat, f).shape[1:])
                       for f in ("weights", "means", "sds")))
    got = log_likelihood(spec, data, grid)
    assert got.shape == (2, 19)
    want = np.array([log_likelihood(spec, data, th) for th in draws]).reshape(2, 19)
    np.testing.assert_array_equal(got, want)


def residual_log_likelihood(spec, data, params):
    """The residual form the kernel expands, for one parameter set: squared
    standardised residuals summed over p, then scipy's logsumexp over the
    components."""
    r = (data.values[:, None, :] - params.means) / params.sds  # (N, K, p)
    comp = (np.log(params.weights) - np.log(params.sds).sum(axis=1)
            - spec.p * 0.5 * math.log(2.0 * math.pi) - 0.5 * np.square(r).sum(axis=2))
    return logsumexp(comp, axis=1).sum()


def test_log_likelihood_is_unmoved_by_shifting_data_and_means_by_1e6():
    """The kernel centres on the data's column means, so its expanded square
    loses no digits to where the data sit.  Values on a grid of 2^-10 shift
    by 1e6 without rounding, so what moves is the kernel's own rounding."""
    rng = np.random.default_rng(99)
    spec = GmmSpec(K=3, p=2)
    values, means = (np.round(a * 1024.0) / 1024.0 for a in (
        rng.normal(0.0, 2.0, (200, 2)), rng.uniform(-3.0, 3.0, (3, 2))))
    params = GmmParams(weights=np.array([0.2, 0.3, 0.5]), means=means,
                       sds=rng.uniform(0.5, 2.0, (3, 2)))
    base = log_likelihood(spec, Dataset(values), params)
    shifted = log_likelihood(spec, Dataset(values + 1e6),
                             GmmParams(params.weights, params.means + 1e6, params.sds))
    assert abs(shifted - base) <= 1e-12 * abs(base)


def test_clusters_1e3_sds_apart_match_the_residual_form():
    """The expanded square loses digits as the data's spread grows against
    the sds; at clusters 1e3 sds apart it stays within 1e-9 relative of the
    residual form (a few 1e-12 on this data)."""
    spec = GmmSpec(K=2, p=2)
    true = GmmParams(weights=np.array([0.4, 0.6]),
                     means=np.array([[-500.0, -500.0], [500.0, 500.0]]), sds=np.ones((2, 2)))
    data = simulate(spec, true, N=500, seed=7)
    for params in (true, GmmParams(np.array([0.5, 0.5]), true.means + 0.3, np.full((2, 2), 1.3))):
        want = residual_log_likelihood(spec, data, params)
        assert abs(log_likelihood(spec, data, params) - want) <= 1e-9 * abs(want)


def ordinary_rows(rng, spec, n):
    """n rows of z for spec where every term of the target is finite."""
    K, p = spec.K, spec.p
    return np.concatenate([rng.normal(0.0, 1.0, (n, K - 1)), rng.normal(0.0, 2.0, (n, K * p)),
                           rng.normal(0.0, 0.3, (n, K * p))], axis=1)


# a 37-row stack puts its special row in the second of three kernel passes
SPECIAL_ROW = 20


def with_row(rows, row):
    """rows with row put in at SPECIAL_ROW."""
    out = rows.copy()
    out[SPECIAL_ROW] = row
    return out


def stacked_log_likelihood(spec, data, rows):
    """log_likelihood of the rows of z, constrained, through the kernel's
    stacked entry, which DIC's draws take, checked to have the bits of one
    call per row."""
    got = log_likelihood(spec, data, constrain(rows, spec))
    assert list(got) == [log_likelihood(spec, data, constrain(row, spec)) for row in rows]
    return got


def test_a_component_whose_sd_squared_underflows_drops_out():
    """At log sd -360 the sd is positive but its square is subnormal and its
    inverse inf, so inf * 0 could make nan: the component drops out instead,
    quietly, as the residual form's inf square made it, and with every
    component there the log likelihood is -inf and the target raises.  The
    features a dropped component meets are 0 on N=1 data and in a constant
    data column, where inf * 0 is nan.  Each case holds for one set and
    inside a 37-set stack through log_likelihood, and for one z through the
    run's target, whose value is the checked log_joint plus the Jacobian
    term; the z inside a 37-row stack, constrained, keeps its one-set bits
    through the stacked kernel."""
    rng = np.random.default_rng(360)
    datasets = [Dataset(np.array([[1.0], [2.0], [-0.5]])), Dataset(np.array([[0.7]])),
                Dataset(np.array([[1.0, 3.0], [2.0, 3.0], [-0.5, 3.0]]))]
    tiny = math.exp(-360.0)
    assert tiny > 0.0 and 1.0 / tiny**2 == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for data in datasets:
            spec = GmmSpec(K=2, p=data.p)
            stats_ll = stats.norm.logpdf(data.values).sum()
            # the smallest positive sd drops out too: its square is 0
            for small in (tiny, 5e-324):
                sds = np.ones((2, data.p))
                sds[1] = small
                mixed = GmmParams(weights=np.array([0.25, 0.75]),
                                  means=np.zeros((2, data.p)), sds=sds)
                want = stats_ll + data.N * math.log(0.25)
                assert log_likelihood(spec, data, mixed) == pytest.approx(want, rel=1e-14)
                all_tiny = GmmParams(mixed.weights, mixed.means, np.full((2, data.p), small))
                assert log_likelihood(spec, data, all_tiny) == -math.inf
                for th in (mixed, all_tiny):
                    sets = random_draws(rng, spec, 37)
                    sets[SPECIAL_ROW] = th
                    got = log_likelihood(spec, data, stack(sets))
                    assert list(got) == [log_likelihood(spec, data, s) for s in sets]
            z = np.zeros(spec.n_unconstrained)
            z[-data.p:] = -360.0
            params = constrain(z, spec)
            ldj = np.log(params.weights).sum() + np.log(params.sds).sum()
            want = log_joint(spec, data, params) + ldj
            stacked_log_likelihood(spec, data, with_row(ordinary_rows(rng, spec, 37), z))
            got = unconstrained_log_joint(spec, data, z)
            assert abs(got - want) <= 1e-12 * abs(want)
            z[spec.K - 1 + spec.K * spec.p:] = -360.0
            with pytest.raises(NumericError, match=r"(?s)^log joint is non-finite \(.*-inf"):
                unconstrained_log_joint(spec, data, z)
            got = stacked_log_likelihood(spec, data, with_row(ordinary_rows(rng, spec, 37), z))
            assert got[SPECIAL_ROW] == -math.inf


def test_the_sd_edges_are_where_exp_gives_0_and_inf():
    """The target compares log sds with two constants instead of taking
    their exp: at _LOG_UNDERFLOW exp gives 0 and one step up it does not;
    at _LOG_OVERFLOW exp is finite and one step up it is inf.  So the
    target raises on exactly the log sds whose sds underflow or overflow."""
    up = np.nextafter(_LOG_UNDERFLOW, 0.0)
    over = np.nextafter(_LOG_OVERFLOW, np.inf)
    with np.errstate(over="ignore"):
        assert np.exp(_LOG_UNDERFLOW) == 0.0 < np.exp(up)
        assert np.exp(_LOG_OVERFLOW) < np.inf == np.exp(over)
    spec = GmmSpec(K=2, p=1)
    data = Dataset(np.array([[1.0], [2.0]]))
    z = np.zeros(spec.n_unconstrained)
    for log_sd, message in [(_LOG_UNDERFLOW, "underflowed"), (up, None),
                            (_LOG_OVERFLOW, None), (over, "overflowed")]:
        z[-1] = log_sd
        if message is None:
            assert math.isfinite(unconstrained_log_joint(spec, data, z))
        else:
            with pytest.raises(NumericError, match=message):
                unconstrained_log_joint(spec, data, z)


@pytest.mark.parametrize("K, values", [(2, [[1.0], [2.0]]), (3, [[0.7, -2.0]]),
                                       (2, [[1.0, 3.0], [2.0, 3.0], [-0.5, 3.0]]),
                                       (2, [[0.1], [0.1], [0.1]])])
def test_the_sd_edges_hold_inside_a_stack(K, values):
    """A row with a log sd at either edge raises its NumericError, and the
    rows one step inside score finite; inside a 37-row stack, constrained,
    each row one step inside keeps its one-set bits through the stacked
    kernel.  The special row's mean sits above the data in that coordinate;
    the data have two points, one point, a constant column and a constant
    column whose mean rounds off its value (0.1 * 3 / 3 > 0.1)."""
    data = Dataset(np.array(values))
    spec = GmmSpec(K=K, p=data.p)
    rows = ordinary_rows(np.random.default_rng(K * 37 + data.N), spec, 37)
    z = rows[SPECIAL_ROW].copy()
    z[K - 1 + K * spec.p - 1] = data.values[:, -1].max() + 1.0
    up = np.nextafter(_LOG_UNDERFLOW, 0.0)
    over = np.nextafter(_LOG_OVERFLOW, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for log_sd, message in [(_LOG_UNDERFLOW, "underflowed"), (up, None),
                                (_LOG_OVERFLOW, None), (over, "overflowed")]:
            z[-1] = log_sd
            if message is None:
                assert math.isfinite(unconstrained_log_joint(spec, data, z))
                stacked_log_likelihood(spec, data, with_row(rows, z))
                continue
            with pytest.raises(NumericError, match=f"^an sd {message}"):
                unconstrained_log_joint(spec, data, z)


def oracle_z_log_joint(spec, data, z):
    """The run's target at one row z through scipy.stats, with the log
    weights kept in log space: z's logits less their log-sum-exp.  The
    checked log_joint of constrain(z) cannot serve near the weight edge:
    there constrain rounds a weight to a subnormal, whose log is off by up
    to log 2 from the log weight it came from."""
    K, Kp, a = spec.K, spec.K * spec.p, spec.prior_dirichlet_alpha
    logits = np.append(z[: K - 1], 0.0)
    log_w = logits - logsumexp(logits)
    return (oracle_log_likelihood(spec, data, constrain(z, spec))
            + math.lgamma(K * a) - K * math.lgamma(a) + a * log_w.sum()
            + stats.norm.logpdf(z[K - 1 : K - 1 + Kp], 0.0, spec.prior_mean_scale).sum()
            + stats.norm.logpdf(z[K - 1 + Kp :], 0.0, spec.prior_logsd_scale).sum())


@pytest.mark.parametrize("K", [2, 4])
def test_the_weight_edge_holds_inside_a_stack(K):
    """A free logit of -_LOG_UNDERFLOW puts the pinned weight's log, 0 less
    the logits' log-sum-exp, at _LOG_UNDERFLOW, where its weight underflows
    to 0: the target raises the non-finite -inf error.  One ulp below, and
    with logits of +-720, the row scores finite and matches the log-space
    oracle to 1e-12, and inside a 37-row stack, constrained, it keeps its
    one-set bits through the stacked kernel; the other free logits, 0.5,
    keep their weights' logs above the edge.  At +720 the logits push a
    component's exps past the largest float, so the plain pass overflows
    and the row is scored again."""
    data = Dataset(np.array([[0.5, -1.0], [1.5, 0.3], [-0.2, 0.8]]))
    spec = GmmSpec(K=K, p=data.p)
    rows = ordinary_rows(np.random.default_rng(745 + K), spec, 37)
    z = rows[SPECIAL_ROW].copy()
    z[K - 1 : K - 1 + data.p] = data.values[0]  # component 0's means sit on a point
    edge = -_LOG_UNDERFLOW
    z[: K - 1] = [edge] + [0.5] * (K - 2)
    logits = np.append(z[: K - 1], 0.0)
    assert logits[-1] - np.logaddexp.reduce(logits) == _LOG_UNDERFLOW
    sds0 = np.exp(z[K - 1 + K * data.p :][: data.p])
    density0 = stats.norm.logpdf(data.values[0], data.values[0], sds0).sum()
    assert 720.0 + density0 + data.p * 0.5 * math.log(2.0 * math.pi) > _LOG_OVERFLOW
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"(?s)^log joint is non-finite \(.*-inf"):
            unconstrained_log_joint(spec, data, z)
        for free in ([np.nextafter(edge, 0.0)] + [0.5] * (K - 2), [720.0] * (K - 1),
                     [-720.0] * (K - 1)):
            z[: K - 1] = free
            got = unconstrained_log_joint(spec, data, z)
            assert math.isfinite(got)
            want = oracle_z_log_joint(spec, data, z)
            assert abs(got - want) <= 1e-12 * abs(want)
            stacked_log_likelihood(spec, data, with_row(rows, z))


def oracle_log_space_z_log_joint(spec, data, z):
    """The run's target at one row z through scipy.stats, with z's log
    weights, its logits less their log-sum-exp, kept in log space in the
    likelihood too: each point's log density is the log-sum-exp over the
    components of the log weight plus the component's log density.  No
    weight is ever formed, so a subnormal one loses no digits."""
    K, p, Kp, a = spec.K, spec.p, spec.K * spec.p, spec.prior_dirichlet_alpha
    logits = np.append(z[: K - 1], 0.0)
    log_w = logits - logsumexp(logits)
    means, log_sds = z[K - 1 : K - 1 + Kp].reshape(K, p), z[K - 1 + Kp :].reshape(K, p)
    comp = stats.norm.logpdf(data.values[:, None, :], means, np.exp(log_sds)).sum(-1)
    return (logsumexp(log_w + comp, axis=1).sum()
            + math.lgamma(K * a) - K * math.lgamma(a) + a * log_w.sum()
            + stats.norm.logpdf(means, 0.0, spec.prior_mean_scale).sum()
            + stats.norm.logpdf(log_sds, 0.0, spec.prior_logsd_scale).sum())


@pytest.mark.parametrize("which", ["free", "pinned"])
@pytest.mark.parametrize("log_w", [-708.4, -720.0, -740.0, -745.13])
def test_a_row_with_a_subnormal_weight_matches_the_log_space_oracle(which, log_w):
    """A log weight in (_LOG_UNDERFLOW, log of the smallest normal float]
    has a subnormal weight, which constrain rounds to few digits: at -740
    and -745.13 log_joint of constrain(z) is off by 3e-6 and 9e-4
    relative, and the log-space oracle is not.  The small weight's
    component sits on the point at 60, which the other component, at 0.5,
    leaves about 1770 nats below it, so that point's density is the small
    weight's: the row matches the oracle to 1e-12 relative, and inside a
    37-row stack, constrained, it keeps its one-set bits through the
    stacked kernel.
    A pinned small weight takes a free logit of -log_w, whose exp
    overflows the plain pass."""
    data = Dataset(np.array([[0.0], [1.0], [60.0]]))
    spec = GmmSpec(K=2, p=1)
    small = 0 if which == "free" else 1
    z = np.zeros(spec.n_unconstrained)
    z[0] = log_w if which == "free" else -log_w
    z[1:3] = [60.0, 0.5] if which == "free" else [0.5, 60.0]
    logits = np.append(z[:1], 0.0)
    assert logits[small] - np.logaddexp.reduce(logits) == log_w
    assert _LOG_UNDERFLOW < log_w < math.log(sys.float_info.min)
    assert 0.0 < constrain(z, spec).weights[small] < sys.float_info.min
    rows = with_row(ordinary_rows(np.random.default_rng(708), spec, 37), z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = unconstrained_log_joint(spec, data, z)
        stacked_log_likelihood(spec, data, rows)
    want = oracle_log_space_z_log_joint(spec, data, z)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_an_empty_stack_scores_to_an_empty_array():
    """No rows of z, constrained, give no values of the stack's leading
    shape through log_likelihood, as no parameter sets do; the run's target
    takes one z and refuses them."""
    spec = GmmSpec(K=3, p=2)
    data = Dataset(np.random.default_rng(0).normal(0.0, 1.0, (5, 2)))
    for lead in [(0,), (2, 0)]:
        z = np.empty(lead + (spec.n_unconstrained,))
        got = log_likelihood(spec, data, constrain(z, spec))
        assert got.shape == lead and got.dtype == float
        with pytest.raises(ValueError, match=re.escape(f"got shape {z.shape}")):
            unconstrained_log_joint(spec, data, z)
    none = GmmParams(np.empty((0, 3)), np.empty((0, 3, 2)), np.empty((0, 3, 2)))
    assert log_likelihood(spec, data, none).shape == (0,)


def test_sds_at_the_overflow_edge_score_as_scipy_does():
    """An sd of exp(709.78) is finite but its square is not, so its
    precision is 0 and its density the normaliser alone; an sd of inf drops
    its component out, and with every component there the log likelihood is
    -inf, as scipy's is.  Alone and inside a 37-set stack."""
    rng = np.random.default_rng(709)
    spec = GmmSpec(K=2, p=2)
    data = Dataset(np.array([[1.0, 3.0], [2.0, -3.0], [-0.5, 0.0]]))
    big = math.exp(709.78)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sd in (big, math.inf):
            want = stats.norm.logpdf(data.values, 0.0, sd).sum()
            assert math.isfinite(want) == (sd == big)
            th = GmmParams(weights=np.array([0.25, 0.75]), means=np.zeros((2, 2)),
                           sds=np.full((2, 2), sd))
            got = log_likelihood(spec, data, th)
            assert got == pytest.approx(want, rel=1e-14) if sd == big else got == want
            sets = random_draws(rng, spec, 37)
            sets[SPECIAL_ROW] = th
            got = log_likelihood(spec, data, stack(sets))
            assert list(got) == [log_likelihood(spec, data, s) for s in sets]


def mpmath_log_likelihood(data, params):
    """The mixture log likelihood in 50-digit mpmath arithmetic, where no
    density underflows or overflows, with no code shared with the module:
    each point's weighted normal densities summed, logs summed over the
    points.  Also gives each point's mixture density."""
    with mpmath.workdps(50):
        dens = [sum(mpmath.mpf(w) * mpmath.fprod(mpmath.npdf(yj, mj, sj)
                                                  for yj, mj, sj in zip(y, mu, sd))
                    for w, mu, sd in zip(params.weights, params.means, params.sds))
                for y in data.values]
        return float(mpmath.fsum(mpmath.log(d) for d in dens)), dens


# p=3 points whose column means are 0 exactly, so the origin is the centre
EDGE_DATA = Dataset(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [-1.0, -1.0, -1.0],
                              [38.4, 0.0, 0.0], [-38.4, 0.0, 0.0]]))
EDGE_SETS = {
    # the points at +-38.4 are 38.4 sds from the nearer component: their
    # sums are subnormal, near 2e-322, whose unshifted exps keep 2-3 digits
    "subnormal": GmmParams(np.array([0.5, 0.5]), np.array([[0.0] * 3, [0.0, 5.0, 5.0]]),
                           np.ones((2, 3))),
    # at sd 0.9 they are 43 sds from both components: their sums are 0
    "zero": GmmParams(np.array([0.3, 0.7]), np.zeros((2, 3)), np.full((2, 3), 0.9)),
    # three sds of exp(-240) put the origin's log density near 717, so its
    # sum overflows; a wide component keeps the other points ordinary
    "overflow": GmmParams(np.array([0.5, 0.5]), np.zeros((2, 3)),
                          np.array([[math.exp(-240.0)] * 3, [10.0] * 3])),
}


@pytest.mark.parametrize("case", sorted(EDGE_SETS))
def test_a_point_whose_sum_is_not_a_normal_float_is_scored_again(case):
    """The plain pass takes exps with no shift, so a point whose mixture
    density is subnormal, 0 or inf goes to the guarded, max-shifted
    re-score: each case matches a 50-digit oracle to 1e-12 relative, alone
    and inside a 37-set stack of ordinary sets, whose rows keep the bits of
    their one-set calls."""
    spec = GmmSpec(K=2, p=3)
    th = EDGE_SETS[case]
    want, dens = mpmath_log_likelihood(EDGE_DATA, th)
    if case == "subnormal":
        assert 0.0 < float(dens[3]) < sys.float_info.min
    elif case == "zero":
        assert float(dens[3]) == 0.0 < dens[3]
    else:
        assert mpmath.log(dens[0]) > math.log(sys.float_info.max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(log_likelihood(spec, EDGE_DATA, th) - want) <= 1e-12 * abs(want)
        rng = np.random.default_rng(38)
        sets = [GmmParams(rng.dirichlet(np.ones(2)), rng.uniform(-3.0, 3.0, (2, 3)),
                          rng.uniform(5.0, 10.0, (2, 3))) for _ in range(37)]
        sets[SPECIAL_ROW] = th
        got = log_likelihood(spec, EDGE_DATA, stack(sets))
        assert list(got) == [log_likelihood(spec, EDGE_DATA, s) for s in sets]
        assert abs(got[SPECIAL_ROW] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("K, p, N", [(1, 1, 1), (1, 3, 40), (2, 5, 1), (4, 3, 500),
                                     (7, 5, 500)])
def test_stacked_rows_have_the_bits_of_per_row_calls_at_every_shape(monkeypatch, K, p, N):
    """37 rows of z, constrained, two full kernel passes and a short one,
    score through log_likelihood exactly as 37 one-set calls, at shapes
    where BLAS would round one product over all of a pass's rows otherwise:
    a lone component, a lone observation, and many rows."""
    rng = np.random.default_rng(K * 100 + p * 10 + N)
    spec = GmmSpec(K=K, p=p)
    data = Dataset(rng.normal(0.0, 2.0, (N, p)))
    z = ordinary_rows(rng, spec, 37)
    set_pass_sets(monkeypatch, spec, data)
    passes = []
    real = gmm._log_likelihood

    def counted(spec, data, flat):
        passes.append(len(flat))
        return real(spec, data, flat)

    monkeypatch.setattr(gmm, "_log_likelihood", counted)
    stacked_log_likelihood(spec, data, z)
    # the stacked call, then its passes; then the 37 one-set calls
    assert passes[:4] == [37, 16, 16, 5]


def test_scoring_1000_stacked_sets_peaks_under_1_mib():
    """The kernel's memory is its passes', not the stack's: 1000 sets at
    sim-p3k4 (K=4, p=3, N=500) peak under 1 MiB of traced allocations."""
    spec, data = make_preset("sim-p3k4")
    rng = np.random.default_rng(3)
    draws = GmmParams(weights=rng.dirichlet(np.ones(spec.K), size=1000),
                      means=rng.normal(0.0, 2.0, (1000, spec.K, spec.p)),
                      sds=rng.uniform(0.5, 2.0, (1000, spec.K, spec.p)))
    log_likelihood(spec, data, draws)
    tracemalloc.start()
    try:
        log_likelihood(spec, data, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def positive_draws(rng, spec, B):
    """B parameter sets for spec with every weight positive: finite priors."""
    return [GmmParams(weights=rng.dirichlet(np.ones(spec.K)),
                      means=rng.uniform(-3.0, 3.0, (spec.K, spec.p)),
                      sds=rng.uniform(0.3, 2.0, (spec.K, spec.p))) for _ in range(B)]


def test_log_prior_scores_stacked_sets_row_by_row():
    rng = np.random.default_rng(1618)
    spec, data, _ = random_instance(rng, K=3, p=2, N=6)
    draws = positive_draws(rng, spec, 6)
    flat = stack(draws)
    grid = GmmParams(*(getattr(flat, f).reshape((2, 3) + getattr(flat, f).shape[1:])
                       for f in ("weights", "means", "sds")))
    for params in (flat, grid):
        prior = log_prior(spec, params)
        assert prior.shape == params.weights.shape[:-1]
        assert list(prior.ravel()) == [log_prior(spec, th) for th in draws]
        # a stack's log joint is the row-wise sum, bit for bit per set
        joint = log_likelihood(spec, data, params) + prior
        assert list(joint.ravel()) == [log_joint(spec, data, th) for th in draws]
    np.testing.assert_allclose(log_prior(spec, flat),
                               [oracle_log_prior(spec, th) for th in draws], rtol=1e-12)


# data of each (K, p) the unconstrained rows below are scored against
Z_DATA = {(K, p): Dataset(np.random.default_rng(K).normal(0.0, 2.0, (40, p)))
          for K, p in [(2, 2), (4, 3)]}


@st.composite
def z_rows(draw):
    """A spec of K=2, p=2 or K=4, p=3 and 1 to 20 rows of z, so some stacks
    span two kernel blocks, in a box where the log joint is finite."""
    K, p = draw(st.sampled_from(sorted(Z_DATA)))
    n = draw(st.integers(1, 20))
    cols = [st.floats(-8, 8)] * (K - 1) + [st.floats(-6, 6)] * (K * p) \
        + [st.floats(-3, 2)] * (K * p)
    return GmmSpec(K=K, p=p), np.array([[draw(c) for c in cols] for _ in range(n)])


@given(z_rows())
@settings(max_examples=100, deadline=None)
def test_unconstrained_log_joint_rows_are_per_row_calls_and_the_constrained_path(case):
    """Each row's target agrees with the checked log_joint of constrain(z)
    plus its Jacobian term to 1e-12 relative: the z-space prior is the same
    formula with the Jacobian folded in, and only the rounding differs.  The
    rows, constrained, give the bits of one call per row through the
    stacked kernel."""
    spec, z = case
    data = Z_DATA[spec.K, spec.p]
    stacked_log_likelihood(spec, data, z)
    for row in z:
        value = unconstrained_log_joint(spec, data, row)
        params = constrain(row, spec)
        ldj = np.log(params.weights).sum() + np.log(params.sds).sum()
        want = log_joint(spec, data, params) + ldj
        assert abs(value - want) <= 1e-12 * abs(want)


def test_block_kernel_keeps_the_validation_messages():
    """log_likelihood, log_prior, log_joint and dic check their input; only
    the run's target, whose params constrain builds, skips the checks."""
    spec = GmmSpec(K=2, p=1)
    data = Dataset(np.array([[0.0]]))
    good = dict(weights=np.full((3, 2), 0.5), means=np.zeros((3, 2, 1)),
                sds=np.ones((3, 2, 1)))
    for field, value, message in [
        ("weights", np.ones((3, 3)) / 3, r"weights shape \(3,\), expected \(2,\)"),
        ("means", np.zeros((3, 2, 2)), "means/sds must have shape"),
        ("weights", np.array([[0.5, 0.5], [0.7, 0.7], [0.5, 0.5]]),
         "^weights must be a simplex vector$"),
        ("sds", np.array([[[1.0], [1.0]], [[1.0], [0.0]], [[1.0], [1.0]]]),
         "^sds must be strictly positive$"),
        ("sds", np.array([[[1.0], [1.0]], [[1.0], [-1.0]], [[1.0], [1.0]]]),
         "^sds must be strictly positive$"),
        ("sds", np.ones((2, 2, 1)), "means/sds must have shape"),
        # nan compares False with everything, so each check is written to fail on it
        ("weights", np.array([[0.5, 0.5], [0.5, np.nan], [0.5, 0.5]]),
         "^weights must be a simplex vector$"),
        ("means", np.array([[[0.0], [0.0]], [[np.nan], [0.0]], [[0.0], [0.0]]]),
         "^means must not be nan$"),
        ("sds", np.array([[[1.0], [1.0]], [[1.0], [np.nan]], [[1.0], [1.0]]]),
         "^sds must be strictly positive$"),
    ]:
        bad = GmmParams(**{**good, field: value})
        for density in (log_likelihood, dic):
            with pytest.raises(ValueError, match=message):
                density(spec, data, bad)
        with pytest.raises(ValueError, match=message):
            log_prior(spec, bad)
    one = {name: value[0] for name, value in good.items()}
    for field, value, message in [("weights", np.ones(3) / 3, r"weights shape \(3,\)"),
                                  ("weights", np.array([0.7, 0.7]), "simplex"),
                                  ("sds", np.array([[1.0], [0.0]]), "strictly positive"),
                                  ("sds", np.array([[1.0], [-1.0]]), "strictly positive"),
                                  ("weights", np.array([np.nan, 0.5]), "simplex"),
                                  ("means", np.array([[0.0], [np.nan]]), "nan"),
                                  ("sds", np.array([[np.nan], [1.0]]), "strictly positive")]:
        for density in (partial(log_joint, spec, data), partial(log_prior, spec)):
            with pytest.raises(ValueError, match=message):
                density(GmmParams(**{**one, field: value}))
    for density, params in ((log_likelihood, good), (dic, good), (log_joint, one)):
        with pytest.raises(ValueError, match="data dimension"):
            density(spec, Dataset(np.zeros((1, 2))), GmmParams(**params))


def test_n_unconstrained_count():
    assert GmmSpec(K=2, p=2).n_unconstrained == 9
    assert GmmSpec(K=3, p=2).n_unconstrained == 14
    assert GmmSpec(K=1, p=1).n_unconstrained == 2


@pytest.mark.parametrize("name,value", [("K", "2"), ("p", 2.0),
                                        ("prior_mean_scale", "1e1"), ("prior_logsd_scale", None)])
def test_spec_rejects_a_non_numeric_field_by_name(name, value):
    # the model section comes from YAML 1.1, which reads 1e1 as a string
    fields = {"K": 2, "p": 2, name: value}
    with pytest.raises(TypeError, match=rf"^{name} must be .*, got {re.escape(repr(value))}$"):
        GmmSpec(**fields)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["prior_mean_scale", "prior_dirichlet_alpha",
                                  "prior_logsd_scale"])
def test_spec_requires_finite_priors(name, value):
    with pytest.raises(ValueError,
                       match=rf"^{name} must be positive and finite, got {value!r}$"):
        GmmSpec(K=2, p=2, **{name: value})


def test_spec_and_params_validation():
    with pytest.raises(ValueError):
        GmmSpec(K=0, p=1)
    with pytest.raises(ValueError):
        GmmSpec(K=2, p=2, prior_mean_scale=-1.0)
    spec = GmmSpec(K=2, p=1)
    bad_simplex = GmmParams(weights=np.array([0.7, 0.7]),
                            means=np.zeros((2, 1)), sds=np.ones((2, 1)))
    with pytest.raises(ValueError):
        bad_simplex.validate(spec)
    for weights, means, sds in [
        ([0.5, 0.5], [[0.0], [0.0]], [[1.0], [0.0]]),
        ([0.5, np.nan], [[0.0], [0.0]], [[1.0], [1.0]]),
        ([0.5, 0.5], [[np.nan], [0.0]], [[1.0], [1.0]]),
        ([0.5, 0.5], [[0.0], [0.0]], [[1.0], [np.nan]]),
    ]:
        with pytest.raises(ValueError):
            GmmParams(*map(np.array, (weights, means, sds))).validate(spec)
    # an inf sd is a point the kernel scores (its component drops out), and a
    # run's DIC draws can carry one
    GmmParams(weights=np.array([0.5, 0.5]), means=np.zeros((2, 1)),
              sds=np.array([[1.0], [np.inf]])).validate(spec)


def test_dataset_rejects_non_finite_and_wrong_rank():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0], [np.nan]]))
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]))
    # finite values whose squared distance from the column means overflows
    with pytest.raises(ValueError, match="spread too far"):
        Dataset(np.array([[1e200], [-1e200]]))


# ---------------------------------------------------------------------------
# constrain

SPEC22 = GmmSpec(K=2, p=2)


def log_jacobian(params):
    """sum log w + sum log sd: the log |Jacobian| of constrain's map, row by
    row."""
    return np.log(params.weights).sum(axis=-1) + np.log(params.sds).sum(axis=(-2, -1))


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
    lam = VariationalParams(m=np.zeros(9), log_s=np.zeros(9))
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
# simulation

def test_simulate_shapes_and_determinism():
    spec = GmmSpec(K=2, p=3)
    true = GmmParams(weights=np.array([0.4, 0.6]),
                     means=np.array([[0.0] * 3, [5.0] * 3]),
                     sds=np.full((2, 3), 1.0))
    a = simulate(spec, true, N=200, seed=9)
    b = simulate(spec, true, N=200, seed=9)
    assert a.values.shape == (200, 3)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, simulate(spec, true, N=200, seed=10).values)


def test_simulate_matches_mixture_at_scale():
    """Goodness of fit at N = 1e5: chi-square on component counts (clusters
    are far apart, so assignment by nearest mean is exact for all practical
    purposes) and moment checks per cluster, alpha = 0.001."""
    spec = GmmSpec(K=2, p=1)
    true = GmmParams(weights=np.array([0.3, 0.7]),
                     means=np.array([[-10.0], [10.0]]),
                     sds=np.array([[1.0], [2.0]]))
    data = simulate(spec, true, N=100_000, seed=77)
    y = data.values[:, 0]
    n_left = int(np.sum(y < 0))
    counts = np.array([n_left, y.size - n_left])
    res = stats.chisquare(counts, f_exp=y.size * true.weights)
    assert res.pvalue > 0.001
    left, right = y[y < 0], y[y >= 0]
    assert left.mean() == pytest.approx(-10.0, abs=0.05)
    assert right.mean() == pytest.approx(10.0, abs=0.05)
    assert left.std() == pytest.approx(1.0, abs=0.05)
    assert right.std() == pytest.approx(2.0, abs=0.05)


# ---------------------------------------------------------------------------
# CSV ingestion

def test_load_csv_plain_numeric(tmp_path):
    """A byte-order mark, as spreadsheet exports write, does not make the
    first row a header."""
    f = tmp_path / "obs.csv"
    for bom in (b"", b"\xef\xbb\xbf"):
        f.write_bytes(bom + b"1.0,2.0\n3.5,-4.0\n0.5,0.0\n")
        data = load_csv(f)
        np.testing.assert_allclose(data.values, [[1.0, 2.0], [3.5, -4.0], [0.5, 0.0]])
        assert data.name == "obs"


def test_load_csv_reads_spaces_around_a_cell(tmp_path):
    """Hand-written data files put a space after each comma."""
    f = tmp_path / "spaced.csv"
    f.write_text("x, y\n1.0, 2.0\n 3.5 ,-4.0\n")
    np.testing.assert_array_equal(load_csv(f).values, [[1.0, 2.0], [3.5, -4.0]])


def test_load_csv_detects_header(tmp_path):
    f = tmp_path / "h.csv"
    f.write_text("x,y\n1,2\n3,4\n")
    assert load_csv(f).values.shape == (2, 2)


def test_load_csv_drops_label_column(tmp_path):
    f = tmp_path / "lab.csv"
    for text in (b"x,species,y\n1.0,setosa,2.0\n3.0,virginica,4.0\n",
                 b"\xef\xbb\xbfspecies,x,y\nsetosa,1.0,2.0\nvirginica,3.0,4.0\n"):
        f.write_bytes(text)
        data = load_csv(f, label_column="species")
        np.testing.assert_allclose(data.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_label_without_header_fails(tmp_path):
    f = tmp_path / "nolab.csv"
    f.write_text("1.0,2.0\n")
    with pytest.raises(ParseError):
        load_csv(f, label_column="species")


def test_load_csv_reports_bad_cell_position(tmp_path):
    """A row is named by its line in the file, blank lines included; a cell
    must hold a finite number."""
    f = tmp_path / "bad.csv"
    for text, row in [("x,y\n1.0,2.0\n3.0,oops\n", 3), ("a,b\n1,2\n\n3,4\n5,x\n", 5),
                      ("1.0,2.0\n3.0,nan\n", 2), ("x,y\n1,-inf\n", 2),
                      ("x,y\n1.0,1_0\n", 2), ("1.0,2.0\n3.0, 1_0.5\n", 2)]:
        f.write_text(text)
        with pytest.raises(ParseError, match=rf"row {row}, column 2"):
            load_csv(f)


def test_load_csv_reports_ragged_row(tmp_path):
    f = tmp_path / "ragged.csv"
    for text, row in [("1.0,2.0\n3.0\n", 2), ("1,2\n\n\n3\n", 4)]:
        f.write_text(text)
        with pytest.raises(ParseError, match=rf"row {row} has 1 cells"):
            load_csv(f)


def test_load_csv_empty_file(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(ParseError):
        load_csv(f)


# ---------------------------------------------------------------------------
# DIC

def test_dic_needs_two_draws():
    spec = GmmSpec(K=1, p=1)
    draw = GmmParams(weights=np.array([1.0]), means=np.array([[0.0]]),
                     sds=np.array([[1.0]]))
    grid = GmmParams(weights=np.ones((2, 19, 1)), means=np.zeros((2, 19, 1, 1)),
                     sds=np.ones((2, 19, 1, 1)))
    for draws in (draw, stack([draw]), grid):
        with pytest.raises(ValueError, match="DIC needs at least 2 posterior draws"):
            dic(spec, Dataset(np.array([[0.0]])), draws)


def test_dic_two_draw_hand_computation():
    """K=1, p=1, two observations, two draws; every number written out."""
    spec = GmmSpec(K=1, p=1)
    data = Dataset(np.array([[0.5], [-0.5]]))
    d1 = GmmParams(weights=np.array([1.0]), means=np.array([[0.0]]), sds=np.array([[1.0]]))
    d2 = GmmParams(weights=np.array([1.0]), means=np.array([[1.0]]), sds=np.array([[2.0]]))

    def loglik(m, s):
        return sum(-0.5 * math.log(2.0 * math.pi * s * s) - (y - m) ** 2 / (2 * s * s)
                   for y in (0.5, -0.5))

    d_bar = 0.5 * (-2.0 * loglik(0.0, 1.0) + -2.0 * loglik(1.0, 2.0))
    d_at_mean = -2.0 * loglik(0.5, 1.5)
    assert dic(spec, data, stack([d1, d2])) == pytest.approx(2.0 * d_bar - d_at_mean, abs=1e-8)


def test_dic_degenerate_posterior_has_no_parameter_penalty():
    # identical draws: p_D = 0, so DIC is just the common deviance
    spec = GmmSpec(K=1, p=1)
    data = Dataset(np.array([[1.0], [2.0], [0.0]]))
    draw = GmmParams(weights=np.array([1.0]), means=np.array([[1.0]]), sds=np.array([[1.0]]))
    expected = -2.0 * log_likelihood(spec, data, draw)
    assert dic(spec, data, stack([draw, draw, draw])) == pytest.approx(expected, abs=1e-12)


def test_dic_matches_brute_force():
    rng = np.random.default_rng(1618)
    spec, data, _ = random_instance(rng, K=3, p=2, N=6)
    draws = random_draws(rng, spec, 37)
    devs = [-2.0 * oracle_log_likelihood(spec, data, th) for th in draws]
    w_bar = np.mean([th.weights for th in draws], axis=0)
    theta_bar = GmmParams(weights=w_bar / w_bar.sum(),
                          means=np.mean([th.means for th in draws], axis=0),
                          sds=np.mean([th.sds for th in draws], axis=0))
    d_bar = float(np.mean(devs))
    want = 2.0 * d_bar + 2.0 * oracle_log_likelihood(spec, data, theta_bar)
    assert dic(spec, data, stack(draws)) == pytest.approx(want, rel=1e-12)


def test_dic_stays_quiet_when_the_plug_in_sd_overflows():
    """Two draws whose second sd is 1e308 average to an inf plug-in sd, a
    point outside the parameter space that would drop that component out
    of D(theta_bar): a NumericError, without a warning."""
    spec = GmmSpec(K=2, p=1)
    data = Dataset(np.array([[0.0], [1.0]]))
    draw = GmmParams(weights=np.array([0.5, 0.5]), means=np.zeros((2, 1)),
                     sds=np.array([[1.0], [1e308]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="plug-in point has a non-finite mean or sd"):
            dic(spec, data, stack([draw, draw]))


def test_dic_raises_numeric_error_when_non_finite():
    """Draws whose log sds sit at -400 have a -inf likelihood, so D-bar and
    D(theta_bar) are both inf and DIC would be nan: a NumericError, without
    a warning, as the run's target gives at the same z."""
    spec = GmmSpec(K=1, p=1)
    draw = GmmParams(weights=np.array([1.0]), means=np.array([[0.0]]),
                     sds=np.array([[math.exp(-400.0)]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"^DIC is non-finite \(nan\)$"):
            dic(spec, Dataset(np.array([[1.0]])), stack([draw, draw]))


def test_dic_rejects_draws_of_differing_shapes():
    # draws of K=3 against a K=2 spec: log_likelihood's validation reports it
    spec = GmmSpec(K=2, p=1)
    bad = GmmParams(weights=np.ones(3) / 3, means=np.zeros((3, 1)), sds=np.ones((3, 1)))
    with pytest.raises(ValueError, match=r"weights shape \(3,\), expected \(2,\)"):
        dic(spec, Dataset(np.array([[0.0]])), stack([bad, bad]))


def test_log_prior_dirichlet_normalizer_present():
    # alpha != 1 exercises the lgamma terms
    spec = GmmSpec(K=3, p=1, prior_dirichlet_alpha=2.5)
    params = GmmParams(weights=np.array([0.2, 0.3, 0.5]),
                       means=np.zeros((3, 1)), sds=np.ones((3, 1)))
    got = log_prior(spec, params)
    want = (stats.dirichlet.logpdf(params.weights, [2.5, 2.5, 2.5])
            + stats.norm.logpdf(0.0, 0.0, spec.prior_mean_scale) * 3
            + stats.lognorm.logpdf(1.0, s=1.0) * 3)
    assert got == pytest.approx(want, abs=1e-12)
