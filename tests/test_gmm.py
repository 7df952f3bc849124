import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import logsumexp

from yoasovi.errors import NumericError, ParseError
from yoasovi.gmm import (_BLOCK, Dataset, GmmParams, GmmSpec, _logsumexp, dic,
                         log_joint, log_likelihood, log_prior, simulate,
                         unconstrained_log_joint)
from yoasovi.harness import load_csv
from yoasovi.meanfield import constrain


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
    # residual to inf, for one vector and for a stack
    spec = GmmSpec(K=2, p=1)
    z = np.array([0.0, 0.0, 0.0, -400.0, -400.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in (z, np.stack([z, z])):
            with pytest.raises(NumericError, match=r"^log joint is non-finite \(.*-inf"):
                unconstrained_log_joint(spec, Dataset(np.array([[1.0], [2.0]])), rows)


def test_logsumexp_non_finite_rows_match_scipy():
    inf, nan = math.inf, math.nan
    a = np.array([[-inf, -inf, -inf],
                  [inf, 0.0, -inf],
                  [inf, inf, 1.0],
                  [nan, 0.0, 1.0],
                  [-inf, 2.0, -inf],
                  [700.0, 710.0, -1e300]])
    # both callers ignore the log's divide on an all -inf row
    with warnings.catch_warnings(), np.errstate(divide="ignore"):
        warnings.simplefilter("error")
        got = _logsumexp(a, axis=1)
    want = logsumexp(a, axis=1)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    np.testing.assert_allclose(got[ok], want[ok], rtol=1e-15)


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


def test_block_kernel_matches_brute_force_per_row():
    # B = 37 is not a multiple of the block size, so the last pass is short
    assert 37 % _BLOCK != 0
    rng = np.random.default_rng(2718)
    spec, data, _ = random_instance(rng, K=3, p=2, N=7)
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
    """Stacked rows give the bits of one call per row, and each agrees with
    the checked log_joint of constrain(z) plus its Jacobian term to 1e-12
    relative: the z-space prior is the same formula with the Jacobian folded
    in, and only the rounding differs."""
    spec, z = case
    data = Z_DATA[spec.K, spec.p]
    got = unconstrained_log_joint(spec, data, z)
    assert got.shape == (len(z),)
    assert list(got) == [unconstrained_log_joint(spec, data, row) for row in z]
    for row, value in zip(z, got):
        params = constrain(row, spec)
        ldj = np.log(params.weights).sum() + np.log(params.sds).sum()
        want = log_joint(spec, data, params) + ldj
        assert abs(value - want) <= 1e-12 * abs(want)


def test_block_kernel_keeps_the_validation_messages():
    """log_likelihood, log_joint and dic check their input; only the run's
    target, whose params constrain builds, skips the checks."""
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
        ("sds", np.ones((2, 2, 1)), "means/sds must have shape"),
    ]:
        bad = GmmParams(**{**good, field: value})
        for density in (log_likelihood, dic):
            with pytest.raises(ValueError, match=message):
                density(spec, data, bad)
    one = {name: value[0] for name, value in good.items()}
    for field, value, message in [("weights", np.array([0.7, 0.7]), "simplex"),
                                  ("sds", np.array([[1.0], [0.0]]), "strictly positive")]:
        with pytest.raises(ValueError, match=message):
            log_joint(spec, data, GmmParams(**{**one, field: value}))
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
    bad_sd = GmmParams(weights=np.array([0.5, 0.5]),
                       means=np.zeros((2, 1)), sds=np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError):
        bad_sd.validate(spec)


def test_dataset_rejects_non_finite_and_wrong_rank():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0], [np.nan]]))
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]))


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
                      ("1.0,2.0\n3.0,nan\n", 2), ("x,y\n1,-inf\n", 2)]:
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
