import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yoasovi.errors import UnsupportedDimensionError
from yoasovi.meanfield import VariationalParams, draw_z
from yoasovi.sequences import EPS, clamp, make_source

ALL_KINDS = ["pseudo-random", "sobol-scrambled"]


# Independent route to the inverse normal CDF: bisect the erf-based CDF.
def _normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _bisect_ndtri(u, lo=-40.0, hi=40.0):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _normal_cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _standard_draw(u):
    """draw_z at m=0, log_s=0: the standard normal quantile of u."""
    lam = VariationalParams(m=np.zeros(1), log_s=np.zeros(1))
    return float(draw_z(lam, np.array([u]))[0])


def test_inverse_normal_cdf_reference_value():
    assert _standard_draw(0.975) == pytest.approx(1.959964, abs=5e-7)


def test_inverse_normal_cdf_matches_bisection_oracle():
    for u in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999]:
        assert _standard_draw(u) == pytest.approx(_bisect_ndtri(u), abs=1e-9)
    # the bisection oracle itself loses accuracy in the far tails
    for u in [1e-10, 1.0 - 1e-10]:
        assert _standard_draw(u) == pytest.approx(_bisect_ndtri(u), abs=1e-6)


def test_clamp_keeps_boundary_draws_finite():
    u = clamp(np.array([-0.1, 0.0, 1.0, 1.1, 2.0]))
    np.testing.assert_array_equal(u, [EPS, EPS, 1.0 - EPS, 1.0 - EPS, 1.0 - EPS])
    lam = VariationalParams(m=np.zeros(5), log_s=np.zeros(5))
    z = draw_z(lam, u)
    assert np.all(np.isfinite(z))
    # about 7.3 standard deviations out, the same distance on either side
    assert -7.5 < z[0] < -7.0
    assert z[2] == pytest.approx(-z[0], rel=1e-9)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_points_stay_inside_open_hypercube(kind):
    src = make_source(kind, 5, seed=11)
    pts = np.array([src.next_point() for _ in range(4096)])
    assert pts.shape == (4096, 5)
    assert np.all(pts >= EPS)
    assert np.all(pts <= 1.0 - EPS)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_same_seed_reproduces_ten_thousand_points(kind):
    a = make_source(kind, 3, seed=42)
    b = make_source(kind, 3, seed=42)
    pa = np.array([a.next_point() for _ in range(10_000)])
    pb = np.array([b.next_point() for _ in range(10_000)])
    np.testing.assert_array_equal(pa, pb)


def test_counter_tracks_points_served():
    src = make_source("sobol-scrambled", 2, seed=0)
    assert src.counter == 0
    for i in range(7):
        src.next_point()
    assert src.counter == 7


def test_sobol_draws_any_count_without_warnings():
    # scipy warns about a non-power-of-two count only at stream index 0, and
    # the stream starts at index 1
    src = make_source("sobol-scrambled", 3, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 1, 3, 10, 100, 7):
            assert src._raw(n).shape == (n, 3)
        src.next_point()


def test_sobol_dimension_cap():
    with pytest.raises(UnsupportedDimensionError):
        make_source("sobol-scrambled", 21202, seed=0)
    make_source("sobol-scrambled", 21201, seed=0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_source("latin-hypercube", 2, seed=0)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_point_dimension_matches_request(dim, seed):
    for kind in ALL_KINDS:
        src = make_source(kind, dim, seed=seed)
        assert src.next_point().shape == (dim,)


def test_low_discrepancy_cuts_product_integrand_variance():
    """Means of f(u) = prod(u) over 64 points, 200 replications each way."""
    def mean_f(src):
        return float(np.mean([np.prod(src.next_point()) for _ in range(64)]))

    sobol_means = [mean_f(make_source("sobol-scrambled", 4, 1000 + i)) for i in range(200)]
    pseudo_means = [mean_f(make_source("pseudo-random", 4, 2000 + i)) for i in range(200)]
    # both unbiased for 2^-4
    assert np.mean(pseudo_means) == pytest.approx(0.0625, abs=0.003)
    assert np.var(sobol_means) < np.var(pseudo_means)

