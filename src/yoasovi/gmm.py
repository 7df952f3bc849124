"""Gaussian mixture model with diagonal covariances: joint density, priors,
simulation, and the DIC fit score.

Parameter layout is K mixture weights on the simplex, K mean vectors of
length p, and K diagonal standard-deviation vectors of length p.  Priors:
weights ~ Dirichlet(alpha), means ~ Normal(0, prior_mean_scale^2) per
coordinate, log sds ~ Normal(0, prior_logsd_scale^2) per coordinate.

GmmParams fields may carry leading axes, one parameter set per index.
log_likelihood scores every set against the (N, p) data; dic takes its
posterior draws stacked on one leading axis and scores them in a single
call.  The likelihood kernel expands each squared standardised residual,
(y - mu)^2 / sd^2 = y'^2 / sd^2 - 2 y' mu' / sd^2 + mu'^2 / sd^2 with
y' = y - ybar and mu' = mu - ybar, so a set's K component log densities
at all N points, less (p/2) log 2 pi, are one (K, 4p + 1) @ (4p + 1, N)
matrix product against features the Dataset stores once.  The last 2p + 1
feature rows are constants, so the product also sums each component's
constant terms over p: mu'^2 / sd^2 / 2, log sd and log w.  What every
component leaves out, (N p / 2) log 2 pi over the data, is the Dataset's
log_norm, added once per set.  Centring on the data's column means ybar
keeps the expansion exact to rounding however far the data sit from the
origin.  What it cannot keep are the digits lost when a residual is small
next to y' and mu': the relative error grows with the square of the data's
spread measured in sds, to a few 1e-12 at clusters 1e3 sds apart.

The kernel works in log space: it takes log weights and log sds, never
sds, and builds each precision as exp(-2 log sd).  Its plain pass is only
the arithmetic: exp of the product with no shift, a sum over the
components, a log and a sum over the points.  A per-point sum that is not
a normal float (0, subnormal or nan) would lose digits or give a
non-finite log, so it makes its set's result nan.  A set whose result is
nan or inf, and only such a set, is scored again with two guards: a
component whose precision is inf (an sd whose square underflows) drops out
where inf * 0 would give nan, and the log-sum-exp is shifted by each
point's maximum and leaves a non-finite maximum unshifted, so a point far
from every component keeps its digits, an all -inf point gives -inf and an
inf or nan point scipy's inf or nan.  Whether a log sd's sd underflows to
0 or overflows to inf is read off the log sd against the two edges of exp,
_LOG_UNDERFLOW and _LOG_OVERFLOW.  A log sd at or below the first always
leaves the plain pass nan, so that check runs only on a set scored again.

A run optimises over unconstrained vectors z instead (split_unconstrained
gives their layout and a log-softmax for the log weights), and
unconstrained_log_joint scores them in z's own coordinates, Jacobian term
included.  It and log_likelihood share one likelihood kernel, and it and
log_prior one prior formula, a small matrix product whose factors and
constant GmmSpec works out once.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, require_number, require_positive

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# np.exp(x) is 0 for x at or below _LOG_UNDERFLOW, the log of half the
# smallest subnormal, and inf above _LOG_OVERFLOW, the log of the largest
# float: the log sds whose sds underflow or overflow
_LOG_UNDERFLOW = -1075.0 * math.log(2.0)
_LOG_OVERFLOW = math.log(sys.float_info.max)

# the smallest normal float: a per-point sum of exps below it has lost
# digits to subnormal rounding, or is 0
_TINY = sys.float_info.min


@dataclass(frozen=True)
class GmmSpec:
    """The model's size and prior scales, and two terms of the prior in z's
    coordinates worked out once here: prior_const, its additive constant,
    and prior_coef, a column of its factor on each of K log weights (alpha)
    and then on the square of each of z's K*p means and K*p log sds
    (-1 / (2 scale^2))."""

    K: int
    p: int
    prior_mean_scale: float = 10.0
    prior_dirichlet_alpha: float = 1.0
    prior_logsd_scale: float = 1.0
    prior_const: float = field(init=False, repr=False, compare=False)
    prior_coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("K", "p"):
            require_number(name, getattr(self, name), integral=True, minimum=1)
        for name in ("prior_mean_scale", "prior_dirichlet_alpha", "prior_logsd_scale"):
            require_positive(name, getattr(self, name))
        a, s, t = self.prior_dirichlet_alpha, self.prior_mean_scale, self.prior_logsd_scale
        Kp = self.K * self.p
        object.__setattr__(self, "prior_const", math.lgamma(self.K * a) - self.K * math.lgamma(a)
                           - Kp * (math.log(s * t) + 2.0 * _HALF_LOG_2PI))
        object.__setattr__(self, "prior_coef", np.repeat([[a], [-0.5 / s**2], [-0.5 / t**2]],
                                                         [self.K, Kp, Kp], axis=0))

    @property
    def n_unconstrained(self) -> int:
        """Free parameter count: K-1 weight logits + K*p means + K*p log sds."""
        return self.K * (2 * self.p + 1) - 1


@dataclass(frozen=True)
class GmmParams:
    """Model parameters in constrained coordinates, optionally stacked:
    leading axes, the same on every field, index parameter sets."""

    weights: np.ndarray  # (..., K), simplex
    means: np.ndarray    # (..., K, p)
    sds: np.ndarray      # (..., K, p), strictly positive

    def validate(self, spec: GmmSpec) -> None:
        w, sds = self.weights, self.sds
        if w.shape[-1:] != (spec.K,):
            raise ValueError(f"weights shape {w.shape[-1:]}, expected ({spec.K},)")
        if not self.means.shape == sds.shape == w.shape[:-1] + (spec.K, spec.p):
            raise ValueError("means/sds must have shape (K, p)")
        # each test is written so that nan fails it
        if not ((np.abs(w.sum(axis=-1) - 1.0) <= 1e-12).all() and (w >= 0).all()):
            raise ValueError("weights must be a simplex vector")
        if np.isnan(self.means).any():
            raise ValueError("means must not be nan")
        if not (sds > 0).all():
            raise ValueError("sds must be strictly positive")


@dataclass(frozen=True)
class Dataset:
    """N observations of dimension p.  The likelihood kernel works on three
    fields stored once per dataset: center, the column means ybar,
    features, the contiguous (4p + 1, N) stack
    [-(y - ybar)^2 / 2; y - ybar; -1/2; 1/2; 1], 52 kB at p=3 and N=500,
    and log_norm, -(N p / 2) log 2 pi, the Gaussian normaliser's share of
    every set's log likelihood.
    ybar is clipped into each column's range, which moves it only where
    rounding puts a mean outside, as it can for a constant column: so each
    column of y - ybar holds a zero or both signs, and a component whose
    precision is inf meets some point as inf * 0 or inf - inf.  Values whose
    squared distance from center overflows are rejected, since no likelihood
    over them is finite."""

    values: np.ndarray
    name: str = "data"
    center: np.ndarray = field(init=False, repr=False, compare=False)
    features: np.ndarray = field(init=False, repr=False, compare=False)
    log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("values must be an N x p matrix with N >= 1")
        if not np.isfinite(v).all():
            raise ValueError("dataset contains non-finite entries")
        with np.errstate(over="ignore", invalid="ignore"):
            center = np.clip(v.mean(axis=0), v.min(axis=0), v.max(axis=0))
            d = (v - center).T
            half = np.full((v.shape[1], len(v)), 0.5)
            features = np.concatenate([-0.5 * np.square(d), d, -half, half,
                                       np.ones((1, len(v)))])
        if not np.isfinite(features).all():
            raise ValueError("dataset values spread too far: a squared distance "
                             "from the column means overflows")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "log_norm", -v.size * _HALF_LOG_2PI)

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


# Parameter sets per pass of the likelihood kernel: at N=500 and K=4 a
# pass's (b, K, N) component buffer takes 256 kB, and the guarded
# log-sum-exp's one temporary of its size as much again, however many sets
# a caller stacks.  The (B, K, 4p + 1) coef of all B sets is built first,
# 416 kB for DIC's 1000 sets at sim-p3k4: their peak of 908 KiB of traced
# allocations is while _components builds it.
_BLOCK = 16


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over axis 1, shifted by the maximum along it.

    Where that maximum is not finite the values are left unshifted, so the
    result is the same inf or nan as scipy.special.logsumexp gives, and no
    inf - inf is ever formed.  An all -inf slice sums to 0: the caller's
    errstate ignores the log's divide."""
    m = a.max(axis=1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    e = a - m
    return np.log(np.exp(e, out=e).sum(axis=1)) + m[:, 0]


def split_unconstrained(spec: GmmSpec, z: np.ndarray):
    """The layout of unconstrained vectors z of shape (..., n_unconstrained):
    K-1 free weight logits, then the K*p means, then the K*p log sds.

    Returns log weights, a log-softmax over the logits with the last
    category pinned at logit 0, and means and log sds, each with z's
    leading axes; means and log sds are views of z.  A log weight whose
    weight underflows to 0 is -inf, so the target fails where log_joint of
    the constrained parameters does.  z is taken to be finite, and log sds
    are not checked: each caller deals with a non-finite z, and with a log
    sd whose sd underflows to 0, its own way."""
    if z.shape[-1:] != (spec.n_unconstrained,):
        raise ValueError(f"expected z of length {spec.n_unconstrained}, got {z.shape}")
    K, p = spec.K, spec.p
    lead = z.shape[:-1]
    a = np.zeros(lead + (K,))
    a[..., : K - 1] = z[..., : K - 1]
    log_w = a - np.logaddexp.reduce(a, axis=-1, keepdims=True)
    if log_w.min(initial=0.0) <= _LOG_UNDERFLOW:
        log_w[log_w <= _LOG_UNDERFLOW] = -np.inf
    return (log_w, z[..., K - 1 : K - 1 + K * p].reshape(lead + (K, p)),
            z[..., K - 1 + K * p :].reshape(lead + (K, p)))


def unconstrained_log_joint(spec: GmmSpec, data: Dataset, z: np.ndarray):
    """log p(y, constrain(z)) plus the log |Jacobian| of the map from z, row
    by row: the density a run optimises, scored in z's own coordinates.
    z of shape (..., n_unconstrained) gives an array of the leading shape,
    and a float for one vector.

    log w and log sds come straight from split_unconstrained.  No parameter
    check runs, since split_unconstrained builds valid parameters.  The
    data's constant log_norm is added with the prior's.  An sd that
    underflows to 0 or overflows to inf raises NumericError, and so does a
    non-finite result, which is what a non-finite z or a weight that
    underflows to 0 gives: every coordinate of z enters the prior."""
    z = np.asarray(z, dtype=float)
    with np.errstate(all="ignore"):
        log_w, means, log_sds = split_unconstrained(spec, z)
        out = _log_likelihood(data, log_w, means, log_sds) + _log_prior_z(
            spec, log_w, z[..., spec.K - 1 :], spec.prior_const + data.log_norm)
    if log_sds.max(initial=0.0) > _LOG_OVERFLOW:
        raise NumericError("an sd overflowed to inf")
    # math.isfinite takes a hundredth of the time on the one-vector path
    if not (math.isfinite(out) if out.ndim == 0 else np.isfinite(out).all()):
        raise NumericError(f"log joint is non-finite ({out}) at z={z}")
    return out


def log_likelihood(spec: GmmSpec, data: Dataset, params: GmmParams) -> np.ndarray:
    """Mixture log likelihood of the data under each parameter set in params:
    an array of the leading shape of its fields (a scalar for one set).
    Checks params against spec and the data first."""
    if data.p != spec.p:
        raise ValueError(f"data dimension {data.p} does not match spec p={spec.p}")
    params.validate(spec)
    # zero weights drop out (log 0 = -inf); an sd of inf gives a -inf or
    # nan density, which log_joint rejects
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _log_likelihood(data, np.log(params.weights), params.means,
                               np.log(params.sds)) + data.log_norm


def _components(data: Dataset, log_w, means, log_sds):
    """The GEMM form of each parameter set's K component log densities less
    (p/2) log 2 pi: coef of shape (..., K, 4p + 1), so that a set's (K, N)
    component terms at the data are coef @ data.features.

    With iv = exp(-2 log sd), the precision, and mu' = mu - data.center,
    coef = [iv, mu' iv, mu' (mu' iv), -2 log sd, log w] against features
    [-(y - ybar)^2 / 2; y - ybar; -1/2; 1/2; 1], so the matrix product sums
    each component's constant over p too.  A component whose iv is inf (its
    sd^2 underflows, say) meets the data as inf * 0 = nan or inf - inf;
    _log_likelihood scores such a set again.  The caller sets the errstate
    for overflowing terms."""
    m2ls = -2.0 * log_sds
    iv = np.exp(m2ls)
    mu = means - data.center
    miv = mu * iv
    mu *= miv
    return np.concatenate([iv, miv, mu, m2ls, log_w[..., None]], axis=-1)


def _plain_logsumexp(comp: np.ndarray) -> np.ndarray:
    """log(sum(exp(comp))) over axis -2 with no shift, in place of comp of
    shape (..., K, N): the plain pass.  A point whose sum is not a normal
    float (0, subnormal or nan) gives nan, since its log has lost digits or
    is not finite."""
    np.exp(comp, out=comp)
    s = comp.sum(axis=-2)
    if not s.min(initial=np.inf) >= _TINY:
        s[~(s >= _TINY)] = np.nan
    return np.log(s, out=s)


def _score_sets(data: Dataset, coef, lse) -> np.ndarray:
    """Each set's log likelihood less data.log_norm from its coef: lse over
    the components of coef @ data.features, summed over the points, through
    one matmul for one set and _BLOCK sets per pass of one stacked matmul
    for more.  The stacked matmul makes the same BLAS call per set as a
    lone set does, where one product over b * K rows would let BLAS pick
    another kernel and round otherwise, so a stacked set's result has the
    bits of its own call."""
    if coef.ndim == 2 or coef.ndim == 3 and len(coef) <= _BLOCK:
        return lse(coef @ data.features).sum(axis=-1)
    flat = coef.reshape((-1,) + coef.shape[-2:])
    out = np.empty(len(flat))
    for lo in range(0, len(flat), _BLOCK):
        b = slice(lo, lo + _BLOCK)
        out[b] = lse(flat[b] @ data.features).sum(axis=1)
    return out.reshape(coef.shape[:-2])


def _log_likelihood(data: Dataset, log_w, means, log_sds) -> np.ndarray:
    """The likelihood kernel: log likelihood less data.log_norm of parameter
    sets that fit the data, given as log weights (..., K) and means and log
    sds (..., K, p), as an array of the leading shape (a numpy float for one
    set).

    _components gives every set's coef at once, and _score_sets takes them
    through the plain pass.  The guards run only for a set that this leaves
    nan or infinite: one with a point whose sum overflows, underflows or
    loses digits as a subnormal, or whose coef makes nan.  Every set with a
    log sd at or below _LOG_UNDERFLOW is one of them, since its iv is inf
    and Dataset's centre makes it meet some point as inf * 0 or inf - inf:
    NumericError.  Any other such set is scored again with each component
    whose iv, mu' iv or mu' (mu' iv) is inf set to coef 0 and log w -inf, so
    it drops out where inf * 0 would give nan, and with the max-shifted
    _logsumexp, which keeps the digits of a point far from every component
    and of one whose density overflows, gives an all -inf point -inf and
    gives scipy's inf or nan elsewhere.  The caller sets the errstate for
    overflowing terms."""
    coef = _components(data, log_w, means, log_sds)
    out = _score_sets(data, coef, _plain_logsumexp)
    # math.isfinite takes a fifteenth of the time on the one-set path
    if math.isfinite(out) if out.ndim == 0 else np.isfinite(out).all():
        return out
    out = np.array(out).reshape(-1)
    bad = ~np.isfinite(out)
    if log_sds.reshape(len(out), -1)[bad].min() <= _LOG_UNDERFLOW:
        raise NumericError("an sd underflowed to 0")
    coef = coef.reshape((-1,) + coef.shape[-2:])[bad]
    drop = np.isinf(coef[..., : 3 * data.p]).any(axis=2)
    coef[drop] = 0.0
    coef[..., -1][drop] = -np.inf
    out[bad] = _score_sets(data, coef, _logsumexp)
    return out.reshape(log_w.shape[:-1])[()]


def _log_prior_z(spec: GmmSpec, log_w, tail, const: float):
    """The prior in z's coordinates, row by row, from log weights (..., K)
    and tail (..., 2Kp), z's means and then log sds: the prior density of
    the parameters plus the log |Jacobian| of constrain's map, sum log w +
    sum log sd, which cancels the Dirichlet's -sum log w and the lognormal's
    -sum log sd.  So alpha sum log w, Normal means and Normal log sds: one
    (1, K + 2Kp) @ (K + 2Kp, 1) product per row of [log w, tail^2] with
    spec.prior_coef, the same dot product for a row in a stack as alone,
    plus const: spec.prior_const, and on the run's target also the data's
    log_norm, so one addition serves both constants."""
    terms = np.concatenate([log_w, np.square(tail)], axis=-1)[..., None, :]
    return (terms @ spec.prior_coef)[..., 0, 0] + const


def log_prior(spec: GmmSpec, params: GmmParams):
    """Log prior density of each parameter set in params: an array of the
    leading shape of its fields (a scalar for one set).  It is the prior in
    z's coordinates less the log |Jacobian| of constrain's map.  Checks
    params against spec first."""
    params.validate(spec)
    return _log_prior(spec, params)


def _log_prior(spec: GmmSpec, params: GmmParams):
    """log_prior of params that fit spec."""
    # a zero weight or an overflowing square gives a non-finite prior, which
    # log_joint rejects
    with np.errstate(all="ignore"):
        log_w = np.log(params.weights)
        log_sds = np.log(params.sds)
        lead = log_w.shape[:-1]
        tail = np.concatenate([params.means.reshape(lead + (-1,)),
                               log_sds.reshape(lead + (-1,))], axis=-1)
        return (_log_prior_z(spec, log_w, tail, spec.prior_const)
                - log_w.sum(axis=-1) - log_sds.sum(axis=(-2, -1)))


def log_joint(spec: GmmSpec, data: Dataset, params: GmmParams) -> float:
    """Log joint density of one parameter set, which log_likelihood checks;
    a NumericError if it is non-finite."""
    out = float(log_likelihood(spec, data, params)) + float(_log_prior(spec, params))
    if not math.isfinite(out):
        raise NumericError(f"log joint is non-finite ({out}) for {params}")
    return out


def simulate(spec: GmmSpec, true_params: GmmParams, N: int, seed: int) -> Dataset:
    """Draw N observations: component index from the weights, then the
    component Gaussian."""
    require_number("N", N, integral=True, minimum=1)
    require_number("seed", seed, integral=True, minimum=0)
    true_params.validate(spec)
    rng = np.random.default_rng(seed)
    comps = rng.choice(spec.K, size=N, p=true_params.weights)
    values = true_params.means[comps] + rng.standard_normal((N, spec.p)) * true_params.sds[comps]
    return Dataset(values, name=f"sim-K{spec.K}-p{spec.p}-N{N}")


def dic(spec: GmmSpec, data: Dataset, draws: GmmParams) -> float:
    """Deviance information criterion of posterior draws stacked on one
    leading axis: mean deviance plus effective parameter count, with
    D(theta) = -2 * log likelihood (no prior) and the plug-in point the
    draw-wise mean parameter (weights re-normalized).  The means stay quiet;
    a plug-in mean or sd that overflows, or a non-finite DIC, raises
    NumericError."""
    if draws.weights.ndim != 2 or len(draws.weights) < 2:
        raise ValueError("DIC needs at least 2 posterior draws stacked on one leading "
                         f"axis, got weights of shape {draws.weights.shape}")
    with np.errstate(over="ignore"):
        devs = -2.0 * log_likelihood(spec, data, draws)
        w_bar = draws.weights.mean(axis=0)
        theta_bar = GmmParams(weights=w_bar / w_bar.sum(), means=draws.means.mean(axis=0),
                              sds=draws.sds.mean(axis=0))
        d_bar = float(devs.mean())
    if not (np.isfinite(theta_bar.means).all() and np.isfinite(theta_bar.sds).all()):
        raise NumericError("DIC's plug-in point has a non-finite mean or sd")
    p_d = d_bar - (-2.0 * float(log_likelihood(spec, data, theta_bar)))
    out = d_bar + p_d
    if not math.isfinite(out):
        raise NumericError(f"DIC is non-finite ({out})")
    return out
