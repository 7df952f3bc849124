"""Gaussian mixture model with diagonal covariances: its unconstrained
vectors z (a run's start point, the map to its parameters and the run's
target), joint density, priors, simulation, and the DIC fit score.

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
constant terms over p: mu'^2 / sd^2 / 2, log sd and its logit.  What every
component leaves out, (N p / 2) log 2 pi over the data, is the Dataset's
log_norm, added once per set.  Centring on the data's column means ybar
keeps the expansion exact to rounding however far the data sit from the
origin.  What it cannot keep are the digits lost when a residual is small
next to y' and mu': the relative error grows with the square of the data's
spread measured in sds, to a few 1e-12 at clusters 1e3 sds apart.

A set's coefficients come from one flat row, [iv, mu' iv, mu' (mu' iv),
-2 log sd, logits] with iv = exp(-2 log sd) the precision, each block built
by one operation over all K*p of its entries; one gather, by an index
GmmSpec works out once, turns the row into the (K, 4p + 1) coefficients.
The kernel works in log space: it takes logits and log sds, never sds.
Its plain pass is only the arithmetic: exp of the product with no shift, a
sum over the components, a log and a sum over the points.  A per-point sum
that is not a normal float (0, subnormal or nan) would lose digits or give
a non-finite log, so it makes its set's result nan.  A set whose result is
nan or inf, and only such a set, is scored again with two guards: a
component whose iv, mu' iv or mu' (mu' iv) is inf (an sd whose square
underflows, say) gets coefficients 0 and logit -inf, so it drops out where
inf * 0 would give nan, and np.logaddexp.reduce over the components keeps
the digits of a point far from every component or whose density
overflows, gives an all -inf point -inf and an inf or nan point scipy's
inf or nan.  A stack of sets goes through the kernel in passes of as
many sets as fit a fixed byte budget for their (b, K, N) component buffer,
_PASS_BYTES, each pass gathering its own coefficients, so the memory is a
pass's, not the stack's.  The stacked matmul makes the same BLAS call per
set as a lone set does, where one product over a pass's b * K rows would
let BLAS pick another kernel and round otherwise, so a stacked set's
result has the bits of its own call, whatever the pass size.

A run optimises over unconstrained vectors z instead, and this module
alone knows their layout: K-1 free logits, then the K*p means, then the
K*p log sds.  initial_z draws a run's start point in z, constrain maps z
to GmmParams, a softmax over the logits for the weights and exp for the
sds, and the run's target, unconstrained_target(spec, data), is the one
public scorer of one z: it scores z in its own coordinates, Jacobian term
included, with what does not depend on z worked out once when it is
built.  Stacks of parameter sets go through log_likelihood.  A target
call is one flat pass: z's raw logits, the last pinned at 0, stand in the
logit column, and the one normaliser L = log sum_k exp(logit_k) comes off
once, (N + alpha K) L for the likelihood's and the Dirichlet's log
weights.  log_likelihood puts log weights in the logit column and needs
no normaliser.  The z-space prior is one small matrix product whose
factors and constant GmmSpec works out once; log_prior is the same
product less the Jacobian term.  Whether a log sd's sd underflows to 0 or
overflows to inf, and whether a weight underflows to 0, is read off the
log sd or log weight against the two edges of exp, _LOG_UNDERFLOW and
_LOG_OVERFLOW, and the target checks them only on a z whose sums of
logits and of squared log sds come near an edge.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, require_number, require_positive

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# np.exp(x) is 0 for x at or below _LOG_UNDERFLOW, the log of half the
# smallest subnormal, and inf above _LOG_OVERFLOW, the log of the largest
# float: the log sds whose sds underflow or overflow, and the log weights
# whose weights underflow
_LOG_UNDERFLOW = -1075.0 * math.log(2.0)
_LOG_OVERFLOW = math.log(sys.float_info.max)

# the smallest normal float: a per-point sum of exps below it has lost
# digits to subnormal rounding, or is 0
_TINY = sys.float_info.min


@dataclass(frozen=True)
class GmmSpec:
    """The model's size and prior scales, and what the likelihood kernel and
    the prior need of them, worked out once here:
    - prior_const, the prior's additive constant in z's coordinates;
    - prior_coef, three columns of factors on a row of the K logits and then
      the squares of z's K*p means and K*p log sds: the prior's (alpha on
      each logit, -1 / (2 scale^2) on each square), 1 on each logit, and 1
      on each squared log sd;
    - coef_index, the (K, 4p + 1) index that gathers a flat row of _flat
      into the set's coefficients."""

    K: int
    p: int
    prior_mean_scale: float = 10.0
    prior_dirichlet_alpha: float = 1.0
    prior_logsd_scale: float = 1.0
    prior_const: float = field(init=False, repr=False, compare=False)
    prior_coef: np.ndarray = field(init=False, repr=False, compare=False)
    coef_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("K", "p"):
            require_number(name, getattr(self, name), integral=True, minimum=1)
        for name in ("prior_mean_scale", "prior_dirichlet_alpha", "prior_logsd_scale"):
            require_positive(name, getattr(self, name))
        a, s, t = self.prior_dirichlet_alpha, self.prior_mean_scale, self.prior_logsd_scale
        K, p, Kp = self.K, self.p, self.K * self.p
        object.__setattr__(self, "prior_const", math.lgamma(K * a) - K * math.lgamma(a)
                           - Kp * (math.log(s * t) + 2.0 * _HALF_LOG_2PI))
        object.__setattr__(self, "prior_coef", np.repeat(
            [[a, 1, 0], [-0.5 / s**2, 0, 0], [-0.5 / t**2, 0, 1]], [K, Kp, Kp], axis=0))
        # component k's coef: entries k*p .. k*p + p - 1 of each of the flat
        # row's four Kp blocks, then logit k
        j, k = np.arange(4 * p), np.arange(K)[:, None]
        object.__setattr__(self, "coef_index", np.c_[j // p * Kp + k * p + j % p, 4 * Kp + k])

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


# Bytes of the (b, K, N) component buffer of one pass of the likelihood
# kernel: a pass takes as many parameter sets as fit, at least one, so 32
# at sim-p2k2 (K=2, N=500), 21 at sim-p2k3 and 16 at sim-p3k4, and a
# re-score's product takes as much again, however many sets a caller
# stacks.  _flat builds the flat rows of all B sets first, 416 kB for DIC's
# 1000 sets at sim-p3k4, and each pass gathers only its own sets'
# coefficients from them, so the gathered coefficients of all B sets never
# exist at once: the 1000 sets peak at 908 KiB of traced allocations, while
# _flat builds their rows.  A larger budget gains little at sim-p2k2 and
# none at sim-p3k4, whose peak it would raise.
_PASS_BYTES = 256 * 1024


def _pass_sets(spec: GmmSpec, data: Dataset) -> int:
    """Parameter sets per pass of the likelihood kernel: as many as fit
    their (b, K, N) component buffer in _PASS_BYTES, and at least one."""
    return max(1, _PASS_BYTES // (8 * spec.K * data.N))


def constrain(z: np.ndarray, spec: GmmSpec) -> GmmParams:
    """Unconstrained vectors to GmmParams, row by row: z of shape
    (..., n_unconstrained) gives params with the same leading axes.

    z's layout is K-1 free weight logits, then the K*p means, then the K*p
    log sds.  Weights come from a softmax over the logits with the last
    category pinned at logit 0, sds from exp.  A z whose last axis is not
    n_unconstrained long raises ValueError, and a non-finite z or an sd that
    underflows to 0 raises NumericError.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (spec.n_unconstrained,):
        raise ValueError(f"expected z of length {spec.n_unconstrained} on its last axis, "
                         f"got shape {z.shape}")
    if not np.isfinite(z).all():
        raise NumericError("non-finite unconstrained vector")
    lead, K = z.shape[:-1], spec.K
    # an sd that overflows is inf; log_joint rejects it as non-finite
    with np.errstate(over="ignore"):
        a = np.concatenate([z[..., : K - 1], np.zeros(lead + (1,))], axis=-1)
        log_w = a - np.logaddexp.reduce(a, -1)[..., None]
        tail = z[..., K - 1 :].reshape(lead + (2, K, spec.p))
        sds = np.exp(tail[..., 1, :, :])
    if not (sds > 0.0).all():
        raise NumericError("an sd underflowed to 0")
    return GmmParams(weights=np.exp(log_w), means=tail[..., 0, :, :].copy(), sds=sds)


def unconstrained_target(spec: GmmSpec, data: Dataset):
    """The run's target: a function of one z of shape (n_unconstrained,)
    that returns log p(y, constrain(z)) plus the log |Jacobian| of the map
    from z as a float, the density a run optimises, scored in z's own
    coordinates.  What does not depend on z is worked out here, once: the
    data's column means tiled over the K components, the constant
    prior_const + log_norm, the normaliser's factor N + alpha K and the
    pinned logit's 0.

    Each call is one flat pass from z's blocks, with no parameter check,
    since constrain would build valid parameters.  _flat takes z's raw
    logits, the last pinned at 0, in place of log weights, and the one
    normaliser L = log sum_k exp(logit_k) comes off once, (N + alpha K) L:
    N L for the likelihood's log weights and alpha K L for the Dirichlet's.
    The prior's terms, the logits and the squares of z's tail, ride at the
    end of the flat row, and one product with spec.prior_coef gives the
    prior with the Jacobian folded in, the sum of the logits and the sum of
    the squared log sds, read as floats with L.

    A z of another shape raises ValueError.  An sd that underflows to 0 or
    overflows to inf raises NumericError, and so does a non-finite result,
    which is what a non-finite z gives, since every coordinate of z enters
    the prior, and what a weight that underflows to 0 (a log weight logit -
    L at or below _LOG_UNDERFLOW) is made to give.  Those edges are checked
    on z's log-sd block and on the row's logits less L, and only for a z
    near one: each log weight is at most 0, so log weights that sum to above
    _LOG_UNDERFLOW + 1 clear the weight edge one by one, and squared log sds
    that sum to below half of _LOG_OVERFLOW^2 clear both sd edges."""
    K, K1, Kp, n = spec.K, spec.K - 1, spec.K * spec.p, spec.n_unconstrained
    center, zero, coef = np.tile(data.center, K), np.zeros(1), spec.prior_coef
    const = spec.prior_const + data.log_norm
    n_norm = data.N + K * spec.prior_dirichlet_alpha

    @np.errstate(all="ignore")
    def target(z) -> float:
        z = np.asarray(z, dtype=float)
        if z.shape != (n,):
            raise ValueError(f"expected one z of shape ({n},), got shape {z.shape}")
        flat = _flat(center, z[K1 : K1 + Kp], z[K1 + Kp :], z[:K1], zero, np.square(z[K1:]))
        prior, logit_sum, log_sd_sq = np.dot(flat[4 * Kp :], coef).tolist()
        norm = float(np.logaddexp.reduce(flat[4 * Kp : 4 * Kp + K]))
        out = float(_log_likelihood(spec, data, flat)) + prior + const - n_norm * norm
        # a z whose sums clear the edges by a margin needs no edge check
        if not (log_sd_sq < 0.5 * _LOG_OVERFLOW**2 and logit_sum - K * norm > _LOG_UNDERFLOW + 1):
            log_sds = z[K1 + Kp :]
            if log_sds.min() <= _LOG_UNDERFLOW:
                raise NumericError("an sd underflowed to 0")
            if log_sds.max() > _LOG_OVERFLOW:
                raise NumericError("an sd overflowed to inf")
            if (flat[4 * Kp : 4 * Kp + K] - norm).min() <= _LOG_UNDERFLOW:
                out = -math.inf
        if not math.isfinite(out):
            raise NumericError(f"log joint is non-finite ({out}) at z={z}")
        return out

    return target


def initial_z(spec: GmmSpec, data: Dataset, rng: np.random.Generator,
              kmeans_style: bool = False) -> np.ndarray:
    """A run's start point in z, of shape (n_unconstrained,), drawn from rng
    in z's order: K-1 logits from Normal(0, 0.1^2), then K of the data's
    rows for the means, then K*p log sds from Normal(0, 0.1^2).  The rows
    are picked uniformly without replacement, or with kmeans_style by
    k-means++ seeding: the first uniformly, and each next with probability
    proportional to its squared distance from the nearest row picked so
    far, which guards against all K starting in one cluster, or uniformly
    when every row coincides with a pick."""
    K, y = spec.K, data.values
    logits = rng.normal(0.0, 0.1, K - 1)
    if kmeans_style:
        idx = [int(rng.integers(len(y)))]
        for _ in range(K - 1):
            d2 = np.min(((y[:, None, :] - y[idx][None]) ** 2).sum(axis=2), axis=1)
            total = d2.sum()
            idx.append(int(rng.choice(len(y), p=d2 / total) if total > 0
                           else rng.integers(len(y))))
    else:
        idx = rng.choice(len(y), size=K, replace=False)
    return np.concatenate([logits, y[idx].ravel(), rng.normal(0.0, 0.1, K * spec.p)])


# zero weights drop out (log 0 = -inf); an sd of inf gives a -inf or nan
# density, which log_joint rejects
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def log_likelihood(spec: GmmSpec, data: Dataset, params: GmmParams) -> np.ndarray:
    """Mixture log likelihood of the data under each parameter set in params:
    an array of the leading shape of its fields (a scalar for one set).
    Checks params against spec and the data first."""
    if data.p != spec.p:
        raise ValueError(f"data dimension {data.p} does not match spec p={spec.p}")
    params.validate(spec)
    flat = _flat(np.tile(data.center, spec.K), *_blocks(spec, params))
    return _log_likelihood(spec, data, flat) + data.log_norm


def _blocks(spec: GmmSpec, params: GmmParams):
    """The blocks of _flat's row for params: means and log sds of shape
    (..., K*p), and log weights in place of logits.  The caller sets the
    errstate for a zero weight's log."""
    lead = params.weights.shape[:-1] + (spec.K * spec.p,)
    return params.means.reshape(lead), np.log(params.sds).reshape(lead), np.log(params.weights)


def _flat(center, means, log_sds, *ends) -> np.ndarray:
    """Each parameter set's flat row [iv, mu' iv, mu' (mu' iv), -2 log sd,
    ends], from means and log sds of shape (..., K*p) in z's order, and then
    the pieces in ends laid end to end, the first K entries of which are
    the set's K logits: iv = exp(-2 log sd) is the precision and
    mu' = mu - center, center being the data's column means tiled over the
    K components, np.tile(data.center, K).  GmmSpec.coef_index gathers a row into the
    set's coef of shape (K, 4p + 1), so that its (K, N) component terms at
    the data are coef @ data.features: [iv, mu' iv, mu' (mu' iv), -2 log
    sd, logit] against features [-(y - ybar)^2 / 2; y - ybar; -1/2; 1/2;
    1].  The caller sets the errstate for overflowing terms."""
    m2ls = -2.0 * log_sds
    iv = np.exp(m2ls)
    mu = means - center
    miv = mu * iv
    mu *= miv
    return np.concatenate([iv, miv, mu, m2ls, *ends], axis=-1)


def _log_likelihood(spec: GmmSpec, data: Dataset, flat) -> np.ndarray:
    """The likelihood kernel: from _flat's rows of parameter sets that fit
    the data, each set's sum over the points of log sum_k exp(logit_k +
    component k's log density), less data.log_norm, as an array of the
    leading shape (a numpy float for one set).  With log weights for the
    logits that is the log likelihood; a caller whose logits are not
    normalised subtracts N log sum_k exp(logit_k).  The caller sets the
    errstate for overflowing terms."""
    if flat.ndim > 1:
        b = _pass_sets(spec, data)
        if flat.size > b * flat.shape[-1]:
            rows = flat.reshape(-1, flat.shape[-1])
            return np.concatenate([_log_likelihood(spec, data, rows[lo : lo + b])
                                   for lo in range(0, len(rows), b)]).reshape(flat.shape[:-1])
    comp = flat.take(spec.coef_index, axis=-1) @ data.features
    s = np.add.reduce(np.exp(comp, out=comp), -2)
    if not np.minimum.reduce(s, None, initial=np.inf) >= _TINY:
        s[~(s >= _TINY)] = np.nan
    out = np.add.reduce(np.log(s, out=s), -1)
    # math.isfinite of one set or of a pass's sum, which is not finite if a
    # set's result is not, takes a fifteenth or a half of isfinite and all
    if math.isfinite(out if out.ndim == 0 else np.add.reduce(out, None)):
        return out
    out = np.array(out)
    bad = ~np.isfinite(out)
    coef = flat[bad].take(spec.coef_index, axis=-1)
    drop = np.isinf(coef[..., : 3 * spec.p]).any(axis=-1)
    coef[drop] = np.repeat([0.0, -np.inf], [4 * spec.p, 1])
    out[bad] = np.logaddexp.reduce(coef @ data.features, axis=-2).sum(-1)
    return out[()]


def log_prior(spec: GmmSpec, params: GmmParams):
    """Log prior density of each parameter set in params: an array of the
    leading shape of its fields (a scalar for one set).  It is the prior in
    z's coordinates less the log |Jacobian| of constrain's map.  Checks
    params against spec first."""
    params.validate(spec)
    # a zero weight or an overflowing square gives a non-finite prior, which
    # log_joint rejects
    with np.errstate(all="ignore"):
        means, log_sds, log_w = _blocks(spec, params)
        terms = np.concatenate([log_w, np.square(means), np.square(log_sds)], axis=-1)
        return ((terms[..., None, :] @ spec.prior_coef)[..., 0, 0] + spec.prior_const
                - log_w.sum(axis=-1) - log_sds.sum(axis=-1))


def log_joint(spec: GmmSpec, data: Dataset, params: GmmParams) -> float:
    """Log joint density of one parameter set, which log_likelihood checks;
    a NumericError if it is non-finite."""
    out = float(log_likelihood(spec, data, params)) + float(log_prior(spec, params))
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
