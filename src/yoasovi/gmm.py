"""Gaussian mixture model with diagonal covariances: joint density, priors,
simulation, CSV ingestion, and the DIC fit score.

Parameter layout is K mixture weights on the simplex, K mean vectors of
length p, and K diagonal standard-deviation vectors of length p.  Priors:
weights ~ Dirichlet(alpha), means ~ Normal(0, prior_mean_scale^2) per
coordinate, log sds ~ Normal(0, prior_logsd_scale^2) per coordinate.

GmmParams fields may carry leading axes, one parameter set per index.
log_likelihood scores every set against the (N, p) data with a max-shifted
numpy log-sum-exp over the components; dic takes its posterior draws
stacked on one leading axis and scores them in a single call.

A run optimises over unconstrained vectors z instead (split_unconstrained
gives their layout), and unconstrained_log_joint scores them in z's own
coordinates, Jacobian term included.  It and log_likelihood share one
likelihood kernel, and it and log_prior one prior formula.
"""

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParseError, require_number, require_positive


@dataclass(frozen=True)
class GmmSpec:
    K: int
    p: int
    prior_mean_scale: float = 10.0
    prior_dirichlet_alpha: float = 1.0
    prior_logsd_scale: float = 1.0

    def __post_init__(self):
        for name in ("K", "p"):
            require_number(name, getattr(self, name), integral=True, minimum=1)
        for name in ("prior_mean_scale", "prior_dirichlet_alpha", "prior_logsd_scale"):
            require_positive(name, getattr(self, name))

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
        if (np.abs(w.sum(axis=-1) - 1.0) > 1e-12).any() or (w < 0).any():
            raise ValueError("weights must be a simplex vector")
        if (sds <= 0).any():
            raise ValueError("sds must be strictly positive")


@dataclass(frozen=True)
class Dataset:
    """N observations of dimension p.  values_t is the contiguous (p, N)
    transpose log_likelihood works on, stored once per dataset."""

    values: np.ndarray
    name: str = "data"
    values_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("values must be an N x p matrix with N >= 1")
        if not np.isfinite(v).all():
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "values_t", np.ascontiguousarray(v.T))

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


# Parameter sets per pass of the likelihood kernel: at N=500, K=4, p=3 its
# (B, K, p, N) buffer stays under 1 MB however many draws a caller stacks.
_BLOCK = 16

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along axis, shifted by the maximum along it.

    Where that maximum is not finite the values are left unshifted, so the
    result is the same inf or nan as scipy.special.logsumexp gives, and no
    inf - inf is ever formed.  An all -inf slice sums to 0: the caller's
    errstate ignores the log's divide."""
    m = a.max(axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis)


def split_unconstrained(spec: GmmSpec, z: np.ndarray):
    """The layout of unconstrained vectors z of shape (..., n_unconstrained):
    K-1 free weight logits, then the K*p means, then the K*p log sds.

    Returns weights, a softmax over the logits with the last category pinned
    at logit 0, and means, log sds and sds = exp(log sds), each with z's
    leading axes; means and log sds are views of z.  An sd that underflows
    to 0 raises NumericError; one that overflows is inf, with a warning
    unless the caller's errstate ignores overflow.  z is taken to be finite:
    each caller deals with a non-finite z its own way."""
    if z.shape[-1:] != (spec.n_unconstrained,):
        raise ValueError(f"expected z of length {spec.n_unconstrained}, got {z.shape}")
    K, p = spec.K, spec.p
    lead = z.shape[:-1]
    a = np.zeros(lead + (K,))
    a[..., : K - 1] = z[..., : K - 1]
    e = np.exp(a - a.max(axis=-1, keepdims=True))  # max-shifted softmax
    weights = e / e.sum(axis=-1, keepdims=True)
    log_sds = z[..., K - 1 + K * p :].reshape(lead + (K, p))
    sds = np.exp(log_sds)
    if (sds == 0.0).any():
        raise NumericError("an sd underflowed to 0")
    return weights, z[..., K - 1 : K - 1 + K * p].reshape(lead + (K, p)), log_sds, sds


def unconstrained_log_joint(spec: GmmSpec, data: Dataset, z: np.ndarray):
    """log p(y, constrain(z)) plus the log |Jacobian| of the map from z, row
    by row: the density a run optimises, scored in z's own coordinates.
    z of shape (..., n_unconstrained) gives an array of the leading shape,
    and a float for one vector.

    log w comes from the softmax, log sds straight from z.  No parameter
    check runs, since split_unconstrained builds valid parameters.  An sd
    that underflows to 0 or overflows to inf raises NumericError, and so
    does a non-finite result, which is what a non-finite z or a weight that
    underflows to 0 gives: every coordinate of z enters the prior."""
    z = np.asarray(z, dtype=float)
    with np.errstate(all="ignore"):
        weights, means, log_sds, sds = split_unconstrained(spec, z)
        log_w = np.log(weights)
        out = _log_likelihood(spec, data, log_w, means, sds, log_sds) \
            + _log_prior_z(spec, log_w, means, log_sds)
    if sds.max() == np.inf:
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
        return _log_likelihood(spec, data, np.log(params.weights), params.means,
                               params.sds, np.log(params.sds))


def _log_likelihood(spec: GmmSpec, data: Dataset, log_w, means, sds, log_sds) -> np.ndarray:
    """The likelihood kernel: log likelihood of parameter sets that fit spec
    and the data, given as log weights (..., K) and means, sds and log sds
    (..., K, p).  Each component's normaliser, log w - sum_p log sd -
    (p/2) log 2 pi, is added once per (set, component); the squared
    standardised residuals work in place in one (B, K, p, N) buffer.
    The caller sets the errstate for overflowing residuals."""
    K, p = spec.K, spec.p
    lead = log_w.shape[:-1]
    log_w = log_w.reshape(-1, K)
    means = means.reshape(-1, K, p)[..., None]
    sds = sds.reshape(-1, K, p)[..., None]
    norm = (log_w - log_sds.reshape(-1, K, p).sum(axis=2) - p * _HALF_LOG_2PI)[..., None]
    # observations on the last axis, so every elementwise pass runs over N
    y = data.values_t  # (p, N)
    B = log_w.shape[0]
    out = np.empty(B)
    buf = np.empty((min(B, _BLOCK), K, p, data.N))
    for lo in range(0, B, _BLOCK):
        b = slice(lo, lo + _BLOCK)
        r = buf[: min(B - lo, _BLOCK)]
        np.subtract(y, means[b], out=r)
        np.divide(r, sds[b], out=r)
        np.square(r, out=r)
        comp = r.sum(axis=2)  # (b, K, N)
        comp *= -0.5
        comp += norm[b]
        out[b] = _logsumexp(comp, axis=1).sum(axis=1)
    return out.reshape(lead)[()]


def _log_prior_z(spec: GmmSpec, log_w, means, log_sds):
    """The prior in z's coordinates, row by row: the prior density of the
    parameters plus the log |Jacobian| of constrain's map, sum log w +
    sum log sd, which cancels the Dirichlet's -sum log w and the lognormal's
    -sum log sd.  So alpha sum log w, Normal means and Normal log sds."""
    a = spec.prior_dirichlet_alpha
    s = spec.prior_mean_scale
    t = spec.prior_logsd_scale
    Kp = spec.K * spec.p
    return (a * log_w.sum(axis=-1)
            - (0.5 / s**2) * np.square(means).sum(axis=(-2, -1))
            - (0.5 / t**2) * np.square(log_sds).sum(axis=(-2, -1))
            + (math.lgamma(spec.K * a) - spec.K * math.lgamma(a)
               - Kp * (math.log(s * t) + 2.0 * _HALF_LOG_2PI)))


def log_prior(spec: GmmSpec, params: GmmParams):
    """Log prior density of each parameter set in params: an array of the
    leading shape of its fields (a scalar for one set).  It is the prior in
    z's coordinates less the log |Jacobian| of constrain's map."""
    # a zero weight or an overflowing square gives a non-finite prior, which
    # log_joint rejects
    with np.errstate(all="ignore"):
        log_w = np.log(params.weights)
        log_sds = np.log(params.sds)
        return (_log_prior_z(spec, log_w, params.means, log_sds)
                - log_w.sum(axis=-1) - log_sds.sum(axis=(-2, -1)))


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


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Read a rectangular numeric CSV, optional single header row.

    If the first row contains any non-numeric cell it is treated as a header.
    label_column names a header column to drop (class labels in benchmark
    files); it requires a header row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        # blank rows are skipped; messages name a row by its line in the file
        rows = [(reader.line_num, r) for r in reader if r and any(c.strip() for c in r)]
    if not rows:
        raise ParseError(f"{path}: empty file")

    def numeric(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    header = None
    if not all(numeric(c) for c in rows[0][1]):
        header = [c.strip() for c in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")

    drop = None
    if label_column is not None:
        if header is None or label_column not in header:
            raise ParseError(f"{path}: label column {label_column!r} not found in header")
        drop = header.index(label_column)

    width = len(rows[0][1]) if header is None else len(header)
    values = []
    for rownum, row in rows:
        if len(row) != width:
            raise ParseError(f"{path}: row {rownum} has {len(row)} cells, expected {width}")
        out = []
        for j, cell in enumerate(row):
            if j == drop:
                continue
            try:
                out.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell at row {rownum}, column {j + 1}: {cell!r}"
                ) from None
        values.append(out)
    return Dataset(np.asarray(values), name=os.path.splitext(os.path.basename(path))[0])


def dic(spec: GmmSpec, data: Dataset, draws: GmmParams) -> float:
    """Deviance information criterion of posterior draws stacked on one
    leading axis: mean deviance plus effective parameter count, with
    D(theta) = -2 * log likelihood (no prior) and the plug-in point the
    draw-wise mean parameter (weights re-normalized).  A mean that
    overflows stays quiet, and a non-finite DIC raises NumericError."""
    if draws.weights.ndim != 2 or len(draws.weights) < 2:
        raise ValueError("DIC needs at least 2 posterior draws stacked on one leading "
                         f"axis, got weights of shape {draws.weights.shape}")
    with np.errstate(over="ignore"):
        devs = -2.0 * log_likelihood(spec, data, draws)
        w_bar = draws.weights.mean(axis=0)
        theta_bar = GmmParams(weights=w_bar / w_bar.sum(), means=draws.means.mean(axis=0),
                              sds=draws.sds.mean(axis=0))
        d_bar = float(devs.mean())
    p_d = d_bar - (-2.0 * float(log_likelihood(spec, data, theta_bar)))
    out = d_bar + p_d
    if not math.isfinite(out):
        raise NumericError(f"DIC is non-finite ({out})")
    return out
