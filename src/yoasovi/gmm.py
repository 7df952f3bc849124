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


# Parameter sets per pass of log_likelihood: at N=500, K=4, p=3 its (B, K, p, N)
# temporaries stay under 1 MB however many draws a caller stacks.
_BLOCK = 16


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along axis, shifted by the maximum along it.

    Where that maximum is not finite the values are left unshifted, so the
    result is the same inf or nan as scipy.special.logsumexp gives, and no
    inf - inf is ever formed."""
    m = a.max(axis=axis, keepdims=True)
    finite = np.isfinite(m)
    if finite.all():
        # the maximum adds exp(0) = 1 to every sum, so log never sees 0
        return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis)
    m[~finite] = 0.0
    with np.errstate(divide="ignore"):  # an all -inf slice sums to 0
        return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis)


def log_likelihood(spec: GmmSpec, data: Dataset, params: GmmParams) -> np.ndarray:
    """Mixture log likelihood of the data under each parameter set in params:
    an array of the leading shape of its fields (a scalar for one set)."""
    if data.p != spec.p:
        raise ValueError(f"data dimension {data.p} does not match spec p={spec.p}")
    params.validate(spec)
    lead = params.weights.shape[:-1]
    weights = params.weights.reshape(-1, spec.K)
    means = params.means.reshape(-1, spec.K, spec.p)
    sds = params.sds.reshape(-1, spec.K, spec.p)
    # observations on the last axis, so every elementwise pass runs over N
    y = data.values_t  # (p, N)
    out = np.empty(weights.shape[0])
    # zero weights drop out (log 0 = -inf); an sd whose square under- or
    # overflows gives a -inf or nan density, which log_joint rejects
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_w = np.log(weights)[..., None]
        log_norm = np.log(2.0 * np.pi * sds**2)[..., None]
        for lo in range(0, weights.shape[0], _BLOCK):
            b = slice(lo, lo + _BLOCK)
            # (b, K, N): sum over p of the componentwise normal log densities
            comp = -0.5 * (
                log_norm[b] + ((y - means[b, ..., None]) / sds[b, ..., None]) ** 2).sum(axis=2)
            out[b] = _logsumexp(log_w[b] + comp, axis=1).sum(axis=1)
    return out.reshape(lead)[()]


def log_prior(spec: GmmSpec, params: GmmParams):
    """Log prior density of each parameter set in params: an array of the
    leading shape of its fields (a scalar for one set)."""
    a = spec.prior_dirichlet_alpha
    # a zero weight or an overflowing square gives a non-finite prior, which
    # log_joint rejects
    with np.errstate(all="ignore"):
        lp = (a - 1.0) * np.log(params.weights).sum(axis=-1)
        lp += math.lgamma(spec.K * a) - spec.K * math.lgamma(a)
        s = spec.prior_mean_scale
        lp += -0.5 * ((params.means / s) ** 2).sum(axis=(-2, -1)) \
            - spec.K * spec.p * 0.5 * math.log(2.0 * math.pi * s**2)
        ls = np.log(params.sds)
        t = spec.prior_logsd_scale
        # lognormal over sds: Gaussian on log sd plus the 1/sd change of variables
        lp += -0.5 * ((ls / t) ** 2).sum(axis=(-2, -1)) - ls.sum(axis=(-2, -1)) \
            - spec.K * spec.p * 0.5 * math.log(2.0 * math.pi * t**2)
    return lp


def log_joint(spec: GmmSpec, data: Dataset, params: GmmParams) -> float:
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
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(c.strip() for c in r)]
    if not rows:
        raise ParseError(f"{path}: empty file")

    def numeric(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    header = None
    if not all(numeric(c) for c in rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")

    drop = None
    if label_column is not None:
        if header is None or label_column not in header:
            raise ParseError(f"{path}: label column {label_column!r} not found in header")
        drop = header.index(label_column)

    width = len(rows[0]) if header is None else len(header)
    values = []
    for i, row in enumerate(rows):
        rownum = i + 1 + (1 if header is not None else 0)
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
    draw-wise mean parameter (weights re-normalized)."""
    if draws.weights.ndim != 2 or len(draws.weights) < 2:
        raise ValueError("DIC needs at least 2 posterior draws stacked on one leading "
                         f"axis, got weights of shape {draws.weights.shape}")
    devs = -2.0 * log_likelihood(spec, data, draws)
    w_bar = draws.weights.mean(axis=0)
    theta_bar = GmmParams(weights=w_bar / w_bar.sum(), means=draws.means.mean(axis=0),
                          sds=draws.sds.mean(axis=0))
    d_bar = float(devs.mean())
    p_d = d_bar - (-2.0 * float(log_likelihood(spec, data, theta_bar)))
    return d_bar + p_d
