"""Gaussian mixture model with diagonal covariances: joint density, priors,
simulation, CSV ingestion, and the DIC fit score.

Parameter layout is K mixture weights on the simplex, K mean vectors of
length p, and K diagonal standard-deviation vectors of length p.  Priors:
weights ~ Dirichlet(alpha), means ~ Normal(0, prior_mean_scale^2) per
coordinate, log sds ~ Normal(0, prior_logsd_scale^2) per coordinate.

Every likelihood goes through one block kernel that scores B parameter sets
stacked on a leading axis (weights (B, K), means and sds (B, K, p)) against
the (N, p) data in one pass, with a max-shifted numpy log-sum-exp over the
components.  log_likelihood is its B=1 call; dic stacks its posterior draws
once and makes a single call.
"""

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParseError


@dataclass(frozen=True)
class GmmSpec:
    K: int
    p: int
    prior_mean_scale: float = 10.0
    prior_dirichlet_alpha: float = 1.0
    prior_logsd_scale: float = 1.0

    def __post_init__(self):
        if self.K < 1 or self.p < 1:
            raise ValueError("K and p must be >= 1")
        for name in ("prior_mean_scale", "prior_dirichlet_alpha", "prior_logsd_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def n_unconstrained(self) -> int:
        """Free parameter count: K-1 weight logits + K*p means + K*p log sds."""
        return self.K * (2 * self.p + 1) - 1


@dataclass(frozen=True)
class GmmParams:
    """Model parameters in constrained coordinates."""

    weights: np.ndarray  # (K,), simplex
    means: np.ndarray    # (K, p)
    sds: np.ndarray      # (K, p), strictly positive

    def validate(self, spec: GmmSpec) -> None:
        _validate_block(spec, self.weights[None], self.means[None], self.sds[None])


def _validate_block(spec: GmmSpec, weights: np.ndarray, means: np.ndarray,
                    sds: np.ndarray) -> None:
    """GmmParams.validate for B parameter sets stacked on a leading axis."""
    if weights.shape[1:] != (spec.K,):
        raise ValueError(f"weights shape {weights.shape[1:]}, expected ({spec.K},)")
    if means.shape[1:] != (spec.K, spec.p) or sds.shape[1:] != (spec.K, spec.p):
        raise ValueError("means/sds must have shape (K, p)")
    if (np.abs(weights.sum(axis=1) - 1.0) > 1e-12).any() or (weights < 0).any():
        raise ValueError("weights must be a simplex vector")
    if (sds <= 0).any():
        raise ValueError("sds must be strictly positive")


@dataclass(frozen=True)
class Dataset:
    values: np.ndarray
    name: str = "data"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("values must be an N x p matrix with N >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


# Parameter sets per pass of the kernel: at N=500, K=4, p=3 its (B, K, p, N)
# temporaries stay under 1 MB however many draws a caller stacks.
_BLOCK = 16


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along axis, shifted by the maximum along it.

    Where that maximum is not finite the values are left unshifted, so the
    result is the same inf or nan as scipy.special.logsumexp gives, and no
    inf - inf is ever formed."""
    m = a.max(axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis)


def _log_likelihood_block(spec: GmmSpec, data: Dataset, weights: np.ndarray,
                          means: np.ndarray, sds: np.ndarray) -> np.ndarray:
    """Mixture log likelihood of the data under each of B stacked parameter
    sets: weights (B, K), means and sds (B, K, p) -> (B,)."""
    if data.p != spec.p:
        raise ValueError(f"data dimension {data.p} does not match spec p={spec.p}")
    _validate_block(spec, weights, means, sds)
    # observations on the last axis, so every elementwise pass runs over N
    y = np.ascontiguousarray(data.values.T)  # (p, N)
    out = np.empty(weights.shape[0])
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)[..., None]  # zero weights allowed: -inf drops out
        log_norm = np.log(2.0 * np.pi * sds**2)[..., None]
    for lo in range(0, weights.shape[0], _BLOCK):
        b = slice(lo, lo + _BLOCK)
        # (b, K, N): sum over p of the componentwise normal log densities
        comp = -0.5 * np.sum(
            log_norm[b] + ((y - means[b, ..., None]) / sds[b, ..., None]) ** 2, axis=2)
        out[b] = np.sum(_logsumexp(log_w[b] + comp, axis=1), axis=1)
    return out


def log_likelihood(spec: GmmSpec, data: Dataset, params: GmmParams) -> float:
    """Mixture log likelihood of the data: the B=1 call of the block kernel."""
    return float(_log_likelihood_block(spec, data, params.weights[None],
                                       params.means[None], params.sds[None])[0])


def log_prior(spec: GmmSpec, params: GmmParams) -> float:
    a = spec.prior_dirichlet_alpha
    with np.errstate(divide="ignore"):
        lp = (a - 1.0) * float(np.sum(np.log(params.weights)))
    lp += math.lgamma(spec.K * a) - spec.K * math.lgamma(a)
    s = spec.prior_mean_scale
    lp += float(-0.5 * np.sum((params.means / s) ** 2)) \
        - spec.K * spec.p * 0.5 * math.log(2.0 * math.pi * s**2)
    ls = np.log(params.sds)
    t = spec.prior_logsd_scale
    # lognormal over sds: Gaussian on log sd plus the 1/sd change of variables
    lp += float(-0.5 * np.sum((ls / t) ** 2) - np.sum(ls)) \
        - spec.K * spec.p * 0.5 * math.log(2.0 * math.pi * t**2)
    return lp


def log_joint(spec: GmmSpec, data: Dataset, params: GmmParams) -> float:
    out = log_likelihood(spec, data, params) + log_prior(spec, params)
    if not math.isfinite(out):
        raise NumericError(f"log joint is non-finite ({out}) for {params}")
    return out


def simulate(spec: GmmSpec, true_params: GmmParams, N: int, seed: int) -> Dataset:
    """Draw N observations: component index from the weights, then the
    component Gaussian."""
    if N < 1:
        raise ValueError("N must be >= 1")
    true_params.validate(spec)
    rng = np.random.default_rng(seed)
    comps = rng.choice(spec.K, size=N, p=true_params.weights)
    values = true_params.means[comps] + rng.standard_normal((N, spec.p)) * true_params.sds[comps]
    return Dataset(values, name=f"sim-K{spec.K}-p{spec.p}-N{N}", meta={"seed": seed})


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


def dic(spec: GmmSpec, data: Dataset, posterior_draws: list[GmmParams]) -> float:
    """Deviance information criterion: mean deviance plus effective parameter
    count, with D(theta) = -2 * log likelihood (no prior) and the plug-in
    point the draw-wise mean parameter (weights re-normalized)."""
    if len(posterior_draws) < 2:
        raise ValueError(f"DIC needs at least 2 posterior draws, got {len(posterior_draws)}")
    try:
        weights, means, sds = (np.stack([getattr(th, f) for th in posterior_draws])
                               for f in ("weights", "means", "sds"))
    except ValueError:
        # draws of differing shapes: the first misfit reports itself
        for th in posterior_draws:
            th.validate(spec)
        raise
    devs = -2.0 * _log_likelihood_block(spec, data, weights, means, sds)
    w_bar = weights.mean(axis=0)
    theta_bar = GmmParams(weights=w_bar / w_bar.sum(), means=means.mean(axis=0),
                          sds=sds.mean(axis=0))
    d_bar = float(devs.mean())
    p_d = d_bar - (-2.0 * log_likelihood(spec, data, theta_bar))
    return d_bar + p_d
