"""Mean-field Gaussian variational family over unconstrained parameters,
and initial_params, a GMM run's starting lambda.

q(z | lambda) is a product of independent Gaussians with parameters
lambda = (m, log_s).  Model parameters with constraints (simplex weights,
positive sds) are reached through gmm.constrain, so the ELBO integrand is

    log p(y, constrain(z)) + log|J(z)| - log q(z | lambda),

and gmm.unconstrained_log_joint scores its first two terms in z's own
coordinates.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .gmm import GmmSpec
# perfbench/tracer.py wraps meanfield.constrain until ROADMAP item 4
from .gmm import constrain  # noqa: F401


# the log normaliser of a standard normal density, -log(2 pi) / 2
_LOG_NORM = -0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class VariationalParams:
    """lambda = (m, log_s), plus the terms of log_s that sample, log_q and
    score read, computed once when lambda is built: s = exp(log_s),
    log_norm = -log(2 pi) / 2 - log_s, two_var = 2 exp(2 log_s) and
    inv_var = exp(-2 log_s).  A log_s large enough to overflow them gives
    inf or 0 without a warning."""

    m: np.ndarray
    log_s: np.ndarray
    s: np.ndarray = field(init=False, repr=False, compare=False)
    log_norm: np.ndarray = field(init=False, repr=False, compare=False)
    two_var: np.ndarray = field(init=False, repr=False, compare=False)
    inv_var: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        log_s = np.asarray(self.log_s, dtype=float)
        if m.shape != log_s.shape or m.ndim != 1:
            raise ValueError("m and log_s must be 1-d arrays of equal length")
        if not (np.isfinite(m).all() and np.isfinite(log_s).all()):
            raise ValueError("variational parameters must be finite")
        set_ = object.__setattr__
        set_(self, "m", m)
        set_(self, "log_s", log_s)
        with np.errstate(over="ignore"):
            set_(self, "s", np.exp(log_s))
            set_(self, "log_norm", _LOG_NORM - log_s)
            set_(self, "two_var", 2.0 * np.exp(2.0 * log_s))
            set_(self, "inv_var", np.exp(-2.0 * log_s))

    @property
    def dim(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class ParamDraw:
    z: np.ndarray


def sample(lam: VariationalParams, u: np.ndarray) -> ParamDraw:
    """Draws from q, row by row: points u of shape (..., dim) give z of the
    same shape, z = m + exp(log_s) * ndtri(u).  An overflow gives inf without
    a warning; estimate and constrain reject non-finite draws."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (lam.dim,):
        raise ValueError(f"expected points of dimension {lam.dim}, got {u.shape}")
    with np.errstate(over="ignore"):
        return ParamDraw(z=lam.m + lam.s * ndtri(u))


def log_q(lam: VariationalParams, z: np.ndarray):
    """log q(z | lam), row by row: z of shape (..., dim) gives an array of
    the leading shape, and a float for one draw.  A far draw gives inf or
    nan without a warning, and a non-finite draw always gives a non-finite
    value, which is where estimate looks for one."""
    z = np.asarray(z, dtype=float)
    with np.errstate(all="ignore"):
        return (lam.log_norm - (z - lam.m) ** 2 / lam.two_var).sum(axis=-1)


def score(lam: VariationalParams, z: np.ndarray) -> np.ndarray:
    """Gradient of log_q with respect to (m, log_s), concatenated, row by
    row: z of shape (..., dim) gives shape (..., 2 * dim).  A far draw gives
    inf or nan without a warning; update_step rejects a non-finite step."""
    d = np.asarray(z, dtype=float) - lam.m
    with np.errstate(all="ignore"):
        return np.concatenate([d * lam.inv_var, d ** 2 * lam.inv_var - 1.0], axis=-1)


def initial_params(spec: GmmSpec, data, rng: np.random.Generator,
                   kmeans_style: bool = False) -> VariationalParams:
    """Starting lambda for a GMM run.

    Weight logits and log-sd coordinates start near zero; the variational
    means of the model means start at randomly chosen data points.  With
    kmeans_style the points are picked by squared-distance weighting
    (k-means++ seeding), which guards against all K starting points landing
    in one cluster.  log_s starts at -1 everywhere.
    """
    K, p = spec.K, spec.p
    m = np.empty(spec.n_unconstrained)
    m[: K - 1] = rng.normal(0.0, 0.1, K - 1)
    y = data.values
    if kmeans_style:
        idx = [int(rng.integers(y.shape[0]))]
        for _ in range(K - 1):
            d2 = np.min(((y[:, None, :] - y[np.array(idx)][None]) ** 2).sum(axis=2), axis=1)
            total = d2.sum()
            # every point coincides with a pick: any next pick is as good
            idx.append(int(rng.choice(y.shape[0], p=d2 / total) if total > 0
                           else rng.integers(y.shape[0])))
        idx = np.array(idx)
    else:
        idx = rng.choice(y.shape[0], size=K, replace=False)
    m[K - 1 : K - 1 + K * p] = y[idx].ravel()
    m[K - 1 + K * p :] = rng.normal(0.0, 0.1, K * p)
    return VariationalParams(m=m, log_s=np.full(spec.n_unconstrained, -1.0))
