"""Mean-field Gaussian variational family over unconstrained parameters.

q(z | lambda) is a product of independent Gaussians with parameters
lambda = (m, log_s).  Model parameters with constraints (simplex weights,
positive sds) are reached through a deterministic transform with a tracked
log Jacobian determinant, so the ELBO integrand is

    log p(y, constrain(z)) + log|J(z)| - log q(z | lambda).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import NumericError
from .gmm import GmmParams, GmmSpec


@dataclass(frozen=True)
class VariationalParams:
    m: np.ndarray
    log_s: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        log_s = np.asarray(self.log_s, dtype=float)
        if m.shape != log_s.shape or m.ndim != 1:
            raise ValueError("m and log_s must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(log_s))):
            raise ValueError("variational parameters must be finite")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "log_s", log_s)

    @property
    def dim(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class ParamDraw:
    z: np.ndarray


def constrain(z: np.ndarray, spec: GmmSpec) -> tuple[GmmParams, np.ndarray]:
    """Unconstrained vectors to GmmParams plus the log |Jacobian| of the map,
    row by row: z of shape (..., n_unconstrained) gives params with the same
    leading axes and an ldj of the leading shape.

    Weights come from a softmax over the K-1 free logits with the last
    category pinned at logit 0; sds from exp.  The weight-block Jacobian
    determinant is the product of all K weights, the sd block contributes
    each log sd.  A non-finite z or an sd that underflows to 0 raises
    NumericError.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (spec.n_unconstrained,):
        raise ValueError(f"expected z of length {spec.n_unconstrained}, got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise NumericError("non-finite unconstrained vector")
    K, p = spec.K, spec.p
    lead = z.shape[:-1]
    a = np.concatenate([z[..., : K - 1], np.zeros(lead + (1,))], axis=-1)
    e = np.exp(a - a.max(axis=-1, keepdims=True))  # max-shifted softmax
    weights = e / e.sum(axis=-1, keepdims=True)
    log_sds = z[..., K - 1 + K * p :]
    # a weight that underflows to 0 gives ldj = -inf, an sd that overflows
    # gives inf; the log joint rejects both as non-finite
    with np.errstate(divide="ignore", over="ignore"):
        ldj = np.sum(np.log(weights), axis=-1) + np.sum(log_sds, axis=-1)
        sds = np.exp(log_sds).reshape(lead + (K, p))
    if (sds == 0.0).any():
        raise NumericError("an sd underflowed to 0")
    means = z[..., K - 1 : K - 1 + K * p].reshape(lead + (K, p)).copy()
    return GmmParams(weights=weights, means=means, sds=sds), ldj


def unconstrain(params: GmmParams, spec: GmmSpec) -> np.ndarray:
    """The inverse of constrain, row by row over the params' leading axes."""
    params.validate(spec)
    w, flat = params.weights, params.weights.shape[:-1] + (-1,)
    logits = np.log(w[..., :-1]) - np.log(w[..., -1:])
    return np.concatenate([logits, params.means.reshape(flat),
                           np.log(params.sds).reshape(flat)], axis=-1)


def sample(lam: VariationalParams, u: np.ndarray) -> ParamDraw:
    """One draw from q: z = m + exp(log_s) * ndtri(u)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (lam.dim,):
        raise ValueError(f"expected a point of dimension {lam.dim}, got {u.shape}")
    return ParamDraw(z=draw_z(lam, u))


def draw_z(lam: VariationalParams, u: np.ndarray) -> np.ndarray:
    """The reparameterisation z = m + exp(log_s) * ndtri(u), row by row for
    points u of shape (..., dim).  An overflow gives inf without a warning;
    estimate and constrain reject non-finite draws."""
    with np.errstate(over="ignore"):
        return lam.m + np.exp(lam.log_s) * ndtri(u)


def log_q(lam: VariationalParams, z: np.ndarray) -> float:
    z = np.asarray(z, dtype=float)
    return float(
        np.sum(
            -0.5 * np.log(2.0 * np.pi)
            - lam.log_s
            - (z - lam.m) ** 2 / (2.0 * np.exp(2.0 * lam.log_s))
        )
    )


def score(lam: VariationalParams, z: np.ndarray) -> np.ndarray:
    """Gradient of log_q with respect to (m, log_s), concatenated: length 2D."""
    z = np.asarray(z, dtype=float)
    inv_var = np.exp(-2.0 * lam.log_s)
    d_m = (z - lam.m) * inv_var
    d_log_s = (z - lam.m) ** 2 * inv_var - 1.0
    return np.concatenate([d_m, d_log_s])


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
            idx.append(int(rng.choice(y.shape[0], p=d2 / d2.sum())))
        idx = np.array(idx)
    else:
        idx = rng.choice(y.shape[0], size=K, replace=False)
    m[K - 1 : K - 1 + K * p] = y[idx].ravel()
    m[K - 1 + K * p :] = rng.normal(0.0, 0.1, K * p)
    return VariationalParams(m=m, log_s=np.full(spec.n_unconstrained, -1.0))
