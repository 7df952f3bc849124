"""Mean-field Gaussian variational family over unconstrained parameters.

q(z | lambda) is a product of independent Gaussians with parameters
lambda = (m, log_s).  Model parameters with constraints (simplex weights,
positive sds) are reached through gmm.constrain, so the ELBO integrand is

    log p(y, constrain(z)) + log|J(z)| - log q(z | lambda),

and the run's target, gmm.unconstrained_target(spec, data), scores its
first two terms in z's own coordinates.  The family knows nothing of z's
layout: a mixture run's start point comes from gmm.initial_z.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

# perfbench/tracer.py wraps meanfield.constrain until ROADMAP item 4
from .gmm import constrain  # noqa: F401


# the log normaliser of a standard normal density, -log(2 pi) / 2
_LOG_NORM = -0.5 * np.log(2.0 * np.pi)
# the factors on log_s of the three exps VariationalParams takes
_EXP_SCALES = np.array([[1.0], [2.0], [-2.0]])


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

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        log_s = np.asarray(self.log_s, dtype=float)
        if m.shape != log_s.shape or m.ndim != 1:
            raise ValueError("m and log_s must be 1-d arrays of equal length")
        # a nan or inf entry makes the sum of squares non-finite, and so can
        # finite entries whose squares overflow: only then is each entry
        # tested
        if not (math.isfinite(m.dot(m) + log_s.dot(log_s))
                or np.isfinite(m).all() and np.isfinite(log_s).all()):
            raise ValueError("variational parameters must be finite")
        set_ = object.__setattr__
        set_(self, "m", m)
        set_(self, "log_s", log_s)
        # exp(log_s), exp(2 log_s) and exp(-2 log_s) in one pass
        s, var, inv_var = np.exp(_EXP_SCALES * log_s)
        set_(self, "s", s)
        set_(self, "log_norm", _LOG_NORM - log_s)
        set_(self, "two_var", 2.0 * var)
        set_(self, "inv_var", inv_var)

    @property
    def dim(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class ParamDraw:
    z: np.ndarray


@np.errstate(over="ignore", invalid="ignore")
def sample(lam: VariationalParams, u: np.ndarray) -> ParamDraw:
    """Draws from q, row by row: points u of shape (..., dim) give z of the
    same shape, z = m + exp(log_s) * ndtri(u).  An overflow gives inf, and
    an s of inf at a point where ndtri is 0 gives nan, without a warning;
    estimate and constrain reject non-finite draws."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (lam.dim,):
        raise ValueError(f"expected points of dimension {lam.dim}, got {u.shape}")
    return ParamDraw(z=lam.m + lam.s * ndtri(u))


@np.errstate(all="ignore")
def log_q(lam: VariationalParams, z: np.ndarray):
    """log q(z | lam), row by row: z of shape (..., dim) gives an array of
    the leading shape, and a float for one draw.  A far draw gives inf or
    nan without a warning, and a non-finite draw always gives a non-finite
    value, which is where estimate looks for one."""
    z = np.asarray(z, dtype=float)
    return (lam.log_norm - (z - lam.m) ** 2 / lam.two_var).sum(axis=-1)


@np.errstate(all="ignore")
def score(lam: VariationalParams, z: np.ndarray) -> np.ndarray:
    """Gradient of log_q with respect to (m, log_s), concatenated, row by
    row: z of shape (..., dim) gives shape (..., 2 * dim).  A far draw gives
    inf or nan without a warning; update_step rejects a non-finite step."""
    d = np.asarray(z, dtype=float) - lam.m
    return np.concatenate([d * lam.inv_var, d ** 2 * lam.inv_var - 1.0], axis=-1)
