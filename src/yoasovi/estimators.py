"""Score-function gradient and ELBO estimates, computed jointly from the
same draws, plus the constant-rate parameter update."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError
from .meanfield import VariationalParams, log_q, sample, score
from .sequences import SequenceSource

LogJointFn = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class GradientSample:
    """One estimate pair: grad targets (m, log_s) stacked to length 2D, and
    elbo is the matching ELBO estimate from the very same draws."""

    grad: np.ndarray
    elbo: float


def estimate(lam: VariationalParams, log_joint_z: LogJointFn,
             src: SequenceSource, S: int) -> GradientSample:
    """Average S single-draw score-function estimates.

    log_joint_z must return log p(y, constrain(z)) plus the transform's log
    Jacobian term, so that w = log_joint_z(z) - log_q(z) is the ELBO
    integrand on the unconstrained space.  The S points, draws, log_q and
    scores come from one row-wise pass; each draw then costs exactly one
    log_joint_z evaluation, made in draw order.  S=1 is the single-draw
    acceptance-sampling path.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    z = sample(lam, src.next_point(S)).z
    finite = np.isfinite(z).all(axis=-1)
    # log_q and score run ahead of the target calls, so they stay quiet on
    # draws a raising target call would never reach; a non-finite log_q or
    # score still ends the estimate or the update with a NumericError.
    with np.errstate(all="ignore"):
        lq = log_q(lam, z)
        sc = score(lam, z)
    grad = np.zeros(2 * lam.dim)
    elbo = 0.0
    for s in range(S):
        if not finite[s]:
            raise NumericError(f"draw {s + 1} of {S} overflowed the sampling transform")
        w = float(log_joint_z(z[s])) - float(lq[s])
        if not math.isfinite(w):
            raise NumericError(f"non-finite integrand ({w}) at draw {s + 1} of {S}, z={z[s]}")
        grad += sc[s] * w
        elbo += w
    return GradientSample(grad=grad / S, elbo=elbo / S)


def update_step(lam: VariationalParams, grad: np.ndarray, rho: float) -> VariationalParams:
    """Stochastic ascent step lam + rho * grad with a constant rate."""
    if rho <= 0:
        raise ValueError("learning rate must be strictly positive")
    grad = np.asarray(grad, dtype=float)
    if grad.shape != (2 * lam.dim,):
        raise ValueError(f"gradient must have length {2 * lam.dim}, got {grad.shape}")
    with np.errstate(over="ignore"):
        m = lam.m + rho * grad[: lam.dim]
        log_s = lam.log_s + rho * grad[lam.dim :]
    # m and log_s have lam's shape: finiteness is all VariationalParams can fail
    try:
        return VariationalParams(m=m, log_s=log_s)
    except ValueError:
        raise NumericError("parameter update produced non-finite values") from None
