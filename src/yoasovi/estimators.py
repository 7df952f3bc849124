"""Score-function gradient and ELBO estimates, computed jointly from the
same draws, plus the constant-rate parameter update."""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NumericError
from .meanfield import VariationalParams, log_q, sample, score
from .sequences import SequenceSource

LogJointFn = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class GradientSample:
    """One estimate pair from the same S draws z of q(.|lam): elbo is the
    ELBO estimate, the mean of the integrands w, and grad the matching
    gradient for (m, log_s) stacked to length 2D.  grad is computed when
    first read, so a rejected single-draw step never scores its draw."""

    elbo: float
    lam: VariationalParams = field(repr=False, compare=False)
    z: np.ndarray = field(repr=False, compare=False)
    w: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def grad(self) -> np.ndarray:
        sc = score(self.lam, self.z)
        # an overflowing weighted sum stays quiet; a non-finite gradient
        # still ends the update with a NumericError.  The sum over axis 0
        # adds the draws' rows in draw order.
        with np.errstate(all="ignore"):
            return (sc * self.w[:, None]).sum(axis=0) / len(self.w)


def estimate(lam: VariationalParams, log_joint_z: LogJointFn,
             src: SequenceSource, S: int) -> GradientSample:
    """Average S single-draw score-function estimates.

    log_joint_z must return log p(y, constrain(z)) plus the transform's log
    Jacobian term, so that w = log_joint_z(z) - log_q(z) is the ELBO
    integrand on the unconstrained space.  The S points, draws and log_q
    come from one row-wise pass; each draw then costs exactly one
    log_joint_z evaluation, made in draw order.  S=1 is the single-draw
    acceptance-sampling path.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    z = sample(lam, src.next_point(S)).z
    finite = np.isfinite(z).all(axis=-1)
    lq = log_q(lam, z)
    ws = []
    for s in range(S):
        if not finite[s]:
            raise NumericError(f"draw {s + 1} of {S} overflowed the sampling transform")
        w = float(log_joint_z(z[s])) - float(lq[s])
        if not math.isfinite(w):
            raise NumericError(f"non-finite integrand ({w}) at draw {s + 1} of {S}, z={z[s]}")
        ws.append(w)
    return GradientSample(elbo=sum(ws) / S, lam=lam, z=z, w=np.array(ws))


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
