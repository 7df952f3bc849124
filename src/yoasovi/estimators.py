"""Score-function gradient and ELBO estimates, computed jointly from the
same draws, plus the constant-rate parameter update.

A run's draws come from one DrawStream over its point source.  The stream
serves points in stream order and keeps the z and log_q rows it has
computed ahead for the last lambda it served.  It can tell only one thing
about the run: whether lambda is the same object as on its last call,
which in run_problem it is exactly after a rejected step (so a lambda's
arrays must not be changed in place between calls).  It refills by one
rule: when lambda is a new object, or the stream holds fewer than S rows
for it, it computes rows from the first unserved point in one row-wise
sample and log_q pass, dropping any rows it held.  For a new lambda that
is the S rows it serves, so the Monte Carlo methods, which move every
step, do the same work as a per-call pass; for the same lambda it is
max(S, LOOKAHEAD) rows, the rest served on the calls after, so a run of
rejected single-draw steps costs little beyond its target calls.
Row-wise sample and log_q give each row the bits of its own call, a
recomputed row those of its first computation, so every served draw and
log_q is what a per-call pass over the same stream would give.
"""

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


# Rows a DrawStream computes ahead for an unchanged lambda.  At the shipped
# sim-p2k2 settings the single-draw methods reject 71-79% of their steps
# and compute 2.1-2.6 rows per iteration with 16; 64 timed the same, 4 a
# little slower (scripts/iteration_cost.py).
LOOKAHEAD = 16


class DrawStream:
    """The draws of one run: points taken from src and not yet served, in
    stream order, and the z and log_q rows computed for the first of them
    under the lambda last served.  Like its source, single-owner mutable
    state: one stream per run."""

    def __init__(self, src: SequenceSource):
        self._src = src
        self._lam = None
        self._pts = np.empty((0, 0))
        self._z = None
        self._lq = []

    def take(self, lam: VariationalParams, S: int) -> tuple[np.ndarray, list]:
        """The next S draws from q(.|lam) and their log_q, as (S, dim) z
        rows and a list of S floats.  Non-finite rows are served as they
        are; the caller checks each row as it uses it."""
        if lam is not self._lam or len(self._lq) < S:
            n = max(S, LOOKAHEAD) if lam is self._lam else S
            self._lam, short = lam, n - len(self._pts)
            if short > 0:
                new = self._src.next_point(short)
                self._pts = np.concatenate([self._pts, new]) if len(self._pts) else new
            self._z = sample(lam, self._pts[:n]).z
            self._lq = log_q(lam, self._z).tolist()
        z, lq = self._z[:S], self._lq[:S]
        self._pts, self._z, self._lq = self._pts[S:], self._z[S:], self._lq[S:]
        return z, lq


def estimate(lam: VariationalParams, log_joint_z: LogJointFn,
             draws: DrawStream, S: int) -> GradientSample:
    """Average S single-draw score-function estimates.

    log_joint_z must return log p(y, constrain(z)) plus the transform's log
    Jacobian term, so that w = log_joint_z(z) - log_q(z) is the ELBO
    integrand on the unconstrained space.  The S draws and their log_q
    come from draws, the run's stream; each draw then costs exactly one
    log_joint_z evaluation, made in draw order.  S=1 is the single-draw
    acceptance-sampling path.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    z, lq = draws.take(lam, S)
    ws = []
    for s in range(S):
        # a non-finite draw has a non-finite log_q, so only such a draw's z
        # is looked at
        if not math.isfinite(lq[s]) and not np.isfinite(z[s]).all():
            raise NumericError(f"draw {s + 1} of {S} overflowed the sampling transform")
        w = float(log_joint_z(z[s])) - lq[s]
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
