"""Score-function gradient and ELBO estimates, computed jointly from the
same draws, plus the constant-rate parameter update.

A run's draws come from one DrawStream over its point source.  The stream
serves points in stream order and keeps the z and log_q rows it has
computed ahead for the last lambda it served, serving them by an index
into what it holds.  It can tell only one thing about the run: whether
lambda is the same object as on its last call, which in run_problem it is
exactly after a rejected step (so a lambda's arrays must not be changed in
place between calls).  It refills by one rule: when lambda is a new
object, or the stream holds fewer than S rows for it, it computes max(S,
LOOKAHEAD) rows from the first unserved point in one row-wise sample and
log_q pass, dropping any rows it held.  A single-draw run so refills once
per lambda, when the step that moved lambda is followed by its first
draw, and again only when a run of rejected steps outlasts the rows
computed ahead; the Monte Carlo methods, which move every step, compute
their S rows per step, or LOOKAHEAD when S is smaller.  The points taken
ahead stay within LOOKAHEAD of those served.  Row-wise sample and log_q
give each row the bits of its own call, a recomputed row those of its
first computation, so every served draw and log_q is what a per-call pass
over the same stream would give.
"""

import math
from typing import Callable

import numpy as np

from .errors import NumericError
from .meanfield import VariationalParams, log_q, sample, score
from .sequences import SequenceSource

LogJointFn = Callable[[np.ndarray], float]


class GradientSample:
    """One estimate pair from the same S draws z of q(.|lam): elbo is the
    ELBO estimate, the mean of the integrands w, and grad the matching
    gradient for (m, log_s) stacked to length 2D.  The integrands are kept
    as the list estimate built, w reads them as an array, and grad is
    computed when first read, so a rejected single-draw step never scores
    its draw."""

    __slots__ = ("elbo", "lam", "z", "_ws", "_grad")

    def __init__(self, elbo: float, lam: VariationalParams, z: np.ndarray, ws: list):
        self.elbo, self.lam, self.z, self._ws, self._grad = elbo, lam, z, ws, None

    @property
    def w(self) -> np.ndarray:
        return np.array(self._ws)

    @property
    @np.errstate(all="ignore")
    def grad(self) -> np.ndarray:
        # an overflowing weighted sum stays quiet; a non-finite gradient
        # still ends the update with a NumericError.  The sum over axis 0
        # adds the draws' rows in draw order.
        if self._grad is None:
            sc = score(self.lam, self.z)
            self._grad = np.add.reduce(sc * self.w[:, None], 0) / len(self._ws)
        return self._grad


# Rows a DrawStream computes whenever it refills: one refill serves a new
# lambda and, at S=1, the next 15 draws of a run of rejected steps.  At the
# shipped sim-p2k2 settings the single-draw methods reject 71-79% of their
# steps, and a run of rejections outlasts the rows so rarely that a run
# makes about 1.16 sample passes per accepted step (the refill line of
# scripts/iteration_cost.py); 8 timed the same, 4 and 32 slower.
LOOKAHEAD = 16


class DrawStream:
    """The draws of one run: points taken from src and not yet served, in
    stream order, and the z and log_q rows computed for them under the
    lambda last served, read from index _i on.  Like its source,
    single-owner mutable state: one stream per run."""

    def __init__(self, src: SequenceSource):
        self._src = src
        self._lam = None
        self._pts = np.empty((0, 0))
        self._z = None
        self._lq = []
        self._i = 0

    def take(self, lam: VariationalParams, S: int) -> tuple[np.ndarray, list]:
        """The next S draws from q(.|lam) and their log_q, as (S, dim) z
        rows and a list of S floats.  Non-finite rows are served as they
        are; the caller checks each row as it uses it."""
        i = self._i
        if lam is not self._lam or len(self._lq) - i < S:
            n = max(S, LOOKAHEAD)
            pts = self._pts[i:]
            if len(pts) < n:
                new = self._src.next_point(n - len(pts))
                pts = np.concatenate([pts, new]) if len(pts) else new
            self._lam, self._pts, i = lam, pts, 0
            self._z = sample(lam, pts[:n]).z
            self._lq = log_q(lam, self._z).tolist()
        self._i = i + S
        return self._z[i : i + S], self._lq[i : i + S]


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
    return GradientSample(sum(ws) / S, lam, z, ws)


@np.errstate(over="ignore")
def update_step(lam: VariationalParams, grad: np.ndarray, rho: float) -> VariationalParams:
    """Stochastic ascent step lam + rho * grad with a constant rate."""
    if rho <= 0:
        raise ValueError("learning rate must be strictly positive")
    grad, dim = np.asarray(grad, dtype=float), lam.dim
    if grad.shape != (2 * dim,):
        raise ValueError(f"gradient must have length {2 * dim}, got {grad.shape}")
    step = rho * grad
    m = lam.m + step[:dim]
    log_s = lam.log_s + step[dim:]
    # m and log_s have lam's shape: finiteness is all VariationalParams can fail
    try:
        return VariationalParams(m=m, log_s=log_s)
    except ValueError:
        raise NumericError("parameter update produced non-finite values") from None
