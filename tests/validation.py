"""Closed-form checks for the estimators, built on the one model where
everything is available analytically: a Gaussian mean with a Gaussian prior.

    theta ~ N(0, tau^2)
    y_i   ~ N(theta, sigma^2), i = 1..N   (iid)

The posterior is Gaussian, the marginal likelihood has a closed form, and
the ELBO of a Gaussian q(theta) = N(m, s^2) is an explicit function of
(m, s) with an explicit gradient.  Monte Carlo estimates can therefore be
tested against exact numbers instead of against themselves.

GaussianTarget is the d-dimensional counterpart for whole runs: a Gaussian
log density log p(z) = c - (z - mu)' Lambda (z - mu) / 2, whose mean-field
optimum under KL(q || p) is known (m = mu, s_i^2 = 1 / Lambda_ii) and whose
ELBO has a closed form at any lambda, so the gap of a run's lambda to the
optimum is exact, with no draws.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from yoasovi.driver import Problem
from yoasovi.meanfield import VariationalParams


def finite_diff(f: Callable[[np.ndarray], float], x: np.ndarray,
                step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    if step <= 0:
        raise ValueError("step must be positive")
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


@dataclass(frozen=True)
class ConjugateOracle:
    """Sufficient statistics and variances of the conjugate instance.

    Only (n, sum_y) are needed for the posterior; the ELBO and the joint
    density additionally need sum_y_sq, so all three summaries are kept.
    """

    prior_var: float
    lik_var: float
    n: int
    sum_y: float
    sum_y_sq: float

    def __post_init__(self):
        if self.prior_var <= 0 or self.lik_var <= 0:
            raise ValueError("variances must be positive")
        if self.n < 1:
            raise ValueError("need at least one observation")

    @classmethod
    def from_data(cls, y, prior_var: float, lik_var: float) -> "ConjugateOracle":
        y = np.asarray(y, dtype=float)
        return cls(prior_var=prior_var, lik_var=lik_var, n=y.size,
                   sum_y=float(np.sum(y)), sum_y_sq=float(np.sum(y * y)))

    def posterior(self) -> tuple[float, float]:
        """Exact posterior mean and variance."""
        prec = 1.0 / self.prior_var + self.n / self.lik_var
        return (self.sum_y / self.lik_var) / prec, 1.0 / prec

    def log_marginal(self) -> float:
        """log p(y) marginalised over theta.

        y is jointly Gaussian with covariance sigma^2 I + tau^2 J; the
        determinant and quadratic form reduce via the rank-one update.
        """
        s2, t2, n = self.lik_var, self.prior_var, self.n
        c = 1.0 + n * t2 / s2
        logdet = n * math.log(s2) + math.log(c)
        quad = self.sum_y_sq / s2 - (t2 / (s2 * s2)) * self.sum_y ** 2 / c
        return -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)

    def log_joint(self, theta) -> float:
        """log p(y, theta) for a scalar theta (arrays of size one accepted)."""
        th = float(np.asarray(theta).reshape(()))
        s2, t2, n = self.lik_var, self.prior_var, self.n
        ll = -0.5 * n * math.log(2.0 * math.pi * s2) \
            - (self.sum_y_sq - 2.0 * th * self.sum_y + n * th * th) / (2.0 * s2)
        lp = -0.5 * math.log(2.0 * math.pi * t2) - th * th / (2.0 * t2)
        return ll + lp


def closed_form_elbo(oracle: ConjugateOracle, m: float, s: float) -> tuple[float, np.ndarray]:
    """Exact ELBO of q = N(m, s^2) and its gradient in (m, s).

    Expectations of the quadratic terms use E[theta] = m and
    E[theta^2] = m^2 + s^2; the entropy of q contributes log s up to
    constants.  Returns (value, gradient) with gradient = (d/dm, d/ds).
    """
    if s <= 0:
        raise ValueError(f"q scale must be positive, got {s}")
    s2, t2, n = oracle.lik_var, oracle.prior_var, oracle.n
    e2 = m * m + s * s
    value = (
        -0.5 * n * math.log(2.0 * math.pi * s2)
        - (oracle.sum_y_sq - 2.0 * m * oracle.sum_y + n * e2) / (2.0 * s2)
        - 0.5 * math.log(2.0 * math.pi * t2) - e2 / (2.0 * t2)
        + 0.5 * math.log(2.0 * math.pi * s * s) + 0.5
    )
    d_m = (oracle.sum_y - n * m) / s2 - m / t2
    d_s = -n * s / s2 - s / t2 + 1.0 / s
    return value, np.array([d_m, d_s])


@dataclass(frozen=True)
class GaussianTarget:
    """log p(z) = c - (z - mu)' prec (z - mu) / 2 for a symmetric positive
    definite precision prec, with no normaliser: c is the additive constant
    a run sees, which changes nothing about the posterior."""

    mu: np.ndarray
    prec: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        prec = np.asarray(self.prec, dtype=float)
        if mu.ndim != 1 or prec.shape != (mu.size, mu.size):
            raise ValueError("mu must be 1-d and prec square of its length")
        if not np.allclose(prec, prec.T) or np.linalg.eigvalsh(prec).min() <= 0:
            raise ValueError("prec must be symmetric positive definite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "prec", prec)

    @property
    def dim(self) -> int:
        return self.mu.size

    def log_joint(self, z):
        """log p(z), row by row: z of shape (..., dim) gives the leading
        shape, a numpy scalar for one vector."""
        d = np.asarray(z, dtype=float) - self.mu
        return self.c - 0.5 * np.einsum("...i,ij,...j->...", d, self.prec, d)

    def elbo(self, lam: VariationalParams) -> float:
        """The ELBO of q = N(m, diag(s^2)) in closed form: E_q log p is
        c - ((m - mu)' prec (m - mu) + sum_i prec_ii s_i^2) / 2, and q's
        entropy is sum_i log s_i + (d / 2)(1 + log 2 pi)."""
        d = lam.m - self.mu
        quad = d @ self.prec @ d + np.diag(self.prec) @ np.exp(2.0 * lam.log_s)
        return float(self.c - 0.5 * quad + lam.log_s.sum()
                     + 0.5 * self.dim * (1.0 + math.log(2.0 * math.pi)))

    def optimum(self) -> VariationalParams:
        """The mean-field optimum: m = mu, s_i^2 = 1 / prec_ii."""
        return VariationalParams(m=self.mu.copy(), log_s=-0.5 * np.log(np.diag(self.prec)))

    def problem(self) -> Problem:
        """A Problem for run_problem: this target, no DIC, and a start at
        m ~ N(0, 1) per coordinate from the run's init stream, with every
        log s at -1."""
        return Problem(target=self.log_joint,
                       init=lambda rng: VariationalParams(m=rng.normal(0.0, 1.0, self.dim),
                                                          log_s=np.full(self.dim, -1.0)))

    @classmethod
    def equicorrelated(cls, d: int, rho: float, rng: np.random.Generator,
                       c: float = 0.0) -> "GaussianTarget":
        """A target whose covariance has correlation rho between every pair
        of coordinates, sds from lognormal(0, 0.5) and mu ~ N(0, 4)."""
        sds = rng.lognormal(0.0, 0.5, d)
        corr = np.full((d, d), rho) + (1.0 - rho) * np.eye(d)
        prec = np.linalg.inv(corr * np.outer(sds, sds))
        return cls(mu=rng.normal(0.0, 2.0, d), prec=0.5 * (prec + prec.T), c=c)
