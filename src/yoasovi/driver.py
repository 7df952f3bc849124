"""The optimisation loop tying estimators, acceptance rules, and the model
together, with per-iteration tracing.

A run is a sequence of iterations t = 1..max_iters.  The plain and
quasi-Monte Carlo methods apply every gradient; the acceptance-sampling
methods estimate from a single draw, compare the ELBO estimate against the
last accepted one, and only move on acceptance.  nu counts consecutive
rejections; once it reaches patience the run ends with converged=True.
The Monte Carlo methods always accept, so they run to max_iters.

All randomness flows from one seed through named SeedSequence children
(init, draws, decisions, dic), so a (config, data, seed) triple fixes the
entire trajectory.  Wall-clock timing is injectable for the same reason:
the clock is the one quantity a seed cannot pin down.
"""

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import gmm
from .acceptance import TemperatureSchedule, decide, temperature
from .errors import NumericError, require_number, require_positive
from .estimators import estimate, update_step
from .gmm import Dataset, GmmParams, GmmSpec
from .meanfield import VariationalParams, constrain, initial_params, sample
from .sequences import clamp, make_source


class Method(NamedTuple):
    source: str        # make_source kind of the point stream
    rule: str | None   # acceptance rule of a single-draw method; None applies every step


METHODS = {"mcvi": Method("pseudo-random", None),
           "qmcvi": Method("sobol-scrambled", None),
           "yoasovi-naive": Method("pseudo-random", "naive"),
           "yoasovi-metropolis": Method("pseudo-random", "metropolis")}

ENDING_ELBO_WINDOW = 10
DIC_DRAWS = 1000


@dataclass(frozen=True)
class RunConfig:
    method: str
    samples: int = 1
    learning_rate: float = 0.001
    max_iters: int = 500
    patience: int = 10
    schedule: TemperatureSchedule = TemperatureSchedule()
    seed: int = 0
    model: GmmSpec | None = None
    kmeans_style_init: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {tuple(METHODS)}")
        for name in ("samples", "max_iters", "patience"):
            require_number(name, getattr(self, name), integral=True, minimum=1)
        require_number("seed", self.seed, integral=True, minimum=0)
        require_positive("learning_rate", self.learning_rate)
        if METHODS[self.method].rule and self.samples != 1:
            raise ValueError("acceptance sampling estimates from exactly one draw; "
                             "samples must be 1")


@dataclass(frozen=True, slots=True)
class IterationRecord:
    t: int
    elapsed_s: float
    elbo: float
    accepted: bool
    M: float | None = None


@dataclass(frozen=True)
class RunSummary:
    iterations: int
    wall_seconds: float
    final_elbo: float | None
    dic: float | None
    converged: bool
    density_evals: int
    error: str | None = None


@dataclass(frozen=True)
class RunTrace:
    records: tuple[IterationRecord, ...]
    summary: RunSummary
    final_lambda: VariationalParams | None = None


@dataclass(frozen=True)
class Problem:
    """What the loop needs from a model: an unconstrained-space log joint
    (Jacobian term folded in) and an initialiser.  dic, when present,
    scores the final lambda on the run's own dic stream."""

    target: Callable[[np.ndarray], float]
    init: Callable[[np.random.Generator], VariationalParams]
    dic: Callable[[VariationalParams, np.random.Generator], float] | None = None


def build_gmm_problem(spec: GmmSpec, data: Dataset,
                      kmeans_style_init: bool = False) -> Problem:
    if data.p != spec.p:
        raise ValueError(f"data dimension {data.p} does not match spec p={spec.p}")

    def dic(lam: VariationalParams, rng: np.random.Generator) -> float:
        return gmm.dic(spec, data, posterior_draw_set(lam, DIC_DRAWS, spec, rng))

    return Problem(target=partial(gmm.unconstrained_log_joint, spec, data),
                   init=partial(initial_params, spec, data, kmeans_style=kmeans_style_init),
                   dic=dic)


def run(config: RunConfig, data: Dataset, clock: Callable[[], float] | None = None) -> RunTrace:
    """Optimise the configured GMM against data and return the full trace."""
    if config.model is None:
        raise ValueError("config.model must carry a GmmSpec to run against data")
    problem = build_gmm_problem(config.model, data, config.kmeans_style_init)
    return run_problem(config, problem, clock=clock)


def run_problem(config: RunConfig, problem: Problem,
                clock: Callable[[], float] | None = None) -> RunTrace:
    clock = clock or time.perf_counter
    init_ss, src_ss, dec_ss, dic_ss = np.random.SeedSequence(config.seed).spawn(4)

    method = METHODS[config.method]
    lam = problem.init(np.random.default_rng(init_ss))
    src = make_source(method.source, lam.dim,
                      seed=int(src_ss.generate_state(1, dtype=np.uint64)[0]))
    dec_rng = np.random.default_rng(dec_ss)

    evals = 0

    def counted(z):
        nonlocal evals
        evals += 1
        return problem.target(z)

    nu = 0
    L_prev = -math.inf
    records: list[IterationRecord] = []
    converged = False
    error = None

    t0 = clock()
    for t in range(1, config.max_iters + 1):
        try:
            est = estimate(lam, counted, src, config.samples)
            M = temperature(config.schedule, t) if method.rule else None
            accepted = M is None or decide(method.rule, M, est.elbo, L_prev,
                                           u=float(dec_rng.random()))
            if accepted:
                lam = update_step(lam, est.grad, config.learning_rate)
                L_prev = est.elbo
        except NumericError as exc:
            error = f"aborted at iteration {t}: {exc}"
            break
        records.append(IterationRecord(t=t, elapsed_s=clock() - t0,
                                       elbo=est.elbo, accepted=accepted, M=M))
        nu = 0 if accepted else nu + 1
        if nu >= config.patience:
            converged = True
            break
    wall = clock() - t0

    fe = None
    if any(r.accepted for r in records):
        fe = final_elbo(records)

    dic_value = None
    if problem.dic is not None and error is None:
        try:
            dic_value = problem.dic(lam, np.random.default_rng(dic_ss))
        except NumericError:
            pass

    summary = RunSummary(iterations=len(records), wall_seconds=wall,
                         final_elbo=fe, dic=dic_value, converged=converged,
                         density_evals=evals, error=error)
    return RunTrace(records=tuple(records), summary=summary, final_lambda=lam)


def final_elbo(records: list[IterationRecord]) -> float:
    """Ending ELBO: mean of the last accepted estimates, up to ten of them.

    Rejected iterations left lambda untouched, so only accepted records
    describe the state the run ended in.
    """
    accepted = [r.elbo for r in records if r.accepted]
    if not accepted:
        raise ValueError("trace holds no accepted iterations; ending ELBO undefined")
    tail = accepted[-min(ENDING_ELBO_WINDOW, len(accepted)):]
    return float(np.mean(tail))


def posterior_draw_set(lam: VariationalParams, n_draws: int, spec: GmmSpec,
                       rng: np.random.Generator) -> GmmParams:
    """Fresh constrained draws from q(.|lam), stacked on one leading axis."""
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    u = clamp(rng.random((n_draws, lam.dim)))
    return constrain(sample(lam, u).z, spec)
