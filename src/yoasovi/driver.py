"""The optimisation loop tying estimators, acceptance rules, and the model
together, with per-iteration tracing.

A run is a sequence of iterations t = 1..max_iters.  The plain and
quasi-Monte Carlo methods apply every gradient; the acceptance-sampling
methods estimate from a single draw, compare the ELBO estimate against the
last accepted one, and only move on acceptance.  Rejections count toward a
patience budget; exhausting it ends the run with converged=True.

All randomness flows from one seed through named SeedSequence children
(init, draws, decisions, dic), so a (config, data, seed) triple fixes the
entire trajectory.  Wall-clock timing is injectable for the same reason:
the clock is the one quantity a seed cannot pin down.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gmm
from .acceptance import PatienceCounter, TemperatureSchedule, decide, temperature, tick
from .errors import NumericError
from .estimators import estimate, update_step
from .gmm import Dataset, GmmParams, GmmSpec
# sample is not called here, but perfbench/tracer.py wraps driver.sample.
from .meanfield import VariationalParams, constrain, draw_z, initial_params, sample  # noqa: F401
from .sequences import clamp, make_source

METHODS = ("mcvi", "qmcvi", "yoasovi-naive", "yoasovi-metropolis")

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
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.method.startswith("yoasovi") and self.samples != 1:
            raise ValueError("acceptance sampling estimates from exactly one draw; "
                             "samples must be 1")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError("learning_rate must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")

    @property
    def rule_kind(self) -> str:
        return self.method.split("-", 1)[1] if "-" in self.method else ""

    @property
    def source_kind(self) -> str:
        return "sobol-scrambled" if self.method == "qmcvi" else "pseudo-random"


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
    config: RunConfig
    final_lambda: VariationalParams | None = None


@dataclass(frozen=True)
class Problem:
    """What the loop needs from a model: an unconstrained-space log joint
    (Jacobian term folded in) and an initialiser.  spec and data are kept
    when present so the run can report DIC afterwards."""

    dim: int
    target: Callable[[np.ndarray], float]
    init: Callable[[np.random.Generator], VariationalParams]
    spec: GmmSpec | None = None
    data: Dataset | None = None


def build_gmm_problem(spec: GmmSpec, data: Dataset,
                      kmeans_style_init: bool = False) -> Problem:
    def target(z: np.ndarray) -> float:
        params, ldj = constrain(z, spec)
        return gmm.log_joint(spec, data, params) + ldj

    def init(rng: np.random.Generator) -> VariationalParams:
        return initial_params(spec, data, rng, kmeans_style=kmeans_style_init)

    return Problem(dim=spec.n_unconstrained, target=target, init=init,
                   spec=spec, data=data)


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

    lam = problem.init(np.random.default_rng(init_ss))
    src = make_source(config.source_kind, problem.dim,
                      seed=int(src_ss.generate_state(1, dtype=np.uint64)[0]))
    dec_rng = np.random.default_rng(dec_ss)

    evals = 0

    def counted(z):
        nonlocal evals
        evals += 1
        return problem.target(z)

    is_acceptance = config.method.startswith("yoasovi")
    counter = PatienceCounter(nu=0, patience=config.patience)
    L_prev = -math.inf
    records: list[IterationRecord] = []
    converged = False
    error = None

    t0 = clock()
    for t in range(1, config.max_iters + 1):
        try:
            est = estimate(lam, counted, src, config.samples)
            if is_acceptance:
                M = temperature(config.schedule, t)
                accepted = decide(config.rule_kind, M, est.elbo, L_prev,
                                  u=float(dec_rng.random()))
                if accepted:
                    lam = update_step(lam, est.grad, config.learning_rate)
                    L_prev = est.elbo
                counter, stop = tick(counter, accepted)
            else:
                M, accepted, stop = None, True, False
                lam = update_step(lam, est.grad, config.learning_rate)
        except NumericError as exc:
            error = f"aborted at iteration {t}: {exc}"
            break
        records.append(IterationRecord(t=t, elapsed_s=clock() - t0,
                                       elbo=est.elbo, accepted=accepted, M=M))
        if stop:
            converged = True
            break
    wall = clock() - t0

    fe = None
    if any(r.accepted for r in records):
        fe = final_elbo(records)

    dic_value = None
    if problem.spec is not None and error is None and records:
        try:
            draws = posterior_draw_set(lam, DIC_DRAWS, problem.spec,
                                       rng=np.random.default_rng(dic_ss))
            dic_value = gmm.dic(problem.spec, problem.data, draws)
        except NumericError:
            dic_value = None

    summary = RunSummary(iterations=len(records), wall_seconds=wall,
                         final_elbo=fe, dic=dic_value, converged=converged,
                         density_evals=evals, error=error)
    return RunTrace(records=tuple(records), summary=summary, config=config,
                    final_lambda=lam)


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
                       rng: np.random.Generator) -> list[GmmParams]:
    """Fresh constrained draws from q(.|lam), for posterior summaries."""
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    u = clamp(rng.random((n_draws, lam.dim)))
    params, _ = constrain(draw_z(lam, u), spec)
    return list(map(GmmParams, params.weights, params.means, params.sds))
