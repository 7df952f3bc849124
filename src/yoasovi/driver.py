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
from itertools import repeat, starmap
from typing import Callable, NamedTuple

import numpy as np

from . import gmm
from .acceptance import TemperatureSchedule, decide, temperature
from .errors import NumericError, require_number, require_positive
from .estimators import DrawStream, estimate, update_step
from .gmm import Dataset, GmmParams, GmmSpec, constrain
from .meanfield import VariationalParams, initial_params, sample
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


@dataclass(frozen=True, slots=True, eq=False)
class TraceColumns:
    """A run's per-iteration values, one float64 (accepted: bool) array per
    column, converted once from any sequences; iteration t is row t - 1.  M
    is None for a method with no temperature.  Iterating gives one
    IterationRecord per row, built as it is read."""

    elapsed_s: np.ndarray
    elbo: np.ndarray
    accepted: np.ndarray
    M: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "elapsed_s", np.asarray(self.elapsed_s, dtype=float))
        object.__setattr__(self, "elbo", np.asarray(self.elbo, dtype=float))
        object.__setattr__(self, "accepted", np.asarray(self.accepted, dtype=bool))
        if self.M is not None:
            object.__setattr__(self, "M", np.asarray(self.M, dtype=float))
        shape = self.elbo.shape
        if len(shape) != 1 or any(c is not None and c.shape != shape
                                  for c in (self.elapsed_s, self.accepted, self.M)):
            raise ValueError("trace columns must be 1-D and of one length")

    def __len__(self) -> int:
        return len(self.elbo)

    def rows(self):
        """(t, elapsed_s, elbo, accepted, M) per iteration, as Python values."""
        n = len(self)
        return zip(range(1, n + 1), self.elapsed_s.tolist(), self.elbo.tolist(),
                   self.accepted.tolist(), repeat(None, n) if self.M is None else self.M.tolist())

    def __iter__(self):
        return starmap(IterationRecord, self.rows())


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
    columns: TraceColumns
    summary: RunSummary
    final_lambda: VariationalParams | None = None

    @property
    def records(self) -> tuple[IterationRecord, ...]:
        """One row per iteration, built from the columns on each read."""
        return tuple(self.columns)


@dataclass(frozen=True)
class Problem:
    """What the loop needs from a model: an unconstrained-space log joint
    (Jacobian term folded in) of one z, a float, called once per draw, and
    an initialiser.  build_gmm_problem builds the target once per problem,
    gmm.unconstrained_target, with what it needs of the spec and data
    worked out then.  dic, when present, scores the final lambda on the
    run's own dic stream."""

    target: Callable[[np.ndarray], float]
    init: Callable[[np.random.Generator], VariationalParams]
    dic: Callable[[VariationalParams, np.random.Generator], float] | None = None


def build_gmm_problem(spec: GmmSpec, data: Dataset,
                      kmeans_style_init: bool = False) -> Problem:
    if data.p != spec.p:
        raise ValueError(f"data dimension {data.p} does not match spec p={spec.p}")

    def dic(lam: VariationalParams, rng: np.random.Generator) -> float:
        return gmm.dic(spec, data, posterior_draw_set(lam, DIC_DRAWS, spec, rng))

    return Problem(target=gmm.unconstrained_target(spec, data),
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
    draws = DrawStream(make_source(method.source, lam.dim,
                                   seed=int(src_ss.generate_state(1, dtype=np.uint64)[0])))
    decision_u = _uniforms(np.random.default_rng(dec_ss))

    evals = 0

    def counted(z):
        nonlocal evals
        evals += 1
        return problem.target(z)

    nu = 0
    L_prev = -math.inf
    elapsed, elbos, flags, temps = [], [], [], []
    converged = False
    error = None

    rule, S, schedule, rho = method.rule, config.samples, config.schedule, config.learning_rate
    t0 = clock()
    for t in range(1, config.max_iters + 1):
        try:
            est = estimate(lam, counted, draws, S)
            M = temperature(schedule, t) if rule else None
            accepted = M is None or decide(rule, M, est.elbo, L_prev, next(decision_u))
            if accepted:
                lam = update_step(lam, est.grad, rho)
                L_prev = est.elbo
        except NumericError as exc:
            error = f"aborted at iteration {t}: {exc}"
            break
        elapsed.append(clock() - t0)
        elbos.append(est.elbo)
        flags.append(accepted)
        temps.append(M)
        nu = 0 if accepted else nu + 1
        if nu >= config.patience:
            converged = True
            break
    wall = clock() - t0

    columns = TraceColumns(elapsed, elbos, flags, temps if method.rule else None)
    fe = final_elbo(columns) if columns.accepted.any() else None

    dic_value = None
    if problem.dic is not None and error is None:
        try:
            dic_value = problem.dic(lam, np.random.default_rng(dic_ss))
        except NumericError:
            pass

    summary = RunSummary(iterations=len(columns), wall_seconds=wall,
                         final_elbo=fe, dic=dic_value, converged=converged,
                         density_evals=evals, error=error)
    return RunTrace(columns=columns, summary=summary, final_lambda=lam)


def _uniforms(rng: np.random.Generator):
    """rng's doubles one at a time, drawn 256 at a time: the doubles that
    one rng.random() call each would give."""
    while True:
        yield from rng.random(256).tolist()


def final_elbo(columns: TraceColumns) -> float:
    """Ending ELBO: mean of the last accepted estimates, up to ten of them.

    Rejected iterations left lambda untouched, so only accepted iterations
    describe the state the run ended in.
    """
    accepted = columns.elbo[columns.accepted]
    if not accepted.size:
        raise ValueError("trace holds no accepted iterations; ending ELBO undefined")
    return float(np.mean(accepted[-ENDING_ELBO_WINDOW:]))


def posterior_draw_set(lam: VariationalParams, n_draws: int, spec: GmmSpec,
                       rng: np.random.Generator) -> GmmParams:
    """Fresh constrained draws from q(.|lam), stacked on one leading axis."""
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    u = clamp(rng.random((n_draws, lam.dim)))
    return constrain(sample(lam, u).z, spec)
