"""The benchmark's workloads: what each one runs, how it is set up, and how
one unit of work is executed.

Every workload is a closed loop driven from one process: the next unit
starts only when the previous one has returned.  A workload's inputs are run
configurations whose run seeds come from the workload seed; the program sees
only those configurations and the simulated data.  Each measuring window
starts with the round of workload seed 0, the reference round, on which the
quality metrics are taken: the ending ELBO and DIC of these methods spread
by 10-20% from one set of run seeds to the next, which would hide a change
in what a run computes, while on a fixed round any such change shows.

- single-draw: library ``run()`` of the two acceptance-sampling methods at
  the shipped sim_p2k2 settings.  One density evaluation per iteration, so
  per-call overhead and the 1000-draw DIC phase dominate.
- multi-draw: library ``run()`` of qmcvi (S=10) and mcvi (S=100) on
  sim-p3k4.  Density evaluation and the per-draw loop in ``estimate``
  dominate; DIC is a small share.
- matrix: ``yoasovi run`` on configs/sim_p2k3.yaml with two worker
  processes, then ``yoasovi trajectory`` over every trace it wrote.  The only
  workload that exercises the harness: config parsing, the process pool with
  its uneven mcvi-heavy cells, and trace/summary writes next to trace reads.
"""

import contextlib
import io
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import yoasovi
from yoasovi import cli, driver, harness, meanfield
from yoasovi.sequences import EPS

ROOT = Path(__file__).resolve().parent.parent

# Shipped run settings of configs/sim_p2k2.yaml (and the other two configs).
LEARNING_RATE = 5e-7
PATIENCE = 100
SCHEDULE = yoasovi.TemperatureSchedule("linear", 0.1)

# Draws behind the benchmark's own unbiased ELBO at final_lambda.
FRESH_DRAWS = 200


@dataclass(frozen=True)
class Library:
    """Library run() calls cycling through (method, samples, max_iters) in
    methods, one run seed per cycle; a round is the first round_runs."""

    preset: str
    methods: tuple
    round_runs: int


@dataclass(frozen=True)
class Matrix:
    """One `yoasovi run` of a shipped config with size overrides, then
    `yoasovi trajectory` over its traces."""

    config: str
    replicates: int
    max_iters: int
    jobs: int


# On a 2-core machine a library round takes 5-8 s and a matrix round (one
# CLI call of 8 runs) about 4 s.  multi-draw gives both methods 3000
# evaluations per run, which keeps density evaluation at ~80% of a run; mcvi
# at the shipped 500 iterations would take ~25 s per run.
FULL = {
    "single-draw": Library("sim-p2k2", (("yoasovi-naive", 1, 500),
                                        ("yoasovi-metropolis", 1, 500)), round_runs=10),
    "multi-draw": Library("sim-p3k4", (("qmcvi", 10, 300), ("mcvi", 100, 30)), round_runs=4),
    "matrix": Matrix("configs/sim_p2k3.yaml", replicates=2, max_iters=30, jobs=2),
}

# Toy sizes for the benchmark's own tests.
TOY = {
    "single-draw": Library("sim-p2k2", (("yoasovi-naive", 1, 20),
                                        ("yoasovi-metropolis", 1, 20)), round_runs=2),
    "multi-draw": Library("sim-p3k4", (("qmcvi", 10, 3), ("mcvi", 100, 1)), round_runs=2),
    "matrix": Matrix("configs/sim_p2k3.yaml", replicates=1, max_iters=5, jobs=2),
}

SIZES = {"full": FULL, "toy": TOY}
WORKLOAD_NAMES = tuple(FULL)

# The workload seed of the reference round every window starts with.
REFERENCE_SEED = 0


def base_seed(seed: int) -> int:
    """Run seeds of workload seed s start at 1000*s, so workload seeds
    0..999 never share a run."""
    return 1000 * seed


@dataclass
class LibrarySetup:
    workload: Library
    spec: object
    data: object

    def config(self, seed: int, i: int):
        """The i-th run of workload seed `seed`."""
        method, samples, max_iters = self.workload.methods[i % len(self.workload.methods)]
        return yoasovi.RunConfig(method=method, samples=samples, learning_rate=LEARNING_RATE,
                                 max_iters=max_iters, patience=PATIENCE, schedule=SCHEDULE,
                                 seed=base_seed(seed) + i // len(self.workload.methods),
                                 model=self.spec, kmeans_style_init=True)


@dataclass
class MatrixSetup:
    workload: Matrix
    spec: object
    data: object
    templates: tuple  # (label, RunConfig) from build_matrix
    dataset: str

    def argv(self, seed: int, out_dir) -> list[str]:
        w = self.workload
        return ["run", "--config", str(ROOT / w.config), "--jobs", str(w.jobs),
                "--replicates", str(w.replicates), "--max-iters", str(w.max_iters),
                "--seed", str(base_seed(seed)), "--out", str(out_dir)]

    def runs(self, seed: int) -> list:
        """(trace file name, RunConfig) of each run of one call, in the
        order run_matrix runs them."""
        return [(f"{self.dataset}__{label}__r{r}.csv",
                 replace(template, model=self.spec, seed=base_seed(seed) + r))
                for label, template in self.templates
                for r in range(self.workload.replicates)]


def setup(name: str, sizes: str = "full"):
    """Everything a workload builds before its first run starts."""
    w = SIZES[sizes][name]
    if isinstance(w, Library):
        spec, data = yoasovi.make_preset(w.preset)
        return LibrarySetup(w, spec, data)
    ms = MatrixSetup(w, None, None, (), "")
    args = cli.build_parser().parse_args(ms.argv(REFERENCE_SEED, "unused"))
    cfg = cli.apply_overrides(harness.load_config(args.config), args)
    matrix, _ = harness.build_matrix(cfg)
    (ms.dataset, ms.spec, ms.data), = matrix.datasets
    ms.templates = matrix.methods
    return ms


def run_library(config, data):
    """One library run() call and its wall time.  driver.run is looked up at
    call time so that a traced run sees the wrapped function."""
    t = time.perf_counter()
    trace = driver.run(config, data)
    return trace, time.perf_counter() - t


def run_matrix_call(ms: MatrixSetup, seed: int, out_dir: Path):
    """`yoasovi run` into out_dir, then `yoasovi trajectory` over every trace
    it wrote.  Returns both exit codes and the wall time of the pair."""
    t = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc_run = cli.main(ms.argv(seed, out_dir))
        traj = ["trajectory"]
        for path in sorted((out_dir / "traces").glob("*.csv")):
            traj += ["--trace", str(path)]
        rc_traj = cli.main(traj + ["--horizon", "1e9", "--out", str(out_dir / "trajectory.csv")])
    return rc_run, rc_traj, time.perf_counter() - t


def fresh_elbo(spec, data, lam, rng: np.random.Generator, n: int = FRESH_DRAWS) -> float:
    """Unbiased ELBO estimate at lam from n fresh draws: mean of
    target(z) - log_q(z) with the run's own build_gmm_problem target."""
    target = driver.build_gmm_problem(spec, data).target
    u = np.clip(rng.random((n, lam.dim)), EPS, 1.0 - EPS)
    w = []
    for ui in u:
        z = meanfield.sample(lam, ui).z
        w.append(target(z) - meanfield.log_q(lam, z))
    return float(np.mean(w))
