#!/usr/bin/env python3
"""Time a single-draw iteration against its target call.

Runs yoasovi-naive at the shipped sim-p2k2 settings (configs/sim_p2k2.yaml:
its data, model, step size, schedule, patience and iteration cap) on seeds
0-9 through run_problem, with the run's target wrapped in a timer, and
prints per round the µs per iteration (the run's loop time over its
iterations), the µs per target call, their ratio and the µs per iteration
spent outside the target call (loop time less target time, over the
iterations), then that outside time split by the iteration's decision:
the µs outside the target per accepted and per rejected iteration, each
iteration timed by the difference of its trace's elapsed_s from the
iteration before, less its own target call.  Then it prints the median of
each over the rounds.  A faster target raises the ratio while the µs
outside stay put, so those µs are what tracks the loop around the target;
an accepted iteration also scores its draw, moves lambda and refills the
run's draws.  DIC is left out: it runs after the loop and the loop time
does not include it.  The timer's own cost, two perf_counter calls per
target call, counts towards the iteration.  After the timed rounds, one
more untimed round under tracemalloc gives the bytes its finished traces
hold per iteration, and one more counts the estimators.sample passes, the
draw refills, per accepted iteration.

Then, at sim-p2k2, sim-p2k3 and sim-p3k4, the presets of perfbench's three
workloads, it prints the µs per one-z target call, the minimum of repeated
timings of one call per row over 64 fixed draws from q at the preset's
k-means++ starting λ; the ms per 1000 stacked parameter sets through
gmm.log_likelihood, the DIC phase's half of the likelihood kernel, the
minimum of repeated timings over 1000 other draws from the same q,
constrained; and the ms per DIC phase, the minimum of repeated timings of
the problem's dic at that λ: its 1000 fresh draws from q, constrain, the
parameter checks and gmm.dic.  Every fixed draw comes from points clamped
by sequences.clamp, as a run's draws do.

Last, the multi-draw workload's two methods on sim-p3k4 at its settings
(step size 5e-7, patience 100, linear schedule k=0.1, k-means++ start,
seeds 0-1): qmcvi at S=10 for 300 iterations and mcvi at S=100 for 30, each
with its target timed as the single-draw rounds time theirs.  Each prints
the µs per draw (loop time over target calls, one per draw) and the µs per
draw spent outside the target call, the medians over the rounds.

The pool line comes last but is timed first, so that its first call
pays what a fresh process pays: harness.run_matrix(jobs=2) at perfbench's
matrix settings (configs/sim_p2k3.yaml, 2 replicates, 30 iterations), one
call and then one per round, each into a new directory.  It prints the ms
of the first call and the median ms of the later ones.

    PYTHONPATH=src python3 scripts/iteration_cost.py [--rounds 5] [--quick]

--quick runs one round of seeds 0-1 at 50 single-draw iterations, 3 and 1
multi-draw iterations and 5 pool iterations, and times each preset's
target, stacked sets and DIC phase twice, as a smoke test.
"""

import argparse
import dataclasses
import gc
import statistics
import tempfile
import time
import timeit
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np

from yoasovi import estimators
from yoasovi.acceptance import TemperatureSchedule
from yoasovi.driver import RunConfig, build_gmm_problem, run_problem
from yoasovi.gmm import constrain, log_likelihood
from yoasovi.harness import build_matrix, load_config, make_preset, run_matrix
from yoasovi.meanfield import sample
from yoasovi.sequences import clamp

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "sim_p2k2.yaml"
METHOD = "yoasovi-naive"
PRESETS = ("sim-p2k2", "sim-p2k3", "sim-p3k4")
DRAWS = 64
SETS = 1000
# perfbench's multi-draw workload on its preset: (method, samples,
# iterations, iterations under --quick)
MULTI_PRESET = "sim-p3k4"
MULTI_DRAW = (("qmcvi", 10, 300, 3), ("mcvi", 100, 30, 1))
# perfbench's matrix workload: its config, replicates, iterations and jobs
POOL_CONFIG = CONFIG.with_name("sim_p2k3.yaml")
POOL_REPLICATES, POOL_ITERS, POOL_JOBS = 2, 30, 2


class Round(NamedTuple):
    """One run per seed, summed: loop and target seconds, iterations and
    target calls, and, for a single-draw method, the seconds outside the
    target call of the accepted and of the rejected iterations and the
    count of each."""

    loop_s: float
    target_s: float
    iterations: int
    calls: int
    outside_s: tuple[float, float] = (0.0, 0.0)
    decided: tuple[int, int] = (0, 0)


def one_round(template, problem, seeds) -> Round:
    """A Round, with the target timed inside the loop."""
    call_s = []

    def timed(z):
        t0 = time.perf_counter()
        out = problem.target(z)
        call_s.append(time.perf_counter() - t0)
        return out

    timed_problem = dataclasses.replace(problem, target=timed, dic=None)
    loop_s = iterations = 0
    outside, decided = np.zeros(2), np.zeros(2, dtype=int)
    for seed in seeds:
        start = len(call_s)
        trace = run_problem(dataclasses.replace(template, seed=seed), timed_problem)
        if trace.summary.error is not None:
            raise SystemExit(f"seed {seed}: {trace.summary.error}")
        loop_s += trace.summary.wall_seconds
        iterations += trace.summary.iterations
        if template.samples == 1:
            cols = trace.columns
            out = np.diff(cols.elapsed_s, prepend=0.0) - call_s[start:]
            for j, flag in enumerate((True, False)):
                outside[j] += out[cols.accepted == flag].sum()
                decided[j] += (cols.accepted == flag).sum()
    return Round(loop_s, sum(call_s), iterations, len(call_s),
                 tuple(outside.tolist()), tuple(decided.tolist()))


def sample_passes(template, problem, seeds) -> float:
    """estimators.sample calls, each one refill of a run's draws, per
    accepted iteration over one run per seed."""
    passes = accepted = 0
    real = estimators.sample

    def counted(lam, u):
        nonlocal passes
        passes += 1
        return real(lam, u)

    problem = dataclasses.replace(problem, dic=None)
    estimators.sample = counted
    try:
        for seed in seeds:
            trace = run_problem(dataclasses.replace(template, seed=seed), problem)
            accepted += int(trace.columns.accepted.sum())
    finally:
        estimators.sample = real
    return passes / accepted


def trace_bytes(template, problem, seeds) -> float:
    """Bytes the finished traces of one run per seed retain, per iteration."""
    problem = dataclasses.replace(problem, dic=None)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traces = [run_problem(dataclasses.replace(template, seed=seed), problem)
                  for seed in seeds]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / sum(trace.summary.iterations for trace in traces)


def preset_cost(preset: str, repeat: int, number: int) -> tuple[float, float, float]:
    """(µs per one-z target call, ms per SETS stacked sets through
    log_likelihood, ms per DIC phase) at preset: the fastest of repeat
    timings, each of number passes, at the preset's k-means++ starting λ.  A
    target pass is one call per row over DRAWS fixed draws from q; a stacked
    pass is one call over SETS other draws from q, constrained; a DIC pass
    is one call of the problem's dic with a generator of one seed."""
    spec, data = make_preset(preset)
    problem = build_gmm_problem(spec, data, kmeans_style_init=True)
    lam = problem.init(np.random.default_rng(0))
    z = sample(lam, clamp(np.random.default_rng(1).uniform(size=(DRAWS, lam.dim)))).z
    target = problem.target
    timings = timeit.repeat(lambda: [target(row) for row in z], number=number, repeat=repeat)
    sets = constrain(sample(lam, clamp(np.random.default_rng(2).uniform(size=(SETS, lam.dim)))).z,
                     spec)
    stacked = timeit.repeat(lambda: log_likelihood(spec, data, sets), number=number,
                            repeat=repeat)
    phase = timeit.repeat(lambda: problem.dic(lam, np.random.default_rng(3)), number=number,
                          repeat=repeat)
    return (1e6 * min(timings) / (number * DRAWS), 1e3 * min(stacked) / number,
            1e3 * min(phase) / number)


def pool_cost(calls: int, max_iters: int) -> list[float]:
    """ms per run_matrix call at perfbench's matrix settings with max_iters
    iterations, for calls calls in a row, each into a new directory."""
    matrix, _ = build_matrix(load_config(POOL_CONFIG))
    matrix = dataclasses.replace(
        matrix, replicates=POOL_REPLICATES,
        methods=tuple((label, dataclasses.replace(template, max_iters=max_iters))
                      for label, template in matrix.methods))
    times = []
    with tempfile.TemporaryDirectory() as out:
        for i in range(calls):
            t0 = time.perf_counter()
            run_matrix(matrix, Path(out) / f"call{i}", jobs=POOL_JOBS)
            times.append(1e3 * (time.perf_counter() - t0))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5, help="rounds over all seeds")
    parser.add_argument("--quick", action="store_true",
                        help="one round, seeds 0-1, 50 and 3 and 1 iterations")
    args = parser.parse_args(argv)

    matrix, _ = build_matrix(load_config(CONFIG))
    (_, spec, data), = matrix.datasets
    template = dict(matrix.methods)[METHOD]
    seeds = range(10)
    rounds, repeat, number = args.rounds, 7, 20
    if args.quick:
        template = dataclasses.replace(template, max_iters=50)
        seeds, rounds, repeat, number = range(2), 1, 2, 1
    problem = build_gmm_problem(spec, data, template.kmeans_style_init)
    first_ms, *later_ms = pool_cost(1 + rounds, 5 if args.quick else POOL_ITERS)

    print(f"{METHOD} on {CONFIG.name}, seeds {seeds.start}-{seeds.stop - 1}, "
          f"{template.max_iters} iterations at most")
    print("round  us/iteration  us/target  ratio  us/outside  us/accepted  us/rejected")
    per_round = []
    for r in range(rounds):
        rd = one_round(template, problem, seeds)
        it_us, tg_us = 1e6 * rd.loop_s / rd.iterations, 1e6 * rd.target_s / rd.calls
        out_us = 1e6 * (rd.loop_s - rd.target_s) / rd.iterations
        acc_us, rej_us = (1e6 * s / max(n, 1) for s, n in zip(rd.outside_s, rd.decided))
        per_round.append((it_us, tg_us, out_us, acc_us, rej_us))
        print(f"{r + 1:5d}  {it_us:12.2f}  {tg_us:9.2f}  {it_us / tg_us:5.3f}  {out_us:10.2f}"
              f"  {acc_us:11.2f}  {rej_us:11.2f}")
    it_us, tg_us, out_us, acc_us, rej_us = map(statistics.median, zip(*per_round))
    print(f"median {it_us:11.2f}  {tg_us:9.2f}  {it_us / tg_us:5.3f}  {out_us:10.2f}"
          f"  {acc_us:11.2f}  {rej_us:11.2f}")
    print(f"trace  {trace_bytes(template, problem, seeds):.1f} bytes retained per iteration")
    print(f"refill {sample_passes(template, problem, seeds):.2f} sample passes per accepted "
          "iteration")
    costs = {preset: preset_cost(preset, repeat, number) for preset in PRESETS}
    for preset, (z_us, _, _) in costs.items():
        print(f"target {preset} {z_us:.2f} us per z")
    for preset, (_, sets_ms, _) in costs.items():
        print(f"sets   {preset} {sets_ms:.3f} ms per {SETS} sets")
    for preset, (_, _, dic_ms) in costs.items():
        print(f"dic    {preset} {dic_ms:.3f} ms per phase")

    multi_spec, multi_data = make_preset(MULTI_PRESET)
    multi_problem = build_gmm_problem(multi_spec, multi_data, kmeans_style_init=True)
    for method, samples, max_iters, quick_iters in MULTI_DRAW:
        config = RunConfig(method=method, samples=samples, learning_rate=5e-7,
                           max_iters=quick_iters if args.quick else max_iters, patience=100,
                           schedule=TemperatureSchedule("linear", 0.1), model=multi_spec,
                           kmeans_style_init=True)
        per_draw = []
        for _ in range(rounds):
            rd = one_round(config, multi_problem, range(2))
            per_draw.append((1e6 * rd.loop_s / rd.calls,
                             1e6 * (rd.loop_s - rd.target_s) / rd.calls))
        draw_us, draw_out_us = map(statistics.median, zip(*per_draw))
        print(f"draw   {method} {MULTI_PRESET} {draw_us:.2f} us per draw "
              f"{draw_out_us:.2f} outside")
    print(f"pool   {POOL_CONFIG.name} jobs={POOL_JOBS} {first_ms:.1f} ms first call "
          f"{statistics.median(later_ms):.1f} ms later")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
