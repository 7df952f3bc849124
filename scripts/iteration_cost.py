#!/usr/bin/env python3
"""Time a single-draw iteration against its target call.

Runs yoasovi-naive at the shipped sim-p2k2 settings (configs/sim_p2k2.yaml:
its data, model, step size, schedule, patience and iteration cap) on seeds
0-9 through run_problem, with the run's target wrapped in a timer, and
prints per round the µs per iteration (the run's loop time over its
iterations), the µs per target call and their ratio, then the median of
each over the rounds.  DIC is left out: it runs after the loop and the
loop time does not include it.  The timer's own cost, two perf_counter
calls per target call, counts towards the iteration.  After the timed
rounds, one more untimed round under tracemalloc gives the bytes its
finished traces hold per iteration.  Last, it prints the µs per one-z
target call at sim-p2k2, sim-p2k3 and sim-p3k4, the presets of perfbench's
three workloads: the minimum of repeated timings of one call per row over
64 fixed draws from q at the preset's k-means++ starting λ.

    PYTHONPATH=src python3 scripts/iteration_cost.py [--rounds 5] [--quick]

--quick runs one round of seeds 0-1 at 50 iterations, and times each
preset's target twice, as a smoke test.
"""

import argparse
import dataclasses
import gc
import statistics
import time
import timeit
import tracemalloc
from pathlib import Path

import numpy as np

from yoasovi.driver import build_gmm_problem, run_problem
from yoasovi.harness import build_matrix, load_config, make_preset
from yoasovi.meanfield import sample

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "sim_p2k2.yaml"
METHOD = "yoasovi-naive"
PRESETS = ("sim-p2k2", "sim-p2k3", "sim-p3k4")
DRAWS = 64


def one_round(template, problem, seeds) -> tuple[float, float]:
    """(µs per iteration, µs per target call) over one run per seed."""
    target_s, target_calls = 0.0, 0

    def timed(z):
        nonlocal target_s, target_calls
        t0 = time.perf_counter()
        out = problem.target(z)
        target_s += time.perf_counter() - t0
        target_calls += 1
        return out

    timed_problem = dataclasses.replace(problem, target=timed, dic=None)
    loop_s = iterations = 0
    for seed in seeds:
        trace = run_problem(dataclasses.replace(template, seed=seed), timed_problem)
        if trace.summary.error is not None:
            raise SystemExit(f"seed {seed}: {trace.summary.error}")
        loop_s += trace.summary.wall_seconds
        iterations += trace.summary.iterations
    return 1e6 * loop_s / iterations, 1e6 * target_s / target_calls


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


def target_us(preset: str, repeat: int, number: int) -> float:
    """µs per one-z target call at preset: the fastest of repeat timings,
    each of number passes of one call per row over DRAWS fixed draws from q
    at the preset's k-means++ starting λ."""
    spec, data = make_preset(preset)
    problem = build_gmm_problem(spec, data, kmeans_style_init=True)
    lam = problem.init(np.random.default_rng(0))
    z = sample(lam, np.random.default_rng(1).uniform(size=(DRAWS, lam.dim))).z
    target = problem.target
    timings = timeit.repeat(lambda: [target(row) for row in z], number=number, repeat=repeat)
    return 1e6 * min(timings) / (number * DRAWS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5, help="rounds over all seeds")
    parser.add_argument("--quick", action="store_true",
                        help="one round, seeds 0-1, 50 iterations")
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

    print(f"{METHOD} on {CONFIG.name}, seeds {seeds.start}-{seeds.stop - 1}, "
          f"{template.max_iters} iterations at most")
    print("round  us/iteration  us/target  ratio")
    per_iter, per_target = [], []
    for r in range(rounds):
        it_us, tg_us = one_round(template, problem, seeds)
        per_iter.append(it_us)
        per_target.append(tg_us)
        print(f"{r + 1:5d}  {it_us:12.2f}  {tg_us:9.2f}  {it_us / tg_us:5.3f}")
    it_us, tg_us = statistics.median(per_iter), statistics.median(per_target)
    print(f"median {it_us:11.2f}  {tg_us:9.2f}  {it_us / tg_us:5.3f}")
    print(f"trace  {trace_bytes(template, problem, seeds):.1f} bytes retained per iteration")
    for preset in PRESETS:
        print(f"target {preset} {target_us(preset, repeat, number):.2f} us per z")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
