"""Runs one workload, checks its outputs, and reports its metrics.

With trace off, the workload runs closed-loop for the requested seconds,
starting with the reference round (see workloads.py), and reports the
end-to-end metrics, its run timings normalised for host speed (see
speed.py).  With trace on, it runs one round of the seed's runs
untraced and the same round traced, and reports the per-layer metrics plus
the tracing overhead; the two rounds must agree on every behaviour count.
"""

import dataclasses
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import checks as ck
import tracer as tr
import workloads as wl
from speed import REFERENCE_STARTUP, REFERENCE_STARTUP_S, SpeedProbe
from yoasovi import NumericError

OUT = wl.ROOT / ".perfbench_out"
SETUP_REPEATS = 4

# (name, unit), in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("evals_per_s", "1/s"),
    ("run_s_p50", "s"),
    ("run_s_tail", "s"),
    ("peak_rss_mb", "MB"),
    ("ending_neg_elbo_p50", "nats"),
    ("fresh_neg_elbo_p50", "nats"),
    ("dic_p50", "deviance"),
]


def median(values) -> float:
    """Median of the values a failed run left defined; NaN when none are."""
    kept = [v for v in values if v is not None]
    return statistics.median(kept) if kept else math.nan


def tail(values) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it, and its
    label.  Below 21 samples that percentile would fall under the median,
    so the median is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return median(xs), f"p50 (n={n}, too few samples for a tail)"
    k = n - 11
    return xs[k], f"p{100.0 * (k + 1) / n:.0f} (n={n})"


def machine() -> dict:
    sha = "unknown (not a git checkout)"
    if (wl.ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=wl.ROOT,
                             capture_output=True, text=True).stdout.strip() or sha
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "start_method": multiprocessing.get_context().get_start_method(),
            "git_sha": sha}


def _ready_s(args: list[str]) -> float:
    """Seconds from starting `python3 args` until it prints "ready"."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{args[0]} exited with code {proc.returncode} before ready")
    return t1 - t0


def setup_samples(name: str, sizes: str, n: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until the workload's first
    run could start, n times, each between two start-ups of the reference
    interpreter (see speed.py).  Returns both lists."""
    probe = str(Path(__file__).with_name("setup_probe.py"))
    setups, refs = [], [_ready_s(list(REFERENCE_STARTUP))]
    for _ in range(n):
        setups.append(_ready_s([probe, name, sizes]))
        refs.append(_ready_s(list(REFERENCE_STARTUP)))
    return setups, refs


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, plus the largest child's when
    children ran work (ru_maxrss is in KiB on Linux)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ---------------------------------------------------------------------------
# library workloads

def _library_unit(checks, st, config):
    """One run() of config; None in place of the trace when it raised."""
    try:
        trace, dt = wl.run_library(config, st.data)
    except Exception:
        traceback.print_exc()
        trace, dt = None, None
    checks.check(f"run {config.method} seed {config.seed}", trace is not None, "raised")
    return config, trace, dt


def _library_round(checks, st, seed):
    t0 = time.perf_counter()
    units = [_library_unit(checks, st, st.config(seed, i))
             for i in range(st.workload.round_runs)]
    return units, time.perf_counter() - t0


def _check_library_units(checks, units, first=None) -> dict:
    """Per-run checks; a config run again must reproduce its first run,
    taken from `first` when given.  Returns the first trace of each config."""
    first = {} if first is None else first
    for config, trace, _ in units:
        if trace is None:
            continue
        key = (config.method, config.seed)
        label = f"{config.method} seed {config.seed}"
        ck.check_run(checks, label, config, trace)
        if key in first:
            ck.check_same(checks, label, ck.columns(first[key].records),
                          ck.columns(trace.records))
        else:
            first[key] = trace
    return first


def _library_counts(units) -> dict:
    done = [(c, t) for c, t, _ in units if t is not None]
    return {"driver.iterations": sum(t.summary.iterations for _, t in done),
            "driver.density_evals": sum(t.summary.density_evals for _, t in done),
            "acceptance.decisions": sum(t.summary.iterations for c, t in done
                                        if c.method.startswith("yoasovi"))}


def _fresh_elbo(checks, spec, data, trace, i):
    """The benchmark's unbiased ELBO at a reference run's final_lambda."""
    try:
        return wl.fresh_elbo(spec, data, trace.final_lambda,
                             np.random.default_rng([wl.REFERENCE_SEED, i]))
    except NumericError as exc:
        checks.check(f"fresh ELBO of reference run {i}", False, exc)
        return None


def library_timed(checks, st, seconds, seed, speed):
    """The reference round, then runs of `seed` until `seconds` have
    passed, with a speed sample before each run."""
    n_ref = st.workload.round_runs
    units = []
    t0 = time.perf_counter()
    while len(units) < n_ref or time.perf_counter() - t0 < seconds:
        i = len(units)
        speed.sample()
        config = (st.config(wl.REFERENCE_SEED, i) if i < n_ref else st.config(seed, i - n_ref))
        units.append(_library_unit(checks, st, config))
    speed.sample()
    rss = peak_rss_mb(children=False)
    reference = units[:n_ref]

    first = _check_library_units(checks, units)
    _check_library_units(checks, [_library_unit(checks, st, units[-1][0])], first)
    done = [(t, dt) for _, t, dt in units if t is not None]
    ref = [t for _, t, _ in reference if t is not None]
    return {
        "runs": len(done),
        "evals": sum(t.summary.density_evals for t, _ in done),
        "unit_s": [dt for _, dt in done],
        "peak_rss_mb": rss,
        "ending_elbo": [t.summary.final_elbo for t in ref],
        "fresh_elbo": [_fresh_elbo(checks, st.spec, st.data, t, i) for i, t in enumerate(ref)],
        "dic": [t.summary.dic for t in ref],
    }


def library_traced(checks, st, seed, out):
    plain, plain_s = _library_round(checks, st, seed)
    with tr.Tracer(out / "spans") as tracer:
        traced, traced_s = _library_round(checks, st, seed)
    _check_library_units(checks, traced, _check_library_units(checks, plain))
    return tracer, _library_counts(plain), plain_s, traced_s


# ---------------------------------------------------------------------------
# matrix workload

def _matrix_unit(checks, ms, seed, out_dir):
    try:
        rc_run, rc_traj, dt = wl.run_matrix_call(ms, seed, out_dir)
    except Exception:
        traceback.print_exc()
        rc_run = rc_traj = dt = None
    checks.check(f"{out_dir.name} exit codes", rc_run == 0 and rc_traj == 0,
                 f"run {rc_run}, trajectory {rc_traj}")
    return seed, out_dir, dt


def _check_matrix_calls(checks, ms, calls) -> list[dict]:
    """File checks on every call; a call must reproduce the first call of
    its seed.  Returns each call's records by trace name."""
    first, out = {}, []
    for seed, out_dir, _ in calls:
        runs = ms.runs(seed)
        traces = ck.check_matrix_output(checks, out_dir.name, out_dir, runs)
        out.append(traces)
        if seed not in first:
            first[seed] = traces
            continue
        for name, _ in runs:
            if name in first[seed] and name in traces:
                ck.check_same(checks, f"{out_dir.name} {name}",
                              ck.columns(first[seed][name]), ck.columns(traces[name]))
    return out


def _matrix_counts(runs, traces) -> dict:
    cfg = dict(runs)
    rows = {name: len(records) for name, records in traces.items()}
    return {"driver.iterations": sum(rows.values()),
            "driver.density_evals": sum(cfg[n].samples * r for n, r in rows.items()),
            "acceptance.decisions": sum(r for n, r in rows.items()
                                        if cfg[n].method.startswith("yoasovi"))}


def matrix_timed(checks, ms, seconds, seed, out, speed):
    """The reference call, then calls of `seed` until `seconds` have
    passed, with a speed sample before each call."""
    calls = []
    t0 = time.perf_counter()
    while not calls or time.perf_counter() - t0 < seconds:
        speed.sample()
        calls.append(_matrix_unit(checks, ms, seed if calls else wl.REFERENCE_SEED,
                                  out / (f"call{len(calls)}" if calls else "reference")))
    speed.sample()
    rss = peak_rss_mb(children=True)

    traces = _check_matrix_calls(checks, ms, calls)
    evals = sum(_matrix_counts(ms.runs(s), t)["driver.density_evals"]
                for (s, _, dt), t in zip(calls, traces) if dt is not None)
    done = [dt for _, _, dt in calls if dt is not None]
    # The reference runs again in-process: their traces must match the
    # CLI's, and they carry the final_lambda, density_evals and DIC that the
    # CLI's files lack.
    reference = ms.runs(wl.REFERENCE_SEED)
    summaries, fresh = {}, []
    for i, (name, cfg) in enumerate(reference):
        try:
            trace, _ = wl.run_library(cfg, ms.data)
        except Exception:
            traceback.print_exc()
            checks.check(f"re-run {name}", False, "raised")
            continue
        ck.check_run(checks, f"re-run {name}", cfg, trace)
        ck.check_same(checks, f"re-run {name}", ck.columns(traces[0].get(name, [])),
                      ck.columns(trace.records))
        summaries[name] = trace.summary
        fresh.append(_fresh_elbo(checks, ms.spec, ms.data, trace, i))
    ck.check_summary_matches(checks, "reference", calls[0][1], reference, summaries)
    return {
        "runs": len(done) * len(reference),
        "evals": evals,
        "unit_s": done,
        "peak_rss_mb": rss,
        "ending_elbo": [s.final_elbo for s in summaries.values()],
        "fresh_elbo": fresh,
        "dic": [s.dic for s in summaries.values()],
    }


def matrix_traced(checks, ms, seed, out):
    t0 = time.perf_counter()
    plain = _matrix_unit(checks, ms, seed, out / "untraced")
    plain_s = time.perf_counter() - t0
    with tr.Tracer(out / "spans") as tracer:
        t0 = time.perf_counter()
        traced = _matrix_unit(checks, ms, seed, out / "traced")
        traced_s = time.perf_counter() - t0
    traces = _check_matrix_calls(checks, ms, [plain, traced])
    return tracer, _matrix_counts(ms.runs(seed), traces[0]), plain_s, traced_s


# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: str = "full"):
    """Returns (checks, metrics as name -> (value, unit), notes)."""
    w = wl.SIZES[sizes][name]
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    checks = ck.Checks()
    st = wl.setup(name, sizes)
    library = isinstance(w, wl.Library)
    notes = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
             "sizes": dataclasses.asdict(w), "machine": machine()}

    if trace:
        tracer, counts, plain_s, traced_s = (library_traced(checks, st, seed, out) if library
                                             else matrix_traced(checks, st, seed, out))
        layers = tr.Layers(tracer.read_all())
        metrics = tr.per_layer(layers, tracer.main_pid, 1 if library else w.jobs,
                               tr.log_likelihood_kb(st.data.N, st.spec.K, st.spec.p),
                               plain_s, traced_s)
        for key, want in counts.items():
            got = metrics[key][0]
            checks.check(f"traced {key}", got == want, f"traced {got} != untraced {want}")
        notes["self_time_s"] = dict(sorted(layers.self_time.items(), key=lambda kv: -kv[1]))
    else:
        speed = SpeedProbe(per_cpu=not library)
        r = (library_timed(checks, st, seconds, seed, speed) if library
             else matrix_timed(checks, st, seconds, seed, out, speed))
        setup, startup = setup_samples(name, sizes, SETUP_REPEATS)
        # Rates are per second spent inside runs, not per second of the
        # window: the rest of the window is the benchmark's own checks and
        # speed samples.
        busy = sum(r["unit_s"]) or math.nan
        run_tail, notes["run_s_tail"] = tail(r["unit_s"])
        wall = {"setup_s": median(setup), "runs_per_s": r["runs"] / busy,
                "evals_per_s": r["evals"] / busy, "run_s_p50": median(r["unit_s"]),
                "run_s_tail": run_tail}
        # Run timings are divided by the host's slowdown against the
        # reference speed, measured in the same window (see speed.py), and
        # rates multiplied by it; each set-up time by the slowdown of the
        # reference start-ups on either side of it.
        slow = speed.slowdown()
        setup_norm = [s * 2 * REFERENCE_STARTUP_S / (a + b)
                      for s, a, b in zip(setup, startup, startup[1:])]
        notes["slowdown"] = slow
        notes["reference start-up samples"] = startup
        notes["wall, not normalised"] = wall
        notes["setup_s samples"] = setup
        notes["run_s samples"] = r["unit_s"]
        notes["quality metrics"] = (f"over the {len(r['dic'])} runs of the reference round "
                                    f"(workload seed {wl.REFERENCE_SEED})")
        values = {
            "setup_s": median(setup_norm),
            "runs_per_s": wall["runs_per_s"] * slow,
            "evals_per_s": wall["evals_per_s"] * slow,
            "run_s_p50": wall["run_s_p50"] / slow,
            "run_s_tail": wall["run_s_tail"] / slow,
            "peak_rss_mb": r["peak_rss_mb"],
            "ending_neg_elbo_p50": -median(r["ending_elbo"]),
            "fresh_neg_elbo_p50": -median(r["fresh_elbo"]),
            "dic_p50": median(r["dic"]),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        if not library:
            notes["run_s_p50"] = "one `yoasovi run` + `yoasovi trajectory` call"
            notes["evals_per_s"] = "computed as samples x trace rows"
    ck.check_log_joint(checks, st.spec, st.data, np.random.default_rng([seed, 99]))
    notes["fail_frac"] = checks.failed / checks.attempted
    (out / "result.json").write_text(json.dumps(
        {"notes": notes, "metrics": metrics, "attempted": checks.attempted,
         "failed": checks.failed}, indent=1, default=str))
    return checks, metrics, notes


def main(name: str, seed: int, seconds: float, trace: bool, sizes: str = "full") -> int:
    checks, metrics, notes = run_workload(name, seed, seconds, trace, sizes)
    for key, value in notes.items():
        print(f"# {key}: {json.dumps(value, default=str)}")
    for key, (value, unit) in metrics.items():
        print(f"{key:<40} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1
