"""Spans around the public functions of each yoasovi module, recorded from
the benchmark's own files.

Each function is wrapped at the module attribute its caller looks it up
through (``yoasovi.driver.estimate``, ``yoasovi.estimators.sample``, ...), so
the program itself is unchanged.  A span is (pid, id, parent id, name, start,
end, extra); spans stay in memory and are written out as JSON lines when the
traced run ends.  Pool workers forked while tracing is on start with an empty
span list and append theirs to their own file after each trace they write,
because a worker's memory is gone once the pool shuts down.
"""

import functools
import itertools
import json
import os
import time
from pathlib import Path

from yoasovi import cli, driver, estimators, gmm, harness, meanfield, sequences


def _run_extra(trace, args):
    s = trace.summary
    return [s.iterations, s.density_evals, s.wall_seconds]


def _decide_extra(accepted, args):
    return int(accepted)


def _trace_bytes(result, args):
    return os.path.getsize(args[1])


# (owner, attribute, span name, extra): owner.attribute is where the caller
# looks the function up; extra(result, args) adds a value to the span.
PATCHES = [
    (sequences.SequenceSource, "next_point", "sequences.next_point", None),
    (estimators, "sample", "meanfield.sample", None),
    (driver, "sample", "meanfield.sample", None),
    (driver, "constrain", "meanfield.constrain", None),
    (meanfield, "constrain", "meanfield.constrain", None),
    (estimators, "log_q", "meanfield.log_q", None),
    (estimators, "score", "meanfield.score", None),
    (driver, "estimate", "estimators.estimate", None),
    (driver, "update_step", "estimators.update_step", None),
    (gmm, "log_joint", "gmm.log_joint", None),
    (gmm, "log_likelihood", "gmm.log_likelihood", None),
    (gmm, "log_prior", "gmm.log_prior", None),
    (gmm, "dic", "gmm.dic", None),
    (driver, "posterior_draw_set", "driver.posterior_draw_set", None),
    (driver, "decide", "acceptance.decide", _decide_extra),
    (driver, "run", "driver.run", _run_extra),
    (harness, "run", "driver.run", _run_extra),
    (cli, "build_matrix", "harness.build_matrix", None),
    (cli, "run_matrix", "harness.run_matrix", None),
    (harness, "write_trace", "harness.write_trace", _trace_bytes),
    (harness, "write_summary", "harness.write_summary", None),
    (cli, "read_trace", "harness.read_trace", None),
]

# A worker hands its spans over after each of these returns.
FLUSH_AFTER = "harness.write_trace"


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit.
    Spans of this process and of its forked workers land in out_dir."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        self._saved = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # Inherited spans belong to the parent, which writes them itself.
        self.pid = os.getpid()
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            self.spans.append((self.pid, sid, parent, name, t0, t1,
                               extra(out, args) if extra else None))
            if name == FLUSH_AFTER and self.pid != self.main_pid:
                self.flush()
            return out

        return wrapper

    def __enter__(self):
        for owner, attr, name, extra in PATCHES:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, extra))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        self.flush()

    def flush(self):
        """Append this process's spans to its own file and forget them."""
        if not self.spans:
            return
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def read_all(self) -> list[tuple]:
        out = []
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                out.extend(tuple(json.loads(line)) for line in fh)
        return out


class Layers:
    """Per-name call counts, inclusive and self time over a set of spans.
    Self time is a span's duration minus the durations of its children;
    spans nest within one process, so the children never overlap."""

    def __init__(self, spans):
        self.spans = spans
        self.calls, self.total, child = {}, {}, {}
        for pid, sid, parent, name, t0, t1, _ in spans:
            d = t1 - t0
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + d
            if parent is not None:
                child[(pid, parent)] = child.get((pid, parent), 0.0) + d
        self.self_time = {}
        for pid, sid, parent, name, t0, t1, _ in spans:
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + (t1 - t0) - child.get((pid, sid), 0.0))

    def mean(self, name, scale=1.0) -> float:
        n = self.calls.get(name, 0)
        return scale * self.total[name] / n if n else 0.0

    def extras(self, name) -> list:
        return [s[6] for s in self.spans if s[3] == name]


def per_layer(layers: Layers, main_pid: int, jobs: int, computed_kb: float,
              untraced_s: float, traced_s: float) -> dict:
    """The per-layer metrics, in BENCHMARK.json order, as (value, unit)."""
    L = layers
    runs = L.extras("driver.run")
    n_runs = len(runs)
    decisions = L.extras("acceptance.decide")
    points = L.calls.get("sequences.next_point", 0)
    dic_phase = L.total.get("driver.posterior_draw_set", 0.0) + L.total.get("gmm.dic", 0.0)
    run_total = L.total.get("driver.run", 0.0)
    worker_run_s = sum(t1 - t0 for pid, _, _, name, t0, t1, _ in L.spans
                       if name == "driver.run" and pid != main_pid)
    run_matrix_s = L.total.get("harness.run_matrix", 0.0)
    all_self = sum(L.self_time.values())
    return {
        "sequences.points": (points, "count"),
        "sequences.next_point.us": (L.mean("sequences.next_point", 1e6), "us"),
        "meanfield.sample.us": (L.mean("meanfield.sample", 1e6), "us"),
        "meanfield.constrain.us": (L.mean("meanfield.constrain", 1e6), "us"),
        "meanfield.log_q.us": (L.mean("meanfield.log_q", 1e6), "us"),
        "meanfield.score.us": (L.mean("meanfield.score", 1e6), "us"),
        "estimators.estimate.calls": (L.calls.get("estimators.estimate", 0), "count"),
        "estimators.estimate.self_us_per_draw": (
            1e6 * L.self_time.get("estimators.estimate", 0.0) / points if points else 0.0, "us"),
        "estimators.update_step.us": (L.mean("estimators.update_step", 1e6), "us"),
        "gmm.log_likelihood.calls": (L.calls.get("gmm.log_likelihood", 0), "count"),
        "gmm.log_likelihood.us": (L.mean("gmm.log_likelihood", 1e6), "us"),
        "gmm.log_likelihood.self_share": (
            L.self_time.get("gmm.log_likelihood", 0.0) / all_self if all_self else 0.0, "ratio"),
        "gmm.log_likelihood.computed_kb": (computed_kb, "kB"),
        "gmm.log_prior.us": (L.mean("gmm.log_prior", 1e6), "us"),
        "driver.loop_s": (sum(r[2] for r in runs) / n_runs if n_runs else 0.0, "s"),
        "driver.dic_phase_s": (dic_phase / n_runs if n_runs else 0.0, "s"),
        "driver.dic_share": (dic_phase / run_total if run_total else 0.0, "ratio"),
        "driver.posterior_draw_set.s": (L.mean("driver.posterior_draw_set"), "s"),
        "gmm.dic.s": (L.mean("gmm.dic"), "s"),
        "driver.iterations": (sum(r[0] for r in runs), "count"),
        "driver.density_evals": (sum(r[1] for r in runs), "count"),
        "acceptance.decisions": (len(decisions), "count"),
        "acceptance.accept_rate": (sum(decisions) / len(decisions) if decisions else 0.0, "ratio"),
        "acceptance.decide.us": (L.mean("acceptance.decide", 1e6), "us"),
        "harness.build_matrix.s": (L.mean("harness.build_matrix"), "s"),
        "harness.run_matrix.s": (L.mean("harness.run_matrix"), "s"),
        "harness.pool_efficiency": (
            worker_run_s / (jobs * run_matrix_s) if run_matrix_s else 0.0, "ratio"),
        "harness.write_trace.ms": (L.mean("harness.write_trace", 1e3), "ms"),
        "harness.trace_bytes": (
            sum(L.extras("harness.write_trace")) / L.calls["harness.write_trace"]
            if L.calls.get("harness.write_trace") else 0.0, "bytes"),
        "harness.write_summary.ms": (L.mean("harness.write_summary", 1e3), "ms"),
        "harness.read_trace.ms": (L.mean("harness.read_trace", 1e3), "ms"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "ratio"),
    }


def log_likelihood_kb(N: int, K: int, p: int) -> float:
    """Bytes one gmm.log_likelihood call moves, computed from its array
    shapes (float64 reads plus writes of each numpy step), in kB.  A model,
    not a measurement: it ignores caches and temporaries numpy elides."""
    nkp, nk, kp = N * K * p, N * K, K * p
    elems = (
        (N * p + kp + nkp)        # y[:, None, :] - means
        + (nkp + kp + nkp)        # / sds
        + (nkp + nkp)             # ** 2
        + (kp + kp + nkp + nkp)   # + log(2 pi sds^2), broadcast
        + (nkp + nk)              # sum over p
        + (nk + nk)               # * -0.5
        + (K + nk + nk)           # log_w + comp
        + (5 * nk + N)            # logsumexp: max, shift, exp, sum, log
    )
    return 8.0 * elems / 1000.0
