"""Correctness checks behind the benchmark's result.

Every check counts as attempted.  A failed one counts in ``failed`` (and so
in fail_frac), is reported on stderr, and makes the benchmark exit nonzero.
"""

import math
import sys

import numpy as np
from scipy import stats

from yoasovi import gmm, harness
from yoasovi.gmm import GmmParams


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        return ok


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def check_run(checks: Checks, label: str, config, trace) -> None:
    """A completed run: no error, samples x iterations evaluations, and a
    finite ending ELBO and DIC."""
    s = trace.summary
    checks.check(f"{label} error", s.error is None, s.error)
    checks.check(f"{label} density evaluations", s.density_evals == config.samples * s.iterations,
                 f"{s.density_evals} != {config.samples} x {s.iterations}")
    checks.check(f"{label} finite", _finite(s.final_elbo) and _finite(s.dic),
                 f"final_elbo={s.final_elbo} dic={s.dic}")


def columns(records) -> list:
    """The seed-determined part of a trace: its elbo and accepted columns."""
    return [(r.elbo, r.accepted) for r in records]


def check_same(checks: Checks, label: str, a: list, b: list) -> None:
    checks.check(f"{label} reproduces bit for bit", a == b,
                 f"elbo/accepted columns differ ({len(a)} vs {len(b)} rows)")


def brute_log_joint(spec, data, params: GmmParams) -> float:
    """log p(y, theta) from scipy.stats densities, component by component."""
    comp = stats.norm.logpdf(data.values[:, None, :], params.means[None],
                             params.sds[None]).sum(axis=2) + np.log(params.weights)
    loglik = np.logaddexp.reduce(comp, axis=1).sum()
    prior = (stats.dirichlet.logpdf(params.weights, np.full(spec.K, spec.prior_dirichlet_alpha))
             + stats.norm.logpdf(params.means, 0.0, spec.prior_mean_scale).sum()
             + stats.lognorm.logpdf(params.sds, s=spec.prior_logsd_scale).sum())
    return float(loglik + prior)


def check_log_joint(checks: Checks, spec, data, rng: np.random.Generator, n: int = 3) -> None:
    """gmm.log_joint at n random parameter sets against the scipy.stats
    brute force, to 1e-9 relative."""
    for i in range(n):
        params = GmmParams(weights=rng.dirichlet(np.ones(spec.K)),
                           means=rng.normal(0.0, 3.0, (spec.K, spec.p)),
                           sds=np.exp(rng.normal(0.0, 0.5, (spec.K, spec.p))))
        got = gmm.log_joint(spec, data, params)
        want = brute_log_joint(spec, data, params)
        checks.check(f"gmm.log_joint spot check {i}", abs(got - want) <= 1e-9 * abs(want),
                     f"{got!r} vs scipy.stats {want!r}")


def _lines(path) -> list[str]:
    return path.read_text().splitlines()


def check_matrix_output(checks: Checks, label: str, out_dir, runs) -> dict:
    """Files of one `yoasovi run` + `yoasovi trajectory` call: summary.csv,
    one trace per run, and the trajectory, with their headers and row
    counts.  Returns the records read back, by trace file name."""
    try:
        summary = _lines(out_dir / "summary.csv")
        traj = _lines(out_dir / "trajectory.csv")
        written = sorted(p.name for p in (out_dir / "traces").glob("*.csv"))
    except OSError as exc:
        checks.check(f"{label} output files", False, exc)
        return {}
    n_cells = len({cfg.method for _, cfg in runs})
    checks.check(f"{label} summary.csv", summary[:1] == [",".join(harness.SUMMARY_FIELDS)]
                 and len(summary) == 1 + n_cells, f"{len(summary)} lines")
    checks.check(f"{label} trace files", written == sorted(name for name, _ in runs), written)
    traces, total = {}, 0
    for name, cfg in runs:
        path = out_dir / "traces" / name
        try:
            text = _lines(path)
            records = harness.read_trace(path)
        except (OSError, ValueError) as exc:
            checks.check(f"{label} {name}", False, exc)
            continue
        checks.check(f"{label} {name} rows", text[0] == ",".join(harness.TRACE_FIELDS)
                     and len(records) == len(text) - 1 and 1 <= len(records) <= cfg.max_iters,
                     f"{len(records)} records from {len(text)} lines")
        traces[name] = records
        total += len(records)
    checks.check(f"{label} trajectory.csv", traj[:1] == ["series,elapsed_s,elbo"]
                 and len(traj) == 1 + total, f"{len(traj)} lines for {total} trace rows")
    return traces


def check_summary_matches(checks: Checks, label: str, out_dir, runs, summaries: dict) -> None:
    """summary.csv's elbo_mean and dic_mean per cell equal the means of the
    in-process re-runs of that cell, exactly."""
    rows = {}
    try:
        lines = _lines(out_dir / "summary.csv")
    except OSError as exc:
        checks.check(f"{label} summary.csv", False, exc)
        return
    for line in lines[1:]:
        row = dict(zip(harness.SUMMARY_FIELDS, line.split(",")))
        rows[row["method"]] = row
    for method in {cfg.method for _, cfg in runs}:
        cell = [summaries[name] for name, cfg in runs if cfg.method == method and name in summaries]
        row = rows.get(method)
        ok = row is not None and bool(cell) and all(
            float(row[col]) == float(np.mean([getattr(s, attr) for s in cell]))
            for col, attr in (("elbo_mean", "final_elbo"), ("dic_mean", "dic")))
        checks.check(f"{label} summary.csv {method}", ok, row)
