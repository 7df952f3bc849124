"""Benchmark harness: simulated-data presets, the dataset x method x
replicate matrix, trace and summary files, and trajectory extraction.

File formats are deliberately plain CSV.  Trace rows are written with
repr() floats so that a rerun under the same seed and an injected clock
reproduces the file byte for byte.
"""

import concurrent.futures
import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .acceptance import TemperatureSchedule
from .driver import IterationRecord, RunConfig, RunSummary, RunTrace, run
from .gmm import Dataset, GmmParams, GmmSpec, load_csv, simulate

TRACE_FIELDS = ["iter", "elapsed_s", "elbo", "accepted", "M"]
SUMMARY_FIELDS = [
    "dataset", "method", "runs", "errors",
    "iterations_mean", "iterations_sd", "seconds_mean", "seconds_sd",
    "elbo_mean", "elbo_sd", "dic_mean", "dic_sd", "converged_frac",
]

# Cluster geometry for the simulated benchmarks.  Component means sit at
# hypercube corners distance 4 apart with unit sds, so the clusters overlap
# in the tails but are unambiguous to the eye.
_PRESET_GEOMETRY = {
    "sim-p2k2": {"p": 2, "means": [[-2.0, -2.0], [2.0, 2.0]], "seed": 123},
    "sim-p2k3": {"p": 2, "means": [[-2.0, -2.0], [2.0, 2.0], [2.0, -2.0]], "seed": 124},
    "sim-p3k4": {"p": 3, "means": [[-2.0, -2.0, -2.0], [2.0, 2.0, -2.0],
                                   [-2.0, 2.0, 2.0], [2.0, -2.0, 2.0]], "seed": 125},
}

PRESET_NAMES = tuple(_PRESET_GEOMETRY)


def make_preset(name: str, N: int = 500, seed: int | None = None,
                means=None, sds=None, weights=None,
                prior_mean_scale: float = 10.0,
                prior_dirichlet_alpha: float = 1.0,
                prior_logsd_scale: float = 1.0) -> tuple[GmmSpec, Dataset]:
    """Simulated dataset by name; true parameters can be overridden."""
    if name not in _PRESET_GEOMETRY:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    geo = _PRESET_GEOMETRY[name]
    means = np.asarray(means if means is not None else geo["means"], dtype=float)
    K, p = means.shape
    if p != geo["p"]:
        raise ValueError(f"preset {name} is {geo['p']}-dimensional")
    sds = np.full((K, p), 1.0) if sds is None else np.asarray(sds, dtype=float)
    weights = np.full(K, 1.0 / K) if weights is None else np.asarray(weights, dtype=float)
    spec = GmmSpec(K=K, p=p, prior_mean_scale=prior_mean_scale,
                   prior_dirichlet_alpha=prior_dirichlet_alpha,
                   prior_logsd_scale=prior_logsd_scale)
    true = GmmParams(weights=weights, means=means, sds=sds)
    data = simulate(spec, true, N=N, seed=geo["seed"] if seed is None else seed)
    return spec, replace(data, name=name)


@dataclass(frozen=True)
class ExperimentMatrix:
    """datasets are (name, spec, data) triples; methods are (label, template)
    pairs whose model and seed fields get filled per run.  Replicate r of
    any cell runs under seed base_seed + r."""

    datasets: tuple
    methods: tuple
    replicates: int
    base_seed: int = 0

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")


@dataclass(frozen=True)
class SummaryRow:
    dataset: str
    method: str
    runs: int
    errors: int
    iterations_mean: float
    iterations_sd: float
    seconds_mean: float
    seconds_sd: float
    elbo_mean: float | None
    elbo_sd: float | None
    dic_mean: float | None
    dic_sd: float | None
    converged_frac: float


def _trace_path(out_dir: Path, dataset: str, label: str, r: int) -> Path:
    return out_dir / "traces" / f"{dataset}__{label}__r{r}.csv"


def _run_one(config: RunConfig, data: Dataset, path: Path, clock=None) -> RunSummary:
    trace = run(config, data, clock=clock)
    write_trace(trace, path)
    return trace.summary


def run_matrix(matrix: ExperimentMatrix, out_dir, jobs: int = 1,
               clock=None) -> list[SummaryRow]:
    """Run every cell, writing one trace file per run plus summary.csv.

    Aborted runs are kept: they count in the errors column and are simply
    left out of the mean/sd statistics.  jobs > 1 runs cells in worker
    processes (incompatible with an injected clock).
    """
    if jobs > 1 and clock is not None:
        raise ValueError("an injected clock cannot cross process boundaries")
    out_dir = Path(out_dir)
    (out_dir / "traces").mkdir(parents=True, exist_ok=True)

    work = []
    for ds_name, spec, data in matrix.datasets:
        for label, template in matrix.methods:
            for r in range(matrix.replicates):
                config = replace(template, model=spec, seed=matrix.base_seed + r)
                work.append((config, data, _trace_path(out_dir, ds_name, label, r)))

    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(_run_one, *zip(*work)))
    else:
        summaries = [_run_one(*item, clock=clock) for item in work]

    rows = []
    i = 0
    for ds_name, spec, data in matrix.datasets:
        for label, template in matrix.methods:
            cell = summaries[i : i + matrix.replicates]
            i += matrix.replicates
            rows.append(_summarise_cell(ds_name, label, cell))
    write_summary(rows, out_dir / "summary.csv")
    return rows


def _stats(values) -> tuple[float | None, float | None]:
    vals = [v for v in values if v is not None and math.isfinite(v)]
    if not vals:
        return None, None
    return float(np.mean(vals)), float(np.std(vals))


def _summarise_cell(dataset: str, method: str, cell: list[RunSummary]) -> SummaryRow:
    ok = [s for s in cell if s.error is None]
    it_m, it_s = _stats([s.iterations for s in ok])
    sec_m, sec_s = _stats([s.wall_seconds for s in ok])
    el_m, el_s = _stats([s.final_elbo for s in ok])
    dic_m, dic_s = _stats([s.dic for s in ok])
    return SummaryRow(
        dataset=dataset, method=method, runs=len(cell), errors=len(cell) - len(ok),
        iterations_mean=it_m, iterations_sd=it_s,
        seconds_mean=sec_m, seconds_sd=sec_s,
        elbo_mean=el_m, elbo_sd=el_s, dic_mean=dic_m, dic_sd=dic_s,
        converged_frac=sum(s.converged for s in cell) / len(cell),
    )


def any_cell_failed(rows: list[SummaryRow]) -> bool:
    return any(r.errors == r.runs for r in rows)


# ---------------------------------------------------------------------------
# trace and summary files

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_trace(trace: RunTrace, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(TRACE_FIELDS)]
    for r in trace.records:
        lines.append(",".join(
            [str(r.t), _fmt(r.elapsed_s), _fmt(r.elbo), _fmt(r.accepted), _fmt(r.M)]))
    path.write_text("\n".join(lines) + "\n")


def read_trace(path) -> list[IterationRecord]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != TRACE_FIELDS:
            raise ValueError(f"{path}: expected header {','.join(TRACE_FIELDS)}")
        return [IterationRecord(t=int(row["iter"]), elapsed_s=float(row["elapsed_s"]),
                                elbo=float(row["elbo"]), accepted=bool(int(row["accepted"])),
                                M=float(row["M"]) if row["M"] else None)
                for row in reader]


def write_summary(rows: list[SummaryRow], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(SUMMARY_FIELDS)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, f)) for f in SUMMARY_FIELDS))
    path.write_text("\n".join(lines) + "\n")


def format_table(rows: list[SummaryRow]) -> str:
    """Fixed-width summary for stdout."""
    def ms(mean, sd, nd=1):
        if mean is None:
            return "-"
        return f"{mean:.{nd}f} ({sd:.{nd}f})"

    header = f"{'dataset':<10} {'method':<20} {'iters':>14} {'seconds':>16} " \
             f"{'elbo':>22} {'dic':>22} {'conv':>6} {'err':>4}"
    out = [header, "-" * len(header)]
    for r in rows:
        out.append(
            f"{r.dataset:<10} {r.method:<20} {ms(r.iterations_mean, r.iterations_sd):>14} "
            f"{ms(r.seconds_mean, r.seconds_sd, 3):>16} {ms(r.elbo_mean, r.elbo_sd):>22} "
            f"{ms(r.dic_mean, r.dic_sd):>22} {r.converged_frac:>6.2f} {r.errors:>4}")
    return "\n".join(out)


def emit_trajectory(records: list[IterationRecord],
                    horizon_seconds: float) -> list[tuple[float, float]]:
    """(elapsed_s, elbo) pairs for records inside the horizon."""
    if horizon_seconds < 0:
        raise ValueError("horizon must be >= 0")
    return [(r.elapsed_s, r.elbo) for r in records if r.elapsed_s <= horizon_seconds]


def write_trajectory(series: list[tuple[str, list[tuple[float, float]]]], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["series,elapsed_s,elbo"]
    for label, rows in series:
        for elapsed, elbo in rows:
            lines.append(f"{label},{_fmt(elapsed)},{_fmt(elbo)}")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config files

def load_config(path) -> dict:
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a mapping")
    return cfg


def build_run_config(run_section: dict, model: GmmSpec | None = None) -> RunConfig:
    """RunConfig from the nested run section; 'temper' maps to the schedule."""
    sec = dict(run_section or {})
    temper = sec.pop("temper", None)
    schedule = TemperatureSchedule(**temper) if temper else TemperatureSchedule()
    if "method" not in sec:
        raise ValueError("run section needs a method")
    return RunConfig(schedule=schedule, model=model, **sec)


def resolve_data(data_section: dict, model: dict | None) -> tuple[str, GmmSpec, Dataset]:
    """Dataset plus the spec it should be fit with, from the data section.

    Presets pin K and p by name; the prior scales still come from the model
    section.  CSV data takes the full spec from the model section.
    """
    sec = dict(data_section or {})
    model = dict(model or {})
    if "preset" in sec:
        name = sec["preset"]
        priors = {k: v for k, v in model.items() if k not in ("K", "p")}
        spec, data = make_preset(name, N=sec.get("n", 500), seed=sec.get("seed"),
                                 means=sec.get("means"), sds=sec.get("sds"),
                                 weights=sec.get("weights"), **priors)
        return name, spec, data
    if "csv" in sec:
        data = load_csv(sec["csv"], label_column=sec.get("label_column"))
        spec = GmmSpec(**{**model, "p": data.p})
        return data.name, spec, data
    raise ValueError("data section needs either a preset name or a csv path")


def build_matrix(cfg: dict) -> tuple[ExperimentMatrix, dict]:
    """ExperimentMatrix plus execution options from a parsed config."""
    name, spec, data = resolve_data(cfg.get("data"), cfg.get("model"))
    exp = dict(cfg.get("experiment") or {})
    run_section = dict(cfg.get("run") or {})

    method_sections = exp.get("methods") or [run_section]
    methods = []
    for override in method_sections:
        merged = {**run_section, **override}
        merged.pop("seed", None)
        template = build_run_config({**merged, "seed": 0}, model=spec)
        methods.append((template.method, template))

    matrix = ExperimentMatrix(
        datasets=((name, spec, data),),
        methods=tuple(methods),
        replicates=int(exp.get("replicates", 1)),
        base_seed=int(exp.get("base_seed", run_section.get("seed", 0))),
    )
    options = {"jobs": int(exp.get("jobs", 1)), "out": exp.get("out", "results")}
    return matrix, options
