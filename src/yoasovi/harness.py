"""Benchmark harness: simulated-data presets, the dataset x method x
replicate matrix, trace and summary files, and trajectory extraction.

File formats are deliberately plain CSV.  Trace rows are written with
repr() floats so that a rerun under the same seed and an injected clock
reproduces the file byte for byte.
"""

import concurrent.futures
import csv
import inspect
import math
from dataclasses import dataclass, fields, make_dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .acceptance import TemperatureSchedule
from .driver import IterationRecord, RunConfig, RunSummary, RunTrace, run
from .errors import ParseError, require_number
from .gmm import Dataset, GmmParams, GmmSpec, load_csv, simulate

TRACE_FIELDS = ["iter", "elapsed_s", "elbo", "accepted", "M"]

# Cluster geometry for the simulated benchmarks.  Component means sit at
# hypercube corners distance 4 apart with unit sds, so the clusters overlap
# in the tails but are unambiguous to the eye.
_PRESET_GEOMETRY = {
    "sim-p2k2": {"means": [[-2.0, -2.0], [2.0, 2.0]], "seed": 123},
    "sim-p2k3": {"means": [[-2.0, -2.0], [2.0, 2.0], [2.0, -2.0]], "seed": 124},
    "sim-p3k4": {"means": [[-2.0, -2.0, -2.0], [2.0, 2.0, -2.0],
                           [-2.0, 2.0, 2.0], [2.0, -2.0, 2.0]], "seed": 125},
}


def make_preset(name: str, N: int = 500, seed: int | None = None) -> tuple[GmmSpec, Dataset]:
    """N points from the named preset's equal-weight, unit-sd mixture (under
    its own seed by default), and the default-prior spec of its shape."""
    if name not in _PRESET_GEOMETRY:
        raise ValueError(f"unknown preset {name!r}; expected one of {tuple(_PRESET_GEOMETRY)}")
    geo = _PRESET_GEOMETRY[name]
    seed = geo["seed"] if seed is None else seed
    means = np.asarray(geo["means"], dtype=float)
    K, p = means.shape
    spec = GmmSpec(K=K, p=p)
    true = GmmParams(weights=np.full(K, 1.0 / K), means=means, sds=np.ones((K, p)))
    data = simulate(spec, true, N=N, seed=seed)
    return spec, replace(data, name=name)


@dataclass(frozen=True)
class ExperimentMatrix:
    """datasets are (name, spec, data) triples; methods are (label, template)
    pairs whose model and seed fields get filled per run.  Replicate r of
    any cell runs under seed base_seed + r.  A (dataset, label) pair names
    a cell's trace files, so each may appear only once."""

    datasets: tuple
    methods: tuple
    replicates: int = 1
    base_seed: int = 0

    def __post_init__(self):
        require_number("replicates", self.replicates, integral=True, minimum=1)
        require_number("base_seed", self.base_seed, integral=True, minimum=0)
        cells = set()
        for ds_name, _, _ in self.datasets:
            for label, _ in self.methods:
                if (ds_name, label) in cells:
                    raise ValueError(f"method label {label!r} appears twice for dataset "
                                     f"{ds_name!r}; the two cells would share trace files")
                cells.add((ds_name, label))


# summary.csv stem -> (RunSummary field, stdout column title, width, decimals).
# Each stem gives SummaryRow a <stem>_mean and a <stem>_sd over a cell's
# finished runs, in this order.
SUMMARY_STATS = {
    "iterations": ("iterations", "iters", 14, 1),
    "seconds": ("wall_seconds", "seconds", 16, 3),
    "elbo": ("final_elbo", "elbo", 22, 1),
    "dic": ("dic", "dic", 22, 1),
}

SummaryRow = make_dataclass(
    "SummaryRow",
    [("dataset", str), ("method", str), ("runs", int), ("errors", int),
     *((f"{stem}_{stat}", float | None) for stem in SUMMARY_STATS for stat in ("mean", "sd")),
     ("converged_frac", float)],
    frozen=True, namespace={"__module__": __name__})  # so rows pickle by name

SUMMARY_FIELDS = [f.name for f in fields(SummaryRow)]


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

    cells = [(ds_name, spec, data, label, template)
             for ds_name, spec, data in matrix.datasets
             for label, template in matrix.methods]
    work = [(replace(template, model=spec, seed=matrix.base_seed + r), data,
             out_dir / "traces" / f"{ds_name}__{label}__r{r}.csv")
            for ds_name, spec, data, label, template in cells
            for r in range(matrix.replicates)]

    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(_run_one, *zip(*work)))
    else:
        summaries = [_run_one(*item, clock=clock) for item in work]

    n = matrix.replicates
    rows = [_summarise_cell(ds_name, label, summaries[i * n:(i + 1) * n])
            for i, (ds_name, _, _, label, _) in enumerate(cells)]
    write_summary(rows, out_dir / "summary.csv")
    return rows


def _stats(values) -> tuple[float | None, float | None]:
    vals = [v for v in values if v is not None and math.isfinite(v)]
    if not vals:
        return None, None
    return float(np.mean(vals)), float(np.std(vals))


def _summarise_cell(dataset: str, method: str, cell: list[RunSummary]) -> SummaryRow:
    ok = [s for s in cell if s.error is None]
    stats = {}
    for stem, (field, *_) in SUMMARY_STATS.items():
        stats[f"{stem}_mean"], stats[f"{stem}_sd"] = _stats([getattr(s, field) for s in ok])
    return SummaryRow(dataset=dataset, method=method, runs=len(cell),
                      errors=len(cell) - len(ok), **stats,
                      converged_frac=sum(s.converged for s in cell) / len(cell))


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


def _write_csv(path, header: list[str], rows) -> None:
    """header and one line per row of values, each value through _fmt and
    quoted where the csv module reads it back only so."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_fmt, row) for row in rows)


def write_trace(trace: RunTrace, path) -> None:
    _write_csv(path, TRACE_FIELDS,
               ((r.t, r.elapsed_s, r.elbo, r.accepted, r.M) for r in trace.records))


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
    _write_csv(path, SUMMARY_FIELDS,
               ([getattr(r, f) for f in SUMMARY_FIELDS] for r in rows))


def format_table(rows: list[SummaryRow]) -> str:
    """Fixed-width summary for stdout: "mean (sd)" per statistic, "-" if none."""
    def ms(row, stem, nd):
        mean, sd = getattr(row, f"{stem}_mean"), getattr(row, f"{stem}_sd")
        return "-" if mean is None else f"{mean:.{nd}f} ({sd:.{nd}f})"

    header = " ".join([f"{'dataset':<10} {'method':<20}",
                       *(f"{title:>{width}}" for _, title, width, _ in SUMMARY_STATS.values()),
                       f"{'conv':>6} {'err':>4}"])
    out = [header, "-" * len(header)]
    for r in rows:
        out.append(" ".join([
            f"{r.dataset:<10} {r.method:<20}",
            *(f"{ms(r, stem, nd):>{width}}" for stem, (_, _, width, nd) in SUMMARY_STATS.items()),
            f"{r.converged_frac:>6.2f} {r.errors:>4}"]))
    return "\n".join(out)


def emit_trajectory(records: list[IterationRecord],
                    horizon_seconds: float) -> list[tuple[float, float]]:
    """(elapsed_s, elbo) pairs for records inside the horizon."""
    if not horizon_seconds >= 0:  # nan too
        raise ValueError(f"horizon must be >= 0, got {horizon_seconds!r}")
    return [(r.elapsed_s, r.elbo) for r in records if r.elapsed_s <= horizon_seconds]


def write_trajectory(series: list[tuple[str, list[tuple[float, float]]]], path) -> None:
    _write_csv(path, ["series", "elapsed_s", "elbo"],
               ((label, elapsed, elbo) for label, rows in series for elapsed, elbo in rows))


# ---------------------------------------------------------------------------
# config files

def load_config(path) -> dict:
    """The four sections, each a mapping ({} if absent or null), with
    experiment.methods a list of mappings and every temper a mapping."""
    sections = ("model", "run", "data", "experiment")
    with open(path) as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            raise ParseError(f"{path}, line {mark.line + 1}: {exc.problem}" if mark
                             else f"{path}: {' '.join(str(exc).split())}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a mapping")
    for name, section in cfg.items():
        if name not in sections:
            raise ValueError(f"{path}: unknown section {name!r}; expected one of {sections}")
        if not isinstance(section, dict | None):
            raise ValueError(f"{path}: section {name} must be a mapping, got {section!r}")
    cfg = {name: cfg.get(name) or {} for name in sections}
    methods = cfg["experiment"].get("methods") or []
    if not (isinstance(methods, list) and all(isinstance(m, dict) for m in methods)):
        raise ValueError(f"{path}: experiment.methods must be a list of mappings: {methods!r}")
    owners = [("run", cfg["run"])] + [
        (f"experiment.methods[{i}]", m) for i, m in enumerate(methods)]
    for where, owner in owners:
        temper = owner.get("temper")
        if not isinstance(temper, dict | None):
            raise ValueError(f"{path}: {where}.temper must be a mapping, got {temper!r}")
        if "temper" in owner:
            owner["temper"] = temper or {}
    return cfg


def _keywords(fn, section: str, keys: dict, **fixed):
    """fn(**keys, **fixed); a key that is not fn's or that the caller fixes is unknown."""
    for key in keys:
        if key in fixed or key not in inspect.signature(fn).parameters:
            raise TypeError(f"unknown {section} key {key!r}")
    return fn(**keys, **fixed)


def resolve_data(data_section: dict, model: dict) -> tuple[str, GmmSpec, Dataset]:
    """Dataset and its spec: make_preset's keywords (preset, n for name, N) or
    load_csv's (csv for path); presets pin K and p over model, CSV data p."""
    sec = dict(data_section)
    if "preset" in sec:
        name, n = sec.pop("preset"), sec.pop("n", 500)
        shape, data = _keywords(make_preset, "data", sec, name=name, N=n)
        pinned = {"K": shape.K, "p": shape.p}
    elif "csv" in sec:
        path = sec.pop("csv")
        data = _keywords(load_csv, "data", sec, path=path)
        pinned = {"p": data.p}
    else:
        raise ValueError("data section needs either a preset name or a csv path")
    spec = _keywords(GmmSpec, "model", {**model, **pinned})
    if data.N < spec.K:
        raise ValueError(f"{data.name} has N={data.N} rows, fewer than K={spec.K} components")
    return data.name, spec, data


def build_matrix(cfg: dict) -> tuple[ExperimentMatrix, dict]:
    """ExperimentMatrix and options (jobs, out) from load_config's sections.
    Each experiment.methods entry is merged over run, temper one level deep,
    and may not set seed (replicates seed from base_seed, else run.seed);
    its optional label names its cells and defaults to the method, so two
    entries of one method need two labels.  The rest of experiment is
    ExperimentMatrix's keywords."""
    name, spec, data = resolve_data(cfg["data"], cfg["model"])
    exp, run_sec = dict(cfg["experiment"]), dict(cfg["run"])
    temper = run_sec.pop("temper", None) or {}
    exp.setdefault("base_seed", run_sec.pop("seed", 0))
    methods = []
    for entry in map(dict, exp.pop("methods", None) or [{}]):
        label = entry.pop("label", None)
        if label is not None and not (isinstance(label, str) and label and "/" not in label):
            raise ValueError(f"label must be a non-empty string without '/', got {label!r}")
        schedule = _keywords(TemperatureSchedule, "temper",
                             {**temper, **(entry.pop("temper", None) or {})})
        template = _keywords(RunConfig, "run", {**run_sec, **entry},
                             seed=0, schedule=schedule, model=spec)
        methods.append((label or template.method, template))
    jobs, out = exp.pop("jobs", 1), exp.pop("out", "results")
    require_number("jobs", jobs, integral=True, minimum=1)
    if not isinstance(out, str):
        raise TypeError(f"out must be a string, got {out!r}")
    matrix = _keywords(ExperimentMatrix, "experiment", exp,
                       datasets=((name, spec, data),), methods=tuple(methods))
    return matrix, {"jobs": jobs, "out": out}
