"""Benchmark harness: simulated-data presets, the dataset x method x
replicate matrix, data, trace and summary files, and trajectory extraction.

File formats are deliberately plain CSV, read through one reader.  Floats
are written in their shortest round-trip form, so a rerun under the same
seed and an injected clock reproduces a trace file byte for byte.
"""

import concurrent.futures
import csv
import inspect
import math
import multiprocessing
import os
from dataclasses import dataclass, fields, make_dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .acceptance import TemperatureSchedule
from .driver import METHODS, RunConfig, RunSummary, RunTrace, TraceColumns, run
from .errors import ParseError, require_number
from .gmm import Dataset, GmmParams, GmmSpec, simulate
from .sequences import make_source


def _finite(cell: str) -> float:
    """A finite number in a form float reads, less the digit-grouping _ that
    no CSV writer puts in a number; spaces around it are read."""
    if "_" not in cell and math.isfinite(x := float(cell)):
        return x
    raise ValueError(cell)


def _trace_float(cell: str) -> float:
    """A finite float as str writes it: _finite, with no space around it
    and no leading +."""
    if cell == cell.strip() and not cell.startswith("+"):
        return _finite(cell)
    raise ValueError(cell)


def _trace_int(cell: str) -> int:
    """An int as str writes it: digits only, with no leading zero."""
    if str(t := int(cell)) == cell:
        return t
    raise ValueError(cell)


# Trace column -> cell parser, in IterationRecord field order: write_trace
# writes TraceColumns.rows() under these names and read_trace parses them
# back; a parser raises ValueError on any cell a run does not write.
TRACE_COLUMNS = {"iter": _trace_int, "elapsed_s": _trace_float, "elbo": _trace_float,
                 "accepted": lambda cell: bool(("0", "1").index(cell)),
                 "M": lambda cell: _trace_float(cell) if cell else None}
TRACE_FIELDS = list(TRACE_COLUMNS)

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
    a cell's trace files, so it appears once and neither is empty or has '/'."""

    datasets: tuple
    methods: tuple
    replicates: int = 1
    base_seed: int = 0

    def __post_init__(self):
        require_number("replicates", self.replicates, integral=True, minimum=1)
        require_number("base_seed", self.base_seed, integral=True, minimum=0)
        for kind, name in [*(("dataset name", d[0]) for d in self.datasets),
                           *(("label", m[0]) for m in self.methods)]:
            if not (isinstance(name, str) and name and "/" not in name):
                raise ValueError(f"{kind} must be a non-empty string without '/', got {name!r}")
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
    processes (incompatible with an injected clock), one per run at most:
    a fork pool starts all of its workers up front.  Under the fork start
    method the parent first builds one throwaway source of each kind the
    runs draw from, under seed 0 and never a run's, so that every worker
    inherits the one-time loads (scipy.stats and Sobol's direction numbers)
    instead of paying them at its first run; spawn and forkserver workers
    inherit nothing, so they get no warm-up.
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

    if jobs > 1 and work:
        context = multiprocessing.get_context()  # ProcessPoolExecutor's default
        if context.get_start_method() == "fork":
            for kind in dict.fromkeys(METHODS[config.method].source for config, _, _ in work):
                make_source(kind, 1, seed=0)
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(work)),
                                                    mp_context=context) as pool:
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
    return str(x)


def _write_csv(path, header: list[str], rows) -> None:
    """header and one line per row of values, each value through _fmt and
    quoted where the csv module reads it back only so.  The lines go to a
    temporary file next to path that then replaces it, so a write that
    fails leaves path as it was and no temporary file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(map(_fmt, row) for row in rows)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_rows(path) -> list[tuple[int, list[str]]]:
    """(line, cells) of each non-blank row; blank lines count toward line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        return [(reader.line_num, row) for row in reader if any(c.strip() for c in row)]


def _parse_rows(path, rows, parsers) -> list[list]:
    """Each row's cells through parsers, one per column (None drops it); a row
    of another width or a cell its parser rejects is a ParseError."""
    out = []
    for line, row in rows:
        if len(row) != len(parsers):
            raise ParseError(f"{path}: row {line} has {len(row)} cells, expected {len(parsers)}")
        values = []
        for j, (parse, cell) in enumerate(zip(parsers, row), 1):
            try:
                if parse is not None:
                    values.append(parse(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: bad cell at row {line}, column {j}: {cell!r}") from None
        out.append(values)
    return out


def load_csv(path, label_column: str | None = None) -> Dataset:
    """A rectangular CSV of finite numbers.  A first row with any non-numeric
    cell is a header, and label_column names a header column to drop (class
    labels in benchmark files)."""
    rows = _read_rows(path)
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = None
    try:
        [float(c) for c in rows[0][1]]  # a ValueError marks a header row
    except ValueError:
        header, rows = [c.strip() for c in rows[0][1]], rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows") from None
    if label_column is not None and label_column not in (header or ()):
        raise ParseError(f"{path}: label column {label_column!r} not found in header")
    parsers = [None if c == label_column else _finite for c in header or rows[0][1]]
    if not any(parsers):
        raise ParseError(f"{path}: no data column besides label column {label_column!r}")
    return Dataset(np.asarray(_parse_rows(path, rows, parsers)), name=Path(path).stem)


def write_trace(trace: RunTrace, path) -> None:
    _write_csv(path, TRACE_FIELDS, trace.columns.rows())


def read_trace(path) -> TraceColumns:
    """The columns of a file write_trace wrote: iter counts rows from 1,
    accepted is 0 or 1, every float is finite, and M is empty in every row
    or in none."""
    rows = _read_rows(path)
    if not rows or rows[0][1] != TRACE_FIELDS:
        raise ParseError(f"{path}: expected header {','.join(TRACE_FIELDS)}")
    values = _parse_rows(path, rows[1:], TRACE_COLUMNS.values())
    has_M = bool(values) and values[0][-1] is not None
    for i, ((line, _), (t, *_, M)) in enumerate(zip(rows[1:], values), 1):
        if t != i:
            raise ParseError(f"{path}: row {line} has iter {t}, expected {i}")
        if (M is not None) != has_M:
            raise ParseError(f"{path}: row {line} has {'no' if has_M else 'an'} M value, "
                             f"unlike row {rows[1][0]}")
    _, elapsed_s, elbo, accepted, M = zip(*values) if values else ((),) * len(TRACE_FIELDS)
    return TraceColumns(elapsed_s, elbo, accepted, M if has_M else None)


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


def emit_trajectory(columns: TraceColumns,
                    horizon_seconds: float) -> list[tuple[float, float]]:
    """(elapsed_s, elbo) pairs of the iterations inside the horizon."""
    if not horizon_seconds >= 0:  # nan too
        raise ValueError(f"horizon must be >= 0, got {horizon_seconds!r}")
    inside = columns.elapsed_s <= horizon_seconds
    return list(zip(columns.elapsed_s[inside].tolist(), columns.elbo[inside].tolist()))


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
    """fn(**keys, **fixed); refuses a key fn lacks or the caller fixes, and a missing one."""
    params = inspect.signature(fn).parameters
    for key in keys:
        if key in fixed or key not in params:
            raise TypeError(f"unknown {section} key {key!r}")
    for name, param in params.items():
        if param.default is param.empty and name not in keys and name not in fixed:
            raise TypeError(f"missing {section} key {name!r}")
    return fn(**keys, **fixed)


def resolve_data(data_section: dict, model: dict) -> tuple[str, GmmSpec, Dataset]:
    """Dataset and its spec: make_preset's keywords (preset, n for name, N) or
    load_csv's (csv for path); presets pin K and p, CSV data p; model may only repeat them."""
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
    for key, value in pinned.items():
        if model.get(key, value) != value:
            raise ValueError(f"model.{key} is {model[key]!r}, but {data.name} has {key}={value}")
    spec = _keywords(GmmSpec, "model", {**model, **pinned})
    if data.N < spec.K:
        raise ValueError(f"{data.name} has N={data.N} rows, fewer than K={spec.K} components")
    return data.name, spec, data


def build_matrix(cfg: dict) -> tuple[ExperimentMatrix, dict]:
    """ExperimentMatrix and options (jobs, out) from load_config's sections.
    Each experiment.methods entry is merged over run, temper one level deep;
    neither may set seed, since replicates seed from base_seed;
    its optional label names its cells and defaults to the method, so two
    entries of one method need two labels.  The rest of experiment is
    ExperimentMatrix's keywords."""
    name, spec, data = resolve_data(cfg["data"], cfg["model"])
    exp, run_sec = dict(cfg["experiment"]), dict(cfg["run"])
    temper = run_sec.pop("temper", None) or {}
    methods = []
    for entry in map(dict, exp.pop("methods", None) or [{}]):
        label = entry.pop("label", None)
        schedule = _keywords(TemperatureSchedule, "temper",
                             {**temper, **(entry.pop("temper", None) or {})})
        template = _keywords(RunConfig, "run", {**run_sec, **entry},
                             seed=0, schedule=schedule, model=spec)
        methods.append((template.method if label is None else label, template))
    jobs, out = exp.pop("jobs", 1), exp.pop("out", "results")
    require_number("jobs", jobs, integral=True, minimum=1)
    if not isinstance(out, str):
        raise TypeError(f"out must be a string, got {out!r}")
    matrix = _keywords(ExperimentMatrix, "experiment", exp,
                       datasets=((name, spec, data),), methods=tuple(methods))
    return matrix, {"jobs": jobs, "out": out}
