"""Command line entry points.

yoasovi run --config experiments.yaml [flag overrides...]
yoasovi trajectory --trace out/traces/run.csv --horizon 5 --out traj.csv

Flags override the run settings, the data source and the experiment's
seed, replicates, jobs and out; flags win.  The model section,
kmeans_style_init, the other data keys and experiment.methods have no
flag.  The run command prints the summary table and exits 1 when every
replicate of some dataset x method cell failed; either command exits 2
with one stderr line on input it cannot use.
"""

import argparse
import copy
import sys

from .driver import METHODS
from .harness import (any_cell_failed, build_matrix, emit_trajectory, format_table,
                      load_config, read_trace, run_matrix, write_trajectory)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="yoasovi")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a method matrix against a dataset")
    runp.add_argument("--config", required=True, help="YAML config file")
    runp.add_argument("--method", choices=METHODS)
    runp.add_argument("--samples", type=int, help="draws per iteration")
    runp.add_argument("--temper", choices=["constant", "log", "linear"])
    runp.add_argument("--k", type=float, help="temperature coefficient")
    runp.add_argument("--patience", type=int)
    runp.add_argument("--max-iters", type=int, dest="max_iters")
    runp.add_argument("--lr", type=float, help="learning rate")
    runp.add_argument("--seed", type=int, help="base seed; replicate r adds r")
    data = runp.add_mutually_exclusive_group()
    data.add_argument("--data", help="CSV file of observations")
    data.add_argument("--preset", help="simulated dataset name")
    runp.add_argument("--replicates", type=int)
    runp.add_argument("--jobs", type=int)
    runp.add_argument("--out", help="output directory")

    trajp = sub.add_parser("trajectory", help="extract (elapsed, elbo) rows from traces")
    trajp.add_argument("--trace", action="append", required=True,
                       help="trace CSV; repeat for several series")
    trajp.add_argument("--horizon", type=float, required=True,
                       help="keep rows with elapsed_s at or below this many seconds")
    trajp.add_argument("--out", required=True)
    return parser


def apply_overrides(cfg: dict, args) -> dict:
    cfg = copy.deepcopy(cfg)
    run_sec = cfg.setdefault("run", {})
    exp = cfg.setdefault("experiment", {})

    if args.method:
        run_sec["method"] = args.method
        methods = exp.get("methods")
        if methods:
            kept = [m for m in methods if m.get("method") == args.method]
            if kept:
                exp["methods"] = kept
            else:
                exp.pop("methods")
        if args.method.startswith("yoasovi") and args.samples is None:
            run_sec["samples"] = 1
    if args.samples is not None:
        run_sec["samples"] = args.samples
    if args.temper:
        run_sec.setdefault("temper", {})["kind"] = args.temper
    if args.k is not None:
        run_sec.setdefault("temper", {})["k"] = args.k
    if args.patience is not None:
        run_sec["patience"] = args.patience
    if args.max_iters is not None:
        run_sec["max_iters"] = args.max_iters
    if args.lr is not None:
        run_sec["learning_rate"] = args.lr
    if args.seed is not None:
        exp["base_seed"] = args.seed
    if args.data:
        cfg["data"] = {"csv": args.data}
    if args.preset:
        cfg["data"] = {"preset": args.preset}
    if args.replicates is not None:
        exp["replicates"] = args.replicates
    if args.jobs is not None:
        exp["jobs"] = args.jobs
    if args.out:
        exp["out"] = args.out
    return cfg


def cmd_run(args) -> int:
    try:
        cfg = apply_overrides(load_config(args.config), args)
        matrix, options = build_matrix(cfg)
    except (ValueError, TypeError, OSError) as exc:
        print(f"yoasovi run: error: {exc}", file=sys.stderr)
        return 2
    rows = run_matrix(matrix, out_dir=options["out"], jobs=options["jobs"])
    print(format_table(rows))
    print(f"\nwrote {options['out']}/summary.csv and "
          f"{len(matrix.datasets) * len(matrix.methods) * matrix.replicates} trace files")
    return 1 if any_cell_failed(rows) else 0


def cmd_trajectory(args) -> int:
    try:
        series = [(path.rsplit("/", 1)[-1].removesuffix(".csv"),
                   emit_trajectory(read_trace(path), args.horizon)) for path in args.trace]
    except (ValueError, OSError) as exc:
        print(f"yoasovi trajectory: error: {exc}", file=sys.stderr)
        return 2
    write_trajectory(series, args.out)
    total = sum(len(rows) for _, rows in series)
    print(f"wrote {total} rows to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_trajectory(args)


if __name__ == "__main__":
    sys.exit(main())
