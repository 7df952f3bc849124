"""Command line entry points.

yoasovi run --config experiments.yaml [flag overrides...]
yoasovi trajectory --trace out/traces/run.csv --horizon 5 --out traj.csv

A run setting comes from its flag, else the kept experiment.methods entry,
else the run section, else the RunConfig default; temper merges one level
deep.  --method keeps the entries that run it (by their own method, else
run.method); a single-draw one implies --samples 1.  --data and --preset
replace only the source key of a source of their own kind, else the whole
data section, and drop the model keys their data pins (K and p for a
preset, p for a CSV), as a flag beats the config.  The run command exits
1 when every replicate of some dataset x method cell failed; either
command exits 2 with one stderr line on input it cannot use, such as an
unknown config section or key, or an output file it cannot write.
"""

import argparse
import copy
import sys

from .acceptance import SCHEDULES
from .driver import METHODS
from .harness import (any_cell_failed, build_matrix, emit_trajectory, format_table,
                      load_config, read_trace, run_matrix, write_trajectory)


# Run flag (argparse dest; --max-iters for max_iters) -> (section, key,
# add_argument keywords).  A "run" or "temper" (the temper mapping) flag is
# written into the run section and into every kept entry alike.
RUN_FLAGS = {
    "samples": ("run", "samples", {"type": int, "help": "draws per iteration"}),
    "temper": ("temper", "kind", {"choices": SCHEDULES}),
    "k": ("temper", "k", {"type": float, "help": "temperature coefficient"}),
    "patience": ("run", "patience", {"type": int}),
    "max_iters": ("run", "max_iters", {"type": int}),
    "lr": ("run", "learning_rate", {"type": float, "help": "learning rate"}),
    "seed": ("experiment", "base_seed", {"type": int, "help": "base seed; replicate r adds r"}),
    "replicates": ("experiment", "replicates", {"type": int}),
    "jobs": ("experiment", "jobs", {"type": int}),
    "out": ("experiment", "out", {"help": "output directory"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="yoasovi")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a method matrix against a dataset")
    runp.add_argument("--config", required=True, help="YAML config file")
    runp.add_argument("--method", choices=METHODS)
    data = runp.add_mutually_exclusive_group()
    data.add_argument("--data", help="CSV file of observations")
    data.add_argument("--preset", help="simulated dataset name")
    for dest, (_, _, keywords) in RUN_FLAGS.items():
        runp.add_argument("--" + dest.replace("_", "-"), **keywords)

    trajp = sub.add_parser("trajectory", help="extract (elapsed, elbo) rows from traces")
    trajp.add_argument("--trace", action="append", required=True,
                       help="trace CSV; repeat for several series, each labelled by "
                            "its file name less .csv, so no two may share a name")
    trajp.add_argument("--horizon", type=float, required=True,
                       help="keep rows with elapsed_s at or below this many seconds")
    trajp.add_argument("--out", required=True)
    return parser


def apply_overrides(cfg: dict, args) -> dict:
    cfg = copy.deepcopy(cfg)
    run_sec = cfg.setdefault("run", {})
    exp = cfg.setdefault("experiment", {})
    flags = {dest: getattr(args, dest) for dest in RUN_FLAGS}
    exp["methods"] = [m for m in exp.get("methods") or []
                      if args.method in (None, m.get("method", run_sec.get("method")))]
    if args.method:
        run_sec["method"] = args.method
        if METHODS[args.method].rule and args.samples is None:
            flags["samples"] = 1
    if args.data or args.preset:
        kind, source = ("csv", args.data) if args.data else ("preset", args.preset)
        data = cfg.get("data") or {}
        cfg["data"] = {**data, kind: source} if kind in data else {kind: source}
        for key in ("p",) if args.data else ("K", "p"):
            (cfg.get("model") or {}).pop(key, None)
    for dest, (section, key, _) in RUN_FLAGS.items():
        if flags[dest] is None:
            continue
        owners = [exp] if section == "experiment" else [run_sec, *exp["methods"]]
        for owner in owners:
            (owner.setdefault("temper", {}) if section == "temper" else owner)[key] = flags[dest]
    return cfg


def _refuse(command: str, exc: Exception) -> int:
    print(f"yoasovi {command}: error: {exc}", file=sys.stderr)
    return 2


def cmd_run(args) -> int:
    try:
        matrix, options = build_matrix(apply_overrides(load_config(args.config), args))
    except (ValueError, TypeError, OSError) as exc:
        return _refuse("run", exc)
    try:
        rows = run_matrix(matrix, out_dir=options["out"], jobs=options["jobs"])
    except OSError as exc:  # an output path it cannot write; anything else is a bug
        return _refuse("run", exc)
    print(format_table(rows))
    print(f"\nwrote {options['out']}/summary.csv and "
          f"{len(matrix.datasets) * len(matrix.methods) * matrix.replicates} trace files")
    return 1 if any_cell_failed(rows) else 0


def cmd_trajectory(args) -> int:
    labels = [path.rsplit("/", 1)[-1].removesuffix(".csv") for path in args.trace]
    try:
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValueError(f"two traces give the series label {label!r}")
        series = [(label, emit_trajectory(read_trace(path), args.horizon))
                  for label, path in zip(labels, args.trace)]
        write_trajectory(series, args.out)
    except (ValueError, OSError) as exc:
        return _refuse("trajectory", exc)
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
