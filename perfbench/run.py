"""The benchmark's command: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload single-draw --seed 0 --seconds 20 --trace 0

Workloads: single-draw, multi-draw, matrix (see workloads.py).  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run and the tracing overhead.  The last line of
standard output is one JSON object with correct, attempted, failed and
metrics.  The exit code is 0 only when every correctness check passed; it
is 2, with no result printed, when the yoasovi sources are not next to this
directory.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("single-draw", "multi-draw", "matrix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="closed-loop measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "yoasovi" / "__init__.py").is_file():
        print(f"perfbench: no yoasovi sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import yoasovi

    if Path(yoasovi.__file__).resolve().parent != src / "yoasovi":
        print(f"perfbench: imported yoasovi from {yoasovi.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
