"""Runs the benchmark once per seed and reports, for each end-to-end metric,
the median and the quartile spread (Q3 - Q1 over the median, from
statistics.quantiles(values, n=4)) next to the metric's bound.

    python3 perfbench/spread.py --workload multi-draw --seeds 0-9 --out spread.json

Seeds take a range ("0-9") or a list ("0,3,7").  The report goes to
.perfbench_out/spread.json unless --out says otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-spread")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out" / "spread.json"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": parse_seeds(args.seeds)}
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            for line in proc.stdout.splitlines():
                if line.startswith("# machine: "):
                    report["machine"] = json.loads(line.removeprefix("# machine: "))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        rows = {}
        for name, bound in bounds.items():
            med, spr = spread([r[name] for r in runs])
            rows[name] = {"median": med, "spread": spr, "bound": bound,
                          "values": [r[name] for r in runs]}
            print(f"  {name:<22} median {med:<14.6g} spread {spr:.4f}  "
                  f"bound/3 {bound / 3:.4f}  {'ok' if spr < bound / 3 else 'WIDE'}")
        report[workload] = rows
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
