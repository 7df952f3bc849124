"""Child process behind setup_s: starts a fresh interpreter the way the
benchmark does, builds one workload's inputs, and prints "ready" at the
point where the workload's first run would start.

    python3 perfbench/setup_probe.py <workload> <sizes>
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.setup(sys.argv[1], sys.argv[2])
    print("ready", flush=True)
