"""Golden digests: what the shipped command lines do, pinned as two sha256
values committed here.

- RUN_DIGEST covers `yoasovi run --config configs/sim_p2k2.yaml
  --max-iters 40 --replicates 2` (all four methods) under a tick clock:
  every trace file, summary.csv, and the bytes of each run's final_lambda.
- MATRIX_DIGEST covers the matrices that 13 argvs resolve to against each
  of the 3 shipped configs: the README's two, perfbench's matrix workload,
  scripts/run_sim_benchmarks.py with and without --quick, each --method,
  and one each of --preset, --temper, --patience and --lr.

A refactor must leave both unchanged.  A change that means to move numbers
updates the digest in the same commit and says why in CHANGES.md; never
update it to make a failure go away."""

import hashlib
import os

import numpy as np
import scipy

from yoasovi import harness
from yoasovi.cli import apply_overrides, build_parser
from yoasovi.harness import build_matrix, load_config, run_matrix

from test_shipped_flags import (CONFIGS, ROOT, perfbench_argv, readme_argvs,
                                script_argvs, with_config)

RUN_DIGEST = "915f6c045c208e75f6df18cb8d8eff5d0b89c2a86176025313036933eb6003ac"
MATRIX_DIGEST = "8ea7877ab6e137c01f68d077feac68a37338300c5826a6348537b27969f192d9"


class TickClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.001
        return self.t


def resolve(argv: list[str]):
    args = build_parser().parse_args(argv)
    return build_matrix(apply_overrides(load_config(args.config), args))


def versions() -> str:
    """The numpy and scipy versions and the BLAS build numpy links, with
    OPENBLAS_CORETYPE when it is set: RUN_DIGEST pins the rounding of the
    BLAS kernel the host dispatches to, so a host mismatch reads as one."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "no openblas configuration")
    out = (f"numpy {np.__version__}, scipy {scipy.__version__}, "
           f"BLAS {blas['name']} {blas['version']} ({config})")
    coretype = os.environ.get("OPENBLAS_CORETYPE")
    return out if coretype is None else f"{out}, OPENBLAS_CORETYPE={coretype}"


def test_sim_p2k2_run_matches_its_golden_digest(tmp_path, monkeypatch):
    lambdas = []
    real_run = harness.run

    def keep_lambda(*args, **kwargs):
        trace = real_run(*args, **kwargs)
        lambdas.append(trace.final_lambda)
        return trace

    monkeypatch.setattr(harness, "run", keep_lambda)
    matrix, _ = resolve(["run", "--config", str(ROOT / "configs" / "sim_p2k2.yaml"),
                         "--max-iters", "40", "--replicates", "2"])
    assert [label for label, _ in matrix.methods] == [
        "mcvi", "qmcvi", "yoasovi-naive", "yoasovi-metropolis"]
    run_matrix(matrix, tmp_path, clock=TickClock())
    h = hashlib.sha256()
    parts = {}  # each hashed part's own sha256, printed on a mismatch
    for path in sorted((tmp_path / "traces").glob("*.csv")) + [tmp_path / "summary.csv"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
        parts[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    for i, lam in enumerate(lambdas):
        h.update(lam.m.tobytes() + lam.log_s.tobytes())
        parts[f"final_lambda[{i}]"] = hashlib.sha256(lam.m.tobytes() + lam.log_s.tobytes()).hexdigest()
    assert len(lambdas) == 8
    assert h.hexdigest() == RUN_DIGEST, "\n".join(
        [versions(), "sha256 of each hashed part:", *(f"  {k} {v}" for k, v in parts.items())])


FLAG_ARGVS = [*(["--method", m] for m in ("mcvi", "qmcvi", "yoasovi-naive",
                                             "yoasovi-metropolis")),
              ["--preset", "sim-p2k3"], ["--temper", "constant"], ["--patience", "7"],
              ["--lr", "1e-6"]]


def test_shipped_argvs_resolve_to_their_golden_matrices(monkeypatch):
    scripts = [*script_argvs(monkeypatch), *script_argvs(monkeypatch, "--quick")]
    h = hashlib.sha256()
    combos = 0
    for config in CONFIGS:
        shipped = [*readme_argvs(), perfbench_argv(),
                   *(a for a in scripts if a[a.index("--config") + 1] == str(config)),
                   *(["run", "--config", str(config), *flags] for flags in FLAG_ARGVS)]
        for argv in shipped:
            matrix, options = resolve(with_config(argv, config))
            for name, spec, data in matrix.datasets:
                h.update(f"{name}|{spec!r}|".encode() + data.values.tobytes())
            h.update(f"{matrix.methods!r}|{matrix.replicates}|{matrix.base_seed}|"
                     f"{sorted(options.items())!r}".encode())
            combos += 1
    assert combos == 39
    assert h.hexdigest() == MATRIX_DIGEST, versions()
