"""The benchmark (perfbench/) calls the library from perfbench/workloads.py
and perfbench/checks.py.  Its own tests take over a minute and are not part
of this suite, so a change to what one of those calls returns would only
show up when the benchmark runs.  This makes each of them once, at the
benchmark's toy sizes."""

import math

import numpy as np
import pytest
from test_shipped_flags import ROOT, load_module

workloads = load_module(ROOT / "perfbench" / "workloads.py")
checks = load_module(ROOT / "perfbench" / "checks.py")

LIBRARY = [name for name, w in workloads.TOY.items() if isinstance(w, workloads.Library)]


@pytest.fixture(scope="module")
def setups():
    return {name: workloads.setup(name, "toy") for name in workloads.WORKLOAD_NAMES}


@pytest.mark.parametrize("name,i", [(name, i) for name in LIBRARY
                                    for i in range(len(workloads.TOY[name].methods))])
def test_each_library_method_passes_the_benchmarks_run_checks(setups, name, i):
    setup = setups[name]
    config = setup.config(workloads.REFERENCE_SEED, i)
    trace, seconds = workloads.run_library(config, setup.data)
    found = checks.Checks()
    checks.check_run(found, config.method, config, trace)
    assert (found.attempted, found.failed) == (3, 0)
    fresh = workloads.fresh_elbo(setup.spec, setup.data, trace.final_lambda,
                                 np.random.default_rng(0))
    assert math.isfinite(fresh) and seconds > 0


def test_log_joint_agrees_with_the_benchmarks_brute_force(setups):
    found = checks.Checks()
    for name in LIBRARY:
        checks.check_log_joint(found, setups[name].spec, setups[name].data,
                               np.random.default_rng(1))
    assert (found.attempted, found.failed) == (3 * len(LIBRARY), 0)


def test_matrix_setup_lists_one_run_per_trace_file(setups):
    ms = setups["matrix"]
    runs = ms.runs(workloads.REFERENCE_SEED)
    assert len(runs) == len(ms.templates) * ms.workload.replicates
    assert len({name for name, _ in runs}) == len(runs)
    assert all(cfg.model == ms.spec and cfg.max_iters == ms.workload.max_iters
               for _, cfg in runs)
