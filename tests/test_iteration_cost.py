"""scripts/iteration_cost.py --quick: the single-draw timing script runs
and prints what it promises."""

from test_shipped_flags import ROOT, load_module

script = load_module(ROOT / "scripts" / "iteration_cost.py")


def test_quick_run_prints_iteration_and_target_cost(capsys):
    assert script.main(["--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "yoasovi-naive on sim_p2k2.yaml, seeds 0-1, 50 iterations at most"
    assert lines[1].split() == ["round", "us/iteration", "us/target", "ratio"]
    assert [line.split()[0] for line in lines[2:]] == ["1", "median", "trace", *["target"] * 3]
    per_iter, per_target, ratio = map(float, lines[3].split()[1:])
    # an iteration includes its target call
    assert 0 < per_target < per_iter
    assert abs(ratio - per_iter / per_target) < 2e-3 * ratio
    # 100 iterations: 25 B each in columns, plus each trace's fixed part
    held = lines[4].split()
    assert held[2:] == ["bytes", "retained", "per", "iteration"] and 0 < float(held[1]) < 100
    # one z through the target at each workload's preset
    targets = [line.split() for line in lines[5:]]
    assert [t[1] for t in targets] == ["sim-p2k2", "sim-p2k3", "sim-p3k4"]
    assert all(t[3:] == ["us", "per", "z"] and 0 < float(t[2]) for t in targets)
