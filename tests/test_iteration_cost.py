"""scripts/iteration_cost.py --quick: the single-draw timing script runs
and prints what it promises."""

from test_shipped_flags import ROOT, load_module

script = load_module(ROOT / "scripts" / "iteration_cost.py")


def test_quick_run_prints_iteration_and_target_cost(capsys):
    assert script.main(["--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "yoasovi-naive on sim_p2k2.yaml, seeds 0-1, 50 iterations at most"
    assert lines[1].split() == ["round", "us/iteration", "us/target", "ratio", "us/outside",
                                "us/accepted", "us/rejected"]
    assert [line.split()[0] for line in lines[2:]] == ["1", "median", "trace", "refill",
                                                      *["target"] * 3, *["sets"] * 3,
                                                      *["dic"] * 3, *["draw"] * 2, "pool"]
    per_iter, per_target, ratio, outside, accepted, rejected = map(float, lines[3].split()[1:])
    # an iteration includes its target call, one per iteration
    assert 0 < per_target < per_iter
    assert abs(ratio - per_iter / per_target) < 2e-3 * ratio
    assert 0 < outside < per_iter
    assert abs(outside - (per_iter - per_target)) < 0.02 + 1e-3 * per_iter
    # the outside time split by decision averages back to the whole
    assert 0 < rejected and 0 < accepted
    assert min(accepted, rejected) - 0.02 <= outside <= max(accepted, rejected) + 0.02
    # 100 iterations: 25 B each in columns, plus each trace's fixed part
    held = lines[4].split()
    assert held[2:] == ["bytes", "retained", "per", "iteration"] and 0 < float(held[1]) < 100
    # one draw refill per lambda: about one sample pass per accepted
    # iteration, a little more where a run of rejections outlasts the rows
    # computed ahead
    refill = lines[5].split()
    assert refill[2:] == ["sample", "passes", "per", "accepted", "iteration"]
    assert 1.0 <= float(refill[1]) < 1.5
    # one z through the target at each workload's preset
    targets = [line.split() for line in lines[6:9]]
    assert [t[1] for t in targets] == ["sim-p2k2", "sim-p2k3", "sim-p3k4"]
    assert all(t[3:] == ["us", "per", "z"] and 0 < float(t[2]) for t in targets)
    # 1000 stacked sets through log_likelihood at each preset
    sets = [line.split() for line in lines[9:12]]
    assert [t[1] for t in sets] == ["sim-p2k2", "sim-p2k3", "sim-p3k4"]
    assert all(t[3:] == ["ms", "per", "1000", "sets"] and 0 < float(t[2]) for t in sets)
    # the problem's whole DIC phase at each preset, the 1000 sets' kernel within it
    phases = [line.split() for line in lines[12:15]]
    assert [t[1] for t in phases] == ["sim-p2k2", "sim-p2k3", "sim-p3k4"]
    assert all(t[3:] == ["ms", "per", "phase"] and 0 < float(t[2]) for t in phases)
    # the multi-draw workload's two methods: us per draw, and the part of it
    # outside the target call
    draws = [line.split() for line in lines[15:17]]
    assert [t[1:3] for t in draws] == [["qmcvi", "sim-p3k4"], ["mcvi", "sim-p3k4"]]
    for t in draws:
        assert t[4:7] == ["us", "per", "draw"] and t[8] == "outside"
        assert 0 < float(t[7]) < float(t[3])
    # run_matrix(jobs=2) at perfbench's matrix settings: the first call and
    # the median of the later ones
    pool = lines[17].split()
    assert pool[1:3] == ["sim_p2k3.yaml", "jobs=2"]
    assert pool[4:7] == ["ms", "first", "call"] and pool[8:] == ["ms", "later"]
    assert 0 < float(pool[3]) and 0 < float(pool[7])
