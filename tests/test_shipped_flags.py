"""The flag table in cli.py and the command lines the repo ships stay in
step: every `yoasovi run` option goes through the table and is named in
the README's "Command line" paragraph, and every argv
in the README, scripts/run_sim_benchmarks.py and perfbench's matrix
workload builds a matrix from each shipped config, with every flag it
sets reaching every cell.  An unknown key in any section of a shipped
config, or an unknown section, is refused by name, and every key a shipped
config sets takes effect, as it stands or under --data.  The README's
"Layout" block names every module in src/yoasovi/."""

import argparse
import copy
import importlib.util
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from yoasovi import cli
from yoasovi.acceptance import SCHEDULES
from yoasovi.cli import RUN_FLAGS, apply_overrides, build_parser
from yoasovi.driver import METHODS
from yoasovi.harness import _PRESET_GEOMETRY, build_matrix, load_config

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
NO_TABLE = {"config", "method", "data", "preset"}


def load_module(path: Path):
    spec = importlib.util.spec_from_file_location(f"shipped_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_argvs() -> list[list[str]]:
    """Every `yoasovi run` command in the README, continuation lines joined."""
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("yoasovi run ")]


def script_argvs(monkeypatch, *script_args) -> list[list[str]]:
    script = load_module(ROOT / "scripts" / "run_sim_benchmarks.py")
    seen = []
    monkeypatch.setattr(script, "cli_main", lambda argv: seen.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", ["run_sim_benchmarks.py", *script_args])
    assert script.main() == 0
    return seen


def perfbench_argv() -> list[str]:
    workloads = load_module(ROOT / "perfbench" / "workloads.py")
    return workloads.MatrixSetup(workloads.FULL["matrix"], None, None, (), "").argv(0, "out")


def with_config(argv: list[str], config: Path) -> list[str]:
    argv = list(argv)
    argv[argv.index("--config") + 1] = str(config)
    return argv


def assert_every_flag_reaches_every_cell(argv: list[str]) -> None:
    args = build_parser().parse_args(argv)
    matrix, options = build_matrix(apply_overrides(load_config(args.config), args))
    assert matrix.methods
    for dest, (section, key, _) in RUN_FLAGS.items():
        value = getattr(args, dest)
        if value is None:
            continue
        if section == "experiment":
            got = [options[key] if key in options else getattr(matrix, key)]
        else:
            got = [getattr(t.schedule if section == "temper" else t, key)
                   for _, t in matrix.methods]
        assert got == [value] * len(got), dest


def run_actions() -> list[argparse.Action]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices["run"]._actions if a.dest != "help"]


def test_every_run_option_goes_through_the_flag_table():
    dests = {a.dest for a in run_actions()}
    assert dests - NO_TABLE == set(RUN_FLAGS)


def test_the_readme_command_line_paragraph_names_every_run_option():
    """The paragraph that follows the first example under "Command line"
    names each `yoasovi run` flag but --config, and no other."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    paragraph = section.split("```\n")[2].strip().split("\n\n")[0]
    named = set(re.findall(r"`(--[a-z][a-z-]*)", paragraph)) | {"--config"}
    assert named == {o for a in run_actions() for o in a.option_strings}


def test_the_readme_layout_names_every_module():
    """The src/yoasovi/ part of the README's "Layout" block lists each
    module but __init__.py, and no other."""
    block = (ROOT / "README.md").read_text().split("\n## Layout\n", 1)[1].split("```")[1]
    lines = block.split("\nsrc/yoasovi/\n", 1)[1].splitlines()
    listed = set()
    for line in lines:
        if not line.startswith(" "):
            break
        listed.update(re.findall(r"^  (\w+\.py)\b", line))
    modules = {p.name for p in (ROOT / "src" / "yoasovi").glob("*.py")} - {"__init__.py"}
    assert listed == modules


def test_the_readme_ships_a_run_example():
    assert any("--method" in argv for argv in readme_argvs())


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_shipped_argvs_build_a_matrix_from_every_config(config, monkeypatch):
    argvs = [*readme_argvs(), perfbench_argv(),
             *script_argvs(monkeypatch), *script_argvs(monkeypatch, "--quick")]
    assert len(argvs) >= 8
    for argv in argvs:
        assert_every_flag_reaches_every_cell(with_config(argv, config))


@pytest.mark.parametrize("section", ["model", "run", "data", "experiment", None],
                         ids=["model", "run", "data", "experiment", "new-section"])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_unknown_key_in_a_shipped_config_is_refused_by_name(config, section, tmp_path,
                                                           monkeypatch, capsys):
    cfg = yaml.safe_load(config.read_text())
    if section is None:
        cfg["bogus_section"], named = {}, "'bogus_section'"
    else:
        cfg[section]["bogus_key"], named = 1, "'bogus_key'"
    path = tmp_path / config.name
    path.write_text(yaml.safe_dump(cfg))
    monkeypatch.setattr(cli, "run_matrix", lambda *a, **k: pytest.fail("the matrix ran"))
    assert cli.main(["run", "--config", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and named in lines[0], lines


def leaves(node, path=()):
    """(path, value) of every scalar in a loaded config, list entries by index."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, dict | list):
            yield from leaves(value, (*path, key))
        else:
            yield (*path, key), value


def another(value):
    """A different value of value's kind: a flipped bool, an int + 1, a
    float x 2, the next method, schedule kind or preset, a suffixed string."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2
    for names in (list(METHODS), list(SCHEDULES), list(_PRESET_GEOMETRY)):
        if value in names:
            return names[(names.index(value) + 1) % len(names)]
    return value + "-x"


def write_points(path: Path) -> Path:
    """An 8-row, 2-column CSV of observations, enough rows for any shipped K + 1."""
    rng = np.random.default_rng(0)
    np.savetxt(path, rng.normal(size=(8, 2)), delimiter=",")
    return path


def resolved(cfg: dict, csv: Path):
    """What build_matrix makes of cfg as it stands and under --data csv, each
    comparable with == or None if build_matrix refuses it."""
    views = []
    for argv in ([], ["--data", str(csv)]):
        args = build_parser().parse_args(["run", "--config", "unused.yaml", *argv])
        try:
            matrix, options = build_matrix(apply_overrides(cfg, args))
        except (ValueError, TypeError):
            views.append(None)
            continue
        datasets = [(name, spec, data.values.tobytes()) for name, spec, data in matrix.datasets]
        views.append((datasets, matrix.methods, matrix.replicates, matrix.base_seed, options))
    return views


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_every_key_a_shipped_config_sets_takes_effect(config, tmp_path):
    """Another value at any leaf either resolves to another matrix or
    options, or is refused, with the config as it stands or under --data
    (the README runs a shipped config on a CSV, where model.K sets K): a
    key whose value changes nothing in either would say more than the
    config does."""
    csv = write_points(tmp_path / "pts.csv")
    cfg = load_config(config)
    before = resolved(cfg, csv)
    assert None not in before
    no_ops = []
    for path, value in leaves(cfg):
        assert another(value) != value, path
        edited = copy.deepcopy(cfg)
        *parents, key = path
        target = edited
        for step in parents:
            target = target[step]
        target[key] = another(value)
        if resolved(edited, csv) == before:
            no_ops.append(".".join(map(str, path)))
    assert not no_ops, f"keys that change nothing: {no_ops}"


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_data_flag_runs_a_shipped_config_on_a_csv(config, tmp_path, capsys):
    """--data on a shipped config fits the CSV with the config's own model.K,
    which matches its preset's; the CSV pins only p."""
    cfg = load_config(config)
    preset_k = len(_PRESET_GEOMETRY[cfg["data"]["preset"]]["means"])
    csv = write_points(tmp_path / "pts.csv")
    argv = ["run", "--config", str(config), "--data", str(csv), "--max-iters", "3",
            "--replicates", "1", "--out", str(tmp_path / "res")]
    args = build_parser().parse_args(argv)
    matrix, _ = build_matrix(apply_overrides(cfg, args))
    [(name, spec, data)] = matrix.datasets
    assert (name, spec.K, spec.p, data.N) == ("pts", cfg["model"]["K"], 2, 8)
    assert spec.K == preset_k
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert len(list((tmp_path / "res" / "traces").glob("pts__*__r0.csv"))) == len(matrix.methods)
