"""The flag table in cli.py and the command lines the repo ships stay in
step: every `yoasovi run` option goes through the table and is named in
the README's "Command line" paragraph, and every argv
in the README, scripts/run_sim_benchmarks.py and perfbench's matrix
workload builds a matrix from each shipped config, with every flag it
sets reaching every cell.  An unknown key in any section of a shipped
config, or an unknown section, is refused by name.  The README's "Layout"
block names every module in src/yoasovi/."""

import argparse
import importlib.util
import re
import shlex
import sys
from pathlib import Path

import pytest
import yaml

from yoasovi import cli
from yoasovi.cli import RUN_FLAGS, apply_overrides, build_parser
from yoasovi.harness import build_matrix, load_config

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
