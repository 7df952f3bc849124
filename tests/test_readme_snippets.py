"""Every python block in the README runs as written, each in a fresh
namespace, and prints something; every name `import yoasovi` binds is
documented there, and every name its blocks import from yoasovi is bound."""

import ast
import re
import types
from pathlib import Path

import pytest

import yoasovi

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.DOTALL | re.MULTILINE)


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, capsys):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()


def top_level_names() -> set[str]:
    """The public names `import yoasovi` binds, less its submodules."""
    return {name for name, value in vars(yoasovi).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def readme_imports() -> set[str]:
    """The names the README's python blocks import from yoasovi."""
    return {alias.name for block in BLOCKS for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module == "yoasovi"
            for alias in node.names}


def test_every_top_level_name_is_in_the_readmes_inline_code_or_imports():
    prose = re.sub(r"^```\w*\n.*?^```$", "", TEXT, flags=re.DOTALL | re.MULTILINE)
    documented = {word for span in re.findall(r"`([^`\n]+)`", prose)
                  for word in re.findall(r"\w+", span)}
    assert top_level_names() - documented - readme_imports() == set()


def test_every_name_a_readme_block_imports_from_yoasovi_is_top_level():
    assert readme_imports() and readme_imports() <= top_level_names()
