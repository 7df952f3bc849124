"""scripts/code_lines.py: the code-line counter counts what it promises."""

from test_shipped_flags import ROOT, load_module

script = load_module(ROOT / "scripts" / "code_lines.py")

FIXTURE = '''"""A module docstring
over two lines."""

# a comment


def f(x):
    """A function docstring."""
    y = (x +
         1)  # a two-line statement
    s = """a string
that is not a docstring"""
    return y, s


class C:
    """A class docstring."""
'''


def test_a_fixture_gets_its_known_count(tmp_path, capsys):
    # def f, the statement's two lines, the string's two, return, class C
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert script.main([str(path)]) == 0
    assert capsys.readouterr().out.split() == ["7", str(path), "7", "total"]


def test_the_total_over_the_package_is_the_sum_of_its_files(capsys):
    assert script.main([str(ROOT / "src" / "yoasovi")]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines[-1][1] == "total" and len(lines) > 2
    files = lines[:-1]
    assert all(name.endswith(".py") for _, name in files)
    assert int(lines[-1][0]) == sum(int(n) for n, _ in files) > 0
