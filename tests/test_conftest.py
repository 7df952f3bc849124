"""tests/conftest.py lets a failing hypothesis property report as a failure
under the project's filterwarnings."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_property_is_a_failure_and_later_tests_run(pytester):
    """One failing @given test and one passing test, run under the project's
    pyproject.toml and conftest, give "1 failed, 1 passed" and exit 1, not
    INTERNALERROR (exit 3) with the second test never run."""
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    pytester.makeconftest((ROOT / "tests" / "conftest.py").read_text())
    pytester.makepyfile(test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_property.py")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
