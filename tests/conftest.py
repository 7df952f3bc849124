"""Set-up shared by every test module."""

import contextlib
import warnings

# tests/test_conftest.py runs pytest on a scratch project of its own
pytest_plugins = ("pytester",)

# When a hypothesis property fails, hypothesis' pytest plugin imports
# hypothesis.extra._patching inside its report hook to write a patch.  That
# imports libcst and then mypy_extensions, whose DeprecationWarning the
# project's filterwarnings turns into an error inside the hook, so the
# session ended in INTERNALERROR and skipped every later test.  Imported once
# here with its warnings ignored, the plugin's import finds it loaded; the
# plugin itself goes without it when libcst is missing.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401
