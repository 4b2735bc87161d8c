"""Shared pytest hooks: name the Python and numpy that ran, and keep a failing
hypothesis test from ending the session.

The byte-pinned outputs depend on numpy's arithmetic, so a failure should say
which numpy produced it. The header shows at default verbosity; CI runs with
``-q``, which hides it, so a run with failures repeats it in the summary.

When a ``@given`` test fails, hypothesis's report hook imports
``hypothesis.extra._patching``. Where ``libcst`` is installed, that import
pulls in ``mypy_extensions``, which warns ``DeprecationWarning: TypedDict is
deprecated``; under ``-W error`` the warning becomes ``INTERNALERROR``, the
falsifying example goes unreported and no later test runs. Importing the
module here, with that one warning class ignored, makes the hook's import a
lookup.
"""

import platform
import warnings

import numpy

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

VERSIONS = f"qtask: Python {platform.python_version()}, numpy {numpy.__version__}"


def pytest_report_header(config):
    return VERSIONS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if terminalreporter.stats.get("failed") or terminalreporter.stats.get("error"):
        terminalreporter.write_line(VERSIONS)
