"""Shared pytest hooks: name the Python and numpy that ran.

The byte-pinned outputs depend on numpy's arithmetic, so a failure should say
which numpy produced it. The header shows at default verbosity; CI runs with
``-q``, which hides it, so a run with failures repeats it in the summary.
"""

import platform

import numpy

VERSIONS = f"qtask: Python {platform.python_version()}, numpy {numpy.__version__}"


def pytest_report_header(config):
    return VERSIONS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if terminalreporter.stats.get("failed") or terminalreporter.stats.get("error"):
        terminalreporter.write_line(VERSIONS)
