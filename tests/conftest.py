"""The heavy tier and the warnings filter, for every test under `tests/`.

A test marked `heavy` is skipped unless RFW_HEAVY=1 is set, so the heavy tier
alone runs with

    RFW_HEAVY=1 pytest -m heavy

Every warning raised while these tests are collected or run is an error,
so that, say, a numpy deprecation on a kernel fails the suite.

Set here rather than in pyproject.toml so that it covers `tests/` only and
`python -m pytest perfbench` keeps its own settings.

One warning is exempt: when an `@given` test fails, the Hypothesis plugin's
report hook touches `mypy_extensions.TypedDict`, which warns that it is
deprecated.  As an error that warning aborts the whole session with
INTERNALERROR, so the failure is never reported and later tests never run.
"""

import os

import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "heavy: the heavy tier, run only when RFW_HEAVY=1")
    config.addinivalue_line("filterwarnings", "error")
    config.addinivalue_line("filterwarnings",
                            "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("RFW_HEAVY") == "1":
        return
    skip = pytest.mark.skip(reason="heavy tier: set RFW_HEAVY=1")
    for item in items:
        if item.get_closest_marker("heavy"):
            item.add_marker(skip)
