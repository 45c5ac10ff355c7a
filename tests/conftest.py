"""Every warning raised while these tests are collected or run is an error,
so that, say, a numpy deprecation on a kernel fails the suite.

Set here rather than in pyproject.toml so that it covers `tests/` only and
`python -m pytest perfbench` keeps its own settings.

One warning is exempt: when an `@given` test fails, the Hypothesis plugin's
report hook touches `mypy_extensions.TypedDict`, which warns that it is
deprecated.  As an error that warning aborts the whole session with
INTERNALERROR, so the failure is never reported and later tests never run.
"""


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error")
    config.addinivalue_line("filterwarnings",
                            "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
