"""Every warning raised while these tests are collected or run is an error,
so that, say, a numpy deprecation on a kernel fails the suite.

Set here rather than in pyproject.toml so that it covers `tests/` only and
`python -m pytest perfbench` keeps its own settings.
"""


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error")
