# imported before numpy, so the suite runs under the OpenBLAS settings that
# `import pintlab` makes for the CLI and the benchmark
import pintlab  # noqa: F401
import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running desk-scale experiment")
