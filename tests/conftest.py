# imported before numpy, so the suite runs under the OpenBLAS settings that
# `import pintlab` makes for the CLI and the benchmark
import pintlab  # noqa: F401
import pytest
import scipy.linalg


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running desk-scale experiment")


@pytest.fixture
def gbtrf_calls(monkeypatch):
    """A list that gains one entry per LAPACK gbtrf call made through
    ``scipy.linalg.get_lapack_funcs`` while the test runs."""
    calls = []
    real = scipy.linalg.get_lapack_funcs

    def counted(f):
        return lambda *args, **kw: calls.append(1) or f(*args, **kw)

    def get_lapack_funcs(names, arrays=(), **kw):
        funcs = real(names, arrays, **kw)
        return [counted(f) if name == "gbtrf" else f for name, f in zip(names, funcs)]

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", get_lapack_funcs)
    return calls
