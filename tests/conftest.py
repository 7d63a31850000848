# imported before numpy, so the suite runs under the OpenBLAS settings that
# `import pintlab` makes for the CLI and the benchmark
import pintlab  # noqa: F401
import pytest

from pintlab import kernels


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running desk-scale experiment")


@pytest.fixture
def gbtrf_calls(monkeypatch):
    """A list that gains one entry per LAPACK gbtrf call made through
    ``kernels._lapack``, the one binding of the LAPACK routines, while the
    test runs."""
    calls = []
    real = kernels._lapack

    def counted(f):
        return lambda *args, **kw: calls.append(1) or f(*args, **kw)

    def lapack(dtype, *names):
        funcs = real(dtype, *names)
        return [counted(f) if name == "gbtrf" else f for name, f in zip(names, funcs)]

    monkeypatch.setattr(kernels, "_lapack", lapack)
    return calls
