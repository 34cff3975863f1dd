import pytest

from realhurwitz import RunConfig, coverings, polysolve, verify


@pytest.fixture()
def cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def session_cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def sweep_report(session_cfg):
    """The d <= 4, k <= 3 verification sweep, shared across acceptance tests."""
    import time

    from realhurwitz import run_sweep

    start = time.monotonic()
    report = run_sweep(4, 3, session_cfg)
    report_seconds = time.monotonic() - start
    return report, report_seconds


@pytest.fixture()
def solves(monkeypatch):
    """Records the spec of every solve_all call made through the library.

    Patches each module binding of solve_all; the package imports nothing
    at call time, so these bindings cover every solve.
    """
    calls = []
    original = polysolve.solve_all

    def counting(spec, *args, **kwargs):
        calls.append(spec)
        return original(spec, *args, **kwargs)

    for module in (polysolve, coverings, verify):
        monkeypatch.setattr(module, "solve_all", counting)
    return calls
