import pytest

from nodalcurves import SeveriTable, default_config, fit_A


@pytest.fixture(scope="session")
def table():
    """One memo table shared by the session's tests, which run on one thread;
    entries are write-once, so each test sees the values a fresh table gives."""
    return SeveriTable()


@pytest.fixture(scope="session")
def fit1(table):
    return fit_A(default_config(1), table)


@pytest.fixture(scope="session")
def fit2(table):
    return fit_A(default_config(2), table)


@pytest.fixture(scope="session")
def fit3(table):
    return fit_A(default_config(3), table)
