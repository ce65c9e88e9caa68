import pytest
from hypothesis import HealthCheck, settings

from qfermat.census import find_witness, run_census

from _util import ACCEPTANCE_LINES

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def census3():
    return run_census(3)


@pytest.fixture(scope="session")
def census4():
    return run_census(4)


@pytest.fixture(scope="session")
def census5():
    """The n = 5 census, shared across the whole run: 15,625 twist-class
    representatives scanned, counts and indices lifted to all 9,765,625
    matrices."""
    return run_census(5, workers=2)


@pytest.fixture(scope="session")
def generic_cy_witness4():
    params = find_witness(4, ["generic", "cy"])
    assert params is not None
    return params


@pytest.fixture(scope="session")
def generic_cy_witness5():
    params = find_witness(5, ["generic", "cy"])
    assert params is not None
    return params


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
