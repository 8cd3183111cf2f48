import pytest

from folclass import GF
from folclass.derivation import LieCase
from folclass.enumerator import verify_completeness


@pytest.fixture(scope="session")
def F2():
    return GF(2)


@pytest.fixture(scope="session")
def F4():
    return GF(4)


@pytest.fixture(scope="session")
def F8():
    return GF(8)


@pytest.fixture(scope="session")
def F16():
    return GF(16)


@pytest.fixture(scope="session")
def F9():
    return GF(9)


# GF(4) scans serially and GF(8) through the worker pool, so every run of the
# suite goes through both paths
@pytest.fixture(scope="session")
def gf4_reports(F4):
    return {case: verify_completeness(F4, case, jobs=1) for case in LieCase}


@pytest.fixture(scope="session")
def gf8_reports(F8):
    return {case: verify_completeness(F8, case, jobs=2) for case in LieCase}
