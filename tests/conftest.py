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


# case -> verify_completeness's (report, classes) pair
@pytest.fixture(scope="session")
def gf4_reports(F4):
    return {case: verify_completeness(F4, case) for case in LieCase}


@pytest.fixture(scope="session")
def gf8_reports(F8):
    return {case: verify_completeness(F8, case) for case in LieCase}
