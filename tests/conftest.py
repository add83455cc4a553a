import pytest
from hypothesis import settings

from moddef.fixtures import fixture_a, fixture_b, fixture_c

# Every property test is deterministic: examples come from a fixed seed, no
# example database carries over between runs, and slow examples never fail.
settings.register_profile("moddef", derandomize=True, database=None, deadline=None)
settings.load_profile("moddef")


@pytest.fixture(scope="session")
def pair_a():
    return fixture_a()


@pytest.fixture(scope="session")
def pair_b():
    return fixture_b()


@pytest.fixture(scope="session")
def pair_c():
    return fixture_c()
