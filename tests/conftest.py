import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from grimmsmooth import PrimeTable


@pytest.fixture(scope="session")
def table_1e4():
    return PrimeTable(10_000)


@pytest.fixture(scope="session")
def table_1e5():
    return PrimeTable(100_000)


@pytest.fixture(scope="session")
def table_1e6():
    return PrimeTable(1_000_000)

