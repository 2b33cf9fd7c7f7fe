import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from grimmsmooth import build_table


@pytest.fixture(scope="session")
def table_1e4():
    return build_table(10_000)


@pytest.fixture(scope="session")
def table_1e5():
    return build_table(100_000)


@pytest.fixture(scope="session")
def table_1e6():
    return build_table(1_000_000)

