import contextlib

import pytest

from relaycap import CapacityTable, SamplePool, TableCache


@pytest.fixture(scope="session")
def pool3():
    """20k shared 3x3 draws reused across table and network tests."""
    return SamplePool.build(3, 20_000, seed=11)


@pytest.fixture(scope="session")
def table3_10(pool3):
    return CapacityTable.from_pool(pool3, 10.0)


@pytest.fixture(scope="session")
def table3_1(pool3):
    return CapacityTable.from_pool(pool3, 1.0)


@contextlib.contextmanager
def _refusing_full_tables():
    def refuse(*args, **kwargs):
        raise AssertionError("a full table was built")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TableCache, "at", refuse)
        mp.setattr(CapacityTable, "from_pool", refuse)
        yield


@pytest.fixture(scope="session")
def no_full_table():
    """A context manager inside which ``TableCache.at`` and
    ``CapacityTable.from_pool`` raise: a block that completes inside it
    built no full table."""
    return _refusing_full_tables
