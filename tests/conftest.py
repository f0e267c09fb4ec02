import pytest
from hypothesis import settings

from mlsysmap.simulator import churn_map

# fixed examples and no example database: a run fails only on code it runs,
# never on a rare draw or on a failure replayed from an earlier run
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def churn():
    return churn_map()
