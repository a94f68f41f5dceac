import numpy as np
import pytest

from qthermo import machines


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20260810))


@pytest.fixture(autouse=True)
def _fresh_isochore_cache():
    # call counts must not depend on which test warmed the Otto generator
    # cache first
    machines._isochores.clear()
