import numpy as np
import pytest

from evalcodes import (
    del_pezzo4_fixture,
    del_pezzo6,
    frobenius_orbit,
    make_field,
    sample_cayley_salmon,
    shioda_surface,
)
from evalcodes.gflinalg import rank


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run the long certification sweeps",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="long sweep; enable with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


def random_invertible(field, size: int, rng) -> np.ndarray:
    """Uniform-ish invertible matrix from a seeded random.Random."""
    while True:
        m = np.array(
            [[rng.randrange(field.q) for _ in range(size)] for _ in range(size)],
            dtype=np.int64,
        )
        if rank(field, m) == size:
            return m


@pytest.fixture(scope="session")
def f7():
    return make_field(7)


@pytest.fixture(scope="session")
def f8():
    return make_field(2, 3)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def f11():
    return make_field(11)


@pytest.fixture(scope="session")
def dp4():
    return del_pezzo4_fixture()


@pytest.fixture(scope="session")
def dp6_q7(f7):
    return del_pezzo6(frobenius_orbit(f7, seed=1))


@pytest.fixture(scope="session")
def dp6_q8(f8):
    return del_pezzo6(frobenius_orbit(f8, seed=1))


@pytest.fixture(scope="session")
def dp6_q9(f9):
    return del_pezzo6(frobenius_orbit(f9, seed=1))


@pytest.fixture(scope="session")
def c12_sample(f7):
    # full-depth classification and screen; reused by several suites
    return sample_cayley_salmon(f7, seed=1)


@pytest.fixture(scope="session")
def shioda4_q11(f11):
    return shioda_surface(4, f11)


@pytest.fixture(scope="session")
def shioda5_q9(f9):
    return shioda_surface(5, f9)
