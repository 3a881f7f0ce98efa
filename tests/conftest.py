import os
import tracemalloc

import pytest

from knotfold.diagrams import parse_dt, realize_dt
from knotfold.families import family_cloud
from knotfold.laurent import LaurentPolynomial

def pytest_collection_modifyitems(session, config, items):
    """Run the acceptance suite last, its two large-family criteria very
    last: they leave a high memory watermark that would crowd out the
    rest of the run on small machines."""

    def weight(item):
        if "test_acceptance" not in item.nodeid:
            return 0
        if "criterion_5" in item.nodeid or "criterion_6" in item.nodeid:
            return 2
        return 1

    items.sort(key=weight)


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

FIXTURE_FILE = os.path.join(DATA_DIR, "fixtures_6.dt")

# Published reference polynomials for knots through 6 crossings, in the
# chirality with positive extreme degree.
TABLE_POLYS = {
    "0_1": "1",
    "3_1": "-1*q^4 + 1*q^3 + 1*q^1",
    "4_1": "1*q^2 - 1*q^1 + 1 - 1*q^-1 + 1*q^-2",
    "5_1": "-1*q^7 + 1*q^6 - 1*q^5 + 1*q^4 + 1*q^2",
    "5_2": "-1*q^6 + 1*q^5 - 1*q^4 + 2*q^3 - 1*q^2 + 1*q^1",
    "6_1": "1*q^4 - 1*q^3 + 1*q^2 - 2*q^1 + 2 - 1*q^-1 + 1*q^-2",
    "6_2": "1*q^5 - 2*q^4 + 2*q^3 - 2*q^2 + 2*q^1 - 1 + 1*q^-1",
    "6_3": "-1*q^3 + 2*q^2 - 2*q^1 + 3 - 2*q^-1 + 2*q^-2 - 1*q^-3",
}

TABLE_DT = {
    "0_1": "",
    "3_1": "4 6 2",
    "4_1": "4 6 8 2",
    "5_1": "6 8 10 2 4",
    "5_2": "4 8 10 2 6",
    "6_1": "4 8 12 10 2 6",
    "6_2": "4 8 10 12 2 6",
    "6_3": "4 8 10 2 12 6",
}

TABLE_CROSSINGS = {"0_1": 0, "3_1": 3, "4_1": 4, "5_1": 5, "5_2": 5,
                   "6_1": 6, "6_2": 6, "6_3": 6}

# The aligned coefficient matrix for the 8 fixture knots: 11 columns,
# q^0 at column 3, degree window [-3, 7].
TABLE_MATRIX = {
    "0_1": [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    "3_1": [0, 0, 0, 0, 1, 0, 1, -1, 0, 0, 0],
    "4_1": [0, 1, -1, 1, -1, 1, 0, 0, 0, 0, 0],
    "5_1": [0, 0, 0, 0, 0, 1, 0, 1, -1, 1, -1],
    "5_2": [0, 0, 0, 0, 1, -1, 2, -1, 1, -1, 0],
    "6_1": [0, 1, -1, 2, -2, 1, -1, 1, 0, 0, 0],
    "6_2": [0, 0, 1, -1, 2, -2, 2, -2, 1, 0, 0],
    "6_3": [-1, 2, -2, 3, -2, 2, -1, 0, 0, 0, 0],
}


@pytest.fixture(scope="session")
def table_polys():
    return {k: LaurentPolynomial.from_text(v) for k, v in TABLE_POLYS.items()}


@pytest.fixture(scope="session")
def fixture_diagrams():
    return {k: realize_dt(parse_dt(v)) for k, v in TABLE_DT.items()}


@pytest.fixture(scope="session")
def fixture_path():
    return FIXTURE_FILE


@pytest.fixture(scope="session")
def double_twist_91():
    """The double twist <= 91 family cloud, 1541 rows of width 181."""
    return family_cloud("double_twist", 91)[1]


def traced_peak(call):
    """call()'s result and the most memory tracemalloc saw in use during
    it, above what was in use when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
