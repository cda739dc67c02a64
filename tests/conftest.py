import sys
from pathlib import Path

# allow running the suite from a checkout without installing the package
_src = Path(__file__).resolve().parent.parent / "src"
if _src.is_dir() and str(_src) not in sys.path:
    sys.path.insert(0, str(_src))

import pytest

from indbound.graphs import Graph, from_edges
from indbound.products import _LANE_PRIMES
from indbound.search import default_jobs, verify_statement1_stage1


@pytest.fixture
def fig1() -> Graph:
    """Path 0-1-2-3 with three extra leaves on vertex 3: the seven-vertex
    example whose endpoint 0 is not good."""
    return from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)])


@pytest.fixture(scope="session")
def stage1_report():
    """The full stage-1 search, run once and shared by every test that
    checks it."""
    return verify_statement1_stage1(5, jobs=default_jobs())


def vector_terms(vec: int) -> tuple[dict[int, int], ...]:
    """The A, B and C of an A/B/C exponent vector as prime -> numerator over
    3600 maps, read 32-bit lane by lane."""
    lanes = [vec >> 32 * i & 0xFFFFFFFF for i in range(3 * len(_LANE_PRIMES))]
    return tuple(
        {p: x for p, x in zip(_LANE_PRIMES, lanes[k * len(_LANE_PRIMES):]) if x} for k in range(3)
    )


def cycle(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])
