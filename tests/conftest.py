import sys
from pathlib import Path

# allow running the suite from a checkout without installing the package
_src = Path(__file__).resolve().parent.parent / "src"
if _src.is_dir() and str(_src) not in sys.path:
    sys.path.insert(0, str(_src))

import pytest

from indbound import intervals
from indbound.graphs import Graph, from_edges
from indbound.products import _LANE_PRIMES
from indbound.search import (
    AggConfig,
    _agg_enum_for_degrees,
    default_jobs,
    verify_statement1_stage1,
    verify_statement2,
)


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


@pytest.fixture(scope="session")
def statement2_report():
    """The full statement-2 search at Delta = 4, run once and shared."""
    return verify_statement2(4, jobs=default_jobs())


def shard_aggregates(delta_eff, rule, d0, degrees):
    """(aggregate, A/B/C exponent vector) for every leaf of a shard's
    enumeration, the aggregate made by AggConfig.of as the searches make it."""
    return [(AggConfig.of(delta_eff, d0, degrees, records), vec)
            for records, vec in _agg_enum_for_degrees(delta_eff, rule, d0, degrees)]


def interval_add(a: intervals.Interval, b: intervals.Interval) -> intervals.Interval:
    """Exact sum of two intervals, no rounding."""
    e = min(a.lo_e, b.lo_e)
    lo = (a.lo_m << (a.lo_e - e)) + (b.lo_m << (b.lo_e - e))
    e2 = min(a.hi_e, b.hi_e)
    hi = (a.hi_m << (a.hi_e - e2)) + (b.hi_m << (b.hi_e - e2))
    return intervals.Interval(lo, e, hi, e2)


def strictly_above(a: intervals.Interval, b: intervals.Interval) -> bool:
    """True when every value of a exceeds every value of b."""
    return intervals.dyadic_cmp(a.lo_m, a.lo_e, b.hi_m, b.hi_e) > 0


def contains_int(iv: intervals.Interval, n: int) -> bool:
    """Whether the interval contains the integer n, by exact comparison."""
    return (intervals.dyadic_cmp(iv.lo_m, iv.lo_e, n, 0) <= 0
            and intervals.dyadic_cmp(iv.hi_m, iv.hi_e, n, 0) >= 0)


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
