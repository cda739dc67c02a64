import hashlib
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

# allow running the suite from a checkout without installing the package
_src = Path(__file__).resolve().parent.parent / "src"
if _src.is_dir() and str(_src) not in sys.path:
    sys.path.insert(0, str(_src))

import pytest

from indbound import intervals
from indbound.graphs import Graph, from_edges, level_decomposition
from indbound.local import LocalConfig, canonical_tuple
from indbound.products import _LANE_PRIMES, _SEARCH_DEN, FactorProduct, key_exponents, ratio_keys
from indbound.search import (
    AggConfig,
    _shard_enumeration,
    aggregate_of_config,
    default_jobs,
    extremal_aggregate,
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
    return verify_statement1_stage1(jobs=default_jobs())


@pytest.fixture(scope="session")
def statement2_report():
    """The full statement-2 search at Delta = 4, run once and shared."""
    return verify_statement2(4, jobs=default_jobs())


def shard_aggregates(delta_eff, lo, d0, degrees):
    """(aggregate, A/B/C exponent vector) for every leaf of a shard's
    enumeration, its degree window lo..delta_eff, the aggregate made by
    AggConfig.of as the searches make it; nothing is pruned (limit=0)."""
    return [(AggConfig.of(delta_eff, d0, degrees, records), vec)
            for records, vec, *_ in _shard_enumeration(delta_eff, lo, d0, degrees, limit=0)[0]]


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


def integral_keys(vec: int) -> bool:
    """Whether both ratio keys of an A/B/C exponent vector are integral:
    every numerator of B - A and C - A a multiple of 3600."""
    return all(num % _SEARCH_DEN == 0 for key in ratio_keys(vec) for _, num in key_exponents(key))


def exponent_product(exponents) -> FactorProduct:
    """The FactorProduct of (prime, numerator over 3600) pairs."""
    return FactorProduct({p: Fraction(num, _SEARCH_DEN) for p, num in exponents if num})


def factor_by_factor_product(counts, two_exp: int = 0) -> FactorProduct:
    """The reference for FactorProduct.from_f_counts: 2^two_exp times each
    f(a, b)^m in turn, its base factorized and k m / (a b) added to the
    prime's exponent as a Fraction, with no common denominator."""
    exp = {2: Fraction(two_exp)}
    for (a, b), m in counts.items():
        for p, k in intervals.factorize((1 << a) + (1 << b) - 1):
            exp[p] = exp.get(p, 0) + Fraction(k * m, a * b)
    return FactorProduct({p: e for p, e in exp.items() if e})


def cycle(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def caterpillar(spine: int) -> Graph:
    """A path 0..spine-1 with one leaf spine + i hung on each vertex i: a
    tree whose inner spine vertices have degree 3, so counting it branches
    along the spine instead of taking the path formula."""
    return from_edges(2 * spine, [(i, i + 1) for i in range(spine - 1)]
                      + [(i, spine + i) for i in range(spine)])


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@contextmanager
def recursion_limit(limit: int):
    """Run the block under the interpreter recursion limit `limit`, so that
    a test of the depth error needs a graph of hundreds of vertices, not
    thousands."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with side A = [0, a) and side B = [a, a+b)."""
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite requires a, b >= 1")
    return from_edges(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def strip_timing(obj, keys=("timing",)):
    """Copy of a JSON-like structure with every key in keys removed at any
    depth, by default the "timing" blocks; used by the reproducibility
    comparisons."""
    if isinstance(obj, dict):
        return {k: strip_timing(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [strip_timing(v, keys) for v in obj]
    return obj


def stripped_digest(cert: dict) -> str:
    """SHA-256 of a certificate's canonical JSON (sorted keys) with every
    "timing", "jobs" and "json_path" key removed at any depth: the same for
    every --jobs value, and the form the pinned fingerprint digests take."""
    text = json.dumps(strip_timing(cert, ("timing", "jobs", "json_path")), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; edges in lexicographic order."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges()))
    return "\n".join(lines) + "\n"


def validate_config(cfg: LocalConfig) -> None:
    """Raise ValueError unless cfg is a consistent rooted configuration."""
    if cfg.d0 != len(cfg.l1_degrees):
        raise ValueError("root degree does not match the level-1 list")
    if cfg.d0 == 0:
        if cfg.l2:
            raise ValueError("isolated root cannot have level-2 vertices")
        return
    if not 1 <= cfg.d0 <= cfg.delta_eff:
        raise ValueError("root degree out of range")
    for d in cfg.l1_degrees:
        if not 1 <= d <= cfg.delta_eff:
            raise ValueError(f"level-1 degree {d} out of range")
    upward = sum(d - 1 for d in cfg.l1_degrees)
    landing = 0
    for b, nbrs in cfg.l2:
        if not nbrs:
            raise ValueError("level-2 vertex with no level-1 neighbor")
        if len(set(nbrs)) != len(nbrs) or tuple(sorted(nbrs)) != nbrs:
            raise ValueError("level-1 neighbor list must be sorted and distinct")
        if any(not 0 <= u < cfg.d0 for u in nbrs):
            raise ValueError("level-1 neighbor index out of range")
        if not len(nbrs) <= b <= cfg.delta_eff:
            raise ValueError(f"level-2 degree {b} out of range for {len(nbrs)} neighbors")
        landing += len(nbrs)
    if upward != landing:
        raise ValueError(
            f"level-1 upward edges ({upward}) do not match level-2 attachments ({landing})"
        )


def canonical_config(cfg: LocalConfig) -> LocalConfig:
    return LocalConfig(*canonical_tuple(cfg))


def config_is_extremal(cfg: LocalConfig) -> bool:
    """True iff the configuration forces the component of the root to be a
    single vertex or a complete bipartite graph."""
    return aggregate_of_config(cfg) == extremal_aggregate(cfg.delta_eff, cfg.d0, cfg.l1_degrees)


def realize_config(cfg: LocalConfig) -> Graph:
    """A concrete graph whose configuration at root 0 is exactly cfg, with
    every level-3 vertex padded to degree delta_eff by fresh level-4 leaves."""
    edges = []
    nxt = 1 + cfg.d0
    l2_ids = []
    for _ in cfg.l2:
        l2_ids.append(nxt)
        nxt += 1
    for u in range(cfg.d0):
        edges.append((0, 1 + u))
    for j, (b, nbrs) in enumerate(cfg.l2):
        for u in nbrs:
            edges.append((1 + u, l2_ids[j]))
        for _ in range(b - len(nbrs)):
            w = nxt
            nxt += 1
            edges.append((l2_ids[j], w))
            for _ in range(cfg.delta_eff - 1):
                edges.append((w, nxt))
                nxt += 1
    return from_edges(nxt, edges)


def extract_config(g: Graph, x: int, delta_eff: int) -> LocalConfig:
    """The LocalConfig of a concrete bipartite-component root, padding the
    level-3 degrees up to delta_eff."""
    ld = level_decomposition(g, x)
    level1 = sorted(ld.levels[1]) if len(ld.levels) > 1 else []
    level2 = ld.levels[2] if len(ld.levels) > 2 else []
    index1 = {v: i for i, v in enumerate(level1)}
    degrees = tuple(len(g.adjacency[v]) for v in level1)
    if any(d > delta_eff for d in (len(g.adjacency[x]), *degrees)):
        raise ValueError("degree exceeds delta_eff")
    records = []
    for v in level2:
        b = len(g.adjacency[v])
        if b > delta_eff:
            raise ValueError("degree exceeds delta_eff")
        nbrs = tuple(sorted(index1[w] for w in g.adjacency[v] if w in index1))
        records.append((b, nbrs))
    cfg = LocalConfig(delta_eff, len(g.adjacency[x]), degrees, tuple(sorted(records)))
    validate_config(cfg)
    return cfg
