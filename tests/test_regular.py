import itertools

from conftest import complete_bipartite, cycle, shard_aggregates, validate_config
from indbound.goodness import is_good
from indbound.graphs import from_edges
from indbound.local import LocalConfig
from indbound.products import Outcome, vector_outcome
from indbound.search import (
    config_outcome,
    regular_profile,
    verify_regular,
)

# The oracle for the d-regular shard, sharing no code with the search: at a
# vertex of a d-regular bipartite graph the reduced inequality is
#     (2^(d+1) - 1)^(k-(d-1)) * 2^(d(d-1))  >=  prod_i (2^d + 2^(x_i) - 1)
# over k in [d-1, d(d-1)] level-2 vertices and non-increasing x_i in
# {0..d-1}, their level-3 neighbor counts, with sum x_i = kd - d(d-1).


def enumerate_profiles(d):
    """Every (k, xs) of the closed form, in a fixed order."""
    for k in range(d - 1, d * (d - 1) + 1):
        for xs in itertools.combinations_with_replacement(range(d - 1, -1, -1), k):
            if sum(xs) == k * d - d * (d - 1):
                yield k, xs


def g_value(d, x):
    return (1 << d) + (1 << x) - 1


def profile_sides(d, k, xs):
    """(lhs, rhs) integers of the closed form."""
    rhs = 1
    for x in xs:
        rhs *= g_value(d, x)
    return ((1 << (d + 1)) - 1) ** (k - (d - 1)) * (1 << (d * (d - 1))), rhs


def check_profile(d, k, xs):
    lhs, rhs = profile_sides(d, k, xs)
    return (Outcome.STRICTLY_GREATER if lhs > rhs
            else Outcome.EQUAL if lhs == rhs else Outcome.STRICTLY_LESS)


def exchange_increases(d, xi, xj):  # (xi, xj) -> (xi + 1, xj - 1) raises g(xi) * g(xj)
    return g_value(d, xi + 1) * g_value(d, xj - 1) > g_value(d, xi) * g_value(d, xj)


def _shard(d):
    """The d-regular shard, the degree window d..d: (profile, outcome) per
    aggregate."""
    return [(regular_profile(agg), vector_outcome(vec)[0])
            for agg, vec in shard_aggregates(d, d, d, (d,) * d)]


def test_profile_enumeration_small():
    assert list(enumerate_profiles(2)) == [(1, (0,)), (2, (1, 1))]
    assert list(enumerate_profiles(1)) == [(0, ())]
    ps3 = list(enumerate_profiles(3))
    assert ps3[0] == (2, (0, 0))
    assert ps3[-1] == (6, (2, 2, 2, 2, 2, 2))


def test_profile_constraints_hold():
    # the profiles read off the shard's aggregates obey the closed form's
    # constraints
    for d in range(1, 6):
        seen = set()
        for p, _ in _shard(d):
            assert d - 1 <= p.k <= d * (d - 1)
            assert all(0 <= x <= d - 1 for x in p.xs)
            assert sum(p.xs) == p.k * d - d * (d - 1)
            assert tuple(sorted(p.xs, reverse=True)) == p.xs
            assert p not in seen
            seen.add(p)


def test_check_profile_examples():
    assert check_profile(2, 1, (0,)) == Outcome.EQUAL
    assert profile_sides(2, 1, (0,)) == (4, 4)
    assert check_profile(2, 2, (1, 1)) == Outcome.STRICTLY_GREATER
    assert profile_sides(2, 2, (1, 1)) == (28, 25)
    assert check_profile(5, 4, (0, 0, 0, 0)) == Outcome.EQUAL
    assert profile_sides(5, 4, (0, 0, 0, 0))[0] == 2**20


def test_verify_regular_all_degrees():
    # the shard's profiles are the closed form's, one to one, with the same
    # outcomes; the report passes with the one equality at K_{d,d}
    for d in range(1, 6):
        shard = _shard(d)
        closed = {(k, xs): check_profile(d, k, xs) for k, xs in enumerate_profiles(d)}
        assert len(shard) == len(closed) == [1, 2, 7, 34, 192][d - 1]
        assert dict(shard) == closed
        report = verify_regular(d)
        assert report.passed, report.to_json()
        assert report.profiles == len(closed) and report.strict == len(closed) - 1
        assert not report.violations and not report.undecided
        assert len(report.equalities) == 1
        eq = report.equalities[0]
        assert eq.k == d - 1 and all(x == 0 for x in eq.xs)


def test_g_ratio_monotone_and_exchange():
    # g(x+1)/g(x) strictly increases over x in {0..d}, by the cross-multiplied
    # integer inequality g(x+2) * g(x) > g(x+1)^2
    for d in range(1, 6):
        assert all(g_value(d, x + 2) * g_value(d, x) > g_value(d, x + 1) ** 2
                   for x in range(0, d - 1))
    # d=2 instance: g over x = 0,1,2 is 4,5,7 and 7*4 = 28 > 25 = 5^2
    assert (g_value(2, 0), g_value(2, 1), g_value(2, 2)) == (4, 5, 7)
    # d=3 instance: g(2)g(0) = 11*8 = 88 > 81 = g(1)^2
    assert exchange_increases(3, 1, 1)
    for d in range(1, 6):
        for xj in range(1, d):
            for xi in range(xj, d):
                assert exchange_increases(d, xi, xj)


def test_extremal_string_dominates():
    for d in range(1, 6):
        for k, xs in enumerate_profiles(d):
            lhs, rhs = profile_sides(d, k, xs)
            assert lhs >= rhs
            if not (k == d - 1 and all(x == 0 for x in xs)):
                assert lhs > rhs


def _realize_profile_config(d, xs) -> LocalConfig:
    """A level-1/level-2 incidence realizing the profile: d level-1 vertices
    of degree d with d-1 upward edges each, level-2 vertex i with m_i = d - x_i
    distinct neighbors; greedy max-remaining-quota assignment."""
    quotas = [d - 1] * d
    records = []
    for x in xs:
        m = d - x
        order = sorted(range(d), key=lambda u: (-quotas[u], u))[:m]
        assert all(quotas[u] > 0 for u in order)
        for u in order:
            quotas[u] -= 1
        records.append((d, tuple(sorted(order))))
    assert all(q == 0 for q in quotas)
    return LocalConfig(d, d, (d,) * d, tuple(sorted(records)))


def test_profiles_match_reduced_inequality():
    # the profile integers and the factor-product inequality give identical
    # verdicts on a configuration realizing the profile with level-3 degree d;
    # the greedy realization consumes every quota and validates, so every
    # profile's level-2 demands are realizable
    for d in range(1, 6):
        for k, xs in enumerate_profiles(d):
            cfg = _realize_profile_config(d, xs)
            validate_config(cfg)
            assert sorted(len(nbrs) for _, nbrs in cfg.l2) == sorted(d - x for x in xs)
            assert config_outcome(cfg)[0] == check_profile(d, k, xs)


def _cube_graph():
    edges = [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]
    return from_edges(8, edges)


def _heawood_graph():
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(0, 5), (2, 7), (4, 9), (6, 11), (8, 13), (1, 10), (3, 12)]
    return from_edges(14, edges)


def test_concrete_regular_graphs_agree():
    from indbound.graphs import level_decomposition

    cases = [
        (complete_bipartite(2, 2), 2, 1, (0,)),
        (cycle(6), 2, 2, (1, 1)),
        (complete_bipartite(3, 3), 3, 2, (0, 0)),
        (_cube_graph(), 3, 3, (1, 1, 1)),
        (_heawood_graph(), 3, 6, (2, 2, 2, 2, 2, 2)),
    ]
    for g, d, k, xs in cases:
        assert set(g.degrees()) == {d}
        ld = level_decomposition(g, 0)
        level2 = ld.levels[2] if len(ld.levels) > 2 else ()
        assert len(level2) == k
        observed = tuple(
            sorted((sum(ld.dist[w] == 3 for w in g.adjacency[v]) for v in level2), reverse=True)
        )
        assert observed == xs
        assert is_good(g, 0).outcome == check_profile(d, k, xs)
