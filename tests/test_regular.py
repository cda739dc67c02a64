from conftest import cycle
from indbound.goodness import is_good
from indbound.graphs import complete_bipartite, from_edges
from indbound.local import LocalConfig
from indbound.products import Outcome
from indbound.regular import (
    RegularProfile,
    check_g_ratio_monotone,
    check_profile,
    enumerate_profiles,
    exchange_increases,
    g_value,
    profile_sides,
    verify_regular,
)
from indbound.search import config_outcome


def test_profile_enumeration_small():
    assert [(p.k, p.xs) for p in enumerate_profiles(2)] == [(1, (0,)), (2, (1, 1))]
    assert [(p.k, p.xs) for p in enumerate_profiles(1)] == [(0, ())]
    ps3 = list(enumerate_profiles(3))
    assert ps3[0] == RegularProfile(3, 2, (0, 0))
    assert ps3[-1] == RegularProfile(3, 6, (2, 2, 2, 2, 2, 2))


def test_profile_constraints_hold():
    for d in range(1, 6):
        seen = set()
        for p in enumerate_profiles(d):
            assert d - 1 <= p.k <= d * (d - 1)
            assert all(0 <= x <= d - 1 for x in p.xs)
            assert sum(p.xs) == p.k * d - d * (d - 1)
            assert tuple(sorted(p.xs, reverse=True)) == p.xs
            assert p not in seen
            seen.add(p)


def test_check_profile_examples():
    v = check_profile(RegularProfile(2, 1, (0,)))
    assert v.outcome == Outcome.EQUAL
    assert v.detail["lhs"] == 4 == v.detail["rhs"]
    v = check_profile(RegularProfile(2, 2, (1, 1)))
    assert v.outcome == Outcome.STRICTLY_GREATER
    assert (v.detail["lhs"], v.detail["rhs"]) == (28, 25)
    v = check_profile(RegularProfile(5, 4, (0, 0, 0, 0)))
    assert v.outcome == Outcome.EQUAL and v.detail["lhs"] == 2**20


def test_verify_regular_all_degrees():
    for d in range(1, 6):
        report = verify_regular(d)
        assert report.passed, report.to_json()
        assert len(report.equalities) == 1
        eq = report.equalities[0]
        assert eq.k == d - 1 and all(x == 0 for x in eq.xs)


def test_g_ratio_monotone_and_exchange():
    for d in range(1, 6):
        assert check_g_ratio_monotone(d)
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
        for p in enumerate_profiles(d):
            lhs, rhs = profile_sides(p)
            assert lhs >= rhs
            if not p.is_equality_profile():
                assert lhs > rhs


def _realize_profile_config(p: RegularProfile) -> LocalConfig:
    """A level-1/level-2 incidence realizing the profile: d level-1 vertices
    of degree d with d-1 upward edges each, level-2 vertex i with m_i = d - x_i
    distinct neighbors; greedy max-remaining-quota assignment."""
    d = p.d
    quotas = [d - 1] * d
    records = []
    for x in p.xs:
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
        for p in enumerate_profiles(d):
            cfg = _realize_profile_config(p)
            cfg.validate()
            assert sorted(len(nbrs) for _, nbrs in cfg.l2) == sorted(d - x for x in p.xs)
            assert config_outcome(cfg)[0] == check_profile(p).outcome


def _cube_graph():
    edges = [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]
    return from_edges(8, edges)


def _heawood_graph():
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(0, 5), (2, 7), (4, 9), (6, 11), (8, 13), (1, 10), (3, 12)]
    return from_edges(14, edges)


def test_concrete_regular_graphs_agree():
    from indbound.goodness import level_decomposition

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
        assert is_good(g, 0).outcome == check_profile(RegularProfile(d, k, xs)).outcome
