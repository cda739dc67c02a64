import random

import pytest

from conftest import complete_bipartite, cycle, path
from indbound.counting import (
    CountBudgetExceeded,
    count_bruteforce,
    count_independent_sets,
)
from indbound.graphs import Graph, delete_closed, from_edges, tensor_k2
from indbound.selftest import random_bipartite_max_degree, random_graph_max_degree


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_complete_bipartite_values():
    # ind(K_{d,d}) = 2^(d+1) - 1: subsets of either side, empty set shared
    for d in range(1, 7):
        assert count_independent_sets(complete_bipartite(d, d)) == 2 ** (d + 1) - 1


def test_small_exact_values():
    assert count_independent_sets(Graph(0, ())) == 1
    assert count_independent_sets(Graph(1, ((),))) == 2
    assert count_independent_sets(complete_bipartite(1, 1)) == 3
    assert count_independent_sets(path(4)) == 8
    assert count_independent_sets(cycle(3)) == 4
    assert count_independent_sets(cycle(6)) == 18
    assert count_bruteforce(complete_bipartite(1, 1)) == 3
    assert count_bruteforce(cycle(3)) == 4
    assert count_bruteforce(cycle(6)) == 18


def test_fig1_value(fig1):
    # branch at the degree-4 vertex: 5 * 2^3 + 3
    assert count_independent_sets(fig1) == 43 == count_bruteforce(fig1)


def test_oracle_equivalence_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 14)
        g = random_graph_max_degree(rng, n, rng.uniform(0.1, 0.7), n or 1)
        assert count_independent_sets(g) == count_bruteforce(g)


def test_multiplicativity():
    rng = random.Random(12)
    for _ in range(50):
        n1, n2 = rng.randint(0, 7), rng.randint(0, 7)
        g1 = random_graph_max_degree(rng, n1, 0.5, n1 or 1)
        g2 = random_graph_max_degree(rng, n2, 0.5, n2 or 1)
        union = from_edges(
            n1 + n2,
            list(g1.edges()) + [(u + n1, v + n1) for u, v in g2.edges()],
        )
        assert count_independent_sets(union) == count_independent_sets(
            g1
        ) * count_independent_sets(g2)


def test_recursion_identity_any_vertex():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 12)
        g = random_graph_max_degree(rng, n, rng.uniform(0.1, 0.8), n)
        x = rng.randrange(n)
        (g1, _), (g2, _) = delete_closed(g, x)
        assert count_independent_sets(g) == count_independent_sets(
            g1
        ) + count_independent_sets(g2)


def test_budget_exceeded_is_loud():
    g = complete_bipartite(5, 5)
    with pytest.raises(CountBudgetExceeded):
        count_independent_sets(g, budget=2)


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        count_bruteforce(Graph(31, tuple(() for _ in range(31))))


def test_sparse_components_count_within_a_small_budget():
    # ind(P_n) = F(n + 2) and ind(C_n) = L(n) = F(n - 1) + F(n + 1); the
    # memo keyed by component masks makes both linear in n
    assert count_independent_sets(path(400), budget=10_000) == fibonacci(402)
    assert count_independent_sets(cycle(400), budget=10_000) == fibonacci(399) + fibonacci(401)


def test_recursion_depth_is_a_budget_error():
    # a path recurses about n/2 levels deep, past the default interpreter
    # limit of 1000 frames: a CountBudgetExceeded that names the limit
    with pytest.raises(CountBudgetExceeded, match="depth limit of [0-9]+ frames"):
        count_independent_sets(path(3000))


def test_double_cover_of_bipartite_graphs_squares_the_count():
    # G x K2 is two disjoint copies of a bipartite G, so ind(G x K2) =
    # ind(G)^2 exactly: a check at the sizes of the double covers that
    # `check` counts for graphs of up to 20 vertices, beyond brute force
    rng = random.Random(14)
    for _ in range(1000):
        n1 = rng.randint(7, 10)
        n2 = rng.randint(14 - n1, 20 - n1)
        g = random_bipartite_max_degree(rng, n1, n2, rng.uniform(0.2, 0.6), 5)
        assert count_independent_sets(tensor_k2(g)) == count_independent_sets(g) ** 2
