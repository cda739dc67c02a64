import random

import pytest

from conftest import caterpillar, complete_bipartite, cycle, fibonacci, path, recursion_limit
from indbound.counting import (
    CountBudgetExceeded,
    count_bruteforce,
    count_independent_sets,
)
from indbound.graphs import Graph, delete_closed, from_edges, tensor_k2
from indbound.selftest import random_bipartite_max_degree, random_graph_max_degree


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
    # ind(P_n) = F(n + 2) and ind(C_n) = L(n) = F(n - 1) + F(n + 1); each
    # graph is one component counted by its closed form, one budget node
    assert count_independent_sets(path(400), budget=10_000) == fibonacci(402)
    assert count_independent_sets(cycle(400), budget=10_000) == fibonacci(399) + fibonacci(401)


def random_union_of_paths_and_cycles(rng: random.Random, size: int) -> Graph:
    """A disjoint union, in shuffled labels, of isolated vertices, single
    edges, paths and cycles (triangles included) on at most size vertices."""
    pieces = []
    n = 0
    while True:
        kind = rng.choice(("isolated", "edge", "path", "cycle"))
        k = {"isolated": 1, "edge": 2, "path": rng.randint(3, 8), "cycle": rng.randint(3, 8)}[kind]
        if n + k > size:
            break
        edges = [(i, i + 1) for i in range(k - 1)]
        if kind == "cycle":
            edges.append((k - 1, 0))
        pieces.append([(n + u, n + v) for u, v in edges])
        n += k
    labels = list(range(n))
    rng.shuffle(labels)
    return from_edges(n, [(labels[u], labels[v]) for piece in pieces for u, v in piece])


def test_closed_forms_match_bruteforce():
    # every component here is counted without branching: 2 for an isolated
    # vertex, F(k + 2) for a path of k vertices, L(k) for a cycle of k
    rng = random.Random(15)
    for _ in range(100):
        g = random_union_of_paths_and_cycles(rng, rng.randint(1, 18))
        assert count_independent_sets(g) == count_bruteforce(g)


def test_branching_meets_closed_form_components():
    # a random core of maximum degree <= 5 with a path and a cycle each hung
    # on a core vertex by one edge, plus isolated vertices: branching on the
    # core splits off paths and cycles that take their closed forms
    rng = random.Random(16)
    for _ in range(200):
        core = rng.randint(1, 7)
        tail = rng.randint(1, 3)
        ring = rng.randint(3, 5)
        isolated = rng.randint(0, 2)
        n = core + tail + ring + isolated
        edges = list(random_graph_max_degree(rng, core, rng.uniform(0.2, 0.8), 4).edges())
        edges += [(core + i, core + i + 1) for i in range(tail - 1)]
        edges.append((rng.randrange(core), core))
        c0 = core + tail
        edges += [(c0 + i, c0 + (i + 1) % ring) for i in range(ring)]
        edges.append((rng.randrange(core), c0))
        g = from_edges(n, edges)
        assert g.max_degree() <= 5
        assert count_independent_sets(g) == count_bruteforce(g)


def test_every_component_counts_against_the_budget():
    # isolated vertices and closed-form components are one budget node each
    for k in (1, 5, 12):
        isolated = Graph(k, tuple(() for _ in range(k)))
        assert count_independent_sets(isolated, budget=k) == 2 ** k
        with pytest.raises(CountBudgetExceeded):
            count_independent_sets(isolated, budget=k - 1)
    union = from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2)])  # edge, triangle, 2 isolated
    assert count_independent_sets(union, budget=4) == 3 * 4 * 2 * 2
    with pytest.raises(CountBudgetExceeded):
        count_independent_sets(union, budget=3)
    assert count_independent_sets(path(50), budget=1) == fibonacci(52)
    with pytest.raises(CountBudgetExceeded):
        count_independent_sets(cycle(50), budget=0)


def test_recursion_depth_is_a_budget_error():
    # paths and cycles take their closed forms and do not recurse at all
    assert count_independent_sets(path(3000)) == fibonacci(3002)
    assert count_independent_sets(cycle(3000)) == fibonacci(2999) + fibonacci(3001)
    # a caterpillar branches along its spine, a frame per two spine vertices:
    # past the limit that is a CountBudgetExceeded that names it
    with recursion_limit(250), pytest.raises(
        CountBudgetExceeded, match="depth limit of 250 frames"
    ):
        count_independent_sets(caterpillar(1000))


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
