import random

import pytest

from conftest import complete_bipartite, cycle, path, serialize_edge_list
from indbound.goodness import check_kahn_bound
from indbound.graphs import (
    Bipartition,
    Graph,
    GraphParseError,
    NotBipartiteError,
    bipartition,
    component_is_extremal,
    decompositions,
    delete_closed,
    from_edges,
    is_bipartite,
    parse_edge_list,
    tensor_k2,
)
from indbound.products import Outcome
from indbound.selftest import random_graph_max_degree


def test_parse_smallest_cases():
    g = parse_edge_list("n 2\n0 1\n")
    assert g.n == 2 and g.edge_count() == 1
    g = parse_edge_list("n 1\n")
    assert g.n == 1 and g.iso_count() == 1
    g = parse_edge_list("# comment\nn 0\n")
    assert g.n == 0


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("n 3\n0 1\n0 1\n", "line 3"),
        ("n 3\n1 1\n", "self-loop"),
        ("n 2\n0 5\n", "not below n"),
        ("n 2\n0 x\n", "malformed"),
        ("n 2\n1 0\n", "increasing order"),
        ("0 1\n", "header"),
        ("", "header"),
    ],
)
def test_parse_rejections(text, fragment):
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list(text)
    assert fragment in str(exc.value)


def test_roundtrip_random():
    rng = random.Random(42)
    for _ in range(100):
        g = random_graph_max_degree(rng, rng.randint(0, 12), 0.4, 12)
        assert parse_edge_list(serialize_edge_list(g)) == g


def test_complete_bipartite():
    g = complete_bipartite(1, 1)
    assert g.edge_count() == 1
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.edge_count() == 6
    assert sorted(g.degrees(), reverse=True) == [3, 3, 2, 2, 2]
    g = complete_bipartite(5, 5)
    assert g.n == 10 and g.edge_count() == 25 and set(g.degrees()) == {5}
    with pytest.raises(ValueError):
        complete_bipartite(0, 1)


def test_delete_closed_k2():
    g = complete_bipartite(1, 1)
    g1, g2 = delete_closed(g, 0)
    assert g1.n == 1 and g1.edge_count() == 0
    assert g2.n == 0


def test_delete_closed_k22_symmetry():
    g = complete_bipartite(2, 2)
    for x in range(4):
        g1, g2 = delete_closed(g, x)
        assert g1.n == 3 and g1.edge_count() == 2  # K_{1,2}
        assert g2.n == 1 and g2.iso_count() == 1


def test_delete_closed_fig1(fig1):
    g1, g2 = delete_closed(fig1, 0)
    assert g1.n == 6 and g1.edge_count() == 5
    # deleting 0 and its neighbor 1 leaves the star on {2,3,4,5,6} plus b-c edge
    assert g2.n == 5 and g2.edge_count() == 4
    assert sorted(g2.degrees(), reverse=True) == [4, 1, 1, 1, 1]


def test_delete_size_invariants():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 10)
        g = random_graph_max_degree(rng, n, 0.5, n)
        x = rng.randrange(n)
        g1, g2 = delete_closed(g, x)
        assert g1.n == g.n - 1
        assert g2.n == g.n - 1 - len(g.adjacency[x])


def test_decompositions():
    two_edges = from_edges(4, [(0, 1), (2, 3)])
    lds = list(decompositions(two_edges))
    assert [ld.root for ld in lds] == [0, 2]
    assert [sorted(ld.dist) for ld in lds] == [[0, 1], [2, 3]]
    assert list(decompositions(Graph(0, ()))) == []
    assert len(list(decompositions(complete_bipartite(2, 3)))) == 1
    # an odd component raises, wherever it comes in the vertex order
    for g in (from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)]), cycle(5)):
        with pytest.raises(NotBipartiteError):
            list(decompositions(g))


def test_decompositions_partition_random():
    rng = random.Random(4)
    bipartite = 0
    for _ in range(50):
        g = random_graph_max_degree(rng, rng.randint(0, 12), 0.2, 12)
        try:
            lds = list(decompositions(g))
        except NotBipartiteError as e:
            w = e.witness  # an odd closed walk of g
            assert w[0] == w[-1] and (len(w) - 1) % 2 == 1
            assert all(b in g.adjacency[a] for a, b in zip(w, w[1:]))
            continue
        bipartite += 1
        # the components partition the vertices, each rooted at its least
        # vertex, in order of that vertex
        assert sorted(v for ld in lds for v in ld.dist) == list(range(g.n))
        assert all(ld.root == min(ld.dist) for ld in lds)
        assert [ld.root for ld in lds] == sorted(ld.root for ld in lds)
        # no cross edges: every edge lies inside one component
        comp = {v: i for i, ld in enumerate(lds) for v in ld.dist}
        assert all(comp[u] == comp[v] for u, v in g.edges())
    assert 0 < bipartite < 50


def test_bipartition():
    b = bipartition(cycle(4))
    assert isinstance(b, Bipartition)
    assert b.side[0] == b.side[2] != b.side[1] == b.side[3]
    w = bipartition(cycle(3))
    assert isinstance(w, tuple)
    assert w[0] == w[-1]  # closed
    assert (len(w) - 1) % 2 == 1  # odd number of edges
    assert isinstance(bipartition(Graph(0, ())), Bipartition)


def test_bipartition_witness_is_walk():
    rng = random.Random(5)
    for _ in range(100):
        g = random_graph_max_degree(rng, rng.randint(1, 10), 0.5, 10)
        out = bipartition(g)
        if isinstance(out, Bipartition):
            for u, v in g.edges():
                assert out.side[u] != out.side[v]
        else:
            assert out[0] == out[-1] and (len(out) - 1) % 2 == 1
            for a, b in zip(out, out[1:]):
                assert b in g.adjacency[a]


def test_tensor_k2():
    assert tensor_k2(complete_bipartite(1, 1)).edge_count() == 2
    t = tensor_k2(cycle(3))
    assert t.n == 6 and t.edge_count() == 6
    assert is_bipartite(t)
    assert all(d == 2 for d in t.degrees())
    assert len(list(decompositions(t))) == 1  # C3 x K2 is the single 6-cycle
    single = Graph(1, ((),))
    assert tensor_k2(single).iso_count() == 2


def test_tensor_properties_random():
    rng = random.Random(6)
    for _ in range(50):
        g = random_graph_max_degree(rng, rng.randint(0, 8), 0.5, 8)
        t = tensor_k2(g)
        assert t.edge_count() == 2 * g.edge_count()
        assert t.iso_count() == 2 * g.iso_count()
        assert is_bipartite(t)
        if is_bipartite(g):
            # double cover of a bipartite graph is two disjoint copies
            assert len(list(decompositions(t))) == 2 * len(list(decompositions(g)))


def test_is_complete_bipartite_component(fig1):
    assert component_is_extremal(complete_bipartite(2, 3), 0) is True
    assert component_is_extremal(path(4), 1) is False
    assert component_is_extremal(Graph(1, ((),)), 0) is True
    assert component_is_extremal(fig1, 0) is False
    assert component_is_extremal(cycle(3), 0) is False


def test_mixed_components_k23_and_c5():
    # K_{2,3} on 0..4 beside a 5-cycle on 5..9: the complete bipartite
    # component is extremal, the odd one is not, so the whole graph is not
    # and its count stays strictly below the bound
    g = from_edges(10, [(u, v) for u in (0, 1) for v in (2, 3, 4)]
                   + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    assert component_is_extremal(g, 0) is True
    assert all(component_is_extremal(g, x) is False for x in range(5, 10))
    report = check_kahn_bound(g)
    assert report.structural_extremal is False
    assert report.verdict.outcome is Outcome.STRICTLY_LESS and report.consistent
