import math
import random

import pytest

from conftest import complete_bipartite, cycle, path, vector_terms
from indbound import goodness, products
from indbound.counting import count_independent_sets
from indbound.goodness import (
    NoGoodVertexError,
    check_kahn_bound,
    find_good_vertex,
    good_vertex_probes,
    goodness_vector,
    is_good,
    is_good_fullgraph,
    probe_goodness,
)
from indbound.graphs import (
    Graph,
    NotBipartiteError,
    decomposition_is_extremal,
    from_edges,
    level_decomposition,
)
from indbound.intervals import GUARD_BITS
from indbound.products import (
    DegreeBoundError,
    FactorProduct,
    Outcome,
    carried_limit,
    carried_strict,
    compare_count_to_product,
    interval_strings,
    level2_piece,
    level2_vector,
    pi_product,
    ratio_bounds,
    root_piece,
    root_vector,
    sum_verdict,
    vector_outcome,
)
from indbound.selftest import random_bipartite_max_degree


def _terms(g, x):
    """A, B and C of the reduced inequality at x, decoded from its vector."""
    return vector_terms(goodness_vector(g, level_decomposition(g, x))[0])


def test_level_decomposition_k22():
    g = complete_bipartite(2, 2)
    ld = level_decomposition(g, 0)
    assert len(ld.levels[1]) == 2 and len(ld.levels[2]) == 1
    # two 01-edges and two 12-edges f(2, 2) in A, no 23-edge; the two
    # 12-edges become f(1, 2) in B; the level-2 vertex has its 2 level-1
    # neighbors only, so iso(G), iso(G - x), iso(G - N[x]) = 0, 0, 1
    a, b, c = _terms(g, 0)
    assert a == {7: 4 * 900} and b == {5: 2 * 1800} and c == {2: 3600}


def test_level_decomposition_single_vertex():
    ld = level_decomposition(Graph(1, ((),)), 0)
    assert len(ld.levels) == 1 and not ld.has_beyond_level2
    assert _terms(Graph(1, ((),)), 0) == ({2: 3600}, {}, {})


def test_level_decomposition_fig1(fig1):
    ld = level_decomposition(fig1, 0)
    assert [len(lv) for lv in ld.levels] == [1, 1, 1, 1, 3]
    assert ld.levels[3] == [3] and ld.dist[3] == 3 and ld.has_beyond_level2
    # 01-edge f(1, 2) in A; 12-edge f(2, 2) in A and f(1, 2) in B; the one
    # 23-edge (2, 3) has degrees 2 and 4, and vertex 2 has one level-1
    # neighbor: f(2, 4) in A and B, f(1, 4) in C
    a, b, c = _terms(fig1, 0)
    assert a == {5: 1800, 7: 900, 19: 450} and b == {5: 1800, 19: 450}
    assert c == {17: 900}


def test_level_decomposition_rejects_odd_cycle():
    with pytest.raises(NotBipartiteError) as exc:
        level_decomposition(cycle(5), 0)
    w = exc.value.witness
    assert w[0] == w[-1] and (len(w) - 1) % 2 == 1


def _integer(term: dict) -> int:
    assert all(num % 3600 == 0 for num in term.values())
    return math.prod(p ** (num // 3600) for p, num in term.items())


def test_goodness_terms_k_dd():
    # rooted K_{d,d}: A is the integer 2^(d+1)-1, B = 2^(d-1)+2^d-1, C = 2^(d-1)
    for d in range(1, 6):
        g = complete_bipartite(d, d)
        assert decomposition_is_extremal(g, level_decomposition(g, 0))
        a, b, c = _terms(g, 0)
        assert _integer(a) == 2 ** (d + 1) - 1
        if d > 1:
            assert _integer(b) == 2 ** (d - 1) + 2**d - 1
        assert _integer(c) == 2 ** (d - 1)


def test_goodness_terms_k22_values():
    a, b, c = _terms(complete_bipartite(2, 2), 0)
    assert (_integer(a), _integer(b), _integer(c)) == (7, 5, 2)


def test_goodness_terms_single_vertex():
    g = Graph(1, ((),))
    a, b, c = _terms(g, 0)
    assert _integer(a) == 2 and not b and not c
    assert decomposition_is_extremal(g, level_decomposition(g, 0))


def test_is_good_rejects_degree_above_five():
    star = from_edges(7, [(0, v) for v in range(1, 7)])  # K_{1,6}
    for x in (0, 1):
        with pytest.raises(DegreeBoundError, match="degree 6"):
            is_good(star, x)


def test_degree_guard_reads_only_the_component_of_x():
    # a degree-6 vertex in another component does not stop is_good at x
    g = from_edges(10, [(0, 1), (1, 2)] + [(3, v) for v in range(4, 10)])
    p3 = path(3)
    for x in range(3):
        a, b = is_good(g, x), is_good(p3, x)
        assert (a.outcome, a.method, a.precision_bits, a.detail) == \
            (b.outcome, b.method, b.precision_bits, b.detail)
    with pytest.raises(DegreeBoundError, match="component of vertex 4 has degree 6"):
        is_good(g, 4)


def _fallbacks_by_start(graphs, monkeypatch):
    """Per start 128, 8 and 2: the vertices that is_good leaves to
    certify_exponents, after checking that is_good at every non-isolated
    vertex equals vector_outcome's verdict in outcome, method, precision and
    detail, and that certify_exponents ran for exactly the vertices whose
    carried bounds are not strict."""
    calls = []
    original = products.certify_exponents

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(products, "certify_exponents", spy)
    fallbacks = {}
    for start in (128, 8, 2):
        fallbacks[start] = 0
        for g in graphs:
            for x in range(g.n):
                if not g.adjacency[x]:
                    continue
                ld = level_decomposition(g, x)
                vec, hx, hy = goodness_vector(g, ld, start)
                want = sum_verdict(vector_outcome(vec, start, 8192), decomposition_is_extremal(g, ld))
                calls.clear()
                got = is_good(g, x, start)
                assert (got.outcome, got.method, got.precision_bits, got.detail) == \
                    (want.outcome, want.method, want.precision_bits, want.detail)
                strict = carried_strict(vec, hx, hy, carried_limit(start))
                assert len(calls) == (not strict)
                fallbacks[start] += not strict
    return fallbacks


def test_is_good_carried_route_matches_vector_outcome(monkeypatch):
    # the carried route reports what vector_outcome would, at every start,
    # and certify_exponents sees only the vertices it leaves
    rng = random.Random(49)
    graphs = [random_bipartite_max_degree(rng, rng.randint(1, 10), rng.randint(1, 10),
                                          rng.uniform(0.2, 0.9), 5) for _ in range(150)]
    vertices = sum(1 for g in graphs for adj in g.adjacency if adj)
    fallbacks = _fallbacks_by_start(graphs, monkeypatch)
    # at 2 bits the carried bounds decide nothing
    assert vertices == 1544 and fallbacks == {128: 166, 8: 443, 2: 1544}
    # a schedule certify_exponents rejects is rejected at a carried vertex too
    g = path(4)
    vec, hx, hy = goodness_vector(g, level_decomposition(g, 0), 128)
    assert carried_strict(vec, hx, hy, carried_limit(128))
    for start, cap in ((128, 64), (0, 64), (-20, -3)):
        with pytest.raises(ValueError, match="precision start"):
            is_good(g, 0, start, cap)


def test_piece_bounds_are_the_ratio_bounds_of_their_vectors():
    # each cached piece is its vector and that vector's ratio_bounds at the
    # same precision, also when the piece was first asked for at another
    rng = random.Random(50)
    for _ in range(40):
        g = random_bipartite_max_degree(rng, rng.randint(1, 6), rng.randint(1, 6),
                                        rng.uniform(0.3, 0.9), 5)
        adj = g.adjacency
        for x in range(g.n):
            ld = level_decomposition(g, x)
            l1 = tuple(sorted((len(adj[u]) for u in adj[x]), reverse=True))
            for prec in (128, 8, 2):
                vec = root_vector(len(adj[x]), l1)
                assert root_piece(len(adj[x]), l1, prec) == (vec, *ratio_bounds(vec, prec))
                for v in ld.levels[2] if len(ld.levels) > 2 else ():
                    down = tuple(sorted((len(adj[w]) for w in adj[v] if ld.dist[w] == 1), reverse=True))
                    up = tuple(sorted((len(adj[w]) for w in adj[v] if ld.dist[w] == 3), reverse=True))
                    vec = level2_vector(len(adj[v]), down, up)
                    assert level2_piece(len(adj[v]), down, up, prec) == (vec, *ratio_bounds(vec, prec))


def test_carried_bounds_of_one_vertex_by_hand():
    # root 0 with level 1 {1, 2} (degrees 3, 3), level 2 {3, 4, 5} in that
    # order and level 3 {6} (degree 2): the root's bounds times each
    # level-2 vertex's, in level order, every product rounded up
    g = from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (5, 6)])
    ld = level_decomposition(g, 0)
    assert ld.levels[2] == [3, 4, 5]
    pieces = [root_vector(2, (3, 3)), level2_vector(2, (3,), (2,)),
              level2_vector(2, (3, 3), ()), level2_vector(2, (3,), (2,))]
    for prec in (128, 8, 2):
        scale = prec + GUARD_BITS
        hx, hy = ratio_bounds(pieces[0], prec)
        for vec in pieces[1:]:
            ux, uy = ratio_bounds(vec, prec)
            hx, hy = -(-hx * ux >> scale), -(-hy * uy >> scale)
        assert goodness_vector(g, ld, prec) == (sum(pieces), hx, hy)


def test_is_good_agrees_with_fullgraph_in_detail():
    # reduced and whole-graph checks decide through the same ratios, so they
    # agree on the route and on the exact reduced integers, not just the outcome
    rng = random.Random(44)
    probes = 0
    for _ in range(300):
        g = random_bipartite_max_degree(rng, rng.randint(1, 7), rng.randint(1, 7),
                                        rng.uniform(0.2, 0.9), 5)
        for x in range(g.n):
            if not g.adjacency[x]:
                continue
            a, b = is_good(g, x), is_good_fullgraph(g, x)
            assert (a.outcome, a.method, a.detail) == (b.outcome, b.method, b.detail)
            probes += 1
    assert probes > 1000


def test_is_good_equalities():
    for d in range(1, 6):
        for x in (0, d):
            assert is_good(complete_bipartite(d, d), x).outcome == Outcome.EQUAL
    assert is_good(Graph(1, ((),)), 0).outcome == Outcome.EQUAL
    assert is_good(complete_bipartite(2, 3), 0).outcome == Outcome.EQUAL


def test_is_good_fig1_regression(fig1):
    assert is_good(fig1, 0).outcome == Outcome.STRICTLY_LESS
    assert is_good_fullgraph(fig1, 0).outcome == Outcome.STRICTLY_LESS
    x, verdict = find_good_vertex(fig1)
    assert x == 3 and verdict.outcome == Outcome.STRICTLY_GREATER


def test_is_good_rejects_non_bipartite():
    with pytest.raises(NotBipartiteError):
        is_good(cycle(3), 0)


def test_is_good_ignores_other_components_even_odd_ones():
    # bipartite component of x plus a far-away triangle: the reduced check
    # works on the component, the full-graph oracle carries the shared factor
    g = from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)])
    a = is_good(g, 0)
    b = is_good_fullgraph(g, 0)
    assert a.outcome == b.outcome


def test_fullgraph_agreement_random():
    rng = random.Random(41)
    for _ in range(400):
        g = random_bipartite_max_degree(rng, rng.randint(1, 5), rng.randint(1, 5),
                                        rng.uniform(0.2, 0.9), 5)
        x = rng.randrange(g.n)
        assert is_good(g, x).outcome == is_good_fullgraph(g, x).outcome


def test_equality_iff_extremal_component():
    rng = random.Random(42)
    from indbound.graphs import component_is_extremal

    for _ in range(300):
        g = random_bipartite_max_degree(rng, rng.randint(1, 4), rng.randint(1, 4),
                                        rng.uniform(0.3, 1.0), 4)
        x = rng.randrange(g.n)
        verdict = is_good(g, x)
        assert (verdict.outcome == Outcome.EQUAL) == component_is_extremal(g, x)


def test_find_good_vertex():
    x, v = find_good_vertex(complete_bipartite(2, 3))
    assert x == 0 and v.outcome == Outcome.EQUAL
    x, v = find_good_vertex(Graph(1, ((),)))
    assert x == 0 and v.outcome == Outcome.EQUAL
    with pytest.raises(ValueError):
        find_good_vertex(Graph(0, ()))


def test_probe_goodness_is_the_probe_loop_of_find_good_vertex():
    # the probes run in good_vertex_probes order and stop after the first
    # good vertex, which find_good_vertex returns; with none good (at a 2-bit
    # cap) it raises with every probe's verdict in its trace
    rng = random.Random(47)
    late = exhausted = 0
    for _ in range(40):
        g = random_bipartite_max_degree(rng, rng.randint(1, 4), rng.randint(1, 4),
                                        rng.uniform(0.3, 1.0), 4)
        for start, cap in ((128, 8192), (2, 2)):
            probes = list(probe_goodness(g, start, cap))
            assert [(x, role) for x, role, _ in probes] == good_vertex_probes(g)[:len(probes)]
            good = [verdict.outcome.is_good() for _, _, verdict in probes]
            assert not any(good[:-1])
            if good[-1]:
                assert find_good_vertex(g, start, cap) == probes[-1][::2]
                late += len(probes) > 1
            else:
                assert len(probes) == len(good_vertex_probes(g))
                with pytest.raises(NoGoodVertexError) as err:
                    find_good_vertex(g, start, cap)
                assert err.value.trace == [(x, verdict) for x, _, verdict in probes]
                exhausted += 1
    assert late and exhausted


def test_check_kahn_bound_examples(fig1):
    union = from_edges(6, [(0, 1), (2, 4), (2, 5), (3, 4), (3, 5)])  # K2 + K22
    r = check_kahn_bound(union)
    assert r.count == 21 and r.verdict.outcome == Outcome.EQUAL
    assert r.structural_extremal and r.consistent

    r = check_kahn_bound(path(4))
    assert r.count == 8 and r.verdict.outcome == Outcome.STRICTLY_LESS and r.consistent

    r = check_kahn_bound(cycle(3))
    assert r.count == 4 and r.verdict.outcome == Outcome.STRICTLY_LESS and r.consistent
    assert r.product == pi_product(cycle(3))

    r = check_kahn_bound(Graph(0, ()))
    assert r.count == 1 and r.verdict.outcome == Outcome.EQUAL

    r = check_kahn_bound(fig1)
    assert r.count == 43 and r.verdict.outcome == Outcome.STRICTLY_LESS


def test_check_kahn_bound_builds_each_product_interval_once(fig1, monkeypatch):
    # fig1's bound product is irrational: from a 128-bit start the verdict
    # is decided by intervals at 128 bits, and the report shows that same
    # interval without building it again; from a 64-bit start the report
    # still shows the 128-bit interval, built for it
    original = FactorProduct.value_interval
    calls = []

    def spy(product, prec):
        calls.append(prec)
        return original(product, prec)

    monkeypatch.setattr(FactorProduct, "value_interval", spy)
    for start, built in ((128, [128]), (64, [64, 128])):
        calls.clear()
        r = check_kahn_bound(fig1, precision_start=start)
        assert calls == built and r.verdict.precision_bits == start
        assert r.product_interval == interval_strings(original(r.product, 128))


def test_check_kahn_bound_rejects_the_degree_before_counting(monkeypatch):
    # the degree bound is checked by the bound product, which comes first, so
    # a graph outside the verified range is never counted
    counted = []
    monkeypatch.setattr(goodness, "count_independent_sets", lambda g, *a: counted.append(g))
    star = from_edges(7, [(0, v) for v in range(1, 7)])  # K_{1,6}
    with pytest.raises(DegreeBoundError, match="degree 6"):
        check_kahn_bound(star)
    assert counted == []


def test_induction_chain_on_good_vertices():
    # when x is good and the two deletions satisfy the bound, the counting
    # recursion is sandwiched: ind(G) <= Pi(G-x) + Pi(G-x-N(x)) <= Pi(G)
    rng = random.Random(43)
    from indbound.graphs import delete_closed

    for _ in range(100):
        g = random_bipartite_max_degree(rng, rng.randint(1, 4), rng.randint(1, 4),
                                        rng.uniform(0.3, 0.9), 4)
        x = rng.randrange(g.n)
        verdict = is_good(g, x)
        if not verdict.outcome.is_good():
            continue
        g1, g2 = delete_closed(g, x)
        for sub in (g, g1, g2):
            cmp = compare_count_to_product(count_independent_sets(sub), pi_product(sub))
            assert cmp.outcome in (Outcome.EQUAL, Outcome.STRICTLY_LESS)
        assert is_good_fullgraph(g, x).outcome.is_good()
        lhs = count_independent_sets(g1) + count_independent_sets(g2)
        assert lhs == count_independent_sets(g)


def test_no_good_vertex_error_payload(fig1):
    err = NoGoodVertexError([(0, is_good(fig1, 0))])
    assert err.trace and "0:strictly_less" in str(err)
