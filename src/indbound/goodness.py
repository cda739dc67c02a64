"""Good-vertex checks.

A vertex x is good when Pi(G) >= Pi(G - x) + Pi(G - x - N(x)), where Pi is
the bound product.  Factors from edges at distance >= 3 of x and from other
components appear identically on both sides, so the check reduces to the
levels 0..2 of a breadth-first decomposition around x plus the edges leaving
level 2.  This module implements both the reduced check (is_good) and the
direct whole-graph evaluation (is_good_fullgraph) used as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import count_independent_sets
from .graphs import (
    Graph,
    NotBipartiteError,
    component_is_extremal,
    components,
    delete_closed,
)
from .intervals import to_decimal_str
from .products import (
    PRECISION_CAP,
    PRECISION_START,
    FactorProduct,
    Outcome,
    Verdict,
    certify_sum_inequality,
    compare_count_to_product,
    pi_product,
)


@dataclass(frozen=True, eq=False)
class LevelDecomposition:
    """Breadth-first layering around a root, restricted to what the reduced
    goodness inequality needs: levels 0..4, the 01/12/23 edges, true degrees
    of their endpoints, per level-2 vertex the number of level-1 neighbors,
    and the three isolated-vertex counts."""

    root: int
    levels: tuple[tuple[int, ...], ...]  # levels[i] = vertices at distance i, i <= 4
    e01: tuple[tuple[int, int], ...]
    e12: tuple[tuple[int, int], ...]
    e23: tuple[tuple[int, int], ...]
    degree: dict  # true degree in the host graph, for every endpoint above
    level1_neighbor_count: dict  # level-2 vertex -> d_{N(x)}(u)
    iso_g: int
    iso_minus_x: int
    iso_minus_closed: int
    has_beyond_level2: bool

    @property
    def root_degree(self) -> int:
        return len(self.levels[1]) if len(self.levels) > 1 else 0


def level_decomposition(g: Graph, x: int) -> LevelDecomposition:
    """BFS levels of the component of x (edge distance), with the edge
    classification and counts used by the goodness terms.  Raises
    NotBipartiteError (with an odd closed walk) on an odd cycle."""
    if not (0 <= x < g.n):
        raise ValueError(f"vertex {x} out of range for n={g.n}")
    dist = {x: 0}
    parent = {x: x}
    order = [x]
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for w in g.adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                parent[w] = u
                order.append(w)
            elif dist[w] == dist[u]:
                pu, pw = [], []
                a = u
                while parent[a] != a:
                    pu.append(a)
                    a = parent[a]
                pu.append(a)
                a = w
                while parent[a] != a:
                    pw.append(a)
                    a = parent[a]
                pw.append(a)
                witness = tuple(reversed(pu)) + tuple(pw)
                raise NotBipartiteError(
                    f"component of vertex {x} contains an odd cycle", witness
                )
    max_level = max(dist.values())
    levels = tuple(
        tuple(sorted(v for v, d in dist.items() if d == i))
        for i in range(min(max_level, 4) + 1)
    )
    e01, e12, e23 = [], [], []
    degree: dict[int, int] = {x: g.degree(x)}
    for u, d in dist.items():
        if d not in (1, 2, 3):
            continue
        for w in g.adjacency[u]:
            if dist[w] == d - 1:
                pair = (w, u)
                if d == 1:
                    e01.append(pair)
                elif d == 2:
                    e12.append(pair)
                else:
                    e23.append(pair)
                degree[u] = g.degree(u)
                degree[w] = g.degree(w)
    level1 = set(levels[1]) if len(levels) > 1 else set()
    l1_nbrs = {
        u: sum(1 for w in g.adjacency[u] if w in level1)
        for u in (levels[2] if len(levels) > 2 else ())
    }
    iso_g = 1 if g.degree(x) == 0 else 0
    iso_minus_x = sum(1 for u in level1 if g.degree(u) == 1)
    iso_minus_closed = sum(
        1 for u, k in l1_nbrs.items() if g.degree(u) == k
    )
    return LevelDecomposition(
        root=x,
        levels=levels,
        e01=tuple(sorted(e01)),
        e12=tuple(sorted(e12)),
        e23=tuple(sorted(e23)),
        degree=degree,
        level1_neighbor_count=l1_nbrs,
        iso_g=iso_g,
        iso_minus_x=iso_minus_x,
        iso_minus_closed=iso_minus_closed,
        has_beyond_level2=max_level > 2,
    )


@dataclass(frozen=True, eq=False)
class GoodnessInstance:
    """The three terms of the reduced inequality A >= B + C."""

    a: FactorProduct
    b: FactorProduct
    c: FactorProduct
    equality_expected: bool


def _bump(counts: dict, a: int, b: int, m: int = 1) -> None:
    key = (a, b) if a <= b else (b, a)
    counts[key] = counts.get(key, 0) + m


def decomposition_is_extremal(ld: LevelDecomposition) -> bool:
    """True iff the component is a single vertex or complete bipartite,
    judged from the decomposition alone."""
    if ld.root_degree == 0:
        return True
    if ld.has_beyond_level2:
        return False
    level1 = ld.levels[1]
    level2 = ld.levels[2] if len(ld.levels) > 2 else ()
    if any(ld.degree[u] != 1 + len(level2) for u in level1):
        return False
    return all(
        ld.level1_neighbor_count[v] == len(level1) == ld.degree[v] for v in level2
    )


def goodness_terms(ld: LevelDecomposition) -> GoodnessInstance:
    """Assemble A, B, C from a decomposition.

    A counts every 01/12/23 edge at its true degrees plus 2^iso(G');
    B drops x, so each 12-edge loses one from its level-1 endpoint;
    C drops x and N(x), so each 23-edge keeps only the level-3 neighbors of
    its level-2 endpoint, and a level-2 vertex with no level-3 neighbor
    contributes a plain factor 2 through the isolated count.
    """
    deg = ld.degree
    ca: dict[tuple[int, int], int] = {}
    cb: dict[tuple[int, int], int] = {}
    cc: dict[tuple[int, int], int] = {}
    for u, v in ld.e01:
        _bump(ca, deg[u], deg[v])
    for u, v in ld.e12:
        _bump(ca, deg[u], deg[v])
        _bump(cb, deg[u] - 1, deg[v])
    for u, v in ld.e23:
        _bump(ca, deg[u], deg[v])
        _bump(cb, deg[u], deg[v])
        _bump(cc, deg[u] - ld.level1_neighbor_count[u], deg[v])
    return GoodnessInstance(
        a=FactorProduct.from_f_counts(ca, two_exp=ld.iso_g),
        b=FactorProduct.from_f_counts(cb, two_exp=ld.iso_minus_x),
        c=FactorProduct.from_f_counts(cc, two_exp=ld.iso_minus_closed),
        equality_expected=decomposition_is_extremal(ld),
    )


def is_good(
    g: Graph,
    x: int,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> Verdict:
    """Certified reduced goodness check; requires the component of x to be
    bipartite (non-bipartite graphs are handled by the double-cover lift)."""
    inst = goodness_terms(level_decomposition(g, x))
    return certify_sum_inequality(
        inst.a,
        inst.b,
        inst.c,
        equality_expected=inst.equality_expected,
        precision_start=precision_start,
        precision_cap=precision_cap,
    )


def is_good_fullgraph(
    g: Graph,
    x: int,
    max_degree: int = 5,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> Verdict:
    """Direct evaluation of Pi(G) >= Pi(G-x) + Pi(G-x-N(x)) with no
    cancellation; the testing oracle for is_good."""
    (g1, _), (g2, _) = delete_closed(g, x)
    return certify_sum_inequality(
        pi_product(g, max_degree),
        pi_product(g1, max_degree),
        pi_product(g2, max_degree),
        equality_expected=component_is_extremal(g, x),
        precision_start=precision_start,
        precision_cap=precision_cap,
    )


class NoGoodVertexError(RuntimeError):
    """None of the probed vertices certified good: for bipartite graphs of
    maximum degree <= 5 this would contradict the verified theorem, so the
    full probe trace is attached for inspection."""

    def __init__(self, trace: list[tuple[int, Verdict]]):
        super().__init__(
            "no good vertex found among probes "
            + ", ".join(f"{v}:{verdict.outcome.value}" for v, verdict in trace)
        )
        self.trace = trace


def good_vertex_probes(g: Graph) -> list[tuple[int, str]]:
    """The vertices to probe for goodness, in order and without repeats,
    each with its role: a maximum-degree vertex, then a minimum-degree
    vertex, then that vertex's neighbors."""
    if g.n == 0:
        return []
    degs = g.degrees()
    vmax = max(range(g.n), key=lambda v: (degs[v], -v))
    vmin = min(range(g.n), key=lambda v: (degs[v], v))
    probes = {vmax: "max_degree"}
    probes.setdefault(vmin, "min_degree")
    for w in g.adjacency[vmin]:
        probes.setdefault(w, f"neighbor_of_{vmin}")
    return list(probes.items())


def find_good_vertex(
    g: Graph,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> tuple[int, Verdict]:
    """First certified good vertex among good_vertex_probes(g)."""
    if g.n == 0:
        raise ValueError("find_good_vertex needs at least one vertex")
    trace: list[tuple[int, Verdict]] = []
    for x, _ in good_vertex_probes(g):
        verdict = is_good(g, x, precision_start, precision_cap)
        if verdict.outcome.is_good():
            return x, verdict
        trace.append((x, verdict))
    raise NoGoodVertexError(trace)


@dataclass(frozen=True, eq=False)
class BoundCheckReport:
    """Result of checking ind(G) <= Pi(G) on one graph."""

    n: int
    edge_count: int
    count: int
    product: FactorProduct
    product_interval: list[str]
    verdict: Verdict
    structural_extremal: bool
    consistent: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "edges": self.edge_count,
            "ind": str(self.count),
            "bound_product": str(self.product),
            "bound_interval_128": self.product_interval,
            "comparison": self.verdict.to_json(),
            "every_component_extremal": self.structural_extremal,
            "equality_matches_structure": self.consistent,
        }


def check_kahn_bound(
    g: Graph,
    max_degree: int = 5,
    budget: int = 10_000_000,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> BoundCheckReport:
    """Exact count, bound product, certified comparison, and the structural
    equality test (every component complete bipartite or a single vertex)."""
    count = count_independent_sets(g, budget=budget)
    product = pi_product(g, max_degree)
    verdict = compare_count_to_product(count, product, precision_start, precision_cap)
    iv = product.value_interval(128)
    structural = all(
        component_is_extremal(g, comp_map[0]) for _, comp_map in components(g)
    )
    consistent = (verdict.outcome == Outcome.EQUAL) == structural
    return BoundCheckReport(
        n=g.n,
        edge_count=g.edge_count(),
        count=count,
        product=product,
        product_interval=[
            to_decimal_str(iv.lo_m, iv.lo_e),
            to_decimal_str(iv.hi_m, iv.hi_e),
        ],
        verdict=verdict,
        structural_extremal=structural,
        consistent=consistent,
    )
