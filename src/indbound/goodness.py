"""Good-vertex checks.

A vertex x is good when Pi(G) >= Pi(G - x) + Pi(G - x - N(x)), where Pi is
the bound product.  Factors from edges at distance >= 3 of x and from other
components appear identically on both sides, so the check reduces to the
levels 0..2 of the one breadth-first decomposition around x
(graphs.level_decomposition) plus the edges leaving level 2.  The reduced
check (is_good) gathers the degrees around x from that decomposition and
builds the A/B/C lane vector from products.root_piece and
products.level2_piece: root_vector and level2_vector, the builders the
searches use, each cached with its ratio_bounds at the start precision.  In
the same pass it multiplies those bounds into upper bounds of X = B/A and
Y = C/A, rounding up, and decides the vertex strict by
products.carried_strict as the searches decide their leaves; a vertex the
bounds leave (equal, failing, possibly integral or too close) is certified
through vector_outcome.  Both routes give the same Verdict.  The direct
whole-graph evaluation (is_good_fullgraph), its oracle, builds the three
bound products and goes through certify_sum_inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .counting import count_independent_sets
from .graphs import (
    Graph,
    LevelDecomposition,
    NotBipartiteError,
    component_is_extremal,
    decomposition_is_extremal,
    decompositions,
    delete_closed,
    level_decomposition,
)
from .intervals import GUARD_BITS
from .products import (
    MAX_DEGREE,
    PRECISION_CAP,
    PRECISION_START,
    DegreeBoundError,
    FactorProduct,
    Outcome,
    Verdict,
    carried_limit,
    carried_strict,
    certify_sum_inequality,
    compare_count_to_product,
    interval_strings,
    level2_piece,
    pi_product,
    precision_schedule,
    root_piece,
    sum_verdict,
    vector_outcome,
)


def goodness_vector(g: Graph, ld: LevelDecomposition,
                    prec: int = PRECISION_START) -> tuple[int, int, int]:
    """(vec, hx, hy): the A/B/C lane vector of the reduced inequality at
    ld.root and upper bounds of its X and Y at scale 2^-(prec + GUARD_BITS);
    every degree of the component must be at most 5.  vec is root_vector of
    the root and level-1 degrees plus one level2_vector per level-2 vertex,
    from the degrees of its level-1 and level-3 neighbors; hx and hy are the
    root vector's ratio_bounds at prec times each level-2 vertex's, every
    product rounded up, as the searches carry theirs."""
    adj = g.adjacency
    dist = ld.dist
    l1 = adj[ld.root]
    scale = prec + GUARD_BITS
    vec, hx, hy = root_piece(len(l1), tuple(sorted((len(adj[u]) for u in l1), reverse=True)), prec)
    for v in ld.levels[2] if len(ld.levels) > 2 else ():
        down, up = [], []
        for w in adj[v]:
            (down if dist[w] == 1 else up).append(len(adj[w]))
        piece, ux, uy = level2_piece(len(adj[v]), tuple(sorted(down, reverse=True)),
                                     tuple(sorted(up, reverse=True)), prec)
        vec += piece
        hx, hy = -(-hx * ux >> scale), -(-hy * uy >> scale)
    return vec, hx, hy


def is_good(
    g: Graph,
    x: int,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> Verdict:
    """Certified reduced goodness check; requires the component of x to be
    bipartite (non-bipartite graphs are handled by the double-cover lift)
    with degrees at most 5.  The Verdict carries the outcome and, when
    exact, the reduced integers, but not the three terms.  It is decided
    strict from the carried bounds when carried_strict allows, with the
    route and precision vector_outcome would report, and otherwise by
    vector_outcome."""
    ld = level_decomposition(g, x)
    if max(map(len, g.adjacency)) > MAX_DEGREE:  # only then scan the component
        worst = max(len(g.adjacency[v]) for v in ld.dist)
        if worst > MAX_DEGREE:
            raise DegreeBoundError(f"component of vertex {x} has degree {worst}, "
                                   f"is_good needs <= {MAX_DEGREE}")
    precision_schedule(precision_start, precision_cap)  # rejects a bad schedule before any bound
    vec, hx, hy = goodness_vector(g, ld, precision_start)
    if carried_strict(vec, hx, hy, carried_limit(precision_start)):
        certified = (Outcome.STRICTLY_GREATER, "interval", precision_start, ())
    else:
        certified = vector_outcome(vec, precision_start, precision_cap)
    return sum_verdict(certified, decomposition_is_extremal(g, ld))


def is_good_fullgraph(g: Graph, x: int) -> Verdict:
    """Direct evaluation of Pi(G) >= Pi(G-x) + Pi(G-x-N(x)) with no
    cancellation; the testing oracle for is_good."""
    g1, g2 = delete_closed(g, x)
    return certify_sum_inequality(pi_product(g), pi_product(g1), pi_product(g2),
                                  equality_expected=component_is_extremal(g, x))


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


def probe_goodness(g: Graph, precision_start: int = PRECISION_START,
                   precision_cap: int = PRECISION_CAP) -> Iterator[tuple[int, str, Verdict]]:
    """(vertex, role, is_good verdict) for good_vertex_probes(g) in order, up
    to and including the first certified good vertex."""
    for x, role in good_vertex_probes(g):
        verdict = is_good(g, x, precision_start, precision_cap)
        yield x, role, verdict
        if verdict.outcome.is_good():
            return


def find_good_vertex(
    g: Graph,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> tuple[int, Verdict]:
    """First certified good vertex among good_vertex_probes(g)."""
    if g.n == 0:
        raise ValueError("find_good_vertex needs at least one vertex")
    trace = [(x, verdict) for x, _, verdict in probe_goodness(g, precision_start, precision_cap)]
    if trace[-1][1].outcome.is_good():
        return trace[-1]
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
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> BoundCheckReport:
    """Exact count, bound product, certified comparison, and the structural
    equality test (every component complete bipartite or a single vertex).
    A degree above MAX_DEGREE raises DegreeBoundError before any counting."""
    product = pi_product(g)
    count = count_independent_sets(g)
    verdict = compare_count_to_product(count, product, precision_start, precision_cap)
    try:
        structural = all(decomposition_is_extremal(g, ld) for ld in decompositions(g))
    except NotBipartiteError:
        structural = False
    consistent = (verdict.outcome == Outcome.EQUAL) == structural
    # a verdict decided by intervals at 128 bits already holds that interval
    product_interval = (verdict.detail["product_interval"] if verdict.precision_bits == 128
                        else interval_strings(product.value_interval(128)))
    return BoundCheckReport(
        n=g.n,
        edge_count=g.edge_count(),
        count=count,
        product=product,
        product_interval=product_interval,
        verdict=verdict,
        structural_extremal=structural,
        consistent=consistent,
    )
