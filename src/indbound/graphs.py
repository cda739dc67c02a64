"""Undirected simple graphs as immutable adjacency lists, plus the structural
operations the verification pipeline needs: deletion with dense re-indexing,
the one BFS (level_decomposition, run on every component by decompositions)
and the one extremal test on its output, the tensor product with K2, and the
edge-list format.

Vertices are integers in [0, n).  Adjacency lists are sorted tuples, so equal
graphs compare and hash identically.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


class GraphParseError(ValueError):
    """Edge-list input rejected; the message names the offending line."""


class NotBipartiteError(ValueError):
    """Raised by operations that require a bipartite (component of a) graph."""

    def __init__(self, message: str, witness: tuple[int, ...]):
        super().__init__(message)
        self.witness = witness  # odd closed walk

    def __reduce__(self):
        # pickle calls the class with args, which lack the witness; a search
        # lane sends the caller its exception pickled
        return type(self), (self.args[0], self.witness)


class Graph(NamedTuple):
    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def iso_count(self) -> int:
        """Number of isolated vertices."""
        return sum(1 for a in self.adjacency if not a)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2


class Bipartition(NamedTuple):
    """A valid 2-coloring: side[v] in {0, 1} and every edge crosses sides."""

    side: tuple[int, ...]


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge iterable; validates simplicity and range."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if v in adj[u]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in adj))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: `#` comment lines, a `n <count>` header,
    then one `<u> <v>` line per edge with 0 <= u < v < n."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise GraphParseError(f"line {lineno}: expected header 'n <count>', got {raw!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: malformed vertex count {parts[1]!r}") from None
            if n < 0:
                raise GraphParseError(f"line {lineno}: negative vertex count {n}")
            continue
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected '<u> <v>', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: malformed token in {raw!r}") from None
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        if u > v:
            raise GraphParseError(f"line {lineno}: endpoints not in increasing order")
        if v >= n:
            raise GraphParseError(f"line {lineno}: vertex index {v} is not below n={n}")
        if u < 0:
            raise GraphParseError(f"line {lineno}: negative vertex index {u}")
        if (u, v) in seen:
            raise GraphParseError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u, v))
    if n is None:
        raise GraphParseError("line 1: missing 'n <count>' header")
    return from_edges(n, edges)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph induced on `keep`, densely re-indexed; vertices keep their
    relative order."""
    old_of_new = sorted(set(keep))
    new_of_old = {old: new for new, old in enumerate(old_of_new)}
    adj = tuple(
        tuple(new_of_old[w] for w in g.adjacency[old] if w in new_of_old)
        for old in old_of_new
    )
    return Graph(len(old_of_new), adj)


def delete_closed(g: Graph, x: int) -> tuple[Graph, Graph]:
    """(G - x, G - x - N(x)), both densely re-indexed."""
    if not (0 <= x < g.n):
        raise ValueError(f"vertex {x} out of range for n={g.n}")
    without_x = [v for v in range(g.n) if v != x]
    closed = set(g.adjacency[x]) | {x}
    without_closed = [v for v in range(g.n) if v not in closed]
    return induced_subgraph(g, without_x), induced_subgraph(g, without_closed)


class LevelDecomposition(NamedTuple):
    """Breadth-first layering of the component of a root: levels[i] lists
    the vertices at distance i in discovery order, and dist maps every
    vertex of the component to its distance."""

    root: int
    levels: tuple[list[int], ...]
    dist: dict[int, int]

    @property
    def has_beyond_level2(self) -> bool:
        return len(self.levels) > 3


def level_decomposition(g: Graph, x: int) -> LevelDecomposition:
    """BFS levels of the component of x (edge distance).  Raises
    NotBipartiteError (with an odd closed walk) on an odd cycle."""
    if not (0 <= x < g.n):
        raise ValueError(f"vertex {x} out of range for n={g.n}")
    adj = g.adjacency
    dist = {x: 0}
    parent = {x: x}
    levels = [[x]]
    frontier = levels[0]
    while frontier:
        d = len(levels)
        nxt = []
        for u in frontier:
            for w in adj[u]:
                dw = dist.get(w)
                if dw is None:
                    dist[w] = d
                    parent[w] = u
                    nxt.append(w)
                elif dw == d - 1:
                    pu, pw = [u], [w]
                    while pu[-1] != x:
                        pu.append(parent[pu[-1]])
                        pw.append(parent[pw[-1]])
                    raise NotBipartiteError(
                        f"component of vertex {x} contains an odd cycle",
                        tuple(reversed(pu)) + tuple(pw),
                    )
        if nxt:
            levels.append(nxt)
        frontier = nxt
    return LevelDecomposition(x, tuple(levels), dist)


def decompositions(g: Graph) -> Iterator[LevelDecomposition]:
    """level_decomposition of each component, rooted at its least vertex, in
    order of that vertex.  Raises NotBipartiteError at the first odd cycle."""
    seen: set[int] = set()
    for start in range(g.n):
        if start not in seen:
            ld = level_decomposition(g, start)
            seen.update(ld.dist)
            yield ld


def decomposition_is_extremal(g: Graph, ld: LevelDecomposition) -> bool:
    """True iff the component of ld.root is a single vertex or complete
    bipartite, the structural shape on which the counting bound is tight,
    judged from the decomposition alone.  Within two levels the sides can
    only be level 1 and the rest.  A level-1 vertex has neighbors in levels
    0 and 2 only, so degree 1 + len(level 2) means it sees all of them;
    every level-2 vertex then sees all of level 1 and nothing else."""
    if ld.has_beyond_level2:
        return False
    level1 = ld.levels[1] if len(ld.levels) > 1 else ()
    level2 = ld.levels[2] if len(ld.levels) > 2 else ()
    return all(len(g.adjacency[u]) == 1 + len(level2) for u in level1)


def component_is_extremal(g: Graph, x: int) -> bool:
    """decomposition_is_extremal at x; False when the component of x has an
    odd cycle."""
    try:
        return decomposition_is_extremal(g, level_decomposition(g, x))
    except NotBipartiteError:
        return False


def bipartition(g: Graph) -> Bipartition | tuple[int, ...]:
    """A valid 2-coloring, the distance parity of each component's level
    decomposition, or an odd closed walk witnessing non-bipartiteness."""
    side = [0] * g.n
    try:
        for ld in decompositions(g):
            for v, d in ld.dist.items():
                side[v] = d & 1
    except NotBipartiteError as e:
        return e.witness
    return Bipartition(tuple(side))


def is_bipartite(g: Graph) -> bool:
    return isinstance(bipartition(g), Bipartition)


def tensor_k2(g: Graph) -> Graph:
    """Tensor product with K2 (bipartite double cover): vertex (v, i) maps to
    v + i*n, with (u,0)~(v,1) and (u,1)~(v,0) for every edge uv.  Shifting a
    sorted adjacency list by n keeps it sorted."""
    n = g.n
    return Graph(2 * n, tuple(tuple(w + n for w in a) for a in g.adjacency) + g.adjacency)
