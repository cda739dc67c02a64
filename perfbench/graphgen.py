"""Seeded random graphs of maximum degree at most 5 for the graph-check workload.

The set is stratified so that its total cost depends little on the seed:
every vertex count in N_RANGE and every average degree in AVG_DEGREES
appear equally often, and within each count exactly half the graphs are
bipartite and half contain an odd cycle.  Only the edges and the sides of
the bipartite graphs are random.  Vertex counts stay at 20 or below because
counting the independent sets of the 2n-vertex double cover grows quickly
with n.
"""

from __future__ import annotations

import random

MAX_DEGREE = 5
N_RANGE = range(6, 21)
AVG_DEGREES = (1.5, 2.0, 2.5, 3.0, 3.5)


def _capped_edges(rng: random.Random, candidates: list[tuple[int, int]], n: int,
                  m: int) -> list[tuple[int, int]]:
    rng.shuffle(candidates)
    deg = [0] * n
    edges = []
    for u, v in candidates:
        if len(edges) == m:
            break
        if deg[u] < MAX_DEGREE and deg[v] < MAX_DEGREE:
            edges.append((u, v) if u < v else (v, u))
            deg[u] += 1
            deg[v] += 1
    return edges


def _has_odd_cycle(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * n
    for s in range(n):
        if side[s] != -1:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return True
    return False


def random_graph(rng: random.Random, n: int, m: int, bipartite: bool) -> list[tuple[int, int]]:
    """Edges of one graph on n vertices with m edges where the degree cap
    allows; bipartite graphs split the vertices into two random non-empty
    sides, the others are redrawn until they have an odd cycle."""
    while True:
        if bipartite:
            n1 = rng.randint(n // 3, n - n // 3)
            cands = [(u, v) for u in range(n1) for v in range(n1, n)]
            return sorted(_capped_edges(rng, cands, n, m))
        cands = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = _capped_edges(rng, cands, n, m)
        if _has_odd_cycle(n, edges):
            return sorted(edges)


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    """The edge-list file format `indbound check` reads."""
    return "".join([f"n {n}\n", *(f"{u} {v}\n" for u, v in edges)])


def graph_set(seed: int, count: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """`count` graphs as (n, edges); the same seed gives the same set."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = N_RANGE[(i // 2) % len(N_RANGE)]
        avg_degree = AVG_DEGREES[(i // (2 * len(N_RANGE))) % len(AVG_DEGREES)]
        m = round(n * avg_degree / 2)
        out.append((n, random_graph(rng, n, m, bipartite=i % 2 == 0)))
    return out
