"""Reference data: the fourteen expected exceptional neighborhoods of the
degree-5 minimum-degree search.

Each entry is the levels-0..3 induced subgraph around the failed root
(vertex 0), as an edge list whose levels are the breadth-first distances
from 0.  The stage-1 search must reproduce this set exactly, by expanding
its failing configurations into all distinct level-3 endpoint
identifications; a mismatch flags the run for review.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import from_edges, level_decomposition

EXPECTED_EDGE_LISTS: tuple[tuple[tuple[int, int], ...], ...] = (
    # root degree 1
    ((0, 1), (1, 2), (2, 3)),
    ((0, 1), (1, 2), (1, 3), (2, 4)),
    ((0, 1), (1, 2), (1, 3), (2, 4), (3, 5)),
    ((0, 1), (1, 2), (1, 3), (2, 4), (3, 4)),
    # root degree 2
    ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (3, 6), (4, 7), (4, 8)),
    ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (3, 6), (4, 6), (4, 7)),
    ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (3, 6), (4, 6)),
    ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4)),
    ((0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5)),
    ((0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 6)),
    ((0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)),
    # root degree 3
    ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 6)),
    ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 6), (5, 7)),
    ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 6), (5, 6)),
)


@lru_cache(maxsize=1)
def expected_appearance_keys() -> frozenset[bytes]:
    from .local import leveled_canonical

    keys = set()
    for edges in EXPECTED_EDGE_LISTS:
        g = from_edges(1 + max(map(max, edges)), edges)
        keys.add(leveled_canonical(level_decomposition(g, 0).levels, tuple(sorted(edges))))
    return frozenset(keys)
