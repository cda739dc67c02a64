"""Independent reference counts for the graph-check workload.

A plain bitmask branching count of independent sets that shares no code with
`indbound.counting`.  The benchmark compares the program's counts with it, so
that a changed count fails the run on any commit, not only when it changes
between runs of the same sources.
"""

from __future__ import annotations

# double covers above this many base vertices are left to the other checks:
# the reference count is slow on them
DOUBLE_COVER_MAX_N = 14


def count_independent_sets(n: int, edges: list[tuple[int, int]]) -> int:
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    memo: dict[int, int] = {}

    def count(mask: int) -> int:
        if mask == 0:
            return 1
        known = memo.get(mask)
        if known is not None:
            return known
        best, best_deg, rest = -1, -1, mask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            d = (nbr[v] & mask).bit_count()
            if d > best_deg:
                best, best_deg = v, d
        if best_deg == 0:
            result = 1 << mask.bit_count()
        else:
            without = mask & ~(1 << best)
            result = count(without) + count(without & ~nbr[best])
        memo[mask] = result
        return result

    return count((1 << n) - 1)


def double_cover_edges(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Edges of G x K2 with vertex (v, i) numbered v + i*n."""
    return [(u, v + n) for u, v in edges] + [(v, u + n) for u, v in edges]


def mismatches(graphs: list[tuple[int, list[tuple[int, int]]]],
               counts: list) -> dict[int, str]:
    """Compare the program's [ind(G), ind(G x K2) or None] per graph with the
    reference counts; maps the index of each differing graph to a message."""
    out = {}
    for i, ((n, edges), got) in enumerate(zip(graphs, counts)):
        if got is None:  # the pass already failed this graph
            continue
        ind, dc = got
        want = count_independent_sets(n, edges)
        if ind != want:
            out[i] = f"ind(G) = {ind}, the reference count is {want}"
        if dc is not None and n <= DOUBLE_COVER_MAX_N:
            want = count_independent_sets(2 * n, double_cover_edges(n, edges))
            if dc != want:
                out[i] = f"ind(G x K2) = {dc}, the reference count is {want}"
    return out
