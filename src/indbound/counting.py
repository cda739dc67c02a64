"""Exact independent-set counting.

count_independent_sets works on integer vertex bitmasks: bit v of a mask
stands for vertex v, and the neighbour mask of every vertex is built once
per call.  The count of a mask is the product of the counts of its
connected components, found by a breadth-first search over bits.  A single
vertex counts 2; any larger component branches on a maximum-degree vertex x
(ties go to the lowest index) via the deletion recursion
  count(comp) = count(comp - x) + count(comp - N[x]).
Each call keeps one memo keyed by the component mask, with no size cutoff,
so a component met again on another branch costs one lookup.  A budget
bounds the number of components the recursion visits, memo hits included;
a recursion deeper than the interpreter allows (a path of n vertices needs
about n/2 frames) ends in the same CountBudgetExceeded, never a wrong count.
A brute-force subset enumerator serves as the independent testing oracle.
"""

from __future__ import annotations

import sys

from .graphs import Graph

DEFAULT_BUDGET = 10_000_000

BRUTE_FORCE_LIMIT = 30


class CountBudgetExceeded(RuntimeError):
    """The recursion node budget or the interpreter's recursion depth ran
    out; the graph is too large to count.  Never a wrong number."""


class _Counter:
    __slots__ = ("nbr", "nodes", "budget", "memo")

    def __init__(self, g: Graph, budget: int):
        self.nbr = [sum(1 << w for w in adj) for adj in g.adjacency]
        self.nodes = 0
        self.budget = budget
        self.memo = {1 << v: 2 for v in range(g.n)}  # a single vertex

    def count(self, mask: int) -> int:
        """ind of the subgraph induced on mask: the product over its components."""
        nbr, memo = self.nbr, self.memo
        total = 1
        while mask:
            comp = frontier = mask & -mask
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= nbr[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & mask & ~comp
                comp |= frontier
            mask ^= comp
            self.nodes += 1
            if self.nodes > self.budget:
                raise CountBudgetExceeded(
                    f"graph too large: counting exceeded the budget of {self.budget} recursion nodes"
                )
            value = memo.get(comp)
            if value is None:
                best = best_deg = -1
                rest = comp
                while rest:
                    low = rest & -rest
                    v = low.bit_length() - 1
                    d = (nbr[v] & comp).bit_count()
                    if d > best_deg:
                        best, best_deg = v, d
                    rest ^= low
                x = 1 << best
                value = self.count(comp ^ x) + self.count(comp & ~(nbr[best] | x))
                memo[comp] = value
            total *= value
        return total


def count_independent_sets(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of independent sets of g (the empty set included)."""
    try:
        return _Counter(g, budget).count((1 << g.n) - 1)
    except RecursionError:
        raise CountBudgetExceeded(
            "graph too large: counting recursed past the interpreter's depth limit "
            f"of {sys.getrecursionlimit()} frames"
        ) from None


def count_bruteforce(g: Graph) -> int:
    """Testing oracle: check all 2^n subsets directly (n <= 30)."""
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_LIMIT}, got n={g.n}")
    masks = [0] * g.n
    for v in range(g.n):
        m = 0
        for w in g.adjacency[v]:
            m |= 1 << w
        masks[v] = m
    count = 0
    for subset in range(1 << g.n):
        rest = subset
        ok = True
        while rest:
            v = (rest & -rest).bit_length() - 1
            if masks[v] & subset:
                ok = False
                break
            rest &= rest - 1
        if ok:
            count += 1
    return count
