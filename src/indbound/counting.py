"""Exact independent-set counting.

count_independent_sets works on integer vertex bitmasks: bit v of a mask
stands for vertex v, and the neighbour mask of every vertex is built once
per call.  The count of a mask is the product of the counts of its
connected components.  One breadth-first search over bits finds each
component, and for every vertex v it reaches it reads r = nbr[v] & mask,
v's neighbourhood inside its component: the frontier, the degree, the
degree sum and the branch vertex all come from r.  Three kinds of
component take no branching:
  - an isolated vertex counts 2, found without a search;
  - a path of k vertices (maximum degree <= 2, degree sum 2(k - 1))
    counts F(k + 2);
  - a cycle of k vertices (maximum degree 2, degree sum 2k) counts
    L(k) = F(k - 1) + F(k + 1),
with F the Fibonacci numbers.  Any other component branches on a
maximum-degree vertex x (ties go to the lowest index) via the deletion
recursion
  count(comp) = count(comp - x) + count(comp - N[x]).
Each call keeps one memo keyed by the component mask, with no size cutoff,
so a component met again on another branch costs one lookup.  A budget
bounds the number of components the recursion visits: isolated vertices,
closed forms and memo hits count as well.  Paths and cycles of any length
count without recursion, but a long component of maximum degree 3 or more
(a caterpillar, say) still recurses about one frame per two vertices along
it; a recursion deeper than the interpreter allows ends in the same
CountBudgetExceeded, never a wrong count.
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
    __slots__ = ("nbr", "nodes", "budget", "memo", "fib")

    def __init__(self, g: Graph, budget: int):
        self.nbr = [sum(map((1).__lshift__, adj)) for adj in g.adjacency]
        self.nodes = 0
        self.budget = budget
        self.memo = {}
        self.fib = [0, 1]  # F(0), F(1), ...; grown as paths and cycles need

    def count(self, mask: int) -> int:
        """ind of the subgraph induced on mask: the product over its components."""
        nbr, memo = self.nbr, self.memo
        total = 1
        while mask:
            self.nodes += 1
            if self.nodes > self.budget:
                raise CountBudgetExceeded(
                    f"graph too large: counting exceeded the budget of {self.budget} recursion nodes"
                )
            low = mask & -mask
            best = low.bit_length() - 1
            frontier = nbr[best] & mask
            if not frontier:  # an isolated vertex
                mask ^= low
                total *= 2
                continue
            comp = low | frontier
            top = degree_sum = frontier.bit_count()
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                v = low.bit_length() - 1
                r = nbr[v] & mask
                d = r.bit_count()
                degree_sum += d
                if d >= top and (d > top or v < best):
                    best, top = v, d
                r &= ~comp
                comp |= r
                frontier |= r
            mask ^= comp
            if top <= 2:  # a path or a cycle
                k = comp.bit_count()
                fib = self.fib
                while len(fib) <= k + 2:
                    fib.append(fib[-1] + fib[-2])
                total *= fib[k + 2] if degree_sum < 2 * k else fib[k - 1] + fib[k + 1]
                continue
            value = memo.get(comp)
            if value is None:
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
