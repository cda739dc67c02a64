"""Randomized property suites with fixed seeds.

These are the cross-validation checks between independent routes to the
same quantity: recursive counting against subset enumeration, the reduced
goodness check against the whole-graph evaluation, the counting bound
against its structural equality characterization, and the double-cover
inequality.  The CLI exposes them as `selftest`; the acceptance tests run
them at their full published sizes.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from .counting import count_bruteforce, count_independent_sets
from .goodness import check_kahn_bound, is_good, is_good_fullgraph
from .graphs import Graph, delete_closed, from_edges, is_bipartite, tensor_k2
from .products import MAX_DEGREE, Outcome


def _capped_edges(rng: random.Random, n: int, candidates: list, p: float, dmax: int) -> Graph:
    """Each candidate edge kept with probability p while both ends stay
    below degree dmax; candidate order is shuffled so the cap does not bias
    toward low-index vertices."""
    rng.shuffle(candidates)
    deg = [0] * n
    edges = []
    for u, v in candidates:
        if rng.random() < p and deg[u] < dmax and deg[v] < dmax:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return from_edges(n, edges)


def random_graph_max_degree(rng: random.Random, n: int, p: float, dmax: int) -> Graph:
    """Erdos-Renyi edges filtered to respect a maximum degree."""
    return _capped_edges(rng, n, [(u, v) for u in range(n) for v in range(u + 1, n)], p, dmax)


def random_bipartite_max_degree(
    rng: random.Random, n1: int, n2: int, p: float, dmax: int
) -> Graph:
    """The same on sides [0, n1) and [n1, n1 + n2)."""
    return _capped_edges(rng, n1 + n2, [(u, n1 + v) for u in range(n1) for v in range(n2)],
                         p, dmax)


class SuiteResult(NamedTuple):
    name: str
    trials: int
    failures: int
    examples: list

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "verdict": "PASS" if self.passed else "FAIL",
            "examples": [str(e) for e in self.examples[:5]],
        }


def _run(name: str, trials: int, body: Callable[[random.Random, list], None], seed: int) -> SuiteResult:
    rng = random.Random(seed)
    failures: list = []
    for _ in range(trials):
        body(rng, failures)
    return SuiteResult(name, trials, len(failures), failures)


ORACLE_MAX_N = 16  # the oracle suite's largest graph: enumeration visits 2^n subsets


def suite_oracle_equivalence(seed: int, trials: int) -> SuiteResult:
    """count_independent_sets equals brute-force subset enumeration."""

    def body(rng: random.Random, failures: list) -> None:
        n = rng.randint(0, ORACLE_MAX_N)
        g = random_graph_max_degree(rng, n, rng.uniform(0.05, 0.6), dmax=n or 1)
        if count_independent_sets(g) != count_bruteforce(g):
            failures.append(g)

    return _run("oracle_equivalence", trials, body, seed)


def suite_recursion_identity(seed: int, trials: int) -> SuiteResult:
    """count(G) = count(G-x) + count(G-x-N(x)) at a random vertex."""

    def body(rng: random.Random, failures: list) -> None:
        n = rng.randint(1, 12)
        g = random_graph_max_degree(rng, n, rng.uniform(0.1, 0.7), dmax=n or 1)
        x = rng.randrange(n)
        g1, g2 = delete_closed(g, x)
        if count_independent_sets(g) != count_independent_sets(g1) + count_independent_sets(g2):
            failures.append((g, x))

    return _run("recursion_identity", trials, body, seed)


def suite_cancellation(seed: int, trials: int) -> SuiteResult:
    """is_good (reduced) agrees with is_good_fullgraph (direct) on random
    rooted bipartite instances with degree <= 5: the same outcome by the
    same method, with the same reduced integers when exact."""

    def body(rng: random.Random, failures: list) -> None:
        n1 = rng.randint(1, 6)
        n2 = rng.randint(1, 6)
        g = random_bipartite_max_degree(rng, n1, n2, rng.uniform(0.2, 0.9), dmax=MAX_DEGREE)
        x = rng.randrange(g.n)
        a = is_good(g, x)
        b = is_good_fullgraph(g, x)
        if (a.outcome, a.method, a.detail) != (b.outcome, b.method, b.detail):
            failures.append((g, x, a.outcome, b.outcome))

    return _run("cancellation", trials, body, seed)


def suite_bound(seed: int, trials: int) -> SuiteResult:
    """ind(G) <= Pi(G) certified on random graphs (n <= 8, degree <= 4),
    with equality exactly when every component is complete bipartite or a
    single vertex."""

    def body(rng: random.Random, failures: list) -> None:
        n = rng.randint(0, 8)
        g = random_graph_max_degree(rng, n, rng.uniform(0.1, 0.8), dmax=4)
        report = check_kahn_bound(g)
        ok = report.verdict.outcome in (Outcome.EQUAL, Outcome.STRICTLY_LESS)
        if not (ok and report.consistent):
            failures.append((g, report.verdict.outcome, report.structural_extremal))

    return _run("bound", trials, body, seed)


def suite_double_cover(seed: int, trials: int) -> SuiteResult:
    """ind(G)^2 <= ind(G x K2), with equality iff G is bipartite."""

    def body(rng: random.Random, failures: list) -> None:
        n = rng.randint(0, 8)
        g = random_graph_max_degree(rng, n, rng.uniform(0.1, 0.8), dmax=4)
        sq = count_independent_sets(g) ** 2
        dc = count_independent_sets(tensor_k2(g))
        is_bip = is_bipartite(g)
        if sq > dc or (sq == dc) != is_bip:
            failures.append((g, sq, dc, is_bip))

    return _run("double_cover", trials, body, seed)


# each suite with its default trial count, the one place that count is set
DEFAULT_SUITES = (
    (suite_oracle_equivalence, 1000),
    (suite_recursion_identity, 500),
    (suite_cancellation, 10_000),
    (suite_bound, 10_000),
    (suite_double_cover, 10_000),
)


def run_selftest(seed: int = 0, scale: float = 1.0) -> list[SuiteResult]:
    return [fn(seed=seed, trials=max(1, int(trials * scale)))
            for fn, trials in DEFAULT_SUITES]
