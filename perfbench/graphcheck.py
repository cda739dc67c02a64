"""One pass of the graph-check workload in a fresh interpreter.

For each graph in the input file (a JSON list of edge-list texts) it makes
the calls `indbound check` makes, through public functions:
`check_kahn_bound`; then `find_good_vertex` on a bipartite graph or the
independent-set count of the double cover `tensor_k2(g)` otherwise.  On a
bipartite graph it also runs `is_good` at every non-isolated vertex, as the
self-test does, so the Fraction/Verdict certification path carries weight.

A graph fails on an undecided verdict, an equality that does not match the
structure, a count above the bound, a NoGoodVertexError, a non-bipartite
graph with ind(G)^2 >= ind(G x K2), or any exception.  The pass writes the
per-graph latencies and counts, the failures and one digest over every
graph's results.

    python3 perfbench/graphcheck.py GRAPHS.json RESULT.json [STATS.json]

With STATS.json the pass runs under layer tracing and writes its stats there.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

from indbound import counting, goodness, graphs
from indbound.products import Outcome

PRECISION_BITS = 128


def check_graph(text: str) -> tuple[str, list[str], list]:
    """The digest line of one graph, the list of its failures and its counts
    [ind(G), ind(G x K2) or None]."""
    problems = []
    g = graphs.parse_edge_list(text)
    report = goodness.check_kahn_bound(g, precision_start=PRECISION_BITS)
    outcome = report.verdict.outcome
    if outcome is Outcome.UNDECIDED:
        problems.append("undecided bound comparison")
    if outcome is Outcome.STRICTLY_GREATER:
        problems.append("ind(G) above the bound")
    if not report.consistent:
        problems.append("equality does not match the structure")
    good = sweep = ""
    dc = None
    if isinstance(graphs.bipartition(g), graphs.Bipartition):
        try:
            x, _ = goodness.find_good_vertex(g, precision_start=PRECISION_BITS)
            good = str(x)
        except goodness.NoGoodVertexError as e:
            problems.append(f"NoGoodVertexError: {e}")
        marks = []
        for v in range(g.n):
            if not g.adjacency[v]:
                continue
            verdict = goodness.is_good(g, v, precision_start=PRECISION_BITS)
            if verdict.outcome is Outcome.UNDECIDED:
                problems.append(f"undecided goodness at vertex {v}")
            if (verdict.outcome is Outcome.EQUAL) != verdict.detail["equality_expected"]:
                problems.append(f"goodness equality does not match the structure at vertex {v}")
            marks.append(verdict.outcome.value[0])
        sweep = "".join(marks)
    else:
        dc = counting.count_independent_sets(graphs.tensor_k2(g))
        if report.count ** 2 >= dc:
            problems.append("ind(G)^2 >= ind(G x K2) on a non-bipartite graph")
    line = f"{g.n} {report.count} {dc} {outcome.value} {good} {sweep}\n"
    return line, problems, [report.count, dc]


def run_pass(texts: list[str]) -> dict:
    digest = hashlib.sha256()
    latencies = []
    counts = []
    failures = []
    failed = []
    for i, text in enumerate(texts):
        t0 = time.perf_counter()
        try:
            line, problems, graph_counts = check_graph(text)
        except Exception:
            line, problems, graph_counts = f"error {i}\n", [traceback.format_exc(limit=3)], None
        latencies.append(time.perf_counter() - t0)
        digest.update(line.encode())
        counts.append(graph_counts)
        if problems:
            failed.append(i)
            failures.extend(f"graph {i}: {p}" for p in problems[:3])
    return {
        "graphs": len(texts),
        "failed": failed,
        "failures": failures[:20],
        "digest": digest.hexdigest(),
        "counts": counts,
        "latencies_s": latencies,
    }


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    texts = json.loads(Path(argv[0]).read_text())
    tracer = None
    if len(argv) == 3:
        import layertrace

        tracer = layertrace.Tracer(Path(argv[2]).with_suffix(".workers"))
        tracer.install()
    t0 = time.perf_counter()
    result = run_pass(texts)
    if tracer is not None:
        tracer.dump(Path(argv[2]), time.perf_counter() - t0)
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
