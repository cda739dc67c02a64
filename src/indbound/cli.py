"""Command-line driver.

Subcommands:
  verify-all         the full verification pipeline (factor fact, regular
                     case, max-degree search, min-degree search + exceptional
                     clearing, all at the given precision), emitting a JSON
                     certificate
  check              report ind(G), the bound product, the certified
                     comparison and good-vertex probes for one graph file
  export-exceptions  write the fourteen exceptional neighborhoods as DOT
  selftest           the randomized cross-validation suites

Each subcommand takes only the flags it reads; --jobs is for verify-all and
export-exceptions, --seed and --scale for selftest.

Exit codes: 0 pass, 1 fail, 2 undecided, 3 internal/parse/usage error (a
precision below 1 bit and fewer than one worker included), and 4 for a
degree above five in `check`.
Exit codes are the machine contract; the human-readable stdout may evolve,
the JSON schema may not.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .counting import CountBudgetExceeded, count_independent_sets
from .goodness import NoGoodVertexError, check_kahn_bound, probe_goodness
from .graphs import GraphParseError, is_bipartite, parse_edge_list, tensor_k2
from .products import (
    MAX_DEGREE,
    PRECISION_CAP,
    PRECISION_START,
    DegreeBoundError,
    Outcome,
    check_f_fact,
)
from .reports import (
    CertificateDocument,
    RunConfig,
    export_exception_dots,
    write_certificate,
)
from .search import (
    default_jobs,
    verify_regular,
    verify_statement1_stage1,
    verify_statement1_stage2,
    verify_statement2,
)
from .selftest import run_selftest

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_ERROR = 3
EXIT_DEGREE = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which this contract reserves for
    undecided; subparsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser, jobs: bool) -> None:
    if jobs:
        p.add_argument("--jobs", type=int, default=default_jobs(),
                       help="worker processes (default: all cores)")
    p.add_argument("--precision-bits", type=int, default=PRECISION_START, help="interval precision start")
    p.add_argument("--precision-cap", type=int, default=PRECISION_CAP, help="interval precision cap")
    p.add_argument("--json", dest="json_path", metavar="PATH", help="write a JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="indbound", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify-all", help="run the full verification pipeline")
    p.add_argument("--delta", type=int, default=MAX_DEGREE, choices=range(1, MAX_DEGREE + 1),
                   help=f"verify up to this maximum degree ({MAX_DEGREE} = full pipeline)")
    p.add_argument("--statement", type=int, choices=(1, 2), default=None,
                   help="restrict the searches to one statement")
    p.add_argument("--dot", dest="dot_dir", metavar="DIR",
                   help="also export exceptional patterns as DOT files")
    _add_common(p, jobs=True)

    p = sub.add_parser("check", help="check one graph file")
    p.add_argument("--input", required=True, metavar="PATH", help="edge-list file")
    _add_common(p, jobs=False)

    p = sub.add_parser("export-exceptions", help="export the exceptional patterns as DOT")
    p.add_argument("--dot", dest="dot_dir", default="exceptions", metavar="DIR",
                   help="output directory (default: exceptions/)")
    _add_common(p, jobs=True)

    p = sub.add_parser("selftest", help="run the randomized property suites")
    p.add_argument("--seed", type=int, default=0, help="seed of the randomized suites")
    p.add_argument("--scale", type=float, default=1.0,
                   help="scale factor on the default trial counts")
    p.add_argument("--json", dest="json_path", metavar="PATH", help="write a JSON report here")
    return parser


def _cmd_verify_all(args) -> int:
    config = RunConfig(
        subcommand="verify-all",
        delta=args.delta,
        statement=args.statement,
        jobs=args.jobs,
        precision_bits=args.precision_bits,
        precision_cap=args.precision_cap,
        json_path=args.json_path,
        dot_dir=args.dot_dir,
    )
    doc = CertificateDocument(config=config)
    t_all = time.monotonic()

    t0 = time.monotonic()
    doc.fact_check = check_f_fact(max(args.delta, 2)).to_json()
    doc.timing["fact_check_s"] = time.monotonic() - t0
    print(f"factor fact (delta={max(args.delta, 2)}): {doc.fact_check['verdict']}"
          f" ({doc.fact_check['cases']} cases)")

    t0 = time.monotonic()
    for d in range(1, args.delta + 1):
        rep = verify_regular(d, precision_start=args.precision_bits,
                             precision_cap=args.precision_cap)
        doc.regular.append(rep.to_json())
        print(f"regular d={d}: {doc.regular[-1]['verdict']}"
              f" ({rep.profiles} profiles, {len(rep.equalities)} equality"
              + (f", {len(rep.undecided)} undecided" if rep.undecided else "") + ")")
    doc.timing["regular_s"] = time.monotonic() - t0

    if args.statement in (None, 2):
        rep2 = verify_statement2(min(args.delta, 4), jobs=args.jobs,
                                 precision_start=args.precision_bits,
                                 precision_cap=args.precision_cap)
        doc.statement2 = rep2
        print(f"statement 2 (delta={min(args.delta, 4)}): "
              f"{'PASS' if rep2.passed else 'FAIL'} {rep2.tally}")

    if args.statement in (None, 1) and args.delta == MAX_DEGREE:
        s1 = verify_statement1_stage1(jobs=args.jobs,
                                      precision_start=args.precision_bits,
                                      precision_cap=args.precision_cap)
        doc.stage1 = s1
        print(f"statement 1 stage 1: {'PASS' if s1.passed else 'FAIL'} {s1.tally} "
              f"({s1.extra['appearances']} exceptional appearances)")
        for cfg in s1.exceptional_patterns:
            doc.exceptions.append(
                {
                    "pattern": {
                        "d0": cfg.d0,
                        "l1_degrees": list(cfg.l1_degrees),
                        "l2": [{"b": b, "level1_neighbors": list(nb)} for b, nb in cfg.l2],
                    },
                    "appearances": [_appearance_json(ap) for ap in s1.appearances
                                    if ap.config == cfg],
                }
            )
        s2 = verify_statement1_stage2(s1.exceptional_patterns,
                                      precision_start=args.precision_bits,
                                      precision_cap=args.precision_cap)
        doc.stage2 = s2
        print(f"statement 1 stage 2: {'PASS' if s2.passed else 'FAIL'} {s2.tally} "
              f"({s2.extra['rootings']} rootings)")
        if args.dot_dir:
            written = export_exception_dots(s1.appearances, args.dot_dir)
            print(f"wrote {len(written)} DOT files to {args.dot_dir}")

    doc.timing["total_s"] = time.monotonic() - t_all
    if args.json_path:
        write_certificate(doc, args.json_path)
        print(f"certificate written to {args.json_path}")
    print(f"overall: {doc.overall}")
    if doc.overall == "PASS":
        return EXIT_PASS
    return EXIT_UNDECIDED if doc.undecided_count() > 0 else EXIT_FAIL


def _appearance_json(ap) -> dict:
    levels, edges = ap.leveled_graph()
    return {"level_sizes": [len(lv) for lv in levels], "edges": [list(e) for e in edges]}


def _cmd_check(args) -> int:
    try:
        text = Path(args.input).read_text()
    except OSError as e:
        print(f"error: cannot read {args.input}: {e}", file=sys.stderr)
        return EXIT_ERROR
    try:
        g = parse_edge_list(text)
    except GraphParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_ERROR
    if g.max_degree() > MAX_DEGREE:
        print(f"error: maximum degree {g.max_degree()} exceeds the verified bound {MAX_DEGREE}",
              file=sys.stderr)
        return EXIT_DEGREE
    bipartite = is_bipartite(g)
    try:
        report = check_kahn_bound(g, precision_start=args.precision_bits,
                                  precision_cap=args.precision_cap)
        dc = None if bipartite else count_independent_sets(tensor_k2(g))
    except CountBudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    out = report.to_json()
    print(f"vertices: {g.n}, edges: {g.edge_count()}, isolated: {g.iso_count()}")
    print(f"ind(G) = {report.count}")
    print(f"bound  = {report.product}  in [{report.product_interval[0]}, {report.product_interval[1]}]")
    print(f"comparison: ind(G) {_cmp_text(report.verdict.outcome)} bound "
          f"({report.verdict.method}"
          + (f", {report.verdict.precision_bits} bits" if report.verdict.precision_bits else "")
          + ")")
    print(f"every component extremal (complete bipartite or single vertex): "
          f"{report.structural_extremal}")
    if bipartite:
        probes = list(probe_goodness(g, args.precision_bits, args.precision_cap))
        out["good_vertex_probes"] = [{"vertex": x, "role": role, "outcome": v.outcome.value}
                                     for x, role, v in probes]
        for x, role, v in probes:
            print(f"good-vertex probe {role} (vertex {x}): {v.outcome.value}")
        if probes and not probes[-1][2].outcome.is_good():
            print(f"no good vertex among probes (unexpected for degree <= {MAX_DEGREE})")
    else:
        sq = report.count ** 2
        out["double_cover"] = {"ind_squared": str(sq), "ind_double_cover": str(dc)}
        print("graph is not bipartite; goodness is checked on the bipartite double")
        print(f"cover: ind(G)^2 = {sq} <= {dc} = ind(G x K2): {sq <= dc}")
    if args.json_path:
        Path(args.json_path).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    if report.verdict.outcome == Outcome.UNDECIDED:
        return EXIT_UNDECIDED
    if not report.consistent or report.verdict.outcome == Outcome.STRICTLY_GREATER:
        return EXIT_FAIL
    return EXIT_PASS


def _cmp_text(outcome: Outcome) -> str:
    return {
        Outcome.STRICTLY_LESS: "<",
        Outcome.EQUAL: "=",
        Outcome.STRICTLY_GREATER: ">",
        Outcome.UNDECIDED: "undecided vs",
    }[outcome]


def _cmd_export_exceptions(args) -> int:
    print("running the minimum-degree search to collect exceptional patterns...")
    s1 = verify_statement1_stage1(jobs=args.jobs,
                                  precision_start=args.precision_bits,
                                  precision_cap=args.precision_cap)
    try:
        written = export_exception_dots(s1.appearances, args.dot_dir)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    print(f"wrote {len(written)} DOT files to {args.dot_dir}")
    if args.json_path:
        Path(args.json_path).write_text(
            json.dumps({"files": [p.name for p in written],
                        "appearances": len(s1.appearances)}, indent=2) + "\n"
        )
    return EXIT_PASS if s1.passed else EXIT_UNDECIDED if s1.tally["undecided"] else EXIT_FAIL


def _cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed, scale=args.scale)
    for r in results:
        print(f"{r.name}: {'PASS' if r.passed else 'FAIL'} "
              f"({r.trials} trials, {r.failures} failures)")
    if args.json_path:
        Path(args.json_path).write_text(
            json.dumps([r.to_json() for r in results], indent=2, sort_keys=True) + "\n"
        )
    return EXIT_PASS if all(r.passed for r in results) else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if "jobs" in args and args.jobs < 1:
        print(f"error: need --jobs >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_ERROR
    if "precision_bits" in args and not 1 <= args.precision_bits <= args.precision_cap:
        print(f"error: need 1 <= --precision-bits <= --precision-cap, got "
              f"{args.precision_bits} and {args.precision_cap}", file=sys.stderr)
        return EXIT_ERROR
    try:
        if args.subcommand == "verify-all":
            return _cmd_verify_all(args)
        if args.subcommand == "check":
            return _cmd_check(args)
        if args.subcommand == "export-exceptions":
            return _cmd_export_exceptions(args)
        if args.subcommand == "selftest":
            return _cmd_selftest(args)
        raise AssertionError(f"unhandled subcommand {args.subcommand}")
    except (DegreeBoundError,) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGREE
    except NoGoodVertexError as e:
        print(f"counterexample candidate: {e}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as e:  # internal errors are exit 3 by contract
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
