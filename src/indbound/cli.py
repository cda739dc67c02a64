"""Command-line driver.

Subcommands:
  verify-all  the full verification pipeline (factor fact, regular case,
              max-degree search, min-degree search + exceptional clearing,
              all at the given precision), emitting a JSON certificate;
              with --dot DIR it also writes the fourteen exceptional
              neighborhoods of stage 1 as DOT files
  check       report ind(G), the bound product, the certified comparison
              and good-vertex probes for one graph file
  selftest    the randomized cross-validation suites

Each subcommand takes only the flags it reads; --jobs and --dot are for
verify-all, --seed and --scale for selftest.

Exit codes: 0 pass, 1 fail, 2 undecided (a command that does not pass
with some comparison left undecided), 4 a degree above five, and 3 for
everything else: a usage error, a value the library rejects (a precision
below 1 bit or above the cap, a --jobs below 1), a --scale that is not
finite and positive, a verify-all --dot without stage 1, an input that
cannot be read or parsed, a graph too large to count, an output path that
cannot be written and an interrupt, each with `error: ...`, and a crash
(a dead lane worker included) with `internal error: ...`.  main is the one
place a failure becomes an exit code.
`check` passes when ind(G) <= bound with equality exactly on extremal
components, and either the last good-vertex probe of a bipartite graph is
good (the empty graph has none) or ind(G)^2 <= ind(G x K2) for a
non-bipartite one.  The certificate of
verify-all is assembled by reports.CertificateDocument alone.
Exit codes are the machine contract; the human-readable stdout may evolve,
the JSON schema may not.

The module imports only the standard library, so `import indbound.cli`
loads no other module of the package.  Each subcommand imports the layers
it runs when it starts, before it times anything: verify-all loads
products, search and reports and never goodness, counting or selftest;
check loads the graph layers and goodness; selftest loads selftest.  main
matches a failure only against the error classes of modules already
loaded, since no other module can have raised one.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

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


def _add_common(p: argparse.ArgumentParser) -> None:
    from .products import PRECISION_CAP, PRECISION_START

    p.add_argument("--precision-bits", type=int, default=PRECISION_START, help="interval precision start")
    p.add_argument("--precision-cap", type=int, default=PRECISION_CAP, help="interval precision cap")
    p.add_argument("--json", dest="json_path", metavar="PATH", help="write a JSON report here")


def build_parser() -> argparse.ArgumentParser:
    from .products import MAX_DEGREE

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
    # main resolves the default, so that building the parser loads no search
    p.add_argument("--jobs", type=int, default=None,
                   help="processes that run the search shards, this one included "
                        "(default: the CPUs this process may use)")
    _add_common(p)

    p = sub.add_parser("check", help="check one graph file")
    p.add_argument("--input", required=True, metavar="PATH", help="edge-list file")
    _add_common(p)

    p = sub.add_parser("selftest", help="run the randomized property suites")
    p.add_argument("--seed", type=int, default=0, help="seed of the randomized suites")
    p.add_argument("--scale", type=float, default=1.0,
                   help="scale factor on the default trial counts")
    p.add_argument("--json", dest="json_path", metavar="PATH", help="write a JSON report here")
    return parser


def _exit(passed: bool, undecided: int) -> int:
    """The exit code of a finished command: pass, else undecided if any
    comparison was, else fail."""
    if passed:
        return EXIT_PASS
    return EXIT_UNDECIDED if undecided else EXIT_FAIL


def _runs_stage1(args) -> bool:
    from .products import MAX_DEGREE

    return args.statement in (None, 1) and args.delta == MAX_DEGREE


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _cmd_verify_all(args) -> int:
    from .products import check_f_fact
    from .reports import CertificateDocument, RunConfig, export_exception_dots, write_json
    from .search import (
        STATEMENT2_MAX_DEGREE,
        verify_regular,
        verify_statement1_stage1,
        verify_statement1_stage2,
        verify_statement2,
    )

    doc = CertificateDocument(config=RunConfig(**vars(args)))
    t_all = time.monotonic()

    t0 = time.monotonic()
    fact = doc.fact_check = check_f_fact(max(args.delta, 2))
    doc.timing["fact_check_s"] = time.monotonic() - t0
    print(f"factor fact (delta={fact.delta}): {_verdict(fact.passed)} ({len(fact.cases)} cases)")

    t0 = time.monotonic()
    for d in range(1, args.delta + 1):
        rep = verify_regular(d, precision_start=args.precision_bits,
                             precision_cap=args.precision_cap)
        doc.regular.append(rep)
        print(f"regular d={d}: {_verdict(rep.passed)}"
              f" ({rep.profiles} profiles, {len(rep.equalities)} equality"
              + (f", {len(rep.undecided)} undecided" if rep.undecided else "") + ")")
    doc.timing["regular_s"] = time.monotonic() - t0

    if args.statement in (None, 2):
        st2 = doc.statement2 = verify_statement2(min(args.delta, STATEMENT2_MAX_DEGREE),
                                                 jobs=args.jobs,
                                                 precision_start=args.precision_bits,
                                                 precision_cap=args.precision_cap)
        print(f"statement 2 (delta={st2.delta}): {_verdict(st2.passed)} {st2.tally}")

    if _runs_stage1(args):
        s1 = doc.stage1 = verify_statement1_stage1(jobs=args.jobs,
                                                   precision_start=args.precision_bits,
                                                   precision_cap=args.precision_cap)
        print(f"statement 1 stage 1: {_verdict(s1.passed)} {s1.tally} "
              f"({s1.extra['appearances']} exceptional appearances)")
        s2 = doc.stage2 = verify_statement1_stage2(s1.exceptional_patterns,
                                                   precision_start=args.precision_bits,
                                                   precision_cap=args.precision_cap)
        print(f"statement 1 stage 2: {_verdict(s2.passed)} {s2.tally} "
              f"({s2.extra['rootings']} rootings)")
        if args.dot_dir:
            written = export_exception_dots(s1.appearances, args.dot_dir)
            print(f"wrote {len(written)} DOT files to {args.dot_dir}")

    doc.timing["total_s"] = time.monotonic() - t_all
    if args.json_path:
        write_json(doc.to_json(), args.json_path)
        print(f"certificate written to {args.json_path}")
    print(f"overall: {doc.overall}")
    return _exit(doc.overall == "PASS", doc.undecided_count())


def _cmd_check(args) -> int:
    from .counting import count_independent_sets
    from .goodness import check_kahn_bound, probe_goodness
    from .graphs import is_bipartite, parse_edge_list, tensor_k2
    from .products import MAX_DEGREE, Outcome

    g = parse_edge_list(Path(args.input).read_text())
    report = check_kahn_bound(g, precision_start=args.precision_bits,
                              precision_cap=args.precision_cap)
    bipartite = is_bipartite(g)
    dc = None if bipartite else count_independent_sets(tensor_k2(g))
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
        # the empty graph has no vertex to probe
        good = not probes or probes[-1][2].outcome.is_good()
        if not good:
            print(f"no good vertex among probes (unexpected for degree <= {MAX_DEGREE})")
    else:
        probes = []
        sq = report.count ** 2
        good = sq <= dc
        out["double_cover"] = {"ind_squared": str(sq), "ind_double_cover": str(dc)}
        print("graph is not bipartite; goodness is checked on the bipartite double")
        print(f"cover: ind(G)^2 = {sq} <= {dc} = ind(G x K2): {good}")
    if args.json_path:
        from .reports import write_json

        write_json(out, args.json_path)
    outcomes = [report.verdict.outcome, *(v.outcome for _, _, v in probes)]
    bound_holds = report.verdict.outcome in (Outcome.STRICTLY_LESS, Outcome.EQUAL)
    return _exit(bound_holds and report.consistent and good, outcomes.count(Outcome.UNDECIDED))


def _cmp_text(outcome) -> str:
    from .products import Outcome

    return {
        Outcome.STRICTLY_LESS: "<",
        Outcome.EQUAL: "=",
        Outcome.STRICTLY_GREATER: ">",
        Outcome.UNDECIDED: "undecided vs",
    }[outcome]


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest(seed=args.seed, scale=args.scale)
    for r in results:
        print(f"{r.name}: {_verdict(r.passed)} "
              f"({r.trials} trials, {r.failures} failures)")
    if args.json_path:
        from .reports import write_json

        write_json([r.to_json() for r in results], args.json_path)
    return _exit(all(r.passed for r in results), 0)


def _loaded(*names: str) -> tuple[type, ...]:
    """The classes named "module.Class" whose package module is loaded.
    main's except clauses call it only while they match an exception, so
    matching loads no layer: a module no command loaded raised nothing."""
    found = []
    for name in names:
        module, _, cls = name.partition(".")
        found.append(getattr(sys.modules.get(f"{__package__}.{module}"), cls, None))
    return tuple(c for c in found if c is not None)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:  # the library's own rules first, then the two only the CLI has
        if "jobs" in args:
            from .search import resolve_jobs

            args.jobs = resolve_jobs(args.jobs)  # the certificate records the count
        if "precision_bits" in args:
            from .products import precision_schedule

            precision_schedule(args.precision_bits, args.precision_cap)
        if args.subcommand == "verify-all" and args.dot_dir and not _runs_stage1(args):
            from .products import MAX_DEGREE

            raise ValueError(f"--dot needs stage 1: --delta {MAX_DEGREE} and no --statement 2")
        if "scale" in args and not 0 < args.scale < math.inf:
            raise ValueError(f"need a finite --scale > 0, got {args.scale}")
        path = Path(args.json_path or ".")  # an unwritable output path fails before the work
        if args.json_path and (path.is_dir() or not path.parent.is_dir()):
            raise ValueError(f"cannot write --json {path}: a directory, or not in one")
        path = Path(getattr(args, "dot_dir", None) or ".")
        if not next(p for p in (path, *path.parents) if p.exists()).is_dir():
            raise ValueError(f"cannot write --dot {path}: it or an ancestor is a file")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    try:
        return {"verify-all": _cmd_verify_all, "check": _cmd_check,
                "selftest": _cmd_selftest}[args.subcommand](args)
    except _loaded("products.DegreeBoundError") as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGREE
    except (OSError, *_loaded("graphs.GraphParseError", "counting.CountBudgetExceeded")) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # anything else is a crash, exit 3 by contract
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
