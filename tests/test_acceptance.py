"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every check is certified
(exact integers or separated directed-rounding intervals); there are no
floating-point tolerances anywhere.
"""

import time

import pytest

from conftest import complete_bipartite, config_is_extremal
from indbound.counting import count_independent_sets
from indbound.goodness import find_good_vertex, is_good
from indbound.local import expand_appearances, leveled_canonical
from indbound.products import Outcome, check_f_fact
from indbound.reference import EXPECTED_EDGE_LISTS, expected_appearance_keys
from indbound.search import verify_regular, verify_statement1_stage2
from indbound.selftest import (
    suite_bound,
    suite_cancellation,
    suite_double_cover,
    suite_oracle_equivalence,
)

pytestmark = pytest.mark.acceptance


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_factor_fact():
    t0 = time.monotonic()
    report = check_f_fact(5)
    elapsed = time.monotonic() - t0
    ok = (
        report.passed
        and report.failures == 0
        and len(report.cases) == 100
        and all(o in (Outcome.STRICTLY_GREATER, Outcome.EQUAL) for _, o in report.cases)
        and elapsed < 1.0
    )
    _report("1 factor exchange fact", ok, f"{len(report.cases)} cases, {elapsed:.3f}s")


def test_criterion_2_regular_case():
    t0 = time.monotonic()
    ok = True
    details = []
    for d in range(1, 6):
        report = verify_regular(d)
        one_equality = (
            len(report.equalities) == 1
            and report.equalities[0].k == d - 1
            and all(x == 0 for x in report.equalities[0].xs)
        )
        ok = ok and report.passed and one_equality and not report.violations
        details.append(f"d={d}:{report.profiles}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _report("2 regular case", ok, f"profiles {','.join(details)}, {elapsed:.2f}s")


def test_criterion_3_statement2(statement2_report):
    report = statement2_report
    ok = (
        report.passed
        and report.tally["failing"] == 0
        and report.tally["undecided"] == 0
        and not report.equality_inconsistencies
        and all(config_is_extremal(c) for c in report.equality_patterns)
        and len(report.equality_patterns) == 11  # rooted K_{a,b}, a <= b <= 4, plus isolated
    )
    _report(
        "3 statement 2 (delta 4)",
        ok,
        f"{report.configs_after_dedup} configs, tally {report.tally}, {report.wall_time_s:.1f}s",
    )


def test_criterion_4_statement1_stage1(stage1_report):
    report = stage1_report
    appearances = []
    for cfg in report.exceptional_patterns:
        appearances.extend(expand_appearances(cfg))
    keys = {leveled_canonical(*ap.leveled_graph()) for ap in appearances}
    ok = (
        report.passed
        and report.tally["undecided"] == 0
        and len(appearances) == 14
        and len(EXPECTED_EDGE_LISTS) == 14
        and keys == expected_appearance_keys()
        and all(config_is_extremal(c) for c in report.equality_patterns)
        and all(c.t_counts() == (0,) * len(c.l2) for c in report.equality_patterns)
    )
    _report(
        "4 statement 1 stage 1",
        ok,
        f"{report.configs_after_dedup} configs, {len(appearances)} exceptional "
        f"appearances, {report.wall_time_s:.1f}s",
    )


def test_criterion_5_statement1_stage2(stage1_report):
    report = verify_statement1_stage2(stage1_report.exceptional_patterns)
    ok = (
        report.passed
        and report.tally["equal"] == 0
        and report.tally["failing"] == 0
        and report.tally["undecided"] == 0
        and report.tally["strict"] == report.configs_after_dedup > 0
    )
    _report(
        "5 statement 1 stage 2",
        ok,
        f"{report.configs_after_dedup} completions over {report.extra['rootings']} rootings",
    )


def test_criterion_6_counting():
    exact = all(
        count_independent_sets(complete_bipartite(d, d)) == 2 ** (d + 1) - 1
        for d in range(1, 7)
    )
    suite = suite_oracle_equivalence(seed=0, trials=1000)
    ok = exact and suite.failures == 0 and suite.trials == 1000
    _report("6 counting", ok, f"K_dd d=1..6 exact, {suite.trials} oracle trials")


def test_criterion_7_bound_suite():
    suite = suite_bound(seed=0, trials=10_000)
    ok = suite.failures == 0 and suite.trials == 10_000
    _report("7 bound suite", ok, f"{suite.trials} instances, {suite.failures} failures")


def test_criterion_8_double_cover_suite():
    suite = suite_double_cover(seed=0, trials=10_000)
    ok = suite.failures == 0 and suite.trials == 10_000
    _report("8 double cover suite", ok, f"{suite.trials} instances")


def test_criterion_9_fig1_regression(fig1):
    verdict = is_good(fig1, 0)
    x, good = find_good_vertex(fig1)
    ok = (
        verdict.outcome == Outcome.STRICTLY_LESS
        and good.outcome.is_good()
        and x == 3
    )
    _report("9 seven-vertex regression", ok,
            f"root verdict {verdict.outcome.value}, good vertex {x}")


def test_criterion_10_cancellation():
    suite = suite_cancellation(seed=0, trials=10_000)
    ok = suite.failures == 0 and suite.trials == 10_000
    _report("10 cancellation", ok, f"{suite.trials} rooted instances")
