import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from conftest import (
    caterpillar,
    fibonacci,
    path,
    recursion_limit,
    serialize_edge_list,
    strip_timing,
    stripped_digest,
)
import indbound
from indbound import cli, counting, search
from indbound.cli import main
from indbound.counting import CountBudgetExceeded
from indbound.local import expand_appearances
from indbound.reports import (
    CertificateDocument,
    RunConfig,
    appearance_to_dot,
    export_exception_dots,
    write_json,
)
from indbound.products import FFactReport, Outcome, check_f_fact
from indbound.search import pattern_json, verify_regular, verify_statement2
from test_local import FAILING_PATTERNS

FIG1_TEXT = "n 7\n0 1\n1 2\n2 3\n3 4\n3 5\n3 6\n"


def test_certificate_roundtrip_and_overall(tmp_path):
    doc = CertificateDocument(config=RunConfig("verify-all", delta=2, jobs=1))
    doc.fact_check = check_f_fact(2)  # one case, passing
    doc.regular = [verify_regular(1)]
    doc.statement2 = verify_statement2(1, jobs=1)
    write_json(doc.to_json(), tmp_path / "cert.json")
    text = (tmp_path / "cert.json").read_text()
    parsed = json.loads(text)
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text
    assert parsed["overall"] == "PASS"
    assert doc.overall == "PASS"


def test_certificate_fails_on_any_sub_failure():
    doc = CertificateDocument(config=RunConfig("verify-all", jobs=1))
    doc.fact_check = FFactReport(2, (((2, 1, 2, 1), Outcome.STRICTLY_LESS),), 1)  # one case, failing
    assert doc.overall == "FAIL"
    empty = CertificateDocument(config=RunConfig("verify-all", jobs=1))
    assert empty.overall == "FAIL"  # nothing verified is not a pass
    # an undecided step does not pass, and the document counts it
    undecided = CertificateDocument(config=RunConfig("verify-all", delta=2, jobs=1))
    undecided.regular = [verify_regular(2, precision_start=4, precision_cap=4)]
    assert undecided.overall == "FAIL" and undecided.undecided_count() == 1
    assert doc.undecided_count() == 0


def test_certificate_lists_the_exceptions_of_stage1(stage1_report):
    # statement1.exceptions pairs each exceptional pattern with its
    # appearances; a run without stage 1 lists none
    doc = CertificateDocument(config=RunConfig("verify-all", jobs=1))
    assert doc.to_json()["statement1"] == {"stage1": None, "exceptions": [], "stage2": None}
    doc.stage1 = stage1_report
    exceptions = doc.to_json()["statement1"]["exceptions"]
    assert [e["pattern"] for e in exceptions] == [pattern_json(c) for c in doc.stage1.exceptional_patterns]
    assert sum(len(e["appearances"]) for e in exceptions) == 14
    first = exceptions[0]["appearances"][0]
    assert sum(first["level_sizes"]) == 1 + max(v for edge in first["edges"] for v in edge)


def test_reproducible_json_apart_from_timing():
    a = verify_statement2(2, jobs=1).to_json()
    b = verify_statement2(2, jobs=1).to_json()
    assert a != b or a == b  # wall times may coincide; compare stripped
    assert strip_timing(a) == strip_timing(b)
    assert "timing" in a and "wall_time_s" in a["timing"]


def test_dot_export_idempotent(tmp_path):
    appearances = []
    for cfg, _ in FAILING_PATTERNS:
        appearances.extend(expand_appearances(cfg))
    out = tmp_path / "dots"
    first = export_exception_dots(appearances, out)
    assert len(first) == 14
    bytes1 = [p.read_bytes() for p in first]
    second = export_exception_dots(appearances, out)
    assert [p.read_bytes() for p in second] == bytes1
    text = bytes1[0].decode()
    assert text.startswith("graph exception_01") and "rank=same" in text


def test_appearance_dot_levels():
    ap = expand_appearances(FAILING_PATTERNS[0][0])[0]
    dot = appearance_to_dot(ap, "x")
    assert dot.count("rank=same") == 4  # levels 0..3


def test_cli_check_equality_case(tmp_path, capsys):
    p = tmp_path / "k22.txt"
    p.write_text("n 4\n0 2\n0 3\n1 2\n1 3\n")
    code = main(["check", "--input", str(p)])
    out = capsys.readouterr().out
    assert code == 0
    assert "ind(G) = 7" in out and "= bound" in out
    assert "equal" in out


def test_cli_check_fig1(tmp_path, capsys):
    p = tmp_path / "fig1.txt"
    p.write_text(FIG1_TEXT)
    j = tmp_path / "fig1.json"
    code = main(["check", "--input", str(p), "--json", str(j)])
    out = capsys.readouterr().out
    assert code == 0
    assert "ind(G) = 43" in out and "< bound" in out
    data = json.loads(j.read_text())
    assert data["ind"] == "43"
    probes = {pr["role"]: pr["outcome"] for pr in data["good_vertex_probes"]}
    assert probes["max_degree"] == "strictly_greater"


@pytest.mark.slow
def test_cli_verify_all_undecided_exit_at_tiny_precision(tmp_path):
    # at an 8-bit cap the near-exceptional margins of the minimum-degree
    # search cannot separate, so the run reports undecided configurations;
    # every other aggregate is decided at 8 bits, exactly as many as
    # certify_exponents decides there
    j = tmp_path / "cert.json"
    code = main(["verify-all", "--delta", "5", "--statement", "1", "--jobs", "2",
                 "--precision-bits", "8", "--precision-cap", "8", "--json", str(j)])
    assert code == 2
    stage1 = json.loads(j.read_text())["statement1"]["stage1"]
    assert stage1["tally"] == {"strict": 103_129, "equal": 15, "failing": 1, "undecided": 91}
    assert stage1["precision_stats"] == {"exact": 15, "interval_8": 103_221}
    assert stripped_digest(json.loads(j.read_text())) == \
        "f341defc77ddb99d736a8ec65db6cdc6d1a7934b1f1be82ab752712fd6872c5e"


def test_cli_verify_all_dot_undecided_exit_at_tiny_precision(tmp_path, capsys):
    # the same undecided stage 1 exits 2 with --dot too, after writing the
    # DOT files of the failing patterns it did certify; a run of its own,
    # since dot_dir is in the certificate the pinned run hashes
    code = main(["verify-all", "--statement", "1", "--jobs", "1", "--dot", str(tmp_path / "dots"),
                 "--precision-bits", "8", "--precision-cap", "8"])
    assert "wrote 1 DOT files" in capsys.readouterr().out
    assert code == 2


@pytest.mark.parametrize("statement, digest", [
    ("1", "8d8b58d0bcaa774cc73e861a8e3be5c96c70e64441fae699b6c5f31bb944a4c0"),
    ("2", "dd04e24341a6146818b324fd4b421cd21c043839338d06fc66e54e7a99df230d"),
], ids=["statement1", "statement2"])
def test_cli_verify_all_certificate_digest(tmp_path, statement, digest):
    # the pinned fingerprint, whole: the stripped digest of each statement's
    # certificate, which any change to a certified fact, a tally, a pattern
    # or a precision route moves
    j = tmp_path / "cert.json"
    assert main(["verify-all", "--statement", statement, "--jobs", "2", "--json", str(j)]) == 0
    assert stripped_digest(json.loads(j.read_text())) == digest


def test_cli_killed_worker_exits_3():
    # a lane worker killed in the middle of stage 1 ends the run with exit 3
    # and no verdict, not in a hang.  The kill comes from a shard that runs
    # outside the calling process, so only a worker dies; the run is a child
    # interpreter under a timeout, so a hang fails the test.  Workers are
    # forked, so they inherit the patched shard function.
    script = textwrap.dedent("""
        import functools, os, signal, sys
        from indbound import cli, counting, search
        caller, shard = os.getpid(), search._agg_search_shard

        @functools.wraps(shard)
        def killing_shard(args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return shard(args)

        search._agg_search_shard = killing_shard
        sys.exit(cli.main(["verify-all", "--statement", "1", "--jobs", "2"]))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(indbound.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 3, done.stderr
    assert "internal error: WorkerDied: lane worker " in done.stderr
    assert "was killed by signal 9 (wait status 9)" in done.stderr
    assert "statement 1 stage 1" not in done.stdout and "overall" not in done.stdout


def test_cli_worker_exception_is_an_internal_error(monkeypatch, capsys):
    # an exception raised in a worker's lane alone reaches main with its
    # type and message, and the worker is reaped
    caller, shard = os.getpid(), search._agg_search_shard

    def failing_shard(args):
        if os.getpid() != caller:
            raise ValueError("a worker's shard failed")
        return shard(args)

    monkeypatch.setattr(search, "_agg_search_shard", failing_shard)
    assert main(["verify-all", "--statement", "1", "--jobs", "2"]) == 3
    out, err = capsys.readouterr()
    assert err == "internal error: ValueError: a worker's shard failed\n"
    assert "statement 1 stage 1" not in out and "overall" not in out
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _interrupted_run(script: str, *args: str):
    # run script in a child interpreter in its own session, send SIGINT to
    # its group on its line "caller lane running", and return the child, its
    # output and the seconds from the interrupt to its exit.  A child that
    # hangs is killed with its group after a minute, and fails
    env = dict(os.environ, PYTHONPATH=str(Path(indbound.__file__).parent.parent))
    child = subprocess.Popen([sys.executable, "-c", script, *args], env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             start_new_session=True)
    watchdog = threading.Timer(60, os.killpg, (child.pid, signal.SIGKILL))
    watchdog.start()
    sent = None
    try:
        for line in child.stdout:
            if line == "caller lane running\n":
                sent = time.monotonic()
                os.killpg(child.pid, signal.SIGINT)
                break
        out, err = child.communicate()
    finally:
        watchdog.cancel()
    return child, out, err, time.monotonic() - (sent or 0)


@pytest.mark.parametrize("jobs, workers", [("1", "none"), ("2", "starting"), ("2", "idle")])
def test_cli_interrupt_exits_3(jobs, workers):
    # SIGINT to the whole process group in the middle of stage 1 ends the run
    # with exit 3 and `error: interrupted`, and leaves no process behind.  The
    # caller's first stage-1 shard (root degree below the window's top, which
    # no regular shard has) prints a line and sleeps, and the test interrupts
    # on that line.  The caller kills and reaps its workers whatever they are
    # doing: "starting" workers are still in a slowed signal.signal call
    # when it comes, before they ignore SIGINT, and "idle" ones have run
    # their lanes and written their results (that workers ignore SIGINT is
    # test_search.test_workers_ignore_sigint).  The "idle" run also sets
    # multiprocessing's start method to a fork server started before the
    # run, which the lanes must not depend on: they are forked directly
    script = textwrap.dedent("""
        import functools, multiprocessing, multiprocessing.forkserver, os, signal, sys, time
        from indbound import cli, counting, search
        jobs, workers = sys.argv[1:]
        caller, shard, ignore = os.getpid(), search._agg_search_shard, signal.signal
        if workers == "idle":
            multiprocessing.set_start_method("forkserver")
            multiprocessing.forkserver.ensure_running()
        else:
            multiprocessing.set_start_method("fork")
            signal.signal = lambda *args: (time.sleep(1), ignore(*args))[1]

        @functools.wraps(shard)
        def waiting_shard(args):
            delta_eff, _, d0 = args[:3]
            if os.getpid() == caller and d0 < delta_eff:
                time.sleep(1 if workers == "idle" else 0)
                print("caller lane running", flush=True)
                time.sleep(60)
            return shard(args)

        search._agg_search_shard = waiting_shard
        sys.exit(cli.main(["verify-all", "--statement", "1", "--jobs", jobs]))
    """)
    child, out, err, _ = _interrupted_run(script, jobs, workers)
    assert child.returncode == 3, err
    assert err == "error: interrupted\n" and "overall" not in out
    # no process is left in the child's group once a fork server has seen
    # its caller go
    for _ in range(100):
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    else:
        pytest.fail("a process of the interrupted run is still running")


def test_cli_interrupt_stops_the_worker_lanes():
    # an interrupt at --jobs 2 ends the run at once, not once the worker has
    # run its lane: every shard of the worker's lane sleeps a minute, and
    # the test interrupts the group at the caller's first stage-1 shard.
    # The run exits 3 with `error: interrupted` within seconds, and has
    # killed and reaped its worker before it exits
    script = textwrap.dedent("""
        import functools, os, sys, time
        from indbound import cli, counting, search
        caller, shard = os.getpid(), search._agg_search_shard

        @functools.wraps(shard)
        def slow_worker_shard(args):
            delta_eff, _, d0 = args[:3]
            if os.getpid() != caller:
                time.sleep(60)
            elif d0 < delta_eff:
                print("caller lane running", flush=True)
            return shard(args)

        search._agg_search_shard = slow_worker_shard
        sys.exit(cli.main(["verify-all", "--statement", "1", "--jobs", "2"]))
    """)
    child, out, err, seconds = _interrupted_run(script)
    assert child.returncode == 3, err
    assert err == "error: interrupted\n" and "overall" not in out
    assert seconds < 5
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)


@pytest.mark.parametrize("text, digest", [
    (FIG1_TEXT, "259e309c97ab4786cbc00b64180c6372b9ed8e16d05949008ce0a859f6511e9c"),
    ("n 4\n0 2\n0 3\n1 2\n1 3\n", "19474bd96293c39720534a0f0a333205f436615766593fc68aa387b63256fc4d"),
    ("n 5\n0 1\n1 2\n2 3\n3 4\n0 4\n",
     "5744ce55982ce65262c0e6fa64eda16d3480caa7af0521ca440443369a3f878f"),
], ids=["fig1", "K2,2", "C5"])
def test_cli_check_json_bytes_are_pinned(tmp_path, text, digest):
    # check --json is a machine contract: its bytes, hashed whole
    p = tmp_path / "g.txt"
    p.write_text(text)
    j = tmp_path / "g.json"
    assert main(["check", "--input", str(p), "--json", str(j)]) == 0
    assert hashlib.sha256(j.read_bytes()).hexdigest() == digest


def test_cli_check_undecided_probes_exit_2(tmp_path, capsys):
    # at a 6-bit cap the bound is certified but no good-vertex probe is
    # decided, so check cannot pass: undecided, exit 2
    p = tmp_path / "g.txt"
    p.write_text("n 6\n0 3\n0 5\n1 3\n1 4\n2 4\n")
    assert main(["check", "--input", str(p), "--precision-bits", "6", "--precision-cap", "6"]) == 2
    out = capsys.readouterr().out
    assert "ind(G) = 21" in out and "< bound" in out
    assert out.count(": undecided") == 3 and "no good vertex among probes" in out
    assert main(["check", "--input", str(p)]) == 0


def test_cli_check_empty_graph_passes(tmp_path, capsys):
    # the empty graph meets the bound with equality and has no vertex to probe
    p = tmp_path / "empty.txt"
    p.write_text("n 0\n")
    assert main(["check", "--input", str(p)]) == 0
    out = capsys.readouterr().out
    assert "ind(G) = 1" in out and "good-vertex probe" not in out


def test_cli_check_takes_a_huge_precision_cap(tmp_path, capsys):
    # the schedule doubles from 128 bits 1,193 times up to a cap of 2^1200
    # bits, and K2 never needs a second precision: both of its comparisons
    # are exact, so the check passes (exit 0, not a traceback)
    p = tmp_path / "k2.txt"
    p.write_text("n 2\n0 1\n")
    assert main(["check", "--input", str(p), "--precision-cap", str(2**1200)]) == 0
    assert "ind(G) = bound (exact)" in capsys.readouterr().out


def test_cli_check_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("n 2\n0 1\n0 1\n")
    assert main(["check", "--input", str(p)]) == 3
    assert "line 3" in capsys.readouterr().err
    assert main(["check", "--input", str(tmp_path / "missing.txt")]) == 3


def test_cli_rejects_precision_below_one_bit(tmp_path, capsys):
    p = tmp_path / "fig1.txt"
    p.write_text(FIG1_TEXT)
    for argv in (["verify-all", "--delta", "2", "--jobs", "1", "--precision-bits", "0"],
                 ["check", "--input", str(p), "--precision-bits", "0"],
                 ["check", "--input", str(p), "--precision-bits", "9", "--precision-cap", "3"],
                 ["verify-all", "--delta", "2", "--jobs", "0"],
                 ["verify-all", "--delta", "2", "--jobs", "-1"],
                 # stage 1 alone finds what --dot writes, and neither run has it
                 ["verify-all", "--statement", "2", "--delta", "3", "--jobs", "1",
                  "--dot", str(tmp_path / "dd")],
                 ["verify-all", "--delta", "4", "--jobs", "1", "--dot", str(tmp_path / "dd")],
                 *(["selftest", "--scale", scale] for scale in ("0", "-1", "nan", "inf"))):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
    assert not (tmp_path / "dd").exists()


@pytest.mark.parametrize("argv", [
    ["check", "--input", "{graph}", "--json", "{dir}"],
    ["check", "--input", "{graph}", "--json", "{dir}/none/out.json"],
    ["verify-all", "--delta", "2", "--json", "{dir}"],
    ["verify-all", "--delta", "2", "--json", "{file}/out.json"],
    ["selftest", "--scale", "0.001", "--json", "{dir}"],
    ["verify-all", "--statement", "1", "--jobs", "1", "--dot", "{file}"],
    ["verify-all", "--statement", "1", "--jobs", "1", "--dot", "{file}/dots"],
], ids=["check-json", "check-json-no-parent", "verify-all-json", "verify-all-json-in-file",
        "selftest-json", "verify-all-dot", "verify-all-dot-in-file"])
def test_cli_unwritable_output_is_an_error(tmp_path, capsys, argv):
    # a --json path that is a directory or not in one, or a --dot directory
    # that is a file or under one, exits 3 with `error: ...` before any work:
    # a bad path is the user's, not a crash, and no verdict is printed
    graph = tmp_path / "fig1.txt"
    graph.write_text(FIG1_TEXT)
    paths = {"graph": graph, "dir": tmp_path, "file": graph}
    assert main([arg.format(**paths) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "internal error" not in captured.err
    assert captured.out == ""  # no `regular d=`, `overall` or other line of a run
    assert not (tmp_path / "none").exists()


def test_cli_usage_error_exits_3_not_undecided(capsys):
    # a subcommand rejects the flags it does not read; there is no
    # export-exceptions, since verify-all --dot writes the DOT files
    for argv in (["verify-all", "--jobs", "x"], ["check"], ["bogus"], ["selftest", "--jobs", "2"],
                 ["check", "--input", "g.txt", "--seed", "1"], ["verify-all", "--seed", "1"],
                 ["check", "--input", "g.txt", "--jobs", "1"], ["export-exceptions"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--help"])
    assert exc.value.code == 0


def test_cli_check_degree_guard(tmp_path, capsys):
    p = tmp_path / "star6.txt"
    p.write_text("n 7\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n")
    assert main(["check", "--input", str(p)]) == 4
    assert "degree 6" in capsys.readouterr().err


def test_cli_check_non_bipartite(tmp_path, capsys):
    p = tmp_path / "c3.txt"
    p.write_text("n 3\n0 1\n0 2\n1 2\n")
    assert main(["check", "--input", str(p)]) == 0
    out = capsys.readouterr().out
    assert "not bipartite" in out and "16 <= 18" in out


def test_cli_check_too_deep_to_count_is_an_error(tmp_path, capsys):
    p = tmp_path / "caterpillar1000.txt"
    p.write_text(serialize_edge_list(caterpillar(1000)))
    with recursion_limit(250):
        code = main(["check", "--input", str(p)])
    err = capsys.readouterr().err
    assert code == 3  # counting recursed past the interpreter's depth limit
    assert err.startswith("error: graph too large") and "depth limit" in err


def test_cli_check_counts_a_long_path(tmp_path, capsys):
    # a path is counted by its closed form, F(n + 2), at any length
    p = tmp_path / "path3000.txt"
    p.write_text(serialize_edge_list(path(3000)))
    assert main(["check", "--input", str(p)]) == 0
    assert f"ind(G) = {fibonacci(3002)}\n" in capsys.readouterr().out


def test_cli_check_double_cover_budget_is_an_error(tmp_path, capsys, monkeypatch):
    # check imports count_independent_sets from counting when it starts, so
    # the patch reaches its count of the double cover
    real_count = counting.count_independent_sets

    def count(g, budget=10_000_000):
        if g.n == 6:  # the double cover of the triangle
            raise CountBudgetExceeded("graph too large: double cover")
        return real_count(g, budget)

    monkeypatch.setattr(counting, "count_independent_sets", count)
    p = tmp_path / "c3.txt"
    p.write_text("n 3\n0 1\n0 2\n1 2\n")
    assert main(["check", "--input", str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: graph too large: double cover\n"
    assert captured.out == ""


def test_cli_verify_all_delta2(tmp_path, capsys):
    j = tmp_path / "cert.json"
    code = main(["verify-all", "--delta", "2", "--jobs", "1", "--json", str(j)])
    assert code == 0
    cert = json.loads(j.read_text())
    assert cert["overall"] == "PASS"
    assert cert["statement2"]["verdict"] == "PASS"
    assert cert["statement1"]["stage1"] is None
    assert [r["d"] for r in cert["regular"]] == [1, 2]
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_cli_verify_all_regular_undecided_at_tiny_precision(tmp_path):
    # the regular case is certified at the given precision: at a 4-bit cap the
    # d = 2 profile 28 against 25 stays undecided, and exit 2 says so
    j = tmp_path / "cert.json"
    argv = ["verify-all", "--delta", "2", "--statement", "1", "--json", str(j)]
    assert main([*argv, "--precision-bits", "4", "--precision-cap", "4"]) == 2
    regular = json.loads(j.read_text())["regular"]
    assert regular[1]["undecided"] == [{"k": 2, "xs": [1, 1]}]
    assert regular[1]["verdict"] == "FAIL"
    assert regular[1]["equalities"] == [{"k": 1, "xs": [0]}]
    assert main([*argv, "--precision-bits", "8", "--precision-cap", "8"]) == 0


def test_cli_verify_all_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify-all", "--delta", "3", "--jobs", "1", "--json", str(a)]) == 0
    assert main(["verify-all", "--delta", "3", "--jobs", "1", "--json", str(b)]) == 0
    da = strip_timing(json.loads(a.read_text()))
    db = strip_timing(json.loads(b.read_text()))
    da["config"].pop("json_path")
    db["config"].pop("json_path")
    assert da == db


def test_cli_selftest_small(capsys):
    assert main(["selftest", "--scale", "0.01"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
