"""Benchmark of the indbound verifier, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client; each unit is a fresh interpreter with
cold module caches, as a CLI user has, and never more than nproc workers):

  verify-serial    `python -m indbound.cli verify-all --statement 1 --jobs 1`:
                   the Delta = 5 minimum-degree pipeline (factor fact, regular
                   case, stage 1 over 103,236 aggregates, expansion, stage 2)
                   on one core.  Every search layer does its full work and the
                   process pool does none.
  verify-parallel  the same command at --jobs nproc; the only workload where
                   pool start-up, shard scheduling and the shard tail matter.
  graph-check      a pass over a seeded set of random graphs of maximum degree
                   at most 5 (graphgen.py), making the calls `indbound check`
                   makes plus an `is_good` sweep (graphcheck.py).  Exercises
                   counting, graphs, goodness and the Fraction/Verdict
                   certification path, which the searches never touch.

Statement 2 (Delta = 4, 238,251 aggregates) is not run: alone it takes about
40 s on one core, too long for runs of about 40 s that need two units each.
It runs the same per-aggregate code as stage 1.  The verify
workloads take no input, so there the seed is only recorded.

With --trace 0 a run repeats its unit until --seconds would be exceeded
(at least twice) and reports medians.  With --trace 1 it makes one unit under
layertrace.py and one without, reports the per-layer metrics of the traced
unit, and the difference of the two walls as trace.overhead_s.

Every verify unit must exit 0, match the fingerprint (fingerprint.py) and
give the same certificate, with timing, jobs and json_path stripped, as
every other verify unit of the same sources.  Every graph pass must give the
same digest as every other pass of the same seed and sources, and its counts
must match a reference counter of the benchmark's own (oracle.py).  Counts
that must repeat exactly are compared with those of earlier traced runs of
the same sources.  Earlier values live in .perfbench/ under the checkout.
Any failure makes `correct` false and the exit code 1.

End-to-end metrics, the same on every workload: wall_ref_s, cpu_ref_s (user
plus system time of the unit's process tree) and peak_rss_mb of one unit,
items_per_ref_s (aggregates per second of search-stage time on verify-*,
graphs per second of check time on graph-check) and setup_s (a fresh
interpreter importing indbound.cli).

Times are in reference seconds.  The speed of a shared virtual machine can
drift by tens of percent within minutes, far more than the bounds a
benchmark needs.
So every SAMPLE_EVERY_S the unit's process group is stopped and a fixed
slice of pure-Python work (reference_slice) is timed; a unit's measured
seconds, pauses excluded, are scaled by REFERENCE_SLICE_S over the mean
slice time around and during it.  setup_s is scaled the same way.  The
measured values, stage times, per-graph latency percentiles, the paused
share and the failed share follow in the summary, with sample counts.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics BENCHMARK.json names for the trace mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import fingerprint
import graphgen
import oracle

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("verify-serial", "verify-parallel", "graph-check")
PRECISION_BITS = 128
GRAPHS_PER_PASS = 2000
MIN_UNITS = 2
SETUP_SAMPLES = 3  # per unit
REFERENCE_SLICE_ITERATIONS = 30_000
REFERENCE_SLICE_S = 0.01  # one reference second: the time of 100 slices
SAMPLE_EVERY_S = 0.25
SETUP_SAMPLE_EVERY_S = 0.05  # imports take about 0.15 s
RUN_LIMIT_S = 165  # every unit is killed this long after the run started
STAGES = ("stage1", "stage2")
# counts that must be identical in every traced run of the same sources, with
# the hook each one needs (None: read from the certificate)
REPEAT_COUNTS = {
    "stage1.search.aggregates": "indbound.search._agg_enum_for_degrees",
    "stage1.search.filter_calls": "indbound.search.agg_realizable",
    "stage1.cert.exact": None,
    "stage1.cert.interval": None,
    "stage1.cert.escalated": None,
    "stage2.completions": "indbound.search.stage2_completions",
    "stage2.distinct": None,
}


def reference_slice() -> float:
    """Seconds for a fixed slice of pure-Python dict, tuple and integer work,
    the kind of work the verifier does.  It shares no code with the program,
    so a change to the program leaves it alone, while the machine's speed
    changes it as it changes the program."""
    t0 = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(REFERENCE_SLICE_ITERATIONS):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
        acc += len(counts) * 3 % 7
    return time.perf_counter() - t0


@dataclass
class Unit:
    wall_s: float  # elapsed seconds, pauses excluded
    cpu_s: float
    rss_mb: float
    rc: int
    paused_s: float
    slice_s: float  # mean reference slice time around and during the unit

    @property
    def speed(self) -> float:
        """Reference seconds per measured second."""
        return REFERENCE_SLICE_S / self.slice_s

    @property
    def active_share(self) -> float:
        """Share of the elapsed time in which the unit was not paused."""
        return self.wall_s / (self.wall_s + self.paused_s)


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:  # the group has just ended
        pass


def run_unit(cmd: list[str], env: dict, log: Path, deadline: float,
             sample_every: float | None) -> Unit:
    """Run one process tree to completion; CPU time and peak RSS cover the
    process and every child it waited for.  A reference slice runs just
    before and just after the unit and, unless sample_every is None, every
    sample_every seconds while the whole process group is stopped, so the
    slices see the machine's speed at the moments the unit runs."""
    slices = [reference_slice()]
    paused = 0.0
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env,
                                start_new_session=True)
        pidfd = os.pidfd_open(proc.pid)
        status = None
        try:
            while not select.select([pidfd], [], [], sample_every or 1.0)[0]:
                if time.perf_counter() > deadline:
                    _signal_group(proc.pid, signal.SIGKILL)
                    break
                if sample_every:
                    p0 = time.perf_counter()
                    _signal_group(proc.pid, signal.SIGSTOP)
                    slices.append(reference_slice())
                    _signal_group(proc.pid, signal.SIGCONT)
                    paused += time.perf_counter() - p0
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            if status is None:  # interrupted: leave nothing stopped or running
                _signal_group(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
            os.close(pidfd)
        wall = time.perf_counter() - t0 - paused
    proc.returncode = os.waitstatus_to_exitcode(status)
    slices.append(reference_slice())
    return Unit(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, proc.returncode,
                paused, statistics.mean(slices))


def source_digest(root: Path) -> str:
    """Digest of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class State:
    """Values that must repeat across runs of the same sources, kept in a
    JSON file under the checkout."""

    def __init__(self, path: Path):
        self.path = path

    def check(self, key: str, value) -> str | None:
        """Record the value on first sight; afterwards return a message when
        it differs from the recorded one."""
        data = json.loads(self.path.read_text()) if self.path.exists() else {}
        if key in data:
            if data[key] != value:
                return f"{key}: {value!r}, earlier runs gave {data[key]!r}"
            return None
        data[key] = value
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
        return None


class Run:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.start = time.perf_counter()
        self.nproc = len(os.sched_getaffinity(0))
        self.jobs = 1 if args.workload == "verify-serial" else self.nproc
        self.digest = source_digest(root)
        base = root / ".perfbench"
        self.work = base / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.results = base / "results"
        self.results.mkdir(exist_ok=True)
        self.state = State(base / f"state-{self.digest[:16]}.json")
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, int] = {}
        self.setup_units: list[Unit] = []
        self.graphs: list = []  # (n, edges) of the graph-check set
        self.extra: dict[str, tuple[float, str, int]] = {}  # summary-only metrics

    # -- units ------------------------------------------------------------

    def unit(self, cmd: list[str], name: str, every: float = SAMPLE_EVERY_S) -> Unit:
        """Traced runs never pause their units: hooks time calls with the
        clock, and pauses would fall into those times."""
        return run_unit(cmd, self.env, self.work / f"{name}.log", self.start + RUN_LIMIT_S,
                        None if self.args.trace else every)

    def fail(self, what: str, problems: list[str], count: int = 1) -> None:
        self.failed += count
        self.problems.extend(f"{what}: {p}" for p in problems)

    def measure(self, make_unit) -> list:
        """Repeat units while the next one is expected to end within
        --seconds, at least MIN_UNITS times.  Before each unit, time
        SETUP_SAMPLES fresh interpreters importing indbound.cli, so that the
        set-up samples spread over the run like the units do."""
        out, longest = [], 0.0
        t0 = time.perf_counter()
        while True:
            u0 = time.perf_counter()
            for _ in range(SETUP_SAMPLES):
                self.setup_sample()
            out.append(make_unit(len(out)))
            longest = max(longest, time.perf_counter() - u0)
            if len(out) >= MIN_UNITS and time.perf_counter() - t0 + longest > self.args.seconds:
                return out

    def setup_sample(self) -> None:
        u = self.unit([sys.executable, "-c", "import indbound.cli as m; print(m.__file__)"],
                      "setup", SETUP_SAMPLE_EVERY_S)
        self.attempted += 1
        got = (self.work / "setup.log").read_text().strip()
        expected = self.root / "src" / "indbound" / "cli.py"
        if u.rc != 0 or Path(got) != expected:
            self.fail("setup", [f"exit {u.rc}, imported {got!r}, expected {expected}"])
        self.setup_units.append(u)

    def verify_unit(self, i: int, stats: Path | None = None):
        cert_path = self.work / f"cert-{i}.json"
        cli = ["verify-all", "--statement", "1", "--jobs", str(self.jobs),
               "--precision-bits", str(PRECISION_BITS), "--json", str(cert_path)]
        if stats is None:
            cmd = [sys.executable, "-m", "indbound.cli", *cli]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "layertrace.py"), str(stats), "--", *cli]
        u = self.unit(cmd, f"verify-{i}")
        self.attempted += 1
        problems = [] if u.rc == 0 else [f"exit code {u.rc}"]
        cert, items, stage_s = None, 0, {}
        try:
            cert = json.loads(cert_path.read_text())
            problems += fingerprint.misses(cert)
            msg = self.state.check("verify certificate", fingerprint.stripped_digest(cert))
            if msg:
                problems.append(msg + " (certificates differ across runs or --jobs)")
            reports = [cert["statement2"], *(cert["statement1"][s] for s in STAGES)]
            for name, rep in zip(("statement2", *STAGES), reports):
                if rep is not None:
                    items += sum(rep["tally"].values())
                    stage_s[name] = rep["timing"]["wall_time_s"]
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.append(f"unreadable certificate: {type(e).__name__}: {e}")
        if problems:
            self.fail(f"verify unit {i}", problems)
        rate = items / sum(stage_s.values()) if stage_s else 0.0
        return u, cert, rate, stage_s

    def graph_unit(self, i: int, graphs: Path, stats: Path | None = None):
        result_path = self.work / f"graphs-{i}.json"
        cmd = [sys.executable, str(BENCH_DIR / "graphcheck.py"), str(graphs), str(result_path)]
        if stats is not None:
            cmd.append(str(stats))
        u = self.unit(cmd, f"graphs-{i}")
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError) as e:
            self.attempted += GRAPHS_PER_PASS
            self.fail(f"graph pass {i}", [f"exit code {u.rc}, no result: {e}"], GRAPHS_PER_PASS)
            return u, None
        self.attempted += result["graphs"]
        problems = list(result["failures"])
        failed = set(result["failed"])
        key = f"graph-check digest, seed {self.args.seed}, {GRAPHS_PER_PASS} graphs"
        msg = self.state.check(key, result["digest"])
        if msg:
            problems.append(msg)
            failed = range(result["graphs"])
        if i == 0:
            wrong = oracle.mismatches(self.graphs, result["counts"])
            problems += [f"graph {g}: {text}" for g, text in sorted(wrong.items())[:20]]
            failed = set(failed) | set(wrong)
        if problems:
            self.fail(f"graph pass {i}", problems, len(failed))
        return u, result

    def graph_file(self) -> Path:
        """Write the seeded graph set as edge-list texts, the input format of
        `indbound check`."""
        self.graphs = graphgen.graph_set(self.args.seed, GRAPHS_PER_PASS)
        path = self.work / "graphs.json"
        path.write_text(json.dumps([graphgen.edge_list_text(n, e) for n, e in self.graphs]))
        return path

    # -- trace 0: end-to-end metrics ----------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """Times in reference seconds (see reference_slice): each unit's
        measured time times its speed.  In-program times (stage walls,
        per-graph latencies) lose the pauses pro rata.  The measured values
        go to the summary."""
        units, rates = [], []  # Unit; (in-program items per second, Unit)
        if self.args.workload == "graph-check":
            graphs = self.graph_file()
            lat = []
            for u, result in self.measure(lambda i: self.graph_unit(i, graphs)):
                units.append(u)
                if result:
                    rates.append((result["graphs"] / sum(result["latencies_s"]), u))
                    lat += [t * 1e3 * u.active_share for t in result["latencies_s"]]
            for q in (50, 90, 99):
                self.note(f"measured_check_p{q}_ms", "ms",
                          [percentile(lat, q / 100)] if lat else [], len(lat))
            rate_name = "measured_graphs_per_s"
        else:
            stage_times: dict[str, list[float]] = {}
            for u, _, rate, stage_s in self.measure(self.verify_unit):
                units.append(u)
                if rate:
                    rates.append((rate, u))
                for stage, t in stage_s.items():
                    stage_times.setdefault(stage, []).append(t * u.active_share)
            for stage, times in stage_times.items():
                self.note(f"measured_{stage}_s", "s", times)
            rate_name = "measured_aggregates_per_s"
        setup = self.setup_units
        self.note("measured_wall_s", "s", [u.wall_s for u in units])
        self.note("measured_cpu_s", "s", [u.cpu_s for u in units])
        self.note(rate_name, "1/s", [r / u.active_share for r, u in rates])
        self.note("measured_setup_s", "s", [u.wall_s for u in setup])
        self.note("reference_slice_ms", "ms", [u.slice_s * 1e3 for u in units + setup])
        self.note("paused_share", "1", [1 - u.active_share for u in units])
        self.extra["failed_share"] = (self.failed / self.attempted, "1", self.attempted)
        self.samples.update({"wall_ref_s": len(units), "cpu_ref_s": len(units),
                             "peak_rss_mb": len(units), "items_per_ref_s": len(rates),
                             "setup_s": len(setup)})
        return {
            "wall_ref_s": statistics.median(u.wall_s * u.speed for u in units),
            "cpu_ref_s": statistics.median(u.cpu_s * u.speed for u in units),
            "peak_rss_mb": statistics.median(u.rss_mb for u in units),
            "items_per_ref_s": statistics.median(r / u.active_share / u.speed for r, u in rates)
            if rates else 0.0,
            "setup_s": statistics.median(u.wall_s * u.speed for u in setup),
        }

    def note(self, name: str, unit: str, values: list[float], n: int | None = None) -> None:
        """A summary-only metric: the median of values, with its sample count."""
        if values:
            self.extra[name] = (statistics.median(values), unit, len(values) if n is None else n)

    # -- trace 1: per-layer metrics -----------------------------------------

    def per_layer(self) -> dict[str, float]:
        stats_path = self.work / "stats.json"
        if self.args.workload == "graph-check":
            graphs = self.graph_file()
            traced, _ = self.graph_unit(0, graphs, stats_path)
            plain, result = self.graph_unit(1, graphs)
            cert = None
        else:
            traced, cert, *_ = self.verify_unit(0, stats_path)
            plain, *_ = self.verify_unit(1)
            result = None
        try:
            stats = json.loads(stats_path.read_text())
            m = layer_metrics(stats, cert, self.jobs)
        except (OSError, ValueError, KeyError, TypeError) as e:
            self.fail("traced unit", [f"no layer metrics: {type(e).__name__}: {e}"])
            return {}
        m["trace.overhead_s"] = traced.wall_s - plain.wall_s
        lat = [t * 1e3 for t in result["latencies_s"]] if result else []
        m["graph.check_p50_ms"] = percentile(lat, 0.5) if lat else 0.0
        m["graph.check_p90_ms"] = percentile(lat, 0.9) if lat else 0.0
        absent = stats["absent"]
        if absent:
            print(f"absent hooks (their metrics read 0): {', '.join(absent)}")
        if cert is not None:
            self.check_counts(m, cert, absent)
        return m

    def check_counts(self, m: dict, cert: dict, absent: list[str]) -> None:
        problems = []
        tally = sum(cert["statement1"]["stage1"]["tally"].values())
        if REPEAT_COUNTS["stage1.search.aggregates"] not in absent and \
                m["stage1.search.aggregates"] != tally:
            problems.append(f"the enumeration hook saw {m['stage1.search.aggregates']}"
                            f" aggregates, the certificate has {tally}")
        for key, hook in REPEAT_COUNTS.items():
            msg = None if hook in absent else self.state.check(f"count {key}", m[key])
            if msg:
                problems.append(msg)
        if problems:
            self.fail("traced unit", problems)


def layer_metrics(stats: dict, cert: dict | None, jobs: int) -> dict[str, float]:
    """Per-layer metrics from a traced unit's stats and certificate.  Search
    layers are reported per stage as `<stage>.<metric>`; graph layers, the
    Verdict path and the caches over the whole unit."""
    acc = {(s, n): a for s, n, *a in stats["accounts"]}
    calls, secs, self_s, items, rejected = range(5)

    def field(stage: str, name: str, i: int) -> float:
        return acc.get((stage, name), (0, 0.0, 0.0, 0, 0))[i]

    m: dict[str, float] = {}
    for stage in STAGES:
        p = stage + "."
        wall = sum(w for s, w, _ in stats["stages"] if s == stage)
        cpu = sum(c for s, _, c in stats["stages"] if s == stage)
        shards = [t for s, t in stats["shards"] if s == stage]
        m[p + "wall_s"] = wall
        n_fast = field(stage, "cert.fast", calls)
        m[p + "cert.fast_s"] = field(stage, "cert.fast", secs)
        m[p + "cert.fast_calls"] = n_fast
        m[p + "cert.fast_us_per_call"] = m[p + "cert.fast_s"] / n_fast * 1e6 if n_fast else 0.0
        m[p + "abc.accumulate_s"] = field(stage, "abc.accumulate", secs)
        m[p + "abc.accumulate_calls"] = field(stage, "abc.accumulate", calls)
        m[p + "shard.count"] = len(shards)
        m[p + "shard.max_s"] = max(shards, default=0.0)
        m[p + "shard.max_share"] = max(shards) / sum(shards) if shards else 0.0
        busy = max(m[p + "shard.max_s"], sum(shards) / jobs)
        m[p + "pool.overhead_s"] = wall - busy if shards else 0.0
        m[p + "pool.cpu_per_wall"] = cpu / wall if wall else 0.0
        rep = cert["statement1"][stage] if cert else None
        by_method = rep["precision_stats"] if rep else {}
        first = f"interval_{PRECISION_BITS}"
        m[p + "cert.exact"] = by_method.get("exact", 0)
        m[p + "cert.interval"] = by_method.get(first, 0)
        m[p + "cert.escalated"] = sum(v for k, v in by_method.items()
                                      if k.startswith("interval_") and k != first)
        m[p + "cert.undecided"] = rep["tally"]["undecided"] if rep else 0
    m["stage1.search.aggregates"] = field("stage1", "search.enum", items)
    m["stage1.search.enum_self_s"] = field("stage1", "search.enum", self_s)
    m["stage1.search.filter_s"] = field("stage1", "search.filter", secs)
    m["stage1.search.filter_calls"] = field("stage1", "search.filter", calls)
    m["stage1.search.filter_rejected"] = field("stage1", "search.filter", rejected)
    m["stage1.abc.fcounts_s"] = field("stage1", "abc.fcounts", secs)
    m["stage1.abc.fcounts_calls"] = field("stage1", "abc.fcounts", calls)
    m["stage1.expand.labeled_s"] = field("stage1", "expand.labeled", secs)
    m["stage1.expand.labeled_calls"] = field("stage1", "expand.labeled", calls)
    m["stage1.expand.appearances_s"] = field("stage1", "expand.appearances", secs)
    m["stage2.completions"] = field("stage2", "stage2.completions", items)
    m["stage2.distinct"] = sum(cert["statement1"]["stage2"]["tally"].values()) if cert else 0
    for name in ("cert.verdict", "cert.count_cmp", "counting.count", "graphs.tensor_k2",
                 "goodness.is_good", "goodness.find_good_vertex", "goodness.check_kahn_bound"):
        m[name + "_s"] = sum(a[secs] for (_, n), a in acc.items() if n == name)
        m[name + "_calls"] = sum(a[calls] for (_, n), a in acc.items() if n == name)
    m.update(stats["caches"])
    m["trace.traced_wall_s"] = stats["wall_s"]
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # so that the finally clauses stop and reap the units on termination
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd().resolve()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "indbound" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of an indbound checkout with src/indbound and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    run = Run(root, args)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": run.nproc,
        "jobs": run.jobs, "git_revision": git_revision(root),
        "source_sha256": run.digest, "machine": platform.machine(),
    }
    print("environment: " + json.dumps(env, sort_keys=True))
    try:
        measured = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    metrics = {}
    for name, unit in wanted.items():
        if name not in measured:
            print(f"  {name}: not measured, reported as 0")
        metrics[name] = {"value": measured.get(name, 0), "unit": unit}
    print(f"{'metric':40} {'value':>16} {'unit':>6} {'n':>6}")
    for name, m in metrics.items():
        print(f"{name:40} {m['value']:16.6g} {m['unit']:>6} {run.samples.get(name, 1):6d}")
    for name, (value, unit, n) in run.extra.items():
        print(f"{name:40} {value:16.6g} {unit:>6} {n:6d}")
    for name in sorted(set(measured) - set(wanted)):
        print(f"{name:40} {measured[name]:16.6g}   (not in BENCHMARK.json)")
    for p in run.problems[:40]:
        print(f"FAILED {p}")

    correct = run.failed == 0
    line = {"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed,
            "metrics": metrics}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (run.results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({"environment": env, "result": line, "problems": run.problems,
                    "extra": run.extra}, indent=1, sort_keys=True))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
