"""Exhaustive certified searches over rooted local configurations.

Four searches back the main theorem:

  * the regular case (d <= 5): the one shard of the window d..d, whose
    root and levels 1, 2 and padded 3 all have degree d; equality exactly on
    the complete-bipartite aggregate;
  * statement 2 (max-degree root, Delta <= 4): every configuration rooted at
    a maximum-degree vertex certifies A >= B + C, with equality exactly on
    the complete-bipartite shapes;
  * statement 1 stage 1 (min-degree root, Delta = 5): all configurations
    certify except a fixed set of failing patterns, whose level-0..3
    appearances must match the fourteen expected exceptional neighborhoods;
  * statement 1 stage 2: around every exceptional pattern, re-rooting at any
    neighbor of the failed root certifies strictly, over every completion of
    the structure the pattern does not determine.

The searches run on degree-class aggregates: the three products of the
reduced inequality depend on a level-2 vertex only through its total degree
and how many neighbors it has in each level-1 degree class.
_shard_enumeration enumerates them with local.record_multisets, the one
record-multiset enumerator, each with its A/B/C exponent vector and upper
bounds of its ratios X = B/A and Y = C/A, carried as the product of the
root's and each level-2 record's bounds.  The vectors and bounds are the
pieces is_good carries, products.root_piece and level2_piece, cached once
per process.  The enumeration is the one place a search decides from
carried bounds: it counts the aggregates whose bounds sum below
products.carried_limit, strict by intervals at the start precision, a leaf
at a time and most of them in whole subtrees it does not enter, and returns
the others, which vector_outcome decides, with that count.  Stage 2 decides
each distinct completion the same way, from products.carried_piece of its
root and records, and sends the rest to config_outcome.  Every
aggregate is realizable by a simple bipartite graph, so certified
aggregates and concrete configurations cover each other exactly.  A shard
returns its rare equal, failing and undecided aggregates themselves, which
the parent expands into canonical labeled configurations for the report and
for stage 2; its Equal aggregates must be exactly its extremal one
(extremal_aggregate), if it has one.  The labeled per-vertex model, which
the aggregation is checked against, is built only in the tests
(tests/test_search.py).

A search shard is (delta_eff, lo, d0, degrees, precision_start,
precision_cap): root degree d0, level-1 degree multiset degrees, level-1 and
level-2 degrees in the window lo..delta_eff, level 3 padded to delta_eff.
Each search states its window once: 1..d0 padded to d0 for statement 2's
maximum-degree root, stage1_window(d0) = max(1, d0)..5 for stage 1's
minimum-degree root and for the free degrees of stage 2, d..d for the
d-regular case.  Shards are independent: at jobs > 1 the caller runs one
lane of them and jobs - 1 children forked with os.fork the rest, each
writing its lane's result to a pipe, and reports merge deterministically.
Forked children inherit the cached pieces; an interrupt or a failure in
any lane kills and reaps every child before the search returns or raises,
and a child whose caller was killed outright leaves before its next shard.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Iterator, NamedTuple, Sequence

from .intervals import GUARD_BITS
from .local import (
    Appearance,
    LocalConfig,
    Record,
    canonical_tuple,
    config_describe,
    expand_appearances,
    leveled_canonical,
    record_multisets,
)
from .products import (
    MAX_DEGREE,
    PRECISION_CAP,
    PRECISION_START,
    Outcome,
    carried_limit,
    carried_piece,
    level2_piece,
    level2_vector,
    precision_schedule,
    root_piece,
    root_vector,
    vector_outcome,
)
from .reference import expected_appearance_keys


STATEMENT2_MAX_DEGREE = 4  # statement 2's max-degree-root search is for Delta <= 4


def stage1_window(d0: int) -> tuple[int, int, int]:
    """(delta_eff, lo, d0) of stage 1 at root degree d0: a minimum-degree
    root at Delta = 5, so level-1 and level-2 degrees lie in max(1, d0)..5."""
    return MAX_DEGREE, max(1, d0), d0


def degree_tuples(lo: int, d0: int, delta_eff: int) -> list[tuple[int, ...]]:
    """Non-increasing level-1 degree tuples of length d0 with every degree
    in the window lo..delta_eff; the empty tuple when d0 = 0."""
    return list(itertools.combinations_with_replacement(range(delta_eff, lo - 1, -1), d0))


# --------------------------------------------------------------------------
# degree-class aggregation


class AggConfig(NamedTuple):
    """A configuration up to exchanging equal-degree level-1 vertices.

    class_degrees are the distinct level-1 degrees (descending) with their
    multiplicities in class_sizes; each level-2 record is (b, cvec) where
    cvec[i] counts neighbors in class i, carried with its multiplicity."""

    delta_eff: int
    d0: int
    class_degrees: tuple[int, ...]
    class_sizes: tuple[int, ...]
    records: tuple[tuple[tuple[int, tuple[int, ...]], int], ...]

    @classmethod
    def of(cls, delta_eff: int, d0: int, degrees: Sequence[int], records) -> "AggConfig":
        """The aggregate of a degree multiset and its records in any order."""
        classes = tuple(sorted(set(degrees), reverse=True))
        return cls(delta_eff, d0, classes, tuple(map(degrees.count, classes)), tuple(sorted(records)))

    def degree_multiset(self) -> tuple[int, ...]:
        return tuple(d for d, s in zip(self.class_degrees, self.class_sizes) for _ in range(s))


def extremal_aggregate(delta_eff: int, d0: int, degrees: Sequence[int]) -> AggConfig | None:
    """The one aggregate of a shard whose component is a single vertex or
    complete bipartite, if the shard has one: the isolated root, or a single
    class of degree D with D - 1 level-2 vertices joined to all d0 level-1
    vertices and to nothing else."""
    if len(set(degrees)) > 1:
        return None
    d = degrees[0] if degrees else 1  # the isolated root has no records
    return AggConfig.of(delta_eff, d0, degrees, [((d0, (d0,)), d - 1)] if d > 1 else [])


def _record_degrees(delta_eff: int, class_degrees, b: int,
                    cvec: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(b, down, up) of one level-2 vertex of degree b with cvec[i]
    neighbors in class i and its other b - |cvec| neighbors at level 3,
    padded to degree delta_eff: the arguments of level2_vector."""
    down = tuple(d for d, c in zip(class_degrees, cvec) for _ in range(c))
    return b, down, (delta_eff,) * (b - len(down))


def agg_vector(agg: AggConfig) -> int:
    """The A/B/C exponent vector of an aggregate."""
    vec = root_vector(agg.d0, agg.degree_multiset())
    for (b, cvec), cnt in agg.records:
        vec += cnt * level2_vector(*_record_degrees(agg.delta_eff, agg.class_degrees, b, cvec))
    return vec


def _shard_enumeration(
    delta_eff: int, lo: int, d0: int, degrees: tuple[int, ...],
    precision: int = PRECISION_START,
    limit: int | None = None,
) -> tuple[list[tuple[tuple, int, int, int]], int]:
    """record_multisets over the aggregate configurations of one shard:
    level-1 degree multiset degrees, level-2 degrees in the window
    lo..delta_eff, level 3 padded to delta_eff.  It runs over the per-class
    quotas s * (d - 1), each class vector entry capped by its class size,
    with the A/B/C vector vec summed onto the shard's root vector and the
    upper bounds hx, hy of its X and Y: the root vector's ratio_bounds at
    precision times each record's, from root_piece and level2_piece, the
    pieces is_good carries.  It returns (leaves, decided): the leaves
    (records, vec, hx, hy), made aggregates by AggConfig.of, and the count
    of the aggregates it decides strict below limit (by default
    carried_limit(precision); 0 returns every leaf), each strict at
    precision by intervals, as vector_outcome would decide it.
    Deterministic order, no duplicates (distinct degrees fix the class
    order, so aggregates have no leftover symmetry).

    Every aggregate is realizable by a simple bipartite graph, so none is
    skipped.  Classes are independent: a level-2 vertex's neighbors in
    different classes are different vertices.  Within a class of s vertices,
    each needing q = d - 1 upward edges, the level-2 demands b_j = cvec[i]
    satisfy b_j <= s and sum b_j = s * q.  For k <= s, min(b_j, k) >=
    b_j * k / s, so sum_j min(b_j, k) >= k * q: the Gale-Ryser condition."""
    class_degrees = tuple(sorted(set(degrees), reverse=True))
    class_sizes = tuple(degrees.count(d) for d in class_degrees)
    quotas = tuple(s * (d - 1) for d, s in zip(class_degrees, class_sizes))

    def piece(b: int, cvec: tuple[int, ...]) -> tuple[int, int, int]:
        return level2_piece(*_record_degrees(delta_eff, class_degrees, b, cvec), precision)

    return record_multisets(quotas, class_sizes, lo, delta_eff, piece,
                            root_piece(d0, degrees, precision), precision + GUARD_BITS,
                            carried_limit(precision) if limit is None else limit)


def aggregate_of_config(cfg: LocalConfig) -> AggConfig:
    """The degree-class aggregate a labeled configuration belongs to."""
    class_of = {d: i for i, d in enumerate(sorted(set(cfg.l1_degrees), reverse=True))}
    counted: dict[tuple[int, tuple[int, ...]], int] = {}
    for b, nbrs in cfg.l2:
        cvec = [0] * len(class_of)
        for u in nbrs:
            cvec[class_of[cfg.l1_degrees[u]]] += 1
        key = (b, tuple(cvec))
        counted[key] = counted.get(key, 0) + 1
    return AggConfig.of(cfg.delta_eff, cfg.d0, cfg.l1_degrees, counted.items())


def config_outcome(
    cfg: LocalConfig,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> tuple[Outcome, str, int | None, tuple]:
    """vector_outcome of the reduced inequality for a labeled
    configuration, through the vector of its aggregate."""
    return vector_outcome(agg_vector(aggregate_of_config(cfg)), precision_start, precision_cap)


def labeled_configs_for_aggregate(agg: AggConfig) -> list[LocalConfig]:
    """All canonical labeled configurations realizing an aggregate.  Only
    used on the rare interesting aggregates, which are small."""
    if agg.d0 == 0:
        return [LocalConfig(agg.delta_eff, 0, (), ())]
    degrees = agg.degree_multiset()
    class_members = []
    start = 0
    for s in agg.class_sizes:
        class_members.append(tuple(range(start, start + s)))
        start += s
    flat: list[tuple[int, tuple[int, ...]]] = []
    for (b, cvec), cnt in agg.records:
        flat.extend([(b, cvec)] * cnt)
    quotas = [d - 1 for d in degrees]
    found: set[tuple] = set()

    def rec(idx: int, acc: list[Record]):
        if idx == len(flat):
            found.add(canonical_tuple(LocalConfig(agg.delta_eff, agg.d0, degrees, tuple(acc))))
            return
        b, cvec = flat[idx]
        per_class_choices = []
        for j, c in enumerate(cvec):
            if not c:
                continue
            # members no record has touched yet are interchangeable, so
            # only the first c of them are offered
            touched, fresh = [], []
            for u in class_members[j]:
                if quotas[u] > 0:
                    (fresh if quotas[u] == degrees[u] - 1 else touched).append(u)
            avail = touched + fresh[:c]
            if len(avail) < c:
                return
            per_class_choices.append(list(itertools.combinations(avail, c)))
        for combo in itertools.product(*per_class_choices):
            nbrs = tuple(sorted(u for group in combo for u in group))
            for u in nbrs:
                quotas[u] -= 1
            acc.append((b, nbrs))
            rec(idx + 1, acc)
            acc.pop()
            for u in nbrs:
                quotas[u] += 1

    rec(0, [])
    return [LocalConfig(*key) for key in sorted(found)]


# --------------------------------------------------------------------------
# shard execution


_TALLY_NAME = {
    Outcome.STRICTLY_GREATER: "strict",
    Outcome.EQUAL: "equal",
    Outcome.STRICTLY_LESS: "failing",
    Outcome.UNDECIDED: "undecided",
}


class ShardResult:
    __slots__ = ("raw", "tally", "configs", "inconsistencies", "precision_stats")

    def __init__(self):
        self.raw = 0
        self.tally: dict[str, int] = dict.fromkeys(_TALLY_NAME.values(), 0)
        # what is behind every outcome but strict: the aggregates of a search
        # shard, the labeled completions of a stage-2 shard
        self.configs: dict[str, list] = {"equal": [], "failing": [], "undecided": []}
        self.inconsistencies: list[AggConfig] = []
        self.precision_stats: dict[tuple[str, int | None], int] = {}

    def __eq__(self, other):
        return isinstance(other, ShardResult) and all(
            getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def add(self, outcome: Outcome, method: str, precision: int | None, item, n: int = 1) -> None:
        """Tally n certified outcomes by (method, precision), keeping item
        when the outcome is not strict."""
        key = method, precision
        self.precision_stats[key] = self.precision_stats.get(key, 0) + n
        name = _TALLY_NAME[outcome]
        self.tally[name] += n
        if name in self.configs:
            self.configs[name].append(item)

    def absorb(self, other: "ShardResult") -> None:
        self.raw += other.raw
        for k, v in other.tally.items():
            self.tally[k] += v
        for k, v in other.configs.items():
            self.configs[k].extend(v)
        self.inconsistencies.extend(other.inconsistencies)
        for k, v in other.precision_stats.items():
            self.precision_stats[k] = self.precision_stats.get(k, 0) + v


def _agg_search_shard(args) -> ShardResult:
    """Certify every aggregate of one search shard."""
    delta_eff, lo, d0, degrees, precision_start, precision_cap = args
    result = ShardResult()
    equal = set()
    # carried counts the strict aggregates decided by carried bounds
    leaves, carried = _shard_enumeration(delta_eff, lo, d0, degrees, precision_start)
    for records, vec, _, _ in leaves:
        outcome, method, precision, _ = vector_outcome(vec, precision_start, precision_cap)
        agg = AggConfig.of(delta_eff, d0, degrees, records)
        result.add(outcome, method, precision, agg)
        if outcome is Outcome.EQUAL:
            equal.add(agg)
    # vector_outcome would give each of them the same route: it tries the
    # interval at the start precision before any exact route
    if carried:
        result.add(Outcome.STRICTLY_GREATER, "interval", precision_start, None, carried)
    # equality must hold on the extremal aggregate and nowhere else
    result.inconsistencies.extend(equal ^ ({extremal_aggregate(delta_eff, d0, degrees)} - {None}))
    result.raw = sum(result.tally.values())
    return result


def _run_lane(worker, lane: list) -> list[ShardResult]:
    return [worker(args) for args in lane]


class WorkerDied(RuntimeError):
    """A forked lane worker ended without writing its whole result."""


def _fork_lane(worker, lane: list, workers: list) -> None:
    """Fork a child that runs the lane and writes its pickled result, or
    the exception the lane raised, to a pipe; append (pid, read end of the
    pipe) to workers.  The child is forked with SIGINT blocked and ignores
    it before it unblocks it, so an interrupt reaches the caller alone; the
    caller records the child before it unblocks SIGINT itself, so no
    KeyboardInterrupt leaves a child unrecorded.  A caller killed outright
    (SIGKILL) cannot kill its children, so before each shard the child
    checks that its parent is still the caller, and leaves through
    os._exit once it is not."""
    import pickle
    import signal

    caller = os.getpid()

    def shard_of_live_caller(args):
        if os.getppid() != caller:  # orphaned: nobody reads the result
            os._exit(1)
        return worker(args)

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            # the child: every way out is os._exit, so it never runs the
            # caller's code after the fork, and a failure exits nonzero
            status = 1
            try:
                os.close(read)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                try:
                    payload = pickle.dumps((True, _run_lane(shard_of_live_caller, lane)))
                except Exception as exc:
                    payload = pickle.dumps((False, exc))
                with open(write, "wb") as pipe:
                    pipe.write(payload)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        workers.append((pid, open(read, "rb")))
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _lane_result(pid: int, status: int, data: bytes) -> list[ShardResult]:
    """The result a reaped lane worker wrote, or the lane's exception
    raised again.  A worker that died, or exited before it wrote its whole
    result, raises WorkerDied."""
    import pickle

    if status:  # a worker exits 0 only once its whole result is written
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        raise WorkerDied(f"lane worker {pid} {how} (wait status {status}) "
                         f"before it wrote its result ({len(data)} bytes read)")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _kill_workers(workers: list) -> None:
    """SIGKILL and reap every worker of the list not yet reaped."""
    import signal

    for pid, pipe in workers:
        pipe.close()
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:  # reaped already
            pass


def _run_shards(shards: list, worker, jobs: int) -> ShardResult:
    """Run the shards in min(jobs, len(shards)) lanes, dealt round-robin:
    one forked child per lane after the first runs its lane while the
    calling process runs lane 0, then the caller reads each child's result
    to EOF and reaps it, in lane order.  Results merge in shard order, so
    the report does not depend on jobs.  A lane's exception is raised again
    in the caller; a worker that dies raises WorkerDied.  Whatever leaves
    this function, an interrupt included (workers ignore SIGINT), first
    kills and reaps every worker not yet reaped.  Without os.fork every
    lane runs in the caller."""
    lanes = min(jobs, len(shards)) if hasattr(os, "fork") else 1
    if lanes < 2:
        done = [_run_lane(worker, shards)]
    else:
        workers = []  # (pid, pipe) of each lane worker not yet reaped
        try:
            for i in range(1, lanes):
                _fork_lane(worker, shards[i::lanes], workers)
            done = [_run_lane(worker, shards[::lanes])]
            while workers:
                pid, pipe = workers[0]
                with pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                workers.pop(0)
                done.append(_lane_result(pid, status, data))
        finally:
            _kill_workers(workers)
    merged = ShardResult()
    for i in range(len(shards)):
        merged.absorb(done[i % lanes][i // lanes])
    return merged


def default_jobs() -> int:
    """The CPUs this process may run on: os.process_cpu_count() where it
    exists (Python 3.13+), else the size of its affinity mask, else
    os.cpu_count(); 1 when none is known."""
    if hasattr(os, "process_cpu_count"):
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """The process count of a search, the caller included: default_jobs()
    for None, and an error below 1."""
    if jobs is None:
        return default_jobs()
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    return jobs


# --------------------------------------------------------------------------
# reports


class SearchReport(NamedTuple):
    statement: str
    delta: int
    root_rule: str
    configs_enumerated: int
    configs_after_dedup: int
    tally: dict
    equality_patterns: tuple[LocalConfig, ...]
    exceptional_patterns: tuple[LocalConfig, ...]
    undecided_patterns: tuple[LocalConfig, ...]
    equality_inconsistencies: tuple[LocalConfig, ...]
    precision_stats: dict
    wall_time_s: float
    passed: bool
    extra: dict
    # stage 1: the level-0..3 appearances of the exceptional patterns, in
    # pattern order; the certificate lists them under statement1.exceptions
    # (reports.CertificateDocument), so they stay out of to_json
    appearances: tuple[Appearance, ...] = ()

    def to_json(self) -> dict:
        out = {
            "statement": self.statement,
            "delta": self.delta,
            "root_rule": self.root_rule,
            "configs_enumerated": self.configs_enumerated,
            "configs_after_dedup": self.configs_after_dedup,
            "tally": dict(self.tally),
            "equality_patterns": [_config_json(c) for c in self.equality_patterns],
            "exceptional_patterns": [_config_json(c) for c in self.exceptional_patterns],
            "undecided_patterns": [_config_json(c) for c in self.undecided_patterns],
            "equality_inconsistencies": [_config_json(c) for c in self.equality_inconsistencies],
            "precision_stats": dict(sorted(
                (m if p is None else f"{m}_{p}", n) for (m, p), n in self.precision_stats.items())),
            "verdict": "PASS" if self.passed else "FAIL",
            "timing": {"wall_time_s": self.wall_time_s},
        }
        out.update(self.extra)
        return out


def pattern_json(cfg: LocalConfig) -> dict:
    """Root degree, level-1 degrees and level-2 records of a configuration."""
    return {
        "d0": cfg.d0,
        "l1_degrees": list(cfg.l1_degrees),
        "l2": [{"b": b, "level1_neighbors": list(nbrs)} for b, nbrs in cfg.l2],
    }


def _config_json(cfg: LocalConfig) -> dict:
    return {"delta_eff": cfg.delta_eff, **pattern_json(cfg), "description": config_describe(cfg)}


def _sorted_unique(items: list) -> tuple[LocalConfig, ...]:
    """The canonical labeled configurations behind shard items, sorted and
    without repeats.  An aggregate expands here, in the parent, into its
    labeled configurations; a stage-2 completion is one already."""
    seen = {}
    for item in items:
        for c in labeled_configs_for_aggregate(item) if isinstance(item, AggConfig) else (item,):
            seen.setdefault(canonical_tuple(c), c)
    return tuple(seen[k] for k in sorted(seen))


def _report(statement: str, delta: int, root_rule: str, merged: ShardResult, t0: float,
            passed: bool, exceptional: tuple[LocalConfig, ...], extra: dict,
            appearances: tuple[Appearance, ...] = ()) -> SearchReport:
    return SearchReport(
        statement=statement,
        delta=delta,
        root_rule=root_rule,
        configs_enumerated=merged.raw,
        configs_after_dedup=sum(merged.tally.values()),
        tally=merged.tally,
        equality_patterns=_sorted_unique(merged.configs["equal"]),
        exceptional_patterns=exceptional,
        undecided_patterns=_sorted_unique(merged.configs["undecided"]),
        equality_inconsistencies=_sorted_unique(merged.inconsistencies),
        precision_stats=merged.precision_stats,
        wall_time_s=time.monotonic() - t0,
        passed=passed,
        extra=extra,
        appearances=appearances,
    )


def _shards(windows, precision_start: int, precision_cap: int) -> list[tuple]:
    """The search shards of (delta_eff, lo, d0) windows: one per level-1
    degree tuple of each window, in order.  An invalid precision schedule
    fails here, before any shard runs: a shard whose carried bounds decide
    every aggregate never reaches certify_exponents, which would reject it."""
    precision_schedule(precision_start, precision_cap)
    return [(delta_eff, lo, d0, degrees, precision_start, precision_cap)
            for delta_eff, lo, d0 in windows for degrees in degree_tuples(lo, d0, delta_eff)]


def verify_statement2(
    delta: int,
    jobs: int | None = None,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> SearchReport:
    """Max-degree-root search: for every root degree d0 <= delta, certify
    every configuration of the window 1..d0, padded to d0 (the root has
    maximum degree).  PASS means no failures, no undecided, and equality
    exactly on the complete-bipartite configurations."""
    if not 1 <= delta <= STATEMENT2_MAX_DEGREE:
        raise ValueError(f"statement 2 is verified for delta in 1..{STATEMENT2_MAX_DEGREE}")
    jobs = resolve_jobs(jobs)
    t0 = time.monotonic()
    shards = _shards([(d0, 1, d0) for d0 in range(delta + 1)], precision_start, precision_cap)
    merged = _run_shards(shards, _agg_search_shard, jobs)
    passed = not (merged.tally["failing"] or merged.tally["undecided"] or merged.inconsistencies)
    return _report("statement2", delta, "max_degree_root", merged, t0, passed,
                   _sorted_unique(merged.configs["failing"]),
                   {"jobs": jobs, "aggregation": "level-1 degree classes"})


def verify_statement1_stage1(
    jobs: int | None = None,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> SearchReport:
    """Min-degree-root search at Delta = 5 over root degrees 0..4 (a
    non-regular graph has a vertex of degree at most 4; a 5-regular graph
    is the root-degree-5 shard verify_regular(5) certifies).  Failing
    configurations are collected as exceptional patterns; PASS requires no
    undecided configurations, equality exactly on the complete-bipartite
    shapes, and the level-0..3 appearances of the failing patterns to match
    the fourteen expected exceptional neighborhoods."""
    jobs = resolve_jobs(jobs)
    t0 = time.monotonic()
    shards = _shards(map(stage1_window, range(MAX_DEGREE)), precision_start, precision_cap)
    merged = _run_shards(shards, _agg_search_shard, jobs)
    exceptional = _sorted_unique(merged.configs["failing"])
    appearances = tuple(ap for cfg in exceptional for ap in expand_appearances(cfg))
    appearance_keys = {leveled_canonical(*ap.leveled_graph()) for ap in appearances}
    expected = expected_appearance_keys()
    matches_expected = appearance_keys == expected and len(appearances) == len(expected)
    passed = matches_expected and not (merged.tally["undecided"] or merged.inconsistencies)
    return _report("statement1_stage1", MAX_DEGREE, "min_degree_root", merged, t0, passed,
                   exceptional, {
                       "jobs": jobs,
                       "aggregation": "level-1 degree classes",
                       "appearances": len(appearances),
                       "appearances_match_expected": matches_expected,
                   }, appearances)


# --------------------------------------------------------------------------
# the regular case


Profile = NamedTuple("Profile", [("k", int), ("xs", tuple)])


def regular_profile(agg: AggConfig) -> Profile:
    """(k, xs) of a d-regular shard aggregate: each record (d, (c,)) is a
    level-2 vertex with c level-1 and x = d - c level-3 neighbors; xs is
    non-increasing."""
    xs = [agg.delta_eff - cvec[0] for (_, cvec), cnt in agg.records for _ in range(cnt)]
    return Profile(len(xs), tuple(sorted(xs, reverse=True)))


class RegularReport(NamedTuple):
    d: int
    profiles: int
    strict: int
    equalities: tuple[Profile, ...]
    violations: tuple[Profile, ...]
    undecided: tuple[Profile, ...]
    passed: bool

    def to_json(self) -> dict:
        out = {"d": self.d, "profiles": self.profiles, "strict": self.strict,
               "verdict": "PASS" if self.passed else "FAIL"}
        for key in ("equalities", "violations", "undecided"):
            out[key] = [{"k": p.k, "xs": list(p.xs)} for p in getattr(self, key)]
        return out


def verify_regular(
    d: int,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> RegularReport:
    """The d-regular case: the one shard of the window d..d at root degree
    d, level-1 degrees (d,) * d and level-2 degrees d.  PASS means no
    failing or undecided aggregate, and equality exactly on the extremal
    aggregate (K_{d,d}: k = d - 1, every x_i = 0)."""
    shard, = map(_agg_search_shard, _shards([(d, d, d)], precision_start, precision_cap))
    failing, undecided = shard.configs["failing"], shard.configs["undecided"]
    return RegularReport(
        d=d,
        profiles=shard.raw,
        strict=shard.tally["strict"],
        equalities=tuple(map(regular_profile, shard.configs["equal"])),
        violations=tuple(map(regular_profile, failing)),
        undecided=tuple(map(regular_profile, undecided)),
        passed=not failing and not undecided and not shard.inconsistencies,
    )


# --------------------------------------------------------------------------
# stage 2: clearing the exceptional patterns


def stage2_completions(pattern: LocalConfig, x1_index: int) -> Iterator[LocalConfig]:
    """Configurations rooted at the x1-th level-1 vertex of a failing
    pattern, covering every graph containing the pattern at a minimum-degree
    root.

    Around the new root everything the pattern determines is fixed: its
    neighbors are the old root (degree d0) and its pattern level-2 neighbors
    (their exact degrees); at distance two sit the other pattern level-1
    vertices (adjacencies forced by the pattern) and the endpoints of the
    pattern's level-3 edges, whose identification, degrees, and further
    structure range freely over the pattern root's stage-1 window
    (stage1_window: the old root has minimum degree d0, so every degree lies
    in max(1, d0)..5).  Duplicates are possible; callers deduplicate
    canonically."""
    if not 0 <= x1_index < pattern.d0:
        raise ValueError("x1_index must pick a level-1 vertex of the pattern")
    d_p = pattern.d0
    s_indices = [j for j, (b, nbrs) in enumerate(pattern.l2) if x1_index in nbrs]
    d_q = pattern.l1_degrees[x1_index]
    if d_q != 1 + len(s_indices):
        raise ValueError("pattern level-1 degree inconsistent with its records")
    l1_q = (d_p, *(pattern.l2[j][0] for j in s_indices))
    forced: list[Record] = []
    for u in range(d_p):
        if u == x1_index:
            continue
        nbrs_q = (0, *(1 + qpos for qpos, j in enumerate(s_indices) if u in pattern.l2[j][1]))
        forced.append((pattern.l1_degrees[u], nbrs_q))
    quotas = [pattern.l2[j][0] - len(pattern.l2[j][1]) for j in s_indices]
    delta_eff, lo, _ = stage1_window(d_p)
    for wrecords, *_ in record_multisets(quotas, [1] * len(quotas), lo, delta_eff)[0]:
        mapped = [(b, tuple(1 + pos for pos, x in enumerate(cvec) if x))
                  for (b, cvec), cnt in wrecords for _ in range(cnt)]
        records = tuple(sorted(forced + mapped))
        yield LocalConfig(delta_eff, d_q, l1_q, records)


def _completion_piece(cfg: LocalConfig, prec: int) -> tuple[int, int, int]:
    """carried_piece of a labeled configuration at prec: the vector of its
    aggregate (agg_vector, level 3 padded to delta_eff) with the carried
    upper bounds of its X and Y, as is_good carries a vertex's."""
    degrees = cfg.l1_degrees
    level2 = ((b, tuple(sorted((degrees[u] for u in nbrs), reverse=True)),
               (cfg.delta_eff,) * (b - len(nbrs))) for b, nbrs in cfg.l2)
    return carried_piece(cfg.d0, tuple(sorted(degrees, reverse=True)), level2, prec)


def _stage2_shard(args) -> ShardResult:
    """Certify the distinct completions of one rooting: strict by intervals
    at the start precision when their carried bounds sum below
    carried_limit, as is_good and the searches decide, else config_outcome."""
    pattern, x1_index, precision_start, precision_cap = args
    result = ShardResult()
    seen = set()
    limit = carried_limit(precision_start)
    for cfg in stage2_completions(pattern, x1_index):
        result.raw += 1
        key = canonical_tuple(cfg)
        if key in seen:
            continue
        seen.add(key)
        _, hx, hy = _completion_piece(cfg, precision_start)
        if hx + hy < limit:
            result.add(Outcome.STRICTLY_GREATER, "interval", precision_start, cfg)
        else:
            outcome, method, precision, _ = config_outcome(cfg, precision_start, precision_cap)
            result.add(outcome, method, precision, cfg)
    return result


def verify_statement1_stage2(
    exceptions: Sequence[LocalConfig],
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> SearchReport:
    """For every exceptional pattern and every neighbor of its root, certify
    that the neighbor is strictly good in every consistent completion.
    Equality anywhere is a failure here.  The rootings run in the calling
    process, whatever the default job count: the whole stage takes about
    5 ms, too little for a forked lane to shorten."""
    precision_schedule(precision_start, precision_cap)  # rejects a bad schedule before any rooting
    t0 = time.monotonic()
    shards = [(pattern, x1, precision_start, precision_cap)
              for pattern in exceptions for x1 in range(pattern.d0)]
    merged = _run_shards(shards, _stage2_shard, 1)
    tally = merged.tally
    passed = tally["strict"] > 0 and not (tally["failing"] or tally["equal"] or tally["undecided"])
    # equality counts as failure for stage 2, so surface Equal configs too
    problems = _sorted_unique(merged.configs["failing"] + merged.configs["equal"])
    return _report("statement1_stage2", MAX_DEGREE, "pattern_neighbor_root", merged, t0, passed,
                   problems, {"jobs": 1, "patterns": len(exceptions), "rootings": len(shards)})
