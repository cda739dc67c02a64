"""Outside-in layer tracing: wrap module-level functions of `indbound` at each
layer boundary and account calls, inclusive time and self time per stage.

Every wrapped name is listed in HOOKS.  A target that no longer exists is
recorded as absent and its metrics read 0; the run goes on.  A wrapper
replaces the function in every loaded `indbound` module that holds it, so
names bound by `from .x import f` are traced too, and it keeps the original's
name and module so that process pools still pickle it by reference.

Stage functions set the stage that later calls are charged to.  Shard
workers are timed one call at a time.  Pool workers forked during a traced
run start their own accounts and rewrite a small JSON file after every
shard; the parent adds those files in when it writes its stats.

Run the CLI under tracing with:

    python3 perfbench/layertrace.py STATS.json -- verify-all --jobs 1 ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path

# (metric name, module, attribute, kind)
HOOKS = (
    ("statement2", "indbound.search", "verify_statement2", "stage"),
    ("stage1", "indbound.search", "verify_statement1_stage1", "stage"),
    ("stage2", "indbound.search", "verify_statement1_stage2", "stage"),
    ("search.enum", "indbound.search", "_agg_enum_for_degrees", "call"),
    ("search.filter", "indbound.search", "agg_realizable", "filter"),
    ("abc.fcounts", "indbound.search", "agg_fcounts", "call"),
    ("abc.accumulate", "indbound.products", "_accumulate", "call"),
    ("cert.fast", "indbound.products", "certify_sum_outcome", "call"),
    ("cert.verdict", "indbound.products", "certify_sum_inequality", "call"),
    ("cert.count_cmp", "indbound.products", "compare_count_to_product", "call"),
    ("expand.labeled", "indbound.search", "labeled_configs_for_aggregate", "call"),
    ("expand.appearances", "indbound.local", "expand_appearances", "call"),
    ("stage2.completions", "indbound.search", "stage2_completions", "call"),
    ("shard", "indbound.search", "_agg_search_shard", "shard"),
    ("shard", "indbound.search", "_stage2_shard", "shard"),
    ("counting.count", "indbound.counting", "count_independent_sets", "call"),
    ("graphs.tensor_k2", "indbound.graphs", "tensor_k2", "call"),
    ("goodness.is_good", "indbound.goodness", "is_good", "call"),
    ("goodness.find_good_vertex", "indbound.goodness", "find_good_vertex", "call"),
    ("goodness.check_kahn_bound", "indbound.goodness", "check_kahn_bound", "call"),
)

# (metric name, module, attribute): sizes of process-wide caches
CACHES = (
    ("intervals.root_cache_entries", "indbound.intervals", "_root_cache"),
    ("intervals.pow_cache_entries", "indbound.intervals", "_pow_cache"),
)

OUTSIDE = "other"  # stage charged for calls made outside every stage function

# fields of one account: calls, inclusive seconds, self seconds, items
# yielded (generators), falsy results (filters)
CALLS, SECONDS, SELF_S, ITEMS, REJECTED = range(5)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Tracer:
    def __init__(self, child_dir: Path):
        self.child_dir = child_dir
        self.pid = os.getpid()
        self.is_child = False
        self.stage = OUTSIDE
        self.stack: list[float] = []  # child time covered inside each open span
        self.accounts: dict[tuple[str, str], list] = {}
        self.shards: list[list] = []  # [stage, seconds]
        self.stages: list[list] = []  # [stage, wall seconds, cpu seconds]
        self.absent: list[str] = []

    def account(self, name: str) -> list:
        key = (self.stage, name)
        acc = self.accounts.get(key)
        if acc is None:
            acc = self.accounts[key] = [0, 0.0, 0.0, 0, 0]
        return acc

    def _close(self, name: str, dt: float) -> list:
        child = self.stack.pop()
        if self.stack:
            self.stack[-1] += dt
        acc = self.account(name)
        acc[SECONDS] += dt
        acc[SELF_S] += dt - child
        return acc

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        if kind == "stage":
            return self._wrap_stage(name, fn)
        if kind == "shard":
            return self._wrap_shard(fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        return self._wrap_call(name, fn, kind == "filter")

    def _wrap_call(self, name: str, fn, is_filter: bool):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                acc = self._close(name, clock() - t0)
                acc[CALLS] += 1
            if is_filter and not result:
                acc[REJECTED] += 1
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Times each resumption of the generator, so the consumer's work
        between items is not charged to it; counts the items."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.account(name)[CALLS] += 1
            it = fn(*args, **kwargs)
            while True:
                self.stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    acc = self._close(name, clock() - t0)
                acc[ITEMS] += 1
                yield item

        return wrapper

    def _wrap_stage(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self.stage
            self.stage = name
            self.stack.append(0.0)
            t0, c0 = time.perf_counter(), _cpu_seconds()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stages.append([name, dt, _cpu_seconds() - c0])
                self._close("stage", dt)[CALLS] += 1
                self.stage = outer

        return wrapper

    def _wrap_shard(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                self._become_child()
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._close("shard", dt)[CALLS] += 1
                self.shards.append([self.stage, dt])
                if self.is_child:
                    self._write(self.child_dir / f"{self.pid}.json")

        return wrapper

    def _become_child(self) -> None:
        """A forked pool worker inherits the parent's accounts; it drops them
        and keeps only its own, which the parent reads back from its file."""
        self.pid = os.getpid()
        self.is_child = True
        self.accounts = {}
        self.shards = []
        self.stages = []

    # -- installation and output ------------------------------------------

    def install(self) -> None:
        for modname in {h[1] for h in HOOKS}:
            try:
                importlib.import_module(modname)
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items())
                   if n == "indbound" or n.startswith("indbound.")]
        for name, modname, attr, kind in HOOKS:
            orig = getattr(sys.modules.get(modname), attr, None)
            if not callable(orig):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, orig, kind)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

    def _caches(self) -> dict[str, int]:
        out = {}
        for name, modname, attr in CACHES:
            cache = getattr(sys.modules.get(modname), attr, None)
            if cache is None:
                self.absent.append(f"{modname}.{attr}")
            else:
                out[name] = len(cache)
        return out

    def snapshot(self) -> dict:
        return {
            "accounts": [[s, n, *acc] for (s, n), acc in self.accounts.items()],
            "shards": self.shards,
            "stages": self.stages,
            "caches": self._caches(),
            "absent": sorted(set(self.absent)),
        }

    def _write(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    def dump(self, path: Path, wall_s: float) -> None:
        """Write this process's stats merged with every pool worker's."""
        merged = self.snapshot()
        merged["wall_s"] = wall_s
        accounts = {(s, n): acc for s, n, *acc in merged["accounts"]}
        for child in sorted(self.child_dir.glob("*.json")):
            data = json.loads(child.read_text())
            for s, n, *acc in data["accounts"]:
                mine = accounts.setdefault((s, n), [0, 0.0, 0.0, 0, 0])
                for i, v in enumerate(acc):
                    mine[i] += v
            merged["shards"].extend(data["shards"])
            for name, size in data["caches"].items():
                merged["caches"][name] = max(size, merged["caches"].get(name, 0))
        merged["accounts"] = [[s, n, *acc] for (s, n), acc in accounts.items()]
        path.write_text(json.dumps(merged))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: layertrace.py STATS.json -- <indbound cli arguments>", file=sys.stderr)
        return 2
    stats_path = Path(argv[0])
    tracer = Tracer(stats_path.with_suffix(".workers"))
    tracer.child_dir.mkdir(parents=True, exist_ok=True)
    import indbound.cli

    tracer.install()
    t0 = time.perf_counter()
    rc = indbound.cli.main(argv[2:])
    tracer.dump(stats_path, time.perf_counter() - t0)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
