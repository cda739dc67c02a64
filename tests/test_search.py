import functools
import inspect
import itertools
import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time
import types
from pathlib import Path

import pytest

from conftest import (
    agg_vector,
    aggregate_of_config,
    config_is_extremal,
    config_outcome,
    exponent_product,
    extract_config,
    integral_keys,
    interval_add,
    path,
    realize_config,
    shard_aggregates,
    strictly_above,
    validate_config,
    vector_terms,
)
from indbound import intervals, local, products, search
from indbound.goodness import goodness_vector, is_good
from indbound.graphs import NotBipartiteError, component_is_extremal, level_decomposition
from indbound.local import (
    LocalConfig,
    _config_automorphisms,
    canonical_tuple,
    record_multisets,
)
from indbound.products import (
    _SEARCH_DEN,
    PRECISION_CAP,
    Outcome,
    carried_limit,
    certify_exponents,
    key_exponents,
    level2_piece,
    level2_vector,
    ratio_bounds,
    ratio_keys,
    root_piece,
    root_vector,
    vector_outcome,
)
from indbound.search import (
    STATEMENT2_MAX_DEGREE,
    AggConfig,
    _agg_search_shard,
    _completion_piece,
    _shard_enumeration,
    default_jobs,
    degree_tuples,
    extremal_aggregate,
    labeled_configs_for_aggregate,
    regular_profile,
    stage2_completions,
    verify_regular,
    verify_statement1_stage1,
    verify_statement1_stage2,
    verify_statement2,
)
from indbound.selftest import random_bipartite_max_degree
from test_local import FAILING_PATTERNS, random_config


def _all_aggregates(delta_eff, lo, d0):
    """(aggregate, A/B/C exponent vector) pairs of the window lo..delta_eff,
    as the search certifies them."""
    out = []
    for degrees in degree_tuples(lo, d0, delta_eff):
        out.extend(shard_aggregates(delta_eff, lo, d0, degrees))
    return out


def _labeled_records(quotas, lo, hi):
    """Every multiset of level-2 records (b, nonempty subset of positions)
    that attaches quotas[i] times to position i, with max(|subset|, lo) <= b
    <= hi: take copies of one record type, then move on to the next."""
    types = [(b, sub) for r in range(1, len(quotas) + 1)
             for sub in itertools.combinations(range(len(quotas)), r)
             for b in range(max(r, lo), hi + 1)]

    def rec(i, rem):
        if not any(rem):
            yield ()
        elif i < len(types):
            b, sub = types[i]
            if all(rem[u] for u in sub):
                taken = tuple(q - (u in sub) for u, q in enumerate(rem))
                for rest in rec(i, taken):
                    yield ((b, sub),) + rest
            yield from rec(i + 1, rem)

    return rec(0, tuple(quotas))


def _labeled_configs(delta_eff, lo, d0):
    """The labeled reference model: the canonical key of every labeled
    configuration with root degree d0 and level-1 and level-2 degrees in the
    window lo..delta_eff, sorted.  Every multiset of level-2 records over
    every level-1 degree tuple of the window, canonicalized; shares no code
    with the aggregate enumerator."""
    return sorted({
        canonical_tuple(LocalConfig(delta_eff, d0, degrees, records))
        for degrees in itertools.combinations_with_replacement(range(delta_eff, lo - 1, -1), d0)
        for records in _labeled_records([d - 1 for d in degrees], lo, delta_eff)
    })


def test_enumerate_configs_hand_counts():
    # max-degree roots: the window 1..d0
    assert _labeled_configs(1, 1, 1) == [(1, 1, (1,), ())]
    assert _labeled_configs(0, 1, 0) == [(0, 0, (), ())]
    # root degree 2, degrees bounded by 2: seven configurations
    assert len(_labeled_configs(2, 1, 2)) == 7


def test_enumeration_is_canonical_and_duplicate_free():
    for delta_eff, lo, d0 in [
        (3, 1, 3),  # max-degree root
        (5, 2, 2),  # min-degree root
    ]:
        for key in _labeled_configs(delta_eff, lo, d0):
            cfg = LocalConfig(*key)
            validate_config(cfg)
            assert canonical_tuple(cfg) == key  # canonical representatives


def test_enumeration_respects_root_rule():
    # on the aggregates the searches certify: class degrees and level-2
    # degrees stay in the window of the root rule: 1..d0 for a
    # maximum-degree root, d0..5 for a minimum-degree one
    for agg, _ in _all_aggregates(3, 1, 3):
        assert all(d <= 3 for d in agg.class_degrees)
        assert all(b <= 3 for (b, _), _ in agg.records)
    for agg, _ in _all_aggregates(5, 3, 3):
        assert all(d >= 3 for d in agg.class_degrees)
        assert all(b >= 3 for (b, _), _ in agg.records)


def test_aggregate_model_matches_labeled_model():
    # union of labeled expansions of the aggregates equals the labeled
    # enumeration (every aggregate is realizable: each has members), every
    # member maps back to its aggregate, and the outcome certified from the
    # aggregate's summed exponent vector agrees with is_good on a graph
    # realizing each member, which reads the degrees off a BFS of that graph
    # instead of the records (both routes build with root_vector and
    # level2_vector; the independent A/B/C checks are is_good_fullgraph and
    # FactorProduct.from_f_counts, in test_local.py); the configuration
    # extremality test agrees with the graph one
    for delta_eff, lo, d0 in [
        (2, 1, 2),  # max-degree roots
        (3, 1, 3),
        (5, 1, 1),  # min-degree roots
        (5, 2, 2),
    ]:
        expanded = {}
        for agg, vec in _all_aggregates(delta_eff, lo, d0):
            assert vec == agg_vector(agg)
            outcome = vector_outcome(vec)[0]
            members = labeled_configs_for_aggregate(agg)
            assert members, agg
            for cfg in members:
                expanded[canonical_tuple(cfg)] = outcome
                assert aggregate_of_config(cfg) == agg
                g = realize_config(cfg)
                assert is_good(g, 0).outcome == outcome
                assert config_is_extremal(cfg) == component_is_extremal(g, 0)
        assert sorted(expanded) == _labeled_configs(delta_eff, lo, d0)


def _extracted_aggregates_are_enumerated(rng, trials, max_side):
    shards: dict = {}
    for _ in range(trials):
        g = random_bipartite_max_degree(rng, rng.randint(1, max_side), rng.randint(1, max_side),
                                        rng.uniform(0.3, 0.9), 5)
        degs = g.degrees()
        x = min(range(g.n), key=lambda v: (degs[v], v))
        cfg = extract_config(g, x, 5)
        agg = aggregate_of_config(cfg)
        key = (cfg.d0, tuple(sorted(cfg.l1_degrees, reverse=True)))
        if key not in shards:  # the min-degree window max(1, d0)..5
            shards[key] = {a for a, _ in shard_aggregates(5, max(1, cfg.d0), *key)}
        assert agg in shards[key]


def test_aggregate_of_extracted_config_is_enumerated():
    # completeness: the aggregate of any concrete rooted graph appears, equal
    # as a value (records sorted), in the enumeration shard for its degree
    # multiset; the larger graphs reach aggregates with several record types
    _extracted_aggregates_are_enumerated(random.Random(61), 200, 4)
    _extracted_aggregates_are_enumerated(random.Random(7), 300, 8)


def _knapsack_count(lo_hi, d0, degrees):
    """Aggregates of one shard, counted by a vector knapsack over the
    per-class quota states: every (class vector, level-2 degree) type may be
    used any number of times.  Shares no code with the enumerator."""
    if d0 == 0:
        return 1
    lo, hi = lo_hi
    classes = sorted(set(degrees), reverse=True)
    sizes = [degrees.count(d) for d in classes]
    quotas = tuple(s * (d - 1) for d, s in zip(classes, sizes))
    states = list(itertools.product(*(range(q + 1) for q in quotas)))
    ways = dict.fromkeys(states, 0)
    ways[states[0]] = 1
    for cvec in itertools.product(*(range(s + 1) for s in sizes)):
        if not any(cvec):
            continue
        for _b in range(max(sum(cvec), lo), hi + 1):
            for s in states:  # lexicographic order: s - cvec comes earlier
                prev = tuple(x - c for x, c in zip(s, cvec))
                if min(prev) >= 0:
                    ways[s] += ways[prev]
    return ways[quotas]


def _shards(statement):
    """(delta_eff, lo, d0, degrees) of every shard of statement 2 at Delta = 4
    or of stage 1, in search order: level-1 and level-2 degrees lie in the
    window lo..delta_eff and level 3 is padded to delta_eff."""
    for d0 in range(5):
        if statement == 2:  # max-degree root: degrees in 1..d0, padded to d0
            de, lo = d0, 1
        else:  # min-degree root at degree bound 5: degrees in d0..5
            de, lo = 5, max(1, d0)
        for degrees in itertools.combinations_with_replacement(range(de, lo - 1, -1), d0):
            yield de, lo, d0, degrees


def test_aggregate_counts_match_knapsack():
    # the full-scale aggregate counts, from a count independent of the
    # enumerator; at the search's limit its count plus its leaves make
    # exactly that many, no bound sum of those leaves below it, and
    # without pruning it returns exactly that many leaves, distinct both as
    # returned and as the sorted records of their aggregates
    totals = {1: 0, 2: 0}
    limit = carried_limit(128)
    for statement in totals:
        for de, lo, d0, degrees in _shards(statement):
            expected = _knapsack_count((lo, de), d0, degrees)
            totals[statement] += expected
            leaves, counted = _shard_enumeration(de, lo, d0, degrees)
            assert counted + len(leaves) == expected
            assert all(hx + hy >= limit for _, _, hx, hy in leaves)
            if statement == 2 and d0 > 3:
                continue
            leaves = [records for records, *_ in _shard_enumeration(de, lo, d0, degrees, limit=0)[0]]
            records = [AggConfig.of(de, d0, degrees, leaf).records for leaf in leaves]
            assert len(leaves) == len(set(leaves)) == expected, (d0, degrees)
            assert len(records) == len(set(records)) == expected, (d0, degrees)
            assert all(r == tuple(sorted(r)) for r in records)
    assert totals == {1: 103_236, 2: 238_251}


@pytest.fixture(scope="module")
def stage1_sample():
    """Per stage-1 shard: a seeded sample of 16 (aggregate, vector) pairs, or
    the whole shard when smaller (the small shards hold many of the cases
    that 8 bits cannot decide), and the shard's vectors grouped by their
    (X, Y) ratio keys."""
    rng = random.Random(404)
    out = []
    for args in _shards(1):
        shard = shard_aggregates(*args)
        by_keys: dict = {}
        for _, vec in shard:
            by_keys.setdefault(ratio_keys(vec), []).append(vec)
        out.append((rng.sample(shard, min(16, len(shard))), by_keys))
    return out


def test_ratio_keys_decode_to_exponent_differences(stage1_sample):
    # each key decodes to the per-prime B - A (C - A) numerators, negative
    # lanes included, and vectors sharing both keys share their outcome
    negative = shared = 0
    for sample, by_keys in stage1_sample:
        for _, vec in sample:
            ta, tb, tc = vector_terms(vec)
            keys = ratio_keys(vec)
            for key, t in zip(keys, (tb, tc)):
                diff = {p: t.get(p, 0) - ta.get(p, 0) for p in ta.keys() | t.keys()}
                assert key_exponents(key) == sorted((p, x) for p, x in diff.items() if x)
                negative += any(x < 0 for x in diff.values())
            twins = by_keys[keys]
            shared += len(twins) > 1
            assert len({vector_outcome(v) for v in twins}) == 1
    assert negative and shared


def _hand_pieces(delta_eff, d0, degrees, bounds):
    """(piece, root) of a shard by hand: its records' piece(b, cvec) and its
    root's piece, each a vector with bounds(vector), not read from the
    cached pieces of products."""
    class_degrees = tuple(sorted(set(degrees), reverse=True))
    root = root_vector(d0, degrees)

    @functools.cache
    def piece(b, cvec):
        vec = level2_vector(*search._record_degrees(delta_eff, class_degrees, b, cvec))
        return (vec, *bounds(vec))

    return piece, (root, *bounds(root))


def _coarse(vec):
    """Made-up bounds of a vector: 3/4 to 3/2 at scale 2^-2, where most
    roundings move a bound."""
    return 3 + vec % 7 % 4, 3 + vec % 11 % 4


def _hand_carried(root_bounds, piece, records, scale):
    """A leaf's (hx, hy) by hand: the root's bounds times the product of
    each spread option's records (the records of one class vector, in
    enumeration order), each copy's bounds multiplied in order and every
    product rounded up."""
    options: dict = {}
    for (b, cvec), cnt in records:
        options.setdefault(cvec, []).extend([piece(b, cvec)[1:]] * cnt)
    carried = list(root_bounds)
    for first, *rest in options.values():
        option = list(first)
        for factor in rest:
            option = [-(-o * f >> scale) for o, f in zip(option, factor)]
        carried = [-(-h * o >> scale) for h, o in zip(carried, option)]
    return carried


def test_carried_bounds_come_from_the_pieces_of_is_good(monkeypatch):
    # every shard takes its root's and its records' vectors and bounds at the
    # start precision from products.root_piece and level2_piece, the cached
    # pieces is_good carries, so ratio_bounds runs once per vector and
    # precision in the process; a shard enumerated again, after the others,
    # returns the same leaves and computes no bound again
    calls = []
    scale = 128 + intervals.GUARD_BITS

    def spy(vec, prec):
        calls.append((vec, prec))
        return ratio_bounds(vec, prec)

    pieces = {"root_piece": [], "level2_piece": []}
    for name, seen in pieces.items():
        def piece_spy(*args, real=getattr(products, name), seen=seen):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(search, name, piece_spy)
    products.root_piece.cache_clear()
    products.level2_piece.cache_clear()
    monkeypatch.setattr(products, "ratio_bounds", spy)
    shards = [shard for shard in _shards(1) if shard[2] < 3]
    first = {}
    copies = tighter = 0
    for shard in shards:
        de, _, d0, degrees = shard
        for seen in pieces.values():
            seen.clear()
        leaves = first[shard] = _shard_enumeration(*shard, limit=0)[0]
        # the root's piece is asked for once, and the records' pieces are
        # exactly the shard's (b, down, up) triples, each at 128 bits
        assert pieces["root_piece"] == [(d0, degrees, 128)]
        class_degrees = tuple(sorted(set(degrees), reverse=True))
        kinds = {rec for records, *_ in leaves for rec, _ in records}
        assert set(pieces["level2_piece"]) == {
            (*search._record_degrees(de, class_degrees, b, cvec), 128) for b, cvec in kinds}
        # each leaf carries the root's bounds times its records' bounds, one
        # factor per copy, in order, every product rounded up
        piece, root = _hand_pieces(de, d0, degrees, functools.partial(ratio_bounds, prec=128))
        for records, _, hx, hy in leaves:
            copies += any(cnt > 1 for _, cnt in records)
            assert [hx, hy] == _hand_carried(root[1:], piece, records, scale)
    # one bound per vector and precision, over all the shards
    assert len(calls) == len(set(calls)) and {prec for _, prec in calls} == {128}
    # each bound is the fixed-point upper end of the unrounded table
    # product, so it lies between that product and power_product
    for vec, _ in calls:
        for key, h in zip(ratio_keys(vec), ratio_bounds(vec, 128)):
            exps = key_exponents(key)
            table = intervals.table_product(exps, _SEARCH_DEN, 128)
            rounded = intervals.to_fixed(intervals.power_product(exps, _SEARCH_DEN, 128), scale)[1]
            assert h == intervals.to_fixed(table, scale)[1]
            assert intervals.dyadic_cmp(h, -scale, table.hi_m, table.hi_e) >= 0
            assert h <= rounded
            tighter += h < rounded
    computed = len(calls)
    for shard in reversed(shards):
        assert _shard_enumeration(*shard, limit=0)[0] == first[shard]
    assert len(calls) == computed
    assert len(first) == 16 and copies and tighter


def test_carried_bounds_contain_the_512_bit_ratios():
    # on every leaf of a few shards of both searches, at 8 and at 128 bits,
    # the carried upper ends are at least the upper end of FactorProduct's
    # 512-bit interval of X and of Y
    refs: dict = {}
    leaves = 0
    for de, lo, d0, degrees in [(5, 2, 2, (2, 2)),
                                (5, 3, 3, (5, 4, 3)),
                                (5, 4, 4, (5, 5, 5, 4)),
                                (3, 1, 3, (3, 2, 1))]:
        for prec in (8, 128):
            scale = prec + intervals.GUARD_BITS
            for _, vec, hx, hy in _shard_enumeration(de, lo, d0, degrees, prec, limit=0)[0]:
                leaves += 1
                for key, h in zip(ratio_keys(vec), (hx, hy)):
                    if key not in refs:
                        refs[key] = exponent_product(key_exponents(key)).value_interval(512)
                    ref = refs[key]
                    assert intervals.dyadic_cmp(h, -scale, ref.hi_m, ref.hi_e) >= 0, (key, prec)
    assert leaves > 1000


def _vector_outcome_routes(de, lo, d0, degrees, prec):
    """The decoded ratio keys of every leaf of a shard that certify_exponents
    must see at prec: those not strict at prec by intervals."""
    out = []
    for _, vec, *_ in _shard_enumeration(de, lo, d0, degrees, prec, limit=0)[0]:
        if vector_outcome(vec, prec)[:3] != (Outcome.STRICTLY_GREATER, "interval", prec):
            out.append(tuple(map(key_exponents, ratio_keys(vec))))
    return out


# shards of both searches whose pruned subtrees the tests below open again;
# the first, second and fourth each hold one leaf with both ratio keys
# integral, an Equal one
_PRUNED_SHARDS = [(5, 4, 4, (4, 4, 4, 4)), (3, 1, 3, (3, 3, 3)), (5, 2, 2, (5, 3)),
                  (5, 4, 4, (5, 5, 5, 5)), (5, 3, 3, (5, 4, 3)), (4, 1, 4, (4, 3, 2, 2))]


def _decided(enumeration, leaves):
    """The leaves of an unpruned enumeration that a pruned one, (kept,
    counted), counts, checking that the pruned one returns the others in
    the same order and counts exactly as many leaves as it does not
    return."""
    kept, counted = enumeration
    returned = set(kept)
    assert [leaf for leaf in leaves if leaf in returned] == kept and len(returned) == len(kept)
    decided = [leaf for leaf in leaves if leaf not in returned]
    assert counted == len(decided)
    return decided


def test_pruned_subtrees_hold_only_carried_strict_leaves():
    # every leaf the enumeration counts, in a pruned subtree or on its own,
    # is strict at the start precision by intervals, as vector_outcome
    # decides it, whatever the integrality of its ratio keys (checked once
    # per pair of ratio keys, which decide the outcome); the leaves it
    # returns come in the order of the unpruned enumeration, and counted
    # plus returned is the shard's raw count
    counted, under = {}, {}
    for shard in _PRUNED_SHARDS:
        for prec in (8, 128):
            leaves = _shard_enumeration(*shard, prec, limit=0)[0]
            assert len(leaves) == _agg_search_shard((*shard, prec, 8192)).raw
            decided = _decided(_shard_enumeration(*shard, prec), leaves)
            for leaf in decided:
                under.setdefault((ratio_keys(leaf[1]), prec), leaf[1])
            counted[shard, prec] = len(decided)
    assert all(counted.values())
    for (keys, prec), vec in under.items():
        assert vector_outcome(vec, prec)[:3] == (Outcome.STRICTLY_GREATER, "interval", prec)


def _path_options(records, piece, scale):
    """The spread options of a record multiset, in order, one per class
    vector: [its bounds, its records], the bounds the product of each
    copy's piece bounds, in order, every product rounded up at scale
    2^-scale."""
    options = {}
    for (b, cvec), cnt in records:
        option = options.setdefault(cvec, [[1 << scale] * 2, ()])
        for _ in range(cnt):
            option[0] = [-(-x * y >> scale) for x, y in zip(option[0], piece(b, cvec)[1:])]
        option[1] += (((b, cvec), cnt),)
    return list(options.values())


def _hand_nodes(leaves, piece, root, scale):
    """Per leaf of an unpruned enumeration, (least, own).  own is the
    leaf's own bound sum u + v: the root piece's bounds times every spread
    option's, every product rounded up at scale 2^-scale.  least is the
    least bound that decides the leaf: that of a node on its path that the
    enumeration tests (after each class vector's copies but the last),
    ceil(u max_u) + ceil(v max_v) with u, v the bounds so far and max_u,
    max_v the largest product over the completions below that prefix,
    folded from the right, or own."""
    def up(a, b):
        return -(-a * b >> scale)

    below, paths = {}, []
    for records, *_ in leaves:
        path = _path_options(records, piece, scale)
        carried, prefix, nodes = root[1:], (), []
        for k in range(len(path) - 1):
            carried = list(map(up, carried, path[k][0]))
            prefix += path[k][1]
            rest = path[-1][0]
            for option, _ in reversed(path[k + 1:-1]):
                rest = list(map(up, option, rest))
            node = below.setdefault(prefix, [0, 0])
            node[:] = max(node[0], rest[0]), max(node[1], rest[1])
            nodes.append((prefix, carried))
        own = sum(map(up, carried, path[-1][0])) if path else sum(carried)
        paths.append((nodes, own))
    return [(min([up(u, below[prefix][0]) + up(v, below[prefix][1]) for prefix, (u, v) in nodes]
                 + [own]), own)
            for nodes, own in paths]


def _pruned_as_by_hand(enumerate_at, leaves, hand, limits):
    """enumerate_at(limit) counts exactly the leaves whose least bound is
    below the limit, and returns the others, at each limit."""
    for limit in sorted(limits):
        expected = [leaf for leaf, (h, _) in zip(leaves, hand) if h < limit]
        assert _decided(enumerate_at(limit), leaves) == expected, limit


def test_subtrees_pruned_are_exactly_those_their_bounds_decide():
    # the enumeration counts exactly the leaves under a node, or the leaf
    # itself, that the bounds of _hand_nodes decide: on shards of both
    # searches at the search's limit, and with made-up bounds at scale
    # 2^-2, where most roundings move a bound, at every limit that is some
    # leaf's least or own bound, where that node or leaf must be entered,
    # and one above them all, where every leaf is counted, those with both
    # ratio keys integral too; a subtree product rounded down, a wrong leaf
    # count or a limit that is not strict moves some count
    integral = 0  # leaves with both ratio keys integral, counted all the same
    for de, lo, d0, degrees in _PRUNED_SHARDS[:3]:
        class_degrees = tuple(sorted(set(degrees), reverse=True))
        sizes = tuple(map(degrees.count, class_degrees))
        quotas = tuple(s * (d - 1) for d, s in zip(class_degrees, sizes))
        for prec in (8, 128):
            leaves = _shard_enumeration(de, lo, d0, degrees, prec, limit=0)[0]
            hand = _hand_nodes(leaves, *_hand_pieces(de, d0, degrees,
                                                     functools.partial(ratio_bounds, prec=prec)),
                               prec + intervals.GUARD_BITS)
            _pruned_as_by_hand(lambda limit: _shard_enumeration(de, lo, d0, degrees, prec,
                                                                limit=limit),
                               leaves, hand, [carried_limit(prec)])
        coarse = _hand_pieces(de, d0, degrees, _coarse)

        def enumerate_at(limit):
            return record_multisets(quotas, sizes, lo, de, *coarse, 2, limit)

        leaves = enumerate_at(0)[0]
        hand = _hand_nodes(leaves, *coarse, 2)
        sums = {h for pair in hand for h in pair}
        integral += sum(integral_keys(total) for _, total, *_ in leaves)
        _pruned_as_by_hand(enumerate_at, leaves, hand, {*sums, max(sums) + 1})
        assert enumerate_at(max(sums) + 1) == ([], len(leaves))
    assert integral


def _closure_calls(name, run):
    """(locals, return value) at the return of every call of
    record_multisets' inner function `name` while run() runs, read by a
    profile hook."""
    code = next(c for c in local.record_multisets.__code__.co_consts
                if isinstance(c, types.CodeType) and c.co_name == name)
    calls = []

    def hook(frame, event, arg):
        if event == "return" and frame.f_code is code:
            calls.append((dict(frame.f_locals), arg))

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _spread_by_hand(cvec, c, lo, hi, piece, scale, order=tuple):
    """Every option of c copies of cvec from combinations_with_replacement:
    (records, weight, u, v), u and v one factor per copy, multiplied in the
    order order(bs), every product rounded up at scale 2^-scale."""
    out = []
    for bs in itertools.combinations_with_replacement(range(max(sum(cvec), lo), hi + 1), c):
        w, u, v = 0, 1 << scale, 1 << scale
        for b in order(bs):
            rw, ru, rv = piece(b, cvec)
            w, u, v = w + rw, -(-u * ru >> scale), -(-v * rv >> scale)
        recs = tuple(((b, cvec), bs.count(b)) for b in sorted(set(bs)))
        out.append((recs, w, u, v))
    return out


def test_spread_options_match_the_direct_product():
    # every spread option, built from one with a copy less, equals the
    # direct product of its copies: the same records, weight and bounds
    # (one factor per copy, in order, every product rounded up), in the
    # order of combinations_with_replacement, and the spread holds its
    # options' largest bounds; on the coarse bounds at scale 2^-2 of the
    # test above, where multiplying the copies in reverse order moves some
    # bound, and on a stage-1 shard at 128 bits
    fine = functools.partial(ratio_bounds, prec=128)
    cases = [(*shard, _coarse, 2) for shard in _PRUNED_SHARDS[:3]]
    cases.append((5, 3, 3, (5, 4, 3), fine, 128 + intervals.GUARD_BITS))
    copies = reordered = 0
    for de, lo, d0, degrees, bounds, scale in cases:
        class_degrees = tuple(sorted(set(degrees), reverse=True))
        sizes = tuple(map(degrees.count, class_degrees))
        quotas = tuple(s * (d - 1) for d, s in zip(class_degrees, sizes))
        piece, root = _hand_pieces(de, d0, degrees, bounds)
        calls = _closure_calls("spread", lambda: record_multisets(quotas, sizes, lo, de, piece,
                                                                  root, scale))
        spreads = {(args["cvec"], args["c"]): out for args, out in calls}
        assert spreads
        for (cvec, c), (options, max_u, max_v) in spreads.items():
            hand = (cvec, c, lo, de, piece, scale)
            assert options == _spread_by_hand(*hand)
            assert (max_u, max_v) == (max(o[2] for o in options), max(o[3] for o in options))
            copies += c > 1
            reordered += options != _spread_by_hand(*hand, order=lambda bs: bs[::-1])
    assert copies and reordered


def test_carried_residues_and_leaf_decisions():
    # the enumeration carries into every node it enters the total of the
    # prefix and its bounds, the root's times each spread option's, every
    # product rounded up: checked on every node entered with no limit and
    # at the search's limit; there it returns exactly the leaves whose bound
    # sum reaches the limit, in order, and counts the others
    entered = 0
    for shard in _PRUNED_SHARDS:
        de, _, d0, degrees = shard
        for prec in (8, 128):
            scale = prec + intervals.GUARD_BITS
            piece, root = _hand_pieces(de, d0, degrees, functools.partial(ratio_bounds, prec=prec))
            leaves = _shard_enumeration(*shard, prec, limit=0)[0]
            for limit in (0, carried_limit(prec)):
                out = []
                calls = _closure_calls("rec", lambda: out.append(
                    _shard_enumeration(*shard, prec, limit=limit)))
                for args, _ in calls:
                    records = args["records"]
                    carried = root[1:]
                    for option, _ in _path_options(records, piece, scale):
                        carried = [-(-x * y >> scale) for x, y in zip(carried, option)]
                    assert args["total"] == root[0] + sum(piece(b, cvec)[0] * cnt
                                                          for (b, cvec), cnt in records)
                    assert (-args["nu"], -args["nv"]) == tuple(carried)
                entered += len(calls)
                [(kept, counted)] = out
                assert kept == [leaf for leaf in leaves if leaf[2] + leaf[3] >= limit]
                assert counted == len(leaves) - len(kept) and bool(counted) == bool(limit)
    assert entered


def test_certify_exponents_sees_only_the_leaves_bounds_leave(monkeypatch):
    # at 128 bits the carried bounds decide every leaf that certify_exponents
    # would decide strict at 128 bits by intervals: in the shard
    # (5, min-degree, 3, (5, 5, 5)) it sees only the Equal leaf, and in
    # (5, min-degree, 2, (2, 2)) only the Equal and the two failing leaves,
    # in enumeration order; a silent fall back to it for every leaf fails here
    for degrees, total, slow in [((5, 5, 5), 3439, 1), ((2, 2), 14, 3)]:
        d0 = len(degrees)
        expected = _vector_outcome_routes(5, d0, d0, degrees, 128)
        seen = []

        def spy(ex, ey, *args):
            seen.append((ex, ey))
            return certify_exponents(ex, ey, *args)

        monkeypatch.setattr(products, "certify_exponents", spy)
        result = _agg_search_shard((5, d0, d0, degrees, 128, 8192))
        monkeypatch.undo()
        assert seen == expected and len(seen) == slow
        assert sum(result.tally.values()) == total and result.tally["strict"] == total - slow


def test_low_start_leaves_that_reach_vector_outcome(monkeypatch):
    # at an 8-bit start the carried record bounds, unrounded table products,
    # still decide all but these many leaves of two shards; bounds rounded
    # to 8 bits leave 967 and 5,739 of them, and summed spread options 249
    # and 1,474, so either loosening fails here
    for degrees, total, slow in [((5, 5, 5), 3439, 38), ((5, 4, 3), 12033, 6)]:
        seen = []

        def spy(vec, *args):
            seen.append(vec)
            return vector_outcome(vec, *args)

        monkeypatch.setattr(search, "vector_outcome", spy)
        result = _agg_search_shard((5, 3, 3, degrees, 8, 8192))
        monkeypatch.undo()
        assert len(seen) == slow and result.raw == total


def test_enumeration_counts_and_leaves_make_the_shard(monkeypatch):
    # _agg_search_shard takes (leaves, decided) from
    # search._shard_enumeration, which returns record_multisets' plain
    # return, and spying on it changes no result; the count plus the leaves
    # make the knapsack count, which is the shard's raw count, and no leaf
    # it returns has a bound sum below the search's limit: those are counted
    # in the enumeration, in pruned subtrees or one by one, and only the
    # leaves it returns reach vector_outcome
    assert not inspect.isgeneratorfunction(local.record_multisets)
    assert not inspect.isgeneratorfunction(search._shard_enumeration)
    original = search._shard_enumeration
    seen = []

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append(out)
        return out

    limit = carried_limit(128)
    shards = [(5, max(1, d0), d0, degrees, 128, 8192)
              for d0, degrees in [(0, ()), (2, (2, 2)), (3, (5, 5, 5)), (3, (5, 4, 3))]]
    plain = [_agg_search_shard(args) for args in shards] + [verify_regular(5)]
    monkeypatch.setattr(search, "_shard_enumeration", spy)
    for args, expected in zip(shards, plain):
        de, lo, d0, degrees = args[:4]
        seen.clear()
        result = _agg_search_shard(args)
        [(leaves, counted)] = seen
        assert type(leaves) is list
        assert counted + len(leaves) == result.raw == _knapsack_count((lo, de), d0, degrees)
        assert result == expected
        assert all(hx + hy >= limit for _, _, hx, hy in leaves)
        if degrees == (5, 5, 5):  # most of a shard is counted, not yielded
            assert len(leaves) < counted
    seen.clear()
    regular = verify_regular(5)
    [(leaves, counted)] = seen
    assert counted + len(leaves) == regular.profiles == 192 and regular == plain[-1]


@pytest.mark.parametrize("run", [
    lambda start, cap: verify_statement2(4, jobs=1, precision_start=start, precision_cap=cap),
    lambda start, cap: verify_statement1_stage1(jobs=1, precision_start=start, precision_cap=cap),
    lambda start, cap: verify_statement1_stage2([cfg for cfg, _ in FAILING_PATTERNS], start, cap),
    lambda start, cap: verify_regular(4, start, cap),
], ids=["statement2", "stage1", "stage2", "regular"])
def test_search_rejects_a_bad_schedule_before_any_shard(monkeypatch, run):
    # a start above the cap fails before any shard runs: at 128 bits the
    # carried bounds decide every aggregate of many shards, which then never
    # reach certify_exponents, the only other place the schedule is checked
    def shard(args):
        raise AssertionError("a shard ran")

    monkeypatch.setattr(search, "_agg_search_shard", shard)
    monkeypatch.setattr(search, "_stage2_shard", shard)
    with pytest.raises(ValueError, match="precision start"):
        run(128, 64)


def test_exact_route_under_carried_bounds():
    # an Equal pair is integral, and X + Y = 1 keeps its real carried
    # bounds at or above the limit, so the enumeration returns it to the
    # exact route; a mixed pair, one key integral and one not, goes the
    # interval route; inside its shard the Equal aggregate is the one exact
    # verdict, whatever the cap
    vec = agg_vector(extremal_aggregate(5, 2, (2, 2)))
    first = vector_outcome(vec)
    assert first[:2] == (Outcome.EQUAL, "exact")
    assert integral_keys(vec)
    limit = carried_limit(128)
    [(hx, hy)] = [(hx, hy) for _, v, hx, hy in _shard_enumeration(5, 2, 2, (2, 2), limit=0)[0]
                  if v == vec]
    assert hx + hy >= limit
    kept, _ = _shard_enumeration(5, 2, 2, (2, 2))
    assert vec in [v for _, v, *_ in kept]
    other = next(v for _, v in shard_aggregates(5, 2, 2, (2, 2))
                 if all(num % _SEARCH_DEN for k in ratio_keys(v) for _, num in key_exponents(k)))
    (kx, ky), (ox, oy) = ratio_keys(vec), ratio_keys(other)
    for x, y in ((kx, oy), (ox, ky)):
        assert certify_exponents(key_exponents(x), key_exponents(y))[1] == "interval"
    for cap in (128, 8192):
        assert vector_outcome(vec, precision_cap=cap) == first
        shard = _agg_search_shard((5, 2, 2, (2, 2), 128, cap))
        assert shard.precision_stats == {("exact", None): 1, ("interval", 128): 13}


def test_strict_leaf_with_integral_keys_is_counted():
    # one level-1 class of two degree-2 vertices, each with one level-2
    # neighbor of degree 2 whose other neighbor is a leaf: the one leaf of
    # this enumeration is the vector of the middle vertex of a path on 7
    # vertices, strict with both ratio keys integral; its carried bounds
    # decide it below the limit, so it is counted and not returned
    g = path(7)
    vec = goodness_vector(g, level_decomposition(g, 3))[0]
    assert integral_keys(vec)
    args = ((2,), (1,), 2, 2, lambda b, cvec: level2_piece(2, (2,), (1,), 128),
            root_piece(2, (2, 2), 128), 128 + intervals.GUARD_BITS)
    [(records, total, hx, hy)], decided = record_multisets(*args)
    assert (records, total, decided) == ((((2, (1,)), 2),), vec, 0)
    assert hx + hy < carried_limit(128)
    assert record_multisets(*args, carried_limit(128)) == ([], 1)
    assert vector_outcome(vec)[:3] == (Outcome.STRICTLY_GREATER, "interval", 128)


def test_empty_multiset_is_one_leaf_tested_against_the_limit():
    # with every quota 0 the one leaf is the empty multiset, carrying the
    # root piece alone, and no record piece is asked for: the isolated
    # root, Equal, so X + Y = 1 and its bounds reach the search's limit; the
    # leaf is counted only when its bound sum is below the limit, and
    # returned when the sum reaches it or the limit is 0
    def piece(b, cvec):
        raise AssertionError("a record piece was asked for")

    root = root_piece(0, (), 128)
    vec, hx, hy = root
    assert vector_outcome(vec)[0] is Outcome.EQUAL
    leaf = ((), vec, hx, hy)
    for quotas in ((), (0,), (0, 0)):
        args = (quotas, (1,) * len(quotas), 1, 5, piece, root, 128 + intervals.GUARD_BITS)
        assert record_multisets(*args) == ([leaf], 0)
        assert hx + hy >= carried_limit(128)
        for limit in (carried_limit(128), hx + hy):
            assert record_multisets(*args, limit) == ([leaf], 0), limit
        assert record_multisets(*args, hx + hy + 1) == ([], 1)
    # unit pieces without a root piece: the leaf's bounds are 1 and 1
    assert record_multisets((0,), (1,), 1, 5, scale=3, limit=16) == ([((), 0, 8, 8)], 0)
    assert record_multisets((0,), (1,), 1, 5, scale=3, limit=17) == ([], 1)


def test_stage1_leaves_with_integral_keys_are_its_equal_ones():
    # certify_exponents tries the interval before the exact integers, so a
    # strict leaf with both ratio keys integral is tallied by intervals;
    # stage 1 has none: its 15 leaves with both keys integral are the
    # extremal aggregates of their shards, its Equal ones, so its exact
    # count stays 15
    integral = []
    for de, lo, d0, degrees in _shards(1):
        for records, vec, *_ in _shard_enumeration(de, lo, d0, degrees, limit=0)[0]:
            if integral_keys(vec):
                integral.append((AggConfig.of(de, d0, degrees, records),
                                 extremal_aggregate(de, d0, degrees)))
    assert len(integral) == 15 and all(agg == extremal for agg, extremal in integral)


def test_low_start_precisions_keep_their_precision_stats():
    # starts of 1 and 2 bits are valid input: the widening has no negative
    # shift there, and the routes and precisions are those certify_exponents
    # gives every aggregate
    escalated = {"exact": 7, "interval_4": 31, "interval_8": 359}
    for start, cap, stats in [(1, 64, escalated), (2, 64, escalated),
                              (1, 1, {"exact": 7, "interval_1": 390})]:
        doc = verify_statement2(3, jobs=1, precision_start=start, precision_cap=cap).to_json()
        assert doc["precision_stats"] == stats, (start, cap)
    assert doc["tally"] == {"strict": 0, "equal": 7, "failing": 0, "undecided": 390}


def _unreduced_terms(vec):
    """A, B and C of a vector as FactorProducts, no common factor removed."""
    return [exponent_product(term.items()) for term in vector_terms(vec)]


def test_vector_outcome_matches_unreduced_intervals(stage1_sample):
    # the ratio-form outcome agrees with 512-bit intervals of A and B + C
    # wherever they separate, and is an exact Equal where they do not;
    # starting at 8 bits, some aggregates escalate and every outcome is the
    # same
    escalated = 0
    for sample, _ in stage1_sample:
        for _, vec in sample:
            outcome, method, _prec, _values = vector_outcome(vec)
            a, b, c = _unreduced_terms(vec)
            iva = a.value_interval(512)
            ivsum = interval_add(b.value_interval(512), c.value_interval(512))
            if strictly_above(iva, ivsum):
                assert outcome is Outcome.STRICTLY_GREATER
            elif strictly_above(ivsum, iva):
                assert outcome is Outcome.STRICTLY_LESS
            else:
                assert (outcome, method) == (Outcome.EQUAL, "exact")
            low = vector_outcome(vec, precision_start=8)
            assert low[0] is outcome
            escalated += low[2] is not None and low[2] > 8
    assert escalated


def test_power_product_contains_the_512_bit_ratio(stage1_sample):
    # the product of cached factor bounds, rounded once, brackets each ratio
    # of the sample: at 8, 16 and 128 bits it contains FactorProduct's
    # 512-bit interval of the same ratio
    keys = {key for sample, _ in stage1_sample for _, vec in sample for key in ratio_keys(vec)}
    for key in keys:
        exps = key_exponents(key)
        ref = exponent_product(exps).value_interval(512)
        for prec in (8, 16, 128):
            iv = intervals.power_product(exps, _SEARCH_DEN, prec)
            assert intervals.dyadic_cmp(iv.lo_m, iv.lo_e, ref.lo_m, ref.lo_e) <= 0, (key, prec)
            assert intervals.dyadic_cmp(iv.hi_m, iv.hi_e, ref.hi_m, ref.hi_e) >= 0, (key, prec)


def test_precision_stats_name_each_precision():
    # a run started below 128 bits escalates some aggregates, and the report
    # names each route once: "exact", or "interval_<bits>", sorted as strings
    # (stage 2 tallies through ShardResult.add, statement 2 mostly through
    # the shard's strict fast path)
    stage2 = verify_statement1_stage2([cfg for cfg, _ in FAILING_PATTERNS],
                                      precision_start=8).to_json()["precision_stats"]
    assert list(stage2.items()) == [("interval_16", 7), ("interval_8", 122)]
    statement2 = verify_statement2(3, jobs=1, precision_start=4).to_json()["precision_stats"]
    assert list(statement2.items()) == [("exact", 7), ("interval_4", 31), ("interval_8", 359)]


def test_fingerprint_tallies_and_precision_stats(stage1_report, statement2_report):
    # the pinned fingerprint, precision_stats included: a change that moves
    # one aggregate to another outcome, route or precision fails here
    for report, tally, stats in [
        (stage1_report, (103_212, 15, 9, 0), {"exact": 15, "interval_128": 103_221}),
        (statement2_report, (238_240, 11, 0, 0), {"exact": 11, "interval_128": 238_240}),
    ]:
        doc = report.to_json()
        assert doc["tally"] == dict(zip(("strict", "equal", "failing", "undecided"), tally))
        assert doc["precision_stats"] == stats


def test_statement2_small_deltas():
    r1 = verify_statement2(1, jobs=1)
    assert r1.passed and r1.tally == {"strict": 0, "equal": 2, "failing": 0, "undecided": 0}
    r2 = verify_statement2(2, jobs=1)
    assert r2.passed
    assert r2.tally["equal"] == 4 and r2.tally["failing"] == 0
    shapes = {(c.d0, c.l1_degrees, c.l2) for c in r2.equality_patterns}
    assert shapes == {
        (0, (), ()),
        (1, (1,), ()),
        (2, (1, 1), ()),
        (2, (2, 2), ((2, (0, 1)),)),
    }


def test_statement2_equalities_are_complete_bipartite():
    r = verify_statement2(3, jobs=1)
    assert r.passed
    assert len(r.equality_patterns) == 7
    assert all(config_is_extremal(c) for c in r.equality_patterns)
    assert not r.equality_inconsistencies


def _flip_outcomes(monkeypatch, flip):
    """Make the searches see flip(outcome) for the certified outcome, with
    every aggregate certified by vector_outcome, none by carried bounds."""
    def mutant(vec, *args):
        outcome, method, precision, values = vector_outcome(vec, *args)
        return flip(outcome), method, precision, values

    monkeypatch.setattr(search, "carried_limit", lambda prec: 0)
    monkeypatch.setattr(search, "vector_outcome", mutant)


def test_shard_equality_cross_check_fires(monkeypatch):
    # a search that loses equality on the extremal aggregates, or finds it
    # on one strict aggregate, fails with the offending configurations
    _flip_outcomes(monkeypatch, lambda o: Outcome.STRICTLY_GREATER if o is Outcome.EQUAL else o)
    lost = verify_statement2(3, jobs=1)
    once = iter([True])
    _flip_outcomes(monkeypatch, lambda o: Outcome.EQUAL
                   if o is Outcome.STRICTLY_GREATER and next(once, False) else o)
    extra = verify_statement2(3, jobs=1)
    assert not lost.passed and len(lost.equality_inconsistencies) == 7
    assert not extra.passed and len(extra.equality_inconsistencies) == 1


def test_shard_returns_aggregates_and_expands_nothing(monkeypatch):
    # a worker keeps the non-strict aggregates themselves; labeled expansion
    # runs only in the parent, when the report is built, so a shard with
    # failing, equal and (its equality flipped away) inconsistent aggregates
    # never calls it
    def expansion(agg):
        raise AssertionError("labeled expansion inside a shard")

    monkeypatch.setattr(search, "labeled_configs_for_aggregate", expansion)
    shard = (5, 2, 2, (2, 2), 128, 8192)
    extremal = extremal_aggregate(5, 2, (2, 2))
    result = _agg_search_shard(shard)
    assert result.tally == {"strict": 11, "equal": 1, "failing": 2, "undecided": 0}
    assert result.configs["equal"] == [extremal] and not result.inconsistencies
    assert all(isinstance(agg, AggConfig) for agg in result.configs["failing"])
    _flip_outcomes(monkeypatch, lambda o: Outcome.STRICTLY_GREATER if o is Outcome.EQUAL else o)
    assert _agg_search_shard(shard).inconsistencies == [extremal]


def test_regular_case_is_one_shard_call(monkeypatch):
    # the d-regular case is the d0 = d shard of the min-degree search and
    # nothing else: one _agg_search_shard call, its profiles read off the
    # shard's aggregates
    calls = []

    def spy(args):
        calls.append(args)
        return _agg_search_shard(args)

    monkeypatch.setattr(search, "_agg_search_shard", spy)
    report = verify_regular(3)
    assert calls == [(3, 3, 3, (3, 3, 3), 128, 8192)]
    assert report.passed and report.profiles == 7 and len(report.equalities) == 1


def test_searches_hand_their_windows_shards_to_the_worker(monkeypatch):
    # each search hands _agg_search_shard exactly the shards of the windows
    # stated by hand in _shards, in order: 50 for statement 2 at Delta = 4,
    # 31 for stage 1, and one, the window d..d, for each regular d
    calls = []

    def spy(args):
        calls.append(args)
        return search.ShardResult()

    def shards_of(run):
        calls.clear()
        run()
        return list(calls)

    monkeypatch.setattr(search, "_agg_search_shard", spy)
    statement2 = shards_of(lambda: verify_statement2(4, jobs=1))
    assert statement2 == [(*shard, 128, 8192) for shard in _shards(2)] and len(statement2) == 50
    stage1 = shards_of(lambda: verify_statement1_stage1(jobs=1))
    assert stage1 == [(*shard, 128, 8192) for shard in _shards(1)] and len(stage1) == 31
    for d in range(1, 6):
        assert shards_of(lambda: verify_regular(d)) == [(d, d, d, (d,) * d, 128, 8192)]


def test_regular_failing_aggregate_fails_the_report(monkeypatch):
    # one strict aggregate of the d = 3 shard read as failing fails the
    # regular case and is listed, by its profile, as its one violation
    first = next(agg for agg, vec in shard_aggregates(3, 3, 3, (3, 3, 3))
                 if vector_outcome(vec)[0] is Outcome.STRICTLY_GREATER)
    once = iter([True])
    _flip_outcomes(monkeypatch, lambda o: Outcome.STRICTLY_LESS
                   if o is Outcome.STRICTLY_GREATER and next(once, False) else o)
    report = verify_regular(3)
    assert not report.passed
    assert report.violations == (regular_profile(first),)
    assert not report.undecided and len(report.equalities) == 1


def test_search_jobs_below_one_rejected_and_none_is_default():
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs >= 1"):
            verify_statement2(1, jobs=jobs)
    assert verify_statement2(1).extra["jobs"] == default_jobs()


def test_default_jobs_counts_the_cpus_this_process_may_use(monkeypatch):
    # a process pinned to one CPU of a larger host gets one worker, read
    # from process_cpu_count where it exists, else from the affinity mask;
    # os.cpu_count, the whole host, is the last resort
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "process_cpu_count", lambda: 1, raising=False)
    assert default_jobs() == 1
    monkeypatch.delattr(os, "process_cpu_count")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    assert default_jobs() == 1
    assert verify_statement2(1).extra["jobs"] == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_jobs() == 64


def test_statement2_is_verified_up_to_its_max_degree():
    # the bound the CLI reads is the one the search enforces
    assert STATEMENT2_MAX_DEGREE == 4
    for delta in (0, STATEMENT2_MAX_DEGREE + 1):
        with pytest.raises(ValueError, match="delta in 1..4"):
            verify_statement2(delta, jobs=1)


def _no_worker_left():
    # every child this process forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_starts_no_more_workers_than_shards(monkeypatch):
    # stage 1 has 31 shards, so at jobs=1000 it runs 31 lanes of one shard:
    # the caller runs one and 30 forked workers the others, one lane each.
    # A worker's own calls of the spies touch only its copy of this process,
    # so the caller's lane is seen at _run_lane and each worker's at the
    # result the caller reads back
    forked, lanes = [], []  # the lanes forked, every lane run
    run_lane, fork_lane, lane_result = search._run_lane, search._fork_lane, search._lane_result

    def spy_lane(worker, lane):
        lanes.append(len(lane))
        return run_lane(worker, lane)

    def spy_fork(worker, lane, workers):
        forked.append(len(lane))
        fork_lane(worker, lane, workers)

    def spy_result(pid, status, data):
        result = lane_result(pid, status, data)
        lanes.append(len(result))
        return result

    monkeypatch.setattr(search, "_run_lane", spy_lane)
    monkeypatch.setattr(search, "_fork_lane", spy_fork)
    monkeypatch.setattr(search, "_lane_result", spy_result)
    report = verify_statement1_stage1(jobs=1000)
    assert forked == [1] * 30
    assert lanes == [1] * 31  # the caller's own lane and the 30 workers'
    assert sum(report.tally.values()) == report.configs_enumerated == 103_236
    assert report.extra["jobs"] == 1000
    _no_worker_left()

    def no_fork():
        raise AssertionError("a search at jobs=1 forked a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    lanes.clear()
    serial = verify_statement1_stage1(jobs=1)
    assert lanes == [31] and forked == [1] * 30
    assert _stripped(serial) == _stripped(report)


def test_lanes_run_in_the_caller_without_fork(monkeypatch):
    # where os.fork does not exist, every lane runs in the caller and the
    # report is the serial one
    lanes = []
    run_lane = search._run_lane

    def spy_lane(worker, lane):
        lanes.append(len(lane))
        return run_lane(worker, lane)

    serial = verify_statement1_stage1(jobs=1)
    monkeypatch.setattr(search, "_run_lane", spy_lane)
    monkeypatch.delattr(os, "fork")
    report = verify_statement1_stage1(jobs=2)
    assert lanes == [31] and report.extra["jobs"] == 2
    assert _stripped(report) == _stripped(serial)
    _no_worker_left()


def _patched_shard(monkeypatch, *, in_caller, in_worker):
    # stage 1's shard function, patched to call in_caller(args) in the
    # calling process and in_worker(args) in a forked worker first
    caller, shard = os.getpid(), search._agg_search_shard

    def patched(args):
        (in_caller if os.getpid() == caller else in_worker)(args)
        return shard(args)

    monkeypatch.setattr(search, "_agg_search_shard", patched)


def test_worker_exception_reaches_the_caller(monkeypatch):
    # an exception raised only in a worker's lane is raised again in the
    # caller, with its type and message, once the worker is reaped; at two
    # lanes the worker's first shard is stage 1's second, (5, 1, 1, (5,))
    def fail(args):
        raise ValueError(f"worker shard {args[:4]} failed")

    _patched_shard(monkeypatch, in_caller=lambda args: None, in_worker=fail)
    with pytest.raises(ValueError, match=r"^worker shard \(5, 1, 1, \(5,\)\) failed$") as info:
        verify_statement1_stage1(jobs=2)
    assert info.type is ValueError
    _no_worker_left()


def test_worker_package_exception_reaches_the_caller_as_itself(monkeypatch):
    # the package's exceptions survive the pipe: a NotBipartiteError raised
    # only in the worker's lane reaches the caller with its class, message
    # and witness, not as an error of unpickling it
    def fail(args):
        raise NotBipartiteError(f"worker shard {args[:4]}", (0, 1, 2, 0))

    _patched_shard(monkeypatch, in_caller=lambda args: None, in_worker=fail)
    with pytest.raises(NotBipartiteError, match=r"^worker shard \(5, 1, 1, \(5,\)\)$") as info:
        verify_statement1_stage1(jobs=2)
    assert info.type is NotBipartiteError and info.value.witness == (0, 1, 2, 0)
    _no_worker_left()


def _running(pid: int) -> bool:
    # the process exists and is not a zombie: an orphan's new parent may
    # reap it late
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
def test_orphaned_worker_stops():
    # a caller killed with SIGKILL runs no cleanup, so its worker checks
    # before each shard that its parent is still the caller.  The worker's
    # lane is 20 shards of 0.5 s; once the caller is killed in the first of
    # them, the worker must be gone within seconds, not at the end of its lane
    script = textwrap.dedent("""
        import os, time
        from indbound import search
        caller = os.getpid()

        def shard(args):
            if os.getpid() != caller and args == 1:  # the worker's first shard
                print(os.getpid(), flush=True)
            time.sleep(0.5)
            return search.ShardResult()

        search._run_shards(list(range(40)), shard, 2)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(search.__file__).parent.parent))
    child = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                             stdout=subprocess.PIPE)
    watchdog = threading.Timer(60, child.kill)
    watchdog.start()
    worker = None
    try:
        worker = int(child.stdout.readline())
        child.kill()
        child.wait()
        deadline = time.monotonic() + 5
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(worker), "the orphaned worker still runs its lane"
    finally:
        watchdog.cancel()
        if worker is not None and _running(worker):
            os.kill(worker, signal.SIGKILL)
        child.kill()
        child.wait()
        child.stdout.close()


def test_workers_ignore_sigint(monkeypatch):
    # an interrupt sent to a worker alone does not end its lane: each of the
    # worker's shards sends itself SIGINT, and the run gives the serial report
    serial = verify_statement1_stage1(jobs=1)
    _patched_shard(monkeypatch, in_caller=lambda args: None,
                   in_worker=lambda args: os.kill(os.getpid(), signal.SIGINT))
    assert _stripped(verify_statement1_stage1(jobs=2)) == _stripped(serial)
    _no_worker_left()


def test_caller_lane_exception_kills_the_workers(monkeypatch):
    # an exception in the caller's own lane leaves at once: the worker, a
    # minute into its first shard, is killed and reaped, not waited for
    def fail(args):
        raise ValueError("caller shard failed")

    _patched_shard(monkeypatch, in_caller=fail, in_worker=lambda args: time.sleep(60))
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="^caller shard failed$"):
        verify_statement1_stage1(jobs=2)
    assert time.monotonic() - t0 < 5
    _no_worker_left()


def test_config_automorphisms_match_brute_force():
    # the level-2 permutations sigma for which some degree-preserving level-1
    # permutation pi maps each record i onto record sigma(i)
    rng = random.Random(57)
    configs = [cfg for cfg, _ in FAILING_PATTERNS]
    configs += [c for c in (random_config(rng, 4, 5) for _ in range(300)) if len(c.l2) <= 7]
    for cfg in configs:
        records = cfg.l2
        group = set()
        for pi in itertools.permutations(range(cfg.d0)):
            if any(cfg.l1_degrees[pi[u]] != d for u, d in enumerate(cfg.l1_degrees)):
                continue
            mapped = [(b, tuple(sorted(pi[u] for u in nbrs))) for b, nbrs in records]
            group.update(
                sigma for sigma in itertools.permutations(range(len(records)))
                if all(mapped[i] == records[q] for i, q in enumerate(sigma))
            )
        assert _config_automorphisms(cfg) == sorted(group), cfg


def _stripped(report) -> dict:
    out = report.to_json()
    out.pop("timing")
    out.pop("jobs", None)
    return out


def test_parallel_determinism_statement2():
    # 15 and 50 shards: two lanes split the first unevenly, three the second
    for delta in (3, 4):
        a, b, c = (_stripped(verify_statement2(delta, jobs=jobs)) for jobs in (1, 2, 3))
        assert a == b == c


def test_parallel_determinism_stage1():
    # 31 shards: neither two nor three lanes divide them evenly
    a, b, c = (_stripped(verify_statement1_stage1(jobs=jobs)) for jobs in (1, 2, 3))
    assert a == b == c


def test_stage2_completions_path_pattern():
    # the path pattern: the new root has degree 2, the old root keeps degree
    # 1, and the one free endpoint ranges over degrees 1..5
    pattern = LocalConfig(5, 1, (2,), ((2, (0,)),))
    completions = list(stage2_completions(pattern, 0))
    assert len(completions) == 5
    for cfg in completions:
        validate_config(cfg)
        assert cfg.d0 == 2 and cfg.l1_degrees == (1, 2)
        assert config_outcome(cfg)[0] == Outcome.STRICTLY_GREATER


def test_stage2_on_known_patterns():
    report = verify_statement1_stage2([cfg for cfg, _ in FAILING_PATTERNS])
    assert report.passed
    assert report.tally["equal"] == 0 and report.tally["failing"] == 0
    assert report.tally["undecided"] == 0
    assert report.extra["rootings"] == sum(cfg.d0 for cfg, _ in FAILING_PATTERNS)
    assert report.configs_enumerated == 160
    assert report.configs_after_dedup == 129


def test_stage2_without_patterns_passes():
    # no pattern leaves nothing to clear: no failing, equal or undecided
    # completion, so the empty stage passes with nothing tallied
    report = verify_statement1_stage2([])
    assert report.passed and report.to_json()["verdict"] == "PASS"
    assert report.tally == {"strict": 0, "equal": 0, "failing": 0, "undecided": 0}
    assert report.configs_enumerated == 0 and report.precision_stats == {}
    assert report.extra["patterns"] == 0 and report.extra["rootings"] == 0


@pytest.mark.parametrize("start, stats", [
    (128, {("interval", 128): 129}),
    (8, {("interval", 8): 122, ("interval", 16): 7}),
    (4, {("interval", 8): 122, ("interval", 16): 7}),
    (2, {("interval", 8): 122, ("interval", 16): 7}),
])
def test_stage2_tally_and_routes_are_pinned(start, stats):
    # stage 2 decides from carried pieces where it can, with the route
    # config_outcome would report, so its tally and precision_stats are
    # those of certifying every distinct completion through config_outcome
    report = verify_statement1_stage2([cfg for cfg, _ in FAILING_PATTERNS], precision_start=start)
    assert report.tally == {"strict": 129, "equal": 0, "failing": 0, "undecided": 0}
    assert report.precision_stats == stats
    assert report.configs_enumerated == 160 and report.passed


@pytest.mark.parametrize("start, carried", [(128, 129), (8, 13)])
def test_stage2_decides_from_carried_pieces_only_below_the_limit(monkeypatch, start, carried):
    # a distinct completion whose carried bounds sum below carried_limit is
    # one vector_outcome decides strict by intervals at the start precision,
    # through the vector of its aggregate, so the shard may tally it so
    # without asking.  At a limit equal to one completion's hx + hy the
    # shard must ask vector_outcome about it, and at one above it must not
    below = []
    for pattern, _ in FAILING_PATTERNS:
        for x1 in range(pattern.d0):
            seen = set()
            for cfg in stage2_completions(pattern, x1):
                key = canonical_tuple(cfg)
                if key in seen:
                    continue
                seen.add(key)
                vec, hx, hy = _completion_piece(cfg, start)
                assert vec == agg_vector(aggregate_of_config(cfg))
                if hx + hy < carried_limit(start):
                    assert vector_outcome(vec, start)[:3] == \
                        (Outcome.STRICTLY_GREATER, "interval", start)
                    below.append((pattern, x1, vec, hx + hy))
    assert len(below) == carried
    pattern, x1, vec, h = below[-1]
    asked = []

    def spy(v, *args):
        asked.append(v)
        return vector_outcome(v, *args)

    monkeypatch.setattr(products, "vector_outcome", spy)
    for limit, asks in ((h, True), (h + 1, False)):
        monkeypatch.setattr(products, "carried_limit", lambda prec, limit=limit: limit)
        asked.clear()
        shard = search._stage2_shard((pattern, x1, start, PRECISION_CAP))
        assert (vec in asked) is asks, limit - h
        assert shard.tally["strict"] == sum(shard.tally.values())


def test_stage2_runs_in_the_calling_process(monkeypatch):
    # stage 2 takes too little time for a forked lane to shorten, so it
    # forks nothing, whatever the default worker count
    def no_fork():
        raise AssertionError("stage 2 forked a worker")

    monkeypatch.setattr(search, "default_jobs", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    report = verify_statement1_stage2([cfg for cfg, _ in FAILING_PATTERNS])
    assert report.passed and report.extra["jobs"] == 1
    assert report.configs_after_dedup == 129


def test_stage2_min_degree_constraint():
    # all completions of a degree-2-rooted pattern stay at degrees >= 2
    pattern = LocalConfig(5, 2, (2, 2), ((3, (0, 1)),))
    for cfg in stage2_completions(pattern, 0):
        assert all(d >= 2 for d in cfg.l1_degrees[1:])  # the old root keeps d0
        assert all(b >= 2 for b, _ in cfg.l2)


def test_stage2_rejects_bad_index():
    with pytest.raises(ValueError):
        next(stage2_completions(LocalConfig(5, 1, (2,), ((2, (0,)),)), 1))


def _random_pattern_realization(rng, pattern):
    """A random graph containing the pattern at root 0: free identification
    of its level-3 edge endpoints and free endpoint degrees in
    [max(m, d0), 5]; deeper structure is invisible to any level-1 rooting."""
    from indbound.graphs import from_edges

    d0 = pattern.d0
    edges = [(0, u) for u in range(1, 1 + d0)]
    nxt = 1 + d0
    l2 = []
    for b, nbrs in pattern.l2:
        v = nxt
        nxt += 1
        l2.append(v)
        edges.extend((1 + u, v) for u in nbrs)
    incidences = []
    for j, (b, nbrs) in enumerate(pattern.l2):
        incidences.extend([l2[j]] * (b - len(nbrs)))
    rng.shuffle(incidences)
    w_adj: dict[int, list[int]] = {}
    for v in incidences:
        options = [w for w in w_adj if v not in w_adj[w] and len(w_adj[w]) < 5]
        if options and rng.random() < 0.5:
            w = rng.choice(options)
        else:
            w = nxt
            nxt += 1
            w_adj[w] = []
        w_adj[w].append(v)
        edges.append((v, w))
    for w, nbrs in w_adj.items():
        target = rng.randint(max(len(nbrs), d0), 5)
        for _ in range(target - len(nbrs)):
            edges.append((w, nxt))
            nxt += 1
    return from_edges(nxt, edges)


def test_stage2_completions_cover_random_realizations():
    # the configuration extracted at any neighbor of the failed root, in any
    # graph containing the pattern, appears among the enumerated completions
    rng = random.Random(99)
    for pattern, _ in FAILING_PATTERNS:
        completion_keys = {
            x1: {canonical_tuple(c) for c in stage2_completions(pattern, x1)}
            for x1 in range(pattern.d0)
        }
        for _ in range(60):
            g = _random_pattern_realization(rng, pattern)
            assert canonical_tuple(extract_config(g, 0, 5)) == canonical_tuple(pattern)
            for x1 in range(pattern.d0):
                q = extract_config(g, 1 + x1, 5)
                assert canonical_tuple(q) in completion_keys[x1]


@pytest.mark.slow
def test_stage1_full_search(stage1_report):
    report = stage1_report
    assert report.passed
    assert report.tally["failing"] == 9 and report.tally["undecided"] == 0
    assert report.extra["appearances"] == 14
    assert report.extra["appearances_match_expected"]
    found = {canonical_tuple(c) for c in report.exceptional_patterns}
    assert found == {canonical_tuple(c) for c, _ in FAILING_PATTERNS}
    assert all(config_is_extremal(c) for c in report.equality_patterns)
