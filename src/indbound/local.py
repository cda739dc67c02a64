"""Rooted local configurations.

A LocalConfig is the radius-2 data around a root x that determines the
reduced goodness inequality once every level-3 vertex is padded up to the
class degree bound delta_eff: the root degree, the level-1 degrees, the
level-1/level-2 bipartite adjacency, and each level-2 vertex's total degree
(its level-3 edge count is the difference).  Padding is sound because
raising a level-3 degree can only make the inequality harder to satisfy.

canonical_form is the one canonical pass over level-1 relabelings: it gives
both the canonical key and the automorphisms used by appearance expansion.
record_multisets is the one enumerator of multisets of level-2 records: the
searches' degree-class aggregates use it with class vectors capped by the
class sizes and the pieces is_good uses (products.level2_piece and
root_piece), carrying upper bounds of the ratios of their A/B/C vectors
record by record (a spread of c copies of a record from one of c - 1); it
returns the leaves these bounds leave and the count of those they decide,
a leaf at a time or in whole subtrees.  A labeled record (b, subset) is
the same thing over one-vertex classes, so stage 2 and appearance
expansion use it with unit pieces and caps, no limit and so no pruning,
and read the subset off the 0/1 class vector.
The labeled per-vertex model, every canonical configuration of a root degree,
is built only in the tests (tests/test_search.py), where the degree-class
aggregates of the searches are checked against it; so is the round trip
between configurations and concrete graphs (tests/conftest.py).
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Sequence

# level-2 record: (total degree b, sorted tuple of level-1 indices)
Record = tuple[int, tuple[int, ...]]


def record_multisets(
    quotas: Sequence[int],
    caps: Sequence[int],
    b_lo: int,
    b_hi: int,
    piece: Callable[[int, tuple[int, ...]], tuple[int, int, int]] | None = None,
    root: tuple[int, int, int] | None = None,
    scale: int = 0,
    limit: int = 0,
) -> tuple[list[tuple[tuple, int, int, int]], int]:
    """Every multiset of level-2 records (b, cvec) whose class vectors sum
    to `quotas`, each record with a nonzero cvec, cvec[i] <= caps[i] and
    max(|cvec|, b_lo) <= b <= b_hi, in a deterministic order without
    duplicates.  Each record has a piece(b, cvec) = (weight, ru, rv), and
    the root a piece (weight, ru, rv); without them every piece is the unit
    (0, 1, 1) at scale 2^-scale.  A leaf is (records, total, u, v): the
    records as ((b, cvec), multiplicity) pairs, unsorted (by class vector,
    then b); total, the root's weight plus every copy's; and upper bounds
    u, v at scale 2^-scale of two functions that turn sums of weights into
    products (the ratios of an A/B/C vector): the root's ru, rv times those
    of every copy of every record, every product rounded up.  A spread
    option of c copies is one of c - 1 times the last copy's, the recursion
    the options' products.

    Skeleton first: the multiset of class vectors is a vector partition of
    the quotas; each chosen class vector's multiplicity is then spread over
    its admissible b.  A node of the recursion (a class vector to start
    from and a remainder of the quotas) is one record, built once per call
    and walked by reference: its moves, each to a child node with its
    spread options, the largest products max_u, max_v of bounds over its
    completions (every product rounded up) and its number of leaves.  The
    empty remainder is the leaf node: no moves, max_u and max_v the unit
    bound 1 and one leaf.  A move is kept only when its child has a leaf,
    so partial partitions that cannot be completed are never entered.  Each
    spread's options with their largest bounds are computed once per call,
    on first use, from one piece call per admissible b.

    With a limit above 0, weights are A/B/C vectors, and what their bounds
    decide is counted, not listed: a child of a node, with carried u, v,
    as its number of leaves and without being entered, when
    ceil(u max_u) + ceil(v max_v) < limit; at the leaf node that is
    u + v < limit.  For limit = products.carried_limit(p) each is strict by
    intervals at p (see its proof).  Returns (leaves, decided): the leaves
    not decided, in order, and the count of those decided.  With limit 0
    every leaf is listed."""
    unit = (0, 1 << scale, 1 << scale)
    piece = piece or (lambda b, cvec: unit)
    cvecs = [
        cvec
        for cvec in itertools.product(*(range(min(cap, q) + 1) for cap, q in zip(caps, quotas)))
        if sum(cvec) and max(sum(cvec), b_lo) <= b_hi
    ]

    spreads: dict[tuple[tuple[int, ...], int], tuple[list, int, int]] = {}
    no_copies = [((), *unit)]  # the one option of 0 copies

    def spread(cvec: tuple[int, ...], c: int) -> tuple[list, int, int]:
        """(options, max_u, max_v): an option (records, weight, u, v) for
        every way to give c copies of cvec admissible degrees b, each way for
        c - 1 copies, in order, with a last copy of each b at least theirs,
        and the options' largest u and v."""
        if (cvec, c) not in spreads:
            first = max(sum(cvec), b_lo)
            pieces = [piece(b, cvec) for b in range(first, b_hi + 1)]
            out = []
            for recs, w, u, v in spread(cvec, c - 1)[0] if c > 1 else no_copies:
                last = recs[-1][0][0] if recs else first
                for b in range(last, b_hi + 1):
                    rw, ru, rv = pieces[b - first]
                    more = (recs[:-1] + (((b, cvec), recs[-1][1] + 1),) if recs and b == last
                            else recs + (((b, cvec), 1),))
                    out.append((more, w + rw, -(-u * ru >> scale), -(-v * rv >> scale)))
            spreads[cvec, c] = (out, max(option[2] for option in out),
                                max(option[3] for option in out))
        return spreads[cvec, c]

    leaf = [(), *unit[1:], 1]  # the empty product, one leaf
    nodes: dict[tuple[int, tuple[int, ...]], list] = {}
    found: list[tuple[tuple, int, int, int]] = []  # the leaves not decided, in order

    def node(start: int, rem: tuple[int, ...]) -> list:
        """[moves, max_u, max_v, leaves] of a node with a nonempty remainder:
        (child, options) for every c copies of a class vector j >= start
        whose child, from j + 1 on, has a leaf."""
        key = (start, rem)
        if key not in nodes:
            out, mu, mv, n = [], 0, 0, 0
            for j in range(start, len(cvecs)):
                cvec = cvecs[j]
                for c in range(1, min(r // x for r, x in zip(rem, cvec) if x) + 1):
                    nrem = tuple(r - c * x for r, x in zip(rem, cvec))
                    child = node(j + 1, nrem) if any(nrem) else leaf
                    if child[3]:
                        options, ou, ov = spread(cvec, c)
                        mu, mv = max(mu, -(-ou * child[1] >> scale)), max(mv, -(-ov * child[2] >> scale))
                        n += len(options) * child[3]
                        out.append((child, options))
            nodes[key] = [out, mu, mv, n]
        return nodes[key]

    def rec(nd: list, records: tuple, total: int, nu: int, nv: int) -> int:
        """How many leaves under nd are decided; the others go to found.
        nu, nv = -u, -v, so each floor is minus a ceiling."""
        counted = 0
        for child, options in nd[0]:
            for recs, w, ou, ov in options:
                cu, cv = nu * ou >> scale, nv * ov >> scale
                if limit and (cu * child[1] >> scale) + (cv * child[2] >> scale) > -limit:
                    counted += child[3]
                elif child is leaf:
                    found.append((records + recs, total + w, -cu, -cv))
                else:
                    counted += rec(child, records + recs, total + w, cu, cv)
        return counted

    total, u, v = root or unit
    top = node(0, tuple(quotas)) if any(quotas) else [[(leaf, no_copies)]]  # or the empty multiset
    try:
        counted = rec(top, (), total, -u, -v)
    finally:  # the closures form a cycle: free the memos now, not at the next collection
        for memo in (spreads, nodes):
            memo.clear()
    return found, counted


class LocalConfig(NamedTuple):
    delta_eff: int
    d0: int
    l1_degrees: tuple[int, ...]
    l2: tuple[Record, ...]

    def t_counts(self) -> tuple[int, ...]:
        return tuple(b - len(nbrs) for b, nbrs in self.l2)


def canonical_form(cfg: LocalConfig):
    """The relabeling-invariant key of a configuration, with every level-1
    relabeling that reaches it (pos[old] = new).  The key has the level-1
    degrees non-increasing and the least sorted level-2 records; only the
    degree-sorting relabelings are tried, each equal-degree block permuted
    within itself."""
    order = sorted(range(cfg.d0), key=lambda u: -cfg.l1_degrees[u])
    blocks = [list(block) for _, block in itertools.groupby(order, cfg.l1_degrees.__getitem__)]
    best, reach = None, []
    for choice in itertools.product(*map(itertools.permutations, blocks)):
        pos = [0] * cfg.d0
        for new, old in enumerate(itertools.chain.from_iterable(choice)):
            pos[old] = new
        records = tuple(sorted((b, tuple(sorted(pos[u] for u in nbrs))) for b, nbrs in cfg.l2))
        if best is None or records < best:
            best, reach = records, [pos]
        elif records == best:
            reach.append(pos)
    degrees = tuple(cfg.l1_degrees[u] for u in order)
    return (cfg.delta_eff, cfg.d0, degrees, best), reach


def canonical_tuple(cfg: LocalConfig):
    return canonical_form(cfg)[0]


def config_describe(cfg: LocalConfig) -> str:
    if cfg.d0 == 0:
        return "isolated root"
    parts = [f"root degree {cfg.d0}", f"level-1 degrees {list(cfg.l1_degrees)}"]
    if cfg.l2:
        recs = ", ".join(
            f"(b={b}, N={set(nbrs)}, t={b - len(nbrs)})" for b, nbrs in cfg.l2
        )
        parts.append(f"level-2 [{recs}]")
    parts.append(f"level-3 padded to {cfg.delta_eff}")
    return "; ".join(parts)


# --- expansion of a failing configuration into level-0..3 appearances -------


def _config_automorphisms(cfg: LocalConfig) -> list[tuple[int, ...]]:
    """The full group of level-2 index permutations realizable by a
    configuration automorphism (a level-1 relabeling preserving degrees plus
    any matching between equal records).  The level-1 automorphisms are
    reach[0]^-1 . pos over the relabelings reaching the canonical form."""
    _, reach = canonical_form(cfg)
    back = [0] * cfg.d0
    for old, new in enumerate(reach[0]):
        back[new] = old
    pools: dict[Record, list[int]] = {}
    for idx, rec in enumerate(cfg.l2):
        pools.setdefault(rec, []).append(idx)
    autos: set[tuple[int, ...]] = set()
    for pos in reach:
        need: dict[Record, list[int]] = {}
        for idx, (b, nbrs) in enumerate(cfg.l2):
            need.setdefault((b, tuple(sorted(back[pos[u]] for u in nbrs))), []).append(idx)
        per_class = [
            [tuple(zip(targets, sp)) for sp in itertools.permutations(pools[rec])]
            for rec, targets in need.items()
        ]
        for combo in itertools.product(*per_class):
            sigma = [0] * len(cfg.l2)
            for pairs in combo:
                for i, q in pairs:
                    sigma[i] = q
            autos.add(tuple(sigma))
    return sorted(autos)


class Appearance(NamedTuple):
    """The induced levels-0..3 subgraph of one realization of a failing
    configuration: which level-3 endpoints coincide is not determined by the
    configuration, so one configuration can have several appearances."""

    config: LocalConfig
    level3_neighborhoods: tuple[tuple[int, ...], ...]  # per level-3 vertex, sorted l2 indices

    def leveled_graph(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]:
        """(levels, edges) with vertices 0..n-1 and the root at level 0."""
        cfg = self.config
        l1 = tuple(range(1, 1 + cfg.d0))
        l2 = tuple(range(1 + cfg.d0, 1 + cfg.d0 + len(cfg.l2)))
        l3 = tuple(
            range(1 + cfg.d0 + len(cfg.l2), 1 + cfg.d0 + len(cfg.l2) + len(self.level3_neighborhoods))
        )
        edges = [(0, v) for v in l1]
        for j, (b, nbrs) in enumerate(cfg.l2):
            for u in nbrs:
                edges.append((l1[u], l2[j]))
        for w, nbhd in enumerate(self.level3_neighborhoods):
            for j in nbhd:
                edges.append((l2[j], l3[w]))
        levels = tuple(lv for lv in ((0,), l1, l2, l3) if lv)
        return levels, tuple(sorted(edges))


def expand_appearances(cfg: LocalConfig) -> list[Appearance]:
    """All distinct level-3 endpoint identifications of a configuration, up
    to its automorphisms."""
    quotas = list(cfg.t_counts())
    if not any(quotas):
        return [Appearance(cfg, ())]
    autos = _config_automorphisms(cfg)
    seen = set()
    out = []
    # each level-3 vertex is a record whose 0/1 class vector marks its
    # level-2 neighbors (one-vertex classes); with b_lo = b_hi = k every
    # class vector has exactly one admissible b
    k = len(quotas)
    for records, *_ in record_multisets(quotas, [1] * k, k, k)[0]:
        subsets = [tuple(j for j, x in enumerate(cvec) if x)
                   for (_, cvec), cnt in records for _ in range(cnt)]
        key = min(
            tuple(sorted(tuple(sorted(auto[j] for j in sub)) for sub in subsets))
            for auto in autos
        )
        if key in seen:
            continue
        seen.add(key)
        out.append(Appearance(cfg, key))
    out.sort(key=lambda ap: ap.level3_neighborhoods)
    return out


def leveled_canonical(
    levels: tuple[tuple[int, ...], ...], edges: tuple[tuple[int, int], ...]
) -> bytes:
    """Canonical key of a leveled rooted graph under level-preserving
    relabelings (levels are small, so brute force over per-level orders)."""
    adjacency: dict[int, set[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    best = None
    pools = [list(itertools.permutations(lv)) for lv in levels]
    for choice in itertools.product(*pools):
        relabel = {}
        counter = 0
        for lv in choice:
            for v in lv:
                relabel[v] = counter
                counter += 1
        enc = tuple(
            sorted(tuple(sorted((relabel[u], relabel[v]))) for u, v in edges)
        )
        if best is None or enc < best:
            best = enc
    sizes = tuple(len(lv) for lv in levels)
    return repr((sizes, best)).encode()
