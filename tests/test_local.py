import random

import pytest

from conftest import (
    canonical_config,
    config_is_extremal,
    extract_config,
    realize_config,
    validate_config,
    vector_terms,
)
from indbound.goodness import goodness_vector, is_good, is_good_fullgraph
from indbound.graphs import level_decomposition
from indbound.local import LocalConfig, canonical_tuple, expand_appearances, leveled_canonical
from indbound.products import _SEARCH_DEN, FactorProduct, Outcome
from indbound.search import agg_vector, aggregate_of_config, config_outcome
from indbound.selftest import random_bipartite_max_degree

FIG1_CONFIG = LocalConfig(4, 1, (2,), ((2, (0,)),))

# the nine failing patterns of the degree-5 minimum-degree search, with the
# number of level-0..3 appearances each expands to (fourteen in total)
FAILING_PATTERNS = [
    (LocalConfig(5, 1, (2,), ((2, (0,)),)), 1),
    (LocalConfig(5, 1, (3,), ((1, (0,)), (2, (0,)))), 1),
    (LocalConfig(5, 1, (3,), ((2, (0,)), (2, (0,)))), 2),
    (LocalConfig(5, 2, (2, 2), ((3, (0,)), (3, (1,)))), 3),
    (LocalConfig(5, 2, (2, 2), ((3, (0, 1)),)), 1),
    (LocalConfig(5, 2, (3, 3), ((2, (0, 1)), (3, (0, 1)))), 1),
    (LocalConfig(5, 2, (3, 3), ((3, (0, 1)), (3, (0, 1)))), 2),
    (LocalConfig(5, 3, (3, 3, 3), ((3, (0, 1, 2)), (4, (0, 1, 2)))), 1),
    (LocalConfig(5, 3, (3, 3, 3), ((4, (0, 1, 2)), (4, (0, 1, 2)))), 2),
]


def random_config(rng: random.Random, d0_max: int, dmax: int) -> LocalConfig:
    d0 = rng.randint(0, d0_max)
    degs = tuple(rng.randint(max(1, d0), dmax) for _ in range(d0))
    caps = [d - 1 for d in degs]
    recs = []
    while any(caps):
        avail = [u for u in range(d0) if caps[u] > 0]
        m = rng.randint(1, len(avail))
        nbrs = tuple(sorted(rng.sample(avail, m)))
        b = rng.randint(max(m, d0), dmax)
        recs.append((b, nbrs))
        for u in nbrs:
            caps[u] -= 1
    return LocalConfig(dmax, d0, degs, tuple(sorted(recs)))


def test_validation_rejects_bad_configs():
    with pytest.raises(ValueError):
        validate_config(LocalConfig(5, 1, (2, 2), ()))  # wrong arity
    with pytest.raises(ValueError):
        validate_config(LocalConfig(5, 1, (2,), ()))  # upward edge unaccounted
    with pytest.raises(ValueError):
        validate_config(LocalConfig(5, 1, (2,), ((1, (0, 0)),)))  # duplicate neighbor
    with pytest.raises(ValueError):
        validate_config(LocalConfig(5, 1, (2,), ((6, (0,)),)))  # degree above bound
    with pytest.raises(ValueError):
        validate_config(LocalConfig(5, 0, (), ((2, (0,)),)))


def test_pad_level3_changes_e23_factor():
    # with one level-2 vertex (b=2, m=1) the single outgoing edge, padded to
    # delta_eff, contributes f(2, delta_eff) to A and B, f(1, delta_eff) to C
    for delta in (4, 5):
        cfg = LocalConfig(delta, 1, (2,), ((2, (0,)),))
        expected = (
            FactorProduct.from_f_counts({(1, 2): 1, (2, 2): 1, (2, delta): 1}),
            FactorProduct.from_f_counts({(1, 2): 1, (2, delta): 1}),
            FactorProduct.from_f_counts({(1, delta): 1}),
        )
        terms = vector_terms(agg_vector(aggregate_of_config(cfg)))
        for got, want in zip(terms, expected):
            assert got == {p: int(e * _SEARCH_DEN) for p, e in want.exponents()}


def test_config_goodness_examples():
    for d in range(1, 6):
        cfg = LocalConfig(d, d, (d,) * d, tuple((d, tuple(range(d))) for _ in range(d - 1)))
        assert config_outcome(cfg)[0] == Outcome.EQUAL
    assert config_outcome(FIG1_CONFIG)[0] == Outcome.STRICTLY_LESS
    assert config_outcome(LocalConfig(0, 0, (), ()))[0] == Outcome.EQUAL


def test_failing_patterns_certify_strictly_less():
    for cfg, _ in FAILING_PATTERNS:
        validate_config(cfg)
        assert config_outcome(cfg)[0] == Outcome.STRICTLY_LESS
        assert is_good(realize_config(cfg), 0).outcome == Outcome.STRICTLY_LESS


def test_expansion_counts_total_fourteen():
    total = 0
    keys = set()
    for cfg, want in FAILING_PATTERNS:
        apps = expand_appearances(cfg)
        assert len(apps) == want, (cfg, [a.level3_neighborhoods for a in apps])
        total += len(apps)
        for ap in apps:
            keys.add(leveled_canonical(*ap.leveled_graph()))
    assert total == 14 == len(keys)


def test_expansion_matches_reference_appearances():
    from indbound.reference import expected_appearance_keys

    keys = set()
    for cfg, _ in FAILING_PATTERNS:
        for ap in expand_appearances(cfg):
            keys.add(leveled_canonical(*ap.leveled_graph()))
    assert keys == expected_appearance_keys()


def test_canonical_form_invariance_random_relabelings():
    rng = random.Random(51)
    for _ in range(500):
        cfg = random_config(rng, 4, 5)
        validate_config(cfg)
        d0 = cfg.d0
        perm = list(range(d0))
        rng.shuffle(perm)
        degs2 = [0] * d0
        for old in range(d0):
            degs2[perm[old]] = cfg.l1_degrees[old]
        recs2 = [(b, tuple(sorted(perm[u] for u in nbrs))) for b, nbrs in cfg.l2]
        rng.shuffle(recs2)
        cfg2 = LocalConfig(cfg.delta_eff, d0, tuple(degs2), tuple(recs2))
        assert canonical_tuple(cfg) == canonical_tuple(cfg2)


def test_canonical_form_distinguishes():
    a = LocalConfig(5, 2, (3, 3), ((2, (0, 1)), (3, (0, 1))))
    b = LocalConfig(5, 2, (3, 3), ((3, (0, 1)), (3, (0, 1))))
    assert canonical_tuple(a) != canonical_tuple(b)
    # differing only in one level-2 degree
    c = LocalConfig(5, 1, (2,), ((2, (0,)),))
    d = LocalConfig(5, 1, (2,), ((3, (0,)),))
    assert canonical_tuple(c) != canonical_tuple(d)


def test_canonical_collision_implies_isomorphism():
    # reconstruct an explicit level-1 relabeling between configs that share a
    # canonical form
    import itertools

    rng = random.Random(52)
    for _ in range(200):
        cfg = random_config(rng, 3, 4)
        d0 = cfg.d0
        perm = list(range(d0))
        rng.shuffle(perm)
        degs2 = [0] * d0
        for old in range(d0):
            degs2[perm[old]] = cfg.l1_degrees[old]
        recs2 = [(b, tuple(sorted(perm[u] for u in nbrs))) for b, nbrs in cfg.l2]
        cfg2 = LocalConfig(cfg.delta_eff, d0, tuple(degs2), tuple(sorted(recs2)))
        assert canonical_tuple(cfg) == canonical_tuple(cfg2)
        found = False
        for candidate in itertools.permutations(range(d0)):
            mapped = sorted(
                (b, tuple(sorted(candidate[u] for u in nbrs))) for b, nbrs in cfg.l2
            )
            degs_mapped = [0] * d0
            for old in range(d0):
                degs_mapped[candidate[old]] = cfg.l1_degrees[old]
            if tuple(degs_mapped) == cfg2.l1_degrees and mapped == sorted(cfg2.l2):
                found = True
                break
        assert found


def test_realization_roundtrip_and_verdict_agreement():
    rng = random.Random(53)
    for _ in range(400):
        cfg = random_config(rng, 3, 4)
        validate_config(cfg)
        g = realize_config(cfg)
        back = extract_config(g, 0, cfg.delta_eff)
        assert canonical_tuple(back) == canonical_tuple(cfg)
        # level 3 is padded exactly, so both routes build the same vector
        assert goodness_vector(g, level_decomposition(g, 0))[0] == agg_vector(aggregate_of_config(cfg))
        outcome = config_outcome(cfg)[0]
        assert is_good(g, 0).outcome == outcome
        assert is_good_fullgraph(g, 0).outcome == outcome
        assert config_is_extremal(cfg) == (outcome == Outcome.EQUAL)


def test_extraction_from_random_graphs_agrees_with_padding():
    # extract + padded certify says good only when the padded realization is
    # good, and padded good implies the unpadded graph is good
    rng = random.Random(54)
    for _ in range(300):
        g = random_bipartite_max_degree(rng, rng.randint(1, 5), rng.randint(1, 5),
                                        rng.uniform(0.3, 0.9), 5)
        x = rng.randrange(g.n)
        cfg = extract_config(g, x, 5)
        padded = config_outcome(cfg)[0]
        realized = realize_config(cfg)
        assert is_good(realized, 0).outcome == padded
        if padded.is_good():
            assert is_good(g, x).outcome.is_good()


def test_padding_monotone_under_level3_degree_reduction():
    # removing a pendant leaf lowers one level-3 degree; a strictly good
    # padded configuration stays good on the reduced graph
    rng = random.Random(55)
    from indbound.graphs import induced_subgraph

    checked = 0
    for _ in range(300):
        cfg = random_config(rng, 3, 4)
        if config_outcome(cfg)[0] != Outcome.STRICTLY_GREATER:
            continue
        g = realize_config(cfg)
        leaves = [v for v in range(g.n) if len(g.adjacency[v]) == 1 and v > cfg.d0 + len(cfg.l2)]
        if not leaves:
            continue
        reduced = induced_subgraph(g, [v for v in range(g.n) if v != leaves[-1]])
        assert is_good(reduced, 0).outcome.is_good()
        checked += 1
    assert checked > 20


def test_canonical_config_is_fixed_point():
    rng = random.Random(56)
    for _ in range(100):
        cfg = canonical_config(random_config(rng, 4, 5))
        assert canonical_config(cfg) == cfg
