"""The value semantics callers rely on: which types compare and hash by
value, which are immutable, and what survives the fork pipe's pickling."""

import pickle

import pytest

from indbound.goodness import check_kahn_bound
from indbound.graphs import bipartition, from_edges, level_decomposition
from indbound.local import LocalConfig, expand_appearances
from indbound.products import FactorProduct, Outcome, Verdict, check_f_fact
from indbound.reports import CertificateDocument, RunConfig
from indbound.search import AggConfig, ShardResult, verify_regular, verify_statement2


def _agg(size: int = 2) -> AggConfig:
    return AggConfig.of(5, size, (2,) * size, [((size, (size,)), 1)])


def _local(b: int = 2) -> LocalConfig:
    return LocalConfig(5, 1, (2,), ((b, (0,)),))


@pytest.mark.parametrize("make, other", [
    (_agg, lambda: _agg(3)),
    (_local, lambda: _local(3)),
    (lambda: from_edges(3, [(0, 1), (1, 2)]), lambda: from_edges(3, [(0, 1)])),
], ids=["AggConfig", "LocalConfig", "Graph"])
def test_set_and_dict_keys_compare_and_hash_by_value(make, other):
    # the searches keep aggregates and configurations in sets and dicts, and
    # equal graphs compare and hash identically: two separately built equal
    # values are one key
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: 1}[b] == 1
    assert a != other() and other() not in {a}


def _frozen_values():
    g = from_edges(3, [(0, 1), (1, 2)])
    cfg = _local()
    return {
        "Verdict": check_kahn_bound(g).verdict,
        "FFactReport": check_f_fact(2),
        "Graph": g,
        "Bipartition": bipartition(g),
        "LevelDecomposition": level_decomposition(g, 0),
        "LocalConfig": cfg,
        "Appearance": expand_appearances(cfg)[0],
        "AggConfig": _agg(),
        "SearchReport": verify_statement2(2, jobs=1),
        "RegularReport": verify_regular(2),
        "BoundCheckReport": check_kahn_bound(g),
    }


@pytest.mark.parametrize("name", list(_frozen_values()))
def test_frozen_types_reject_assignment(name):
    value = _frozen_values()[name]
    assert type(value).__name__ == name
    first = next(k for k in ("outcome", "delta", "n", "side", "root", "delta_eff", "config",
                             "statement", "d") if hasattr(value, k))
    before = getattr(value, first)
    with pytest.raises(AttributeError):
        setattr(value, first, None)
    with pytest.raises(AttributeError):
        value.unknown_field = None
    assert getattr(value, first) == before


def test_shard_result_with_aggregates_survives_pickling_equal():
    # a forked lane sends its ShardResult to the caller pickled
    result = ShardResult()
    result.raw = 7
    result.add(Outcome.EQUAL, "exact", None, _agg())
    result.add(Outcome.STRICTLY_GREATER, "interval", 128, _agg(3), n=5)
    result.inconsistencies.append(_agg(3))
    back = pickle.loads(pickle.dumps(result))
    assert back == result and back is not result
    assert back.configs["equal"] == [_agg()] and type(back.configs["equal"][0]) is AggConfig
    assert back.precision_stats == {("exact", None): 1, ("interval", 128): 5}
    assert back != ShardResult()


def test_fresh_instances_do_not_share_their_containers():
    a, b = ShardResult(), ShardResult()
    a.add(Outcome.EQUAL, "exact", None, _agg())
    assert b == ShardResult() and b.configs["equal"] == [] and b.precision_stats == {}
    one, two = (CertificateDocument(RunConfig("verify-all")) for _ in range(2))
    one.regular.append(verify_regular(1))
    one.timing["total_s"] = 1.0
    assert two.regular == [] and two.timing == {}


def test_verdicts_differing_only_in_detail_are_equal():
    product = FactorProduct.from_f_counts({(2, 2): 1})
    one = Verdict(Outcome.EQUAL, "exact", None, 5, (product,), {"count": 5})
    two = Verdict(Outcome.EQUAL, "exact", None, 5, (product,), {"other": [1, 2]})
    assert one == two and hash(one) == hash(two)
    assert not one != two
    assert one != Verdict(Outcome.STRICTLY_LESS, "exact", None, 5, (product,), {"count": 5})
    assert one != Verdict(Outcome.EQUAL, "exact", None, 6, (product,), {"count": 5})
