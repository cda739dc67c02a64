import random
from fractions import Fraction

import pytest

from conftest import (
    complete_bipartite,
    contains_int,
    cycle,
    factor_by_factor_product,
    interval_add,
    path,
    strictly_above,
)
from indbound import intervals
from indbound.graphs import Graph, from_edges
from indbound.products import (
    _LANE_PRIMES,
    _SEARCH_DEN,
    GUARD_BITS,
    MAX_DEGREE,
    PRECISION_CAP,
    PRECISION_START,
    DegreeBoundError,
    FactorProduct,
    Outcome,
    certify_sum_inequality,
    check_f_fact,
    compare_count_to_product,
    compare_pure_products,
    carried_limit,
    f_exponents,
    factorize,
    level2_piece,
    pi_product,
    precision_schedule,
    root_piece,
)
from indbound.search import _agg_search_shard


def test_factorize():
    assert factorize(63) == ((3, 2), (7, 1))
    assert factorize(2) == ((2, 1),)
    assert factorize(1) == ()


def _product_of(p: FactorProduct, q: FactorProduct) -> FactorProduct:
    """p * q, as the per-prime sum of their exponent maps."""
    exp = dict(p.exponents())
    for prime, e in q.exponents():
        exp[prime] = exp.get(prime, 0) + e
    return FactorProduct({prime: e for prime, e in exp.items() if e})


def test_product_merging_and_identity():
    p = FactorProduct.from_f_counts({(1, 3): 3})  # 9^(3/3) = 9 = 3^2
    assert p.is_integral() and p.as_integer() == 9
    assert p == FactorProduct({3: Fraction(2)})
    q = FactorProduct.from_f_counts({(1, 1): 2, (1, 3): -3})  # 3^2 / 9
    assert q == FactorProduct({})


def test_from_f_counts_matches_factor_by_factor_product():
    # the factor-by-factor reference shares no exponent arithmetic with
    # from_f_counts; signed multiplicities exercise cancellation to 1
    rng = random.Random(23)
    for _ in range(300):
        counts = {}
        for _ in range(rng.randint(0, 6)):
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            counts[a, b] = counts.get((a, b), 0) + rng.randint(-3, 3)
        two_exp = rng.randint(0, 4)
        assert FactorProduct.from_f_counts(counts, two_exp) == factor_by_factor_product(counts, two_exp)
    assert FactorProduct.from_f_counts({(1, 2): 2, (2, 1): -2}) == FactorProduct({})


def test_pi_product_examples():
    for a in range(1, 6):
        for b in range(1, 6):
            p = pi_product(complete_bipartite(a, b))
            assert p.is_integral() and p.as_integer() == 2**a + 2**b - 1
    assert pi_product(Graph(1, ((),))).as_integer() == 2
    assert pi_product(path(3)).as_integer() == 5
    assert pi_product(Graph(0, ())) == FactorProduct({})


def test_pi_product_degree_guard():
    star = from_edges(MAX_DEGREE + 2, [(0, i) for i in range(1, MAX_DEGREE + 2)])
    with pytest.raises(DegreeBoundError):
        pi_product(star)


def test_pi_multiplicative_over_unions():
    rng = random.Random(21)
    from indbound.selftest import random_graph_max_degree

    for _ in range(50):
        n1, n2 = rng.randint(0, 6), rng.randint(0, 6)
        g1 = random_graph_max_degree(rng, n1, 0.5, 4)
        g2 = random_graph_max_degree(rng, n2, 0.5, 4)
        union = from_edges(
            n1 + n2, list(g1.edges()) + [(u + n1, v + n1) for u, v in g2.edges()]
        )
        assert pi_product(union) == _product_of(pi_product(g1), pi_product(g2))


def test_compare_pure_products_examples():
    v = compare_pure_products(
        FactorProduct.from_f_counts({(1, 2): 2}), FactorProduct.from_f_counts({(1, 1): 1})
    )
    assert v.outcome == Outcome.STRICTLY_GREATER
    v = compare_pure_products(
        FactorProduct.from_f_counts({(2, 2): 4}), FactorProduct.from_f_counts({(1, 3): 3})
    )
    assert v.outcome == Outcome.STRICTLY_LESS  # 7 vs 9
    p = FactorProduct.from_f_counts({(2, 2): 1, (1, 2): 1})
    assert compare_pure_products(p, p).outcome == Outcome.EQUAL


def test_check_f_fact():
    report = check_f_fact(5)
    assert report.passed and len(report.cases) == 100 and report.failures == 0
    outcomes = dict(report.cases)
    assert outcomes[(2, 1, 2, 1)] == Outcome.STRICTLY_GREATER
    # the cleared comparison behind (2,1,2,1): 5^4 = 625 vs 3^4 * 7 = 567
    lhs = FactorProduct.from_f_counts({(1, 2): 1, (2, 1): 1})
    rhs = FactorProduct.from_f_counts({(1, 1): 1, (2, 2): 1})
    v = compare_pure_products(lhs, rhs)
    assert v.detail["cleared_lhs"] == 625 and v.detail["cleared_rhs"] == 567
    for delta in (2, 3, 4):
        assert check_f_fact(delta).passed
    with pytest.raises(ValueError):
        check_f_fact(1)
    assert check_f_fact(MAX_DEGREE + 1).passed


def test_f_exponents_rejects_degrees_outside_one_to_five():
    # 3600 / (a * b) must be exact, and f(0, b) has no exponent
    assert f_exponents(5, 5) == ((3, 288), (7, 144))  # 63^(1/25) = 3^(2/25) 7^(1/25)
    for a, b in ((1, 7), (3, 7), (2, 11), (0, 3)):
        with pytest.raises(ValueError):
            f_exponents(a, b)


def test_certify_sum_integer_identities():
    three = FactorProduct({3: Fraction(1)})
    two = FactorProduct({2: Fraction(1)})
    one = FactorProduct({})
    assert certify_sum_inequality(three, two, one).outcome == Outcome.EQUAL
    seven = FactorProduct({7: Fraction(1)})
    five = FactorProduct({5: Fraction(1)})
    assert certify_sum_inequality(seven, five, two).outcome == Outcome.EQUAL
    # a strict sum with integral exponents is decided by the first interval
    # that separates it; only where none does, as at a 1-bit start, do the
    # exact integers decide it
    v = certify_sum_inequality(seven, two, two)
    assert (v.outcome, v.method, v.precision_bits) == (Outcome.STRICTLY_GREATER, "interval", 128)
    v = certify_sum_inequality(seven, two, two, precision_start=1)
    assert (v.outcome, v.method, v.precision_bits) == (Outcome.STRICTLY_GREATER, "exact", None)
    assert (v.detail["reduced_lhs"], v.detail["reduced_rhs"]) == (7, [2, 2])


def _fig1_products():
    a = FactorProduct.from_f_counts({(1, 2): 1, (2, 2): 1, (2, 4): 1, (1, 4): 3})
    b = FactorProduct.from_f_counts({(1, 2): 1, (2, 4): 1, (1, 4): 3})
    c = FactorProduct.from_f_counts({(1, 4): 4})
    return a, b, c


def test_certify_sum_interval_case():
    a, b, c = _fig1_products()
    v = certify_sum_inequality(a, b, c)
    assert v.outcome == Outcome.STRICTLY_LESS and v.method == "interval"
    # the whole-graph values: A about 43.9988, B + C about 27.045 + 17
    iv = a.value_interval(128)
    lo = intervals.to_decimal_str(iv.lo_m, iv.lo_e)
    assert lo.startswith("43.99")
    assert c.is_integral() and c.as_integer() == 17


def test_certify_sum_undecided_at_tiny_precision():
    a, b, c = _fig1_products()
    v = certify_sum_inequality(a, b, c, precision_start=8, precision_cap=8)
    assert v.outcome == Outcome.UNDECIDED and v.precision_bits == 8


def test_certify_cleared_equality_with_shared_irrational_factor():
    # K_{2,2} equality 7 = 5 + 2 multiplied through by the P4 product, and
    # by a factor whose exponent denominator does not divide 3600
    p4 = pi_product(path(4))
    for shared in (p4, _product_of(p4, FactorProduct({13: Fraction(3, 49)}))):
        a = _product_of(FactorProduct({7: Fraction(1)}), shared)
        b = _product_of(FactorProduct({5: Fraction(1)}), shared)
        c = _product_of(FactorProduct({2: Fraction(1)}), shared)
        v = certify_sum_inequality(a, b, c, equality_expected=True)
        assert v.outcome == Outcome.EQUAL and v.method == "exact"
        assert v.detail["reduced_lhs"] == 7 and v.detail["reduced_rhs"] == [5, 2]
        # 2^(48/49) < 2 leaves 7 > 5 + 2^(48/49), decided by intervals
        v = certify_sum_inequality(a, b, _product_of(FactorProduct({2: Fraction(48, 49)}), shared))
        assert v.outcome == Outcome.STRICTLY_GREATER and v.method == "interval"


def test_fast_outcome_matches_full():
    # the certified verdict agrees with 512-bit intervals of the unreduced
    # terms whenever those separate, and Equal comes only from the exact method
    rng = random.Random(22)
    for _ in range(300):
        counts = [{}, {}, {}]
        isos = [rng.randint(0, 2) for _ in range(3)]
        for c in counts:
            for _ in range(rng.randint(0, 5)):
                a = rng.randint(1, 5)
                b = rng.randint(1, 5)
                key = (min(a, b), max(a, b))
                c[key] = c.get(key, 0) + rng.randint(1, 3)
        a, b, c = (FactorProduct.from_f_counts(cnt, iso) for cnt, iso in zip(counts, isos))
        verdict = certify_sum_inequality(a, b, c)
        iva = a.value_interval(512)
        ivsum = interval_add(b.value_interval(512), c.value_interval(512))
        if strictly_above(iva, ivsum):
            assert verdict.outcome == Outcome.STRICTLY_GREATER
        elif strictly_above(ivsum, iva):
            assert verdict.outcome == Outcome.STRICTLY_LESS
        else:  # these small products agree to 500 bits only in an identity
            assert verdict.outcome == Outcome.EQUAL and verdict.method == "exact"


def test_carried_limit_is_the_least_widened_sum_reaching_one():
    # the widening h + floor(h * 2^(2-p)) + 2 of every h below the limit
    # stays below 2^(p + 16), from p = 1 on, and that of the limit does not
    for prec in (1, 2, 3, 8, 128):
        one, limit = 1 << prec + GUARD_BITS, carried_limit(prec)
        widened = [h + (h << 2 >> prec) + 2 for h in (limit - 1, limit)]
        assert widened[0] < one <= widened[1]
        assert limit < one


def test_compare_count_to_product():
    k2_k22 = from_edges(6, [(0, 1), (2, 4), (2, 5), (3, 4), (3, 5)])
    v = compare_count_to_product(21, pi_product(k2_k22))
    assert v.outcome == Outcome.EQUAL
    v = compare_count_to_product(8, pi_product(path(4)))
    assert v.outcome == Outcome.STRICTLY_LESS
    v = compare_count_to_product(4, pi_product(cycle(3)))
    assert v.outcome == Outcome.STRICTLY_LESS
    v = compare_count_to_product(9, pi_product(path(4)))
    assert v.outcome == Outcome.STRICTLY_GREATER  # 9 > 5 * 7^(1/4)


def test_compare_count_to_non_integral_product_is_never_equal():
    # 3^40 / 2 is not an integer, so only intervals decide; the count
    # agrees with it to float precision but is below it
    count = int(float(3**40) / 2)
    assert 2 * count < 3**40
    v = compare_count_to_product(count, FactorProduct({3: Fraction(40), 2: Fraction(-1)}),
                                 precision_start=8)
    assert v.outcome == Outcome.STRICTLY_LESS and v.method == "interval"


def test_precision_schedule_needs_one_bit_up_to_the_cap():
    assert list(precision_schedule(1, 5)) == [1, 2, 4, 5]
    for start, cap in [(0, 8), (-1, 8), (9, 3)]:
        with pytest.raises(ValueError):
            list(precision_schedule(start, cap))


def test_interval_soundness_brackets_integers():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(2, 40)
        k = rng.randint(1, 6)
        p = FactorProduct({q: Fraction(e * k) for q, e in factorize(n)})
        iv = p.value_interval(256)
        assert contains_int(iv, n**k)


def _sign_of_power_minus(m: int, e: int, den: int, p: int, num: int) -> int:
    """Sign of (m * 2^e)^den - p^num, on integers with the powers of two and
    the negative power of p cleared to the other side."""
    lhs = m**den * p ** max(0, -num) << max(0, e * den)
    rhs = p ** max(0, num) << max(0, -e * den)
    return (lhs > rhs) - (lhs < rhs)


def test_cached_factor_bounds_bracket_the_prime_power():
    # each table bound power_product reads is lo <= p^(num/den) <= hi,
    # checked exactly as lo^den <= p^num <= hi^den, for numerators of both signs
    cases = [(2, 1, 6, 8), (2, -1, 6, 8), (3, -7, 12, 16), (31, 5, 3600, 8),
             (31, -5, 3600, 8), (7, -3599, 3600, 16), (3, 4, 6, 128), (11, -1, 4, 128)]
    for p, num, den, prec in cases:
        intervals.power_product(((p, num),), den, prec)
        m, e, n, f = intervals._bounds[den, prec + intervals.GUARD_BITS][p, num]
        assert m > 0, (p, num, den, prec)
        assert _sign_of_power_minus(m, e, den, p, num) <= 0 <= _sign_of_power_minus(n, f, den, p, num)


def test_root_bounds_the_searches_trust_hold_at_full_scale(monkeypatch):
    # every interval verdict rests on the table's roots, the (p, 1) entries
    # whose powers and reciprocals are all other bounds: each lane prime's
    # at the searches' (3600, 144), and every root one stage-1 shard puts in
    # a fresh table, checked exactly as lo^den <= p <= hi^den.  The cached
    # pieces hold bounds read from the table, so they are emptied with it
    monkeypatch.setattr(intervals, "_bounds", {})
    root_piece.cache_clear()
    level2_piece.cache_clear()
    _agg_search_shard((5, 3, 3, (5, 5, 5), PRECISION_START, PRECISION_CAP))
    shard_roots = {(den, prec, p) for (den, prec), table in intervals._bounds.items() if den > 1
                   for p, num in table if num == 1}
    assert len(shard_roots) == 9
    work = PRECISION_START + intervals.GUARD_BITS
    for den, prec, p in shard_roots | {(_SEARCH_DEN, work, p) for p in _LANE_PRIMES}:
        m, e, n, f = intervals.prime_power_interval(p, 1, den, prec)
        assert m > 0, (p, den, prec)
        assert _sign_of_power_minus(m, e, den, p, 1) <= 0 <= _sign_of_power_minus(n, f, den, p, 1)


def test_interval_width_monotone():
    rng = random.Random(24)
    for _ in range(60):
        counts = {}
        for _ in range(rng.randint(1, 6)):
            key = rng.randint(1, 5), rng.randint(1, 5)
            counts[key] = counts.get(key, 0) + rng.randint(1, 4)
        p = FactorProduct.from_f_counts(counts)
        widths = []
        for prec in (64, 128, 256):
            iv = p.value_interval(prec)
            lo = Fraction(iv.lo_m) * Fraction(2) ** iv.lo_e
            hi = Fraction(iv.hi_m) * Fraction(2) ** iv.hi_e
            assert hi >= lo > 0
            widths.append((hi - lo) / lo)
        assert widths[0] >= widths[1] >= widths[2]


def test_merged_product_interval_consistent_with_parts():
    # evaluating p * q overlaps the interval product of separate evaluations
    rng = random.Random(26)
    for _ in range(50):
        pc, qc = {}, {}
        for _ in range(rng.randint(1, 4)):
            for counts in (pc, qc):
                key = rng.randint(1, 5), rng.randint(1, 5)
                counts[key] = counts.get(key, 0) + 1
        p, q = FactorProduct.from_f_counts(pc), FactorProduct.from_f_counts(qc)
        merged = _product_of(p, q).value_interval(128)
        ip = p.value_interval(128)
        iq = q.value_interval(128)
        combined = intervals.mul(ip, iq, 192)
        assert not strictly_above(merged, combined)
        assert not strictly_above(combined, merged)


def test_compare_pure_agrees_with_intervals_at_512():
    rng = random.Random(25)
    for _ in range(100):
        pc, qc = {}, {}
        for counts in (pc, qc):
            for _ in range(rng.randint(0, 4)):
                key = rng.randint(1, 5), rng.randint(1, 5)
                counts[key] = counts.get(key, 0) + 1
        p, q = FactorProduct.from_f_counts(pc), FactorProduct.from_f_counts(qc)
        verdict = compare_pure_products(p, q)
        ip = p.value_interval(512)
        iq = q.value_interval(512)
        if strictly_above(ip, iq):
            assert verdict.outcome == Outcome.STRICTLY_GREATER
        elif strictly_above(iq, ip):
            assert verdict.outcome == Outcome.STRICTLY_LESS
        else:
            assert verdict.outcome == Outcome.EQUAL


def test_verdict_serialization():
    a, b, c = _fig1_products()
    j = certify_sum_inequality(a, b, c).to_json()
    assert j["outcome"] == "strictly_less"
    assert j["method"] == "interval"
    assert isinstance(j["lhs"], str) and len(j["rhs_terms"]) == 2
