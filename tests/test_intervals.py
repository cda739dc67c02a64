import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contains_int, interval_add
from indbound import intervals
from indbound.intervals import Interval, iroot


def test_iroot_exact():
    rng = random.Random(31)
    for _ in range(300):
        base = rng.randint(0, 10**6)
        n = rng.randint(1, 12)
        r = iroot(base, n)
        assert r**n <= base < (r + 1) ** n


def test_iroot_large():
    x = 7**3600
    assert iroot(x, 3600) == 7
    assert iroot(x - 1, 3600) == 6


def test_nth_root_interval_brackets():
    rng = random.Random(32)
    for _ in range(80):
        p = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23, 31, 47])
        den = rng.choice([2, 3, 4, 5, 6, 9, 12, 25, 60, 3600])
        iv = intervals.nth_root_interval(p, den, 96)
        lo = Fraction(iv.lo_m, 1) * Fraction(2) ** iv.lo_e
        hi = Fraction(iv.hi_m, 1) * Fraction(2) ** iv.hi_e
        assert lo**den <= p <= hi**den
        assert (hi - lo) / lo < Fraction(1, 2**90)


def test_prime_power_table_shares_one_root_per_prime(monkeypatch):
    # a negative numerator is 1 divided by the bound of the positive one, and
    # a second sign or power of a prime at the same (den, prec) reuses the
    # root the table holds as its (p, 1) entry: no new root is computed
    roots = []
    root = intervals.nth_root_interval

    def counting_root(p, den, prec):
        roots.append((p, den, prec))
        return root(p, den, prec)

    monkeypatch.setattr(intervals, "_bounds", {})
    monkeypatch.setattr(intervals, "nth_root_interval", counting_root)
    one = intervals.exact(1)
    cases = [(7, 5, 3600, 144), (3, 1, 12, 40), (31, 3599, 3600, 24), (7, 2, 3600, 40)]
    for i, (p, n, den, prec) in enumerate(cases):
        neg = intervals.prime_power_interval(p, -n, den, prec)
        assert neg == intervals.div(one, intervals.prime_power_interval(p, n, den, prec), prec)
        intervals.prime_power_interval(p, 2 * n + 1, den, prec)
        intervals.prime_power_interval(p, -(2 * n + 1), den, prec)
        intervals.power_product(((p, n + 1), (p, -3 * n)), den, prec - intervals.GUARD_BITS)
        assert roots[i:] == [(p, den, prec)]


def test_directed_rounding_mul_add():
    a = Interval(3, 0, 3, 0)
    b = Interval(5, -1, 5, -1)
    prod = intervals.mul(a, b, 64)
    assert Fraction(prod.lo_m, 1) * 2**prod.lo_e <= Fraction(15, 2)
    s = interval_add(a, b)
    assert intervals.dyadic_cmp(s.lo_m, s.lo_e, 11, -1) == 0


def test_precision_schedule_honors_requested_width():
    # an 8-bit interval is really about 8 bits wide, guard bits nonwithstanding
    iv = intervals.prime_power_interval(7, 1, 2, 8 + intervals.GUARD_BITS)
    out = intervals.round_to(iv, 8)
    lo = Fraction(out.lo_m) * Fraction(2) ** out.lo_e
    hi = Fraction(out.hi_m) * Fraction(2) ** out.hi_e
    assert (hi - lo) / lo > Fraction(1, 2**10)


def test_round_to_needs_one_bit():
    # at 0 bits the upper end of [5, 5] would round to 0
    with pytest.raises(ValueError):
        intervals.round_to(intervals.exact(5), 0)


def test_pow_and_div():
    base = intervals.exact(3)
    p = intervals.ipow(base, 5, 64)
    assert contains_int(p, 243)
    q = intervals.div(intervals.exact(243), intervals.exact(3), 64)
    assert contains_int(q, 81)


def test_to_fixed_floors_lo_and_ceils_hi():
    # exponents at or above -scale shift left exactly; below it the lower end
    # rounds down and the upper end up, and an exact multiple stays exact
    assert intervals.to_fixed(Interval(5, 3, 7, 3), 2) == (160, 224)
    assert intervals.to_fixed(Interval(5, -2, 7, -2), 2) == (5, 7)
    assert intervals.to_fixed(Interval(13, -5, 13, -5), 2) == (1, 2)
    assert intervals.to_fixed(Interval(16, -5, 16, -5), 2) == (2, 2)
    rng = random.Random(31)
    for _ in range(2000):
        lo_m, hi_m = rng.randint(1, 1 << 40), rng.randint(1, 1 << 40)
        lo_e, hi_e, scale = rng.randint(-80, 20), rng.randint(-80, 20), rng.randint(0, 60)
        lo, hi = intervals.to_fixed(Interval(lo_m, lo_e, hi_m, hi_e), scale)
        assert lo == math.floor(Fraction(lo_m) * Fraction(2) ** (lo_e + scale))
        assert hi == math.ceil(Fraction(hi_m) * Fraction(2) ** (hi_e + scale))


def test_round_up_carry_keeps_the_bit_width():
    # rounding 7 up to 2 bits carries to 8: kept as 2 * 2**2, not 4 * 2**1
    assert intervals.mul(intervals.exact(1), intervals.exact(7), 2) == Interval(3, 1, 2, 2)
    assert intervals.round_to(intervals.exact(255), 4) == Interval(15, 4, 8, 5)


def test_decimal_rendering():
    assert intervals.to_decimal_str(1, 0).startswith("1")
    s = intervals.to_decimal_str(7, -1)
    assert s.startswith("3.5")
    big = intervals.to_decimal_str(3, 100, digits=6)
    assert "e" in big


# property tests: every operation rounds outward against exact Fraction
# bounds, for any precision; a fixed example set keeps the suite deterministic
_PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)
_PRECISION = st.integers(2, 160)


def _val(m: int, e: int) -> Fraction:
    return Fraction(m) * Fraction(2) ** e


@st.composite
def _intervals(draw):
    lo_m = draw(st.integers(1, 2**160))
    e = draw(st.integers(-200, 200))
    shift = draw(st.integers(0, 8))  # the upper bound may use another exponent
    hi_m = (lo_m + draw(st.integers(0, 2**160))) << shift
    return Interval(lo_m, e, hi_m, e - shift)


def _fits(iv: Interval, prec: int) -> bool:
    """Both mantissas have at most prec bits."""
    return iv.lo_m.bit_length() <= prec and iv.hi_m.bit_length() <= prec


def _assert_outward(iv: Interval, lo: Fraction, hi: Fraction, prec: int, slack: int) -> None:
    """iv brackets [lo, hi], has prec-bit mantissas, and loses less than
    2**(slack - prec) of relative width on each side."""
    assert _val(iv.lo_m, iv.lo_e) <= lo and hi <= _val(iv.hi_m, iv.hi_e)
    assert _fits(iv, prec)
    tol = Fraction(1, 2 ** (prec - slack)) if prec > slack else Fraction(1)
    assert _val(iv.lo_m, iv.lo_e) >= lo * (1 - tol)
    assert _val(iv.hi_m, iv.hi_e) <= hi * (1 + tol)


@_PROPERTY
@given(_intervals(), _intervals(), _PRECISION)
def test_mul_rounds_outward(a, b, prec):
    exact_lo = _val(a.lo_m, a.lo_e) * _val(b.lo_m, b.lo_e)
    exact_hi = _val(a.hi_m, a.hi_e) * _val(b.hi_m, b.hi_e)
    _assert_outward(intervals.mul(a, b, prec), exact_lo, exact_hi, prec, 1)


@_PROPERTY
@given(_intervals(), _intervals(), _PRECISION)
def test_div_rounds_outward(a, b, prec):
    exact_lo = _val(a.lo_m, a.lo_e) / _val(b.hi_m, b.hi_e)
    exact_hi = _val(a.hi_m, a.hi_e) / _val(b.lo_m, b.lo_e)
    _assert_outward(intervals.div(a, b, prec), exact_lo, exact_hi, prec, 2)


@_PROPERTY
@given(_intervals(), _intervals())
def test_add_is_exact(a, b):
    s = interval_add(a, b)
    assert _val(s.lo_m, s.lo_e) == _val(a.lo_m, a.lo_e) + _val(b.lo_m, b.lo_e)
    assert _val(s.hi_m, s.hi_e) == _val(a.hi_m, a.hi_e) + _val(b.hi_m, b.hi_e)


@_PROPERTY
@given(_intervals(), _PRECISION)
def test_round_to_rounds_outward(a, prec):
    lo, hi = _val(a.lo_m, a.lo_e), _val(a.hi_m, a.hi_e)
    _assert_outward(intervals.round_to(a, prec), lo, hi, prec, 1)


@_PROPERTY
@given(_intervals(), st.integers(1, 12), _PRECISION)
def test_interval_nth_root_rounds_outward(a, n, prec):
    r = intervals.interval_nth_root(a, n, prec)
    assert _val(r.lo_m, r.lo_e) ** n <= _val(a.lo_m, a.lo_e)
    assert _val(r.hi_m, r.hi_e) ** n >= _val(a.hi_m, a.hi_e)
    assert _fits(r, prec)


@_PROPERTY
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 127, 8191]),
    st.integers(1, 3600),
    st.integers(0, 4),
    st.data(),
)
def test_prime_power_interval_brackets(p, den, whole, data):
    # p ** (num / den) for an unreduced fraction with any denominator
    num = whole * den + data.draw(st.integers(0, den - 1))
    prec = data.draw(st.integers(8, 64))
    iv = intervals.prime_power_interval(p, num, den, prec)
    exact = Fraction(p) ** num
    assert _val(iv.lo_m, iv.lo_e) ** den <= exact <= _val(iv.hi_m, iv.hi_e) ** den
