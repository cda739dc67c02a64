"""Dyadic interval arithmetic with directed rounding.

A positive real v is bracketed by an Interval (lo_m, lo_e, hi_m, hi_e) with
lo_m * 2**lo_e <= v <= hi_m * 2**hi_e.  Lower bounds always round down and
upper bounds always round up, so every derived interval contains the exact
value.  Mantissas are kept at a fixed bit width, which makes the grid of
representable bounds at a higher precision a refinement of the grid at a
lower one: re-running the same computation with more bits can only shrink
an interval, never grow it.

Directed bounds of prime powers p^(num/den) have one owner: a table filled
only by prime_power_interval.  table_product is its one reader: it multiplies
the entries of a product of prime powers exactly, with no rounding, and
power_product is that table product rounded once to the requested precision.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

# extra working bits on top of the requested precision; results are rounded
# back to the requested precision, so "8-bit" intervals really are 8 bits wide
GUARD_BITS = 16


class Interval(NamedTuple):
    lo_m: int
    lo_e: int
    hi_m: int
    hi_e: int


def _floor_round(m: int, e: int, prec: int) -> tuple[int, int]:
    s = m.bit_length() - prec
    if s <= 0:
        return m, e
    return m >> s, e + s


def _ceil_round(m: int, e: int, prec: int) -> tuple[int, int]:
    s = m.bit_length() - prec
    if s <= 0:
        return m, e
    m = -((-m) >> s)
    if m == 1 << prec:  # the carry widened the mantissa: same value, one exponent up
        return m >> 1, e + s + 1
    return m, e + s


def exact(n: int, e: int = 0) -> Interval:
    """Interval containing exactly n * 2**e (n >= 0)."""
    return Interval(n, e, n, e)


def round_to(iv: Interval, prec: int) -> Interval:
    if prec < 1:
        raise ValueError(f"precision must be at least 1 bit, got {prec}")
    lo_m, lo_e = _floor_round(iv.lo_m, iv.lo_e, prec)
    hi_m, hi_e = _ceil_round(iv.hi_m, iv.hi_e, prec)
    return Interval(lo_m, lo_e, hi_m, hi_e)


def mul(a: Interval, b: Interval, prec: int) -> Interval:
    lo_m, lo_e = _floor_round(a.lo_m * b.lo_m, a.lo_e + b.lo_e, prec)
    hi_m, hi_e = _ceil_round(a.hi_m * b.hi_m, a.hi_e + b.hi_e, prec)
    return Interval(lo_m, lo_e, hi_m, hi_e)


def div(a: Interval, b: Interval, prec: int) -> Interval:
    """a / b for intervals of positive reals (b.lo > 0)."""
    if b.lo_m <= 0:
        raise ZeroDivisionError("interval divisor must be positive")
    # lo: round a.lo / b.hi down; hi: round a.hi / b.lo up
    shift = prec + b.hi_m.bit_length()
    lo_m = (a.lo_m << shift) // b.hi_m
    lo_e = a.lo_e - b.hi_e - shift
    shift2 = prec + b.lo_m.bit_length()
    hi_m = -((-(a.hi_m << shift2)) // b.lo_m)
    hi_e = a.hi_e - b.lo_e - shift2
    lo_m, lo_e = _floor_round(lo_m, lo_e, prec)
    hi_m, hi_e = _ceil_round(hi_m, hi_e, prec)
    return Interval(lo_m, lo_e, hi_m, hi_e)


def ipow(a: Interval, k: int, prec: int) -> Interval:
    """a**k for integer k >= 0 by binary powering."""
    if k < 0:
        raise ValueError("ipow takes k >= 0; prime_power_interval bounds a negative power by div")
    result = exact(1)
    base = a
    while k:
        if k & 1:
            result = mul(result, base, prec)
        k >>= 1
        if k:
            base = mul(base, base, prec)
    return result


def dyadic_cmp(m1: int, e1: int, m2: int, e2: int) -> int:
    """Sign of m1*2**e1 - m2*2**e2, computed exactly."""
    if e1 >= e2:
        d = (m1 << (e1 - e2)) - m2
    else:
        d = m1 - (m2 << (e2 - e1))
    return (d > 0) - (d < 0)


def to_fixed(iv: Interval, scale: int) -> tuple[int, int]:
    """(floor(lo * 2**scale), ceil(hi * 2**scale)), which bracket iv at scale 2**-scale."""
    s, t = iv.lo_e + scale, iv.hi_e + scale
    return (iv.lo_m << s if s >= 0 else iv.lo_m >> -s,
            iv.hi_m << t if t >= 0 else -(-iv.hi_m >> -t))


def to_decimal_str(m: int, e: int, digits: int = 18) -> str:
    """Render m * 2**e as a decimal string with roughly `digits` significant digits."""
    if m == 0:
        return "0"
    # scale into an integer with the requested number of decimal digits
    bits = m.bit_length() + e
    dec_exp = math.floor(bits * math.log10(2)) - digits
    if dec_exp >= 0:
        scaled = (m << e) // 10**dec_exp if e >= 0 else (m >> -e) // 10**dec_exp
    else:
        num = m * 10**-dec_exp
        scaled = num << e if e >= 0 else num >> -e
    s = str(scaled)
    point = len(s) + dec_exp
    if 0 < point <= len(s):
        out = s[:point] + "." + s[point:]
    else:
        out = s[0] + "." + s[1:] + f"e{point - 1}"
    return out.rstrip(".") if out.endswith(".") else out


def iroot(x: int, n: int) -> int:
    """floor(x ** (1/n)) for x >= 0, n >= 1, by integer Newton iteration."""
    if x < 0:
        raise ValueError("iroot of a negative number")
    if n == 1 or x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)  # 2**ceil(bits / n) >= root, a safe start
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r**n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def interval_nth_root(iv: Interval, n: int, prec: int) -> Interval:
    """Directed-rounding n-th root of an interval of positive reals."""
    out = []
    for m, e, up in ((iv.lo_m, iv.lo_e, False), (iv.hi_m, iv.hi_e, True)):
        k = max(0, (prec + 2) * n - m.bit_length())
        k += (e - k) % n  # align so the remaining exponent is divisible by n
        r = iroot(m << k, n)
        if up:
            r += 1
        out.append((r, (e - k) // n))
    lo_m, lo_e = _floor_round(out[0][0], out[0][1], prec)
    hi_m, hi_e = _ceil_round(out[1][0], out[1][1], prec)
    return Interval(lo_m, lo_e, hi_m, hi_e)


@functools.cache
def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of m >= 1 as ((p, multiplicity), ...), primes
    ascending, by trial division."""
    if m < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def nth_root_interval(p: int, den: int, prec: int) -> Interval:
    """Interval for p ** (1/den); the root is taken one small prime factor of
    den at a time, which keeps the integer root arguments tiny even for
    denominators like 3600 (ascending primes, with repetition)."""
    iv = exact(p)
    for q, k in factorize(den):
        for _ in range(k):
            iv = interval_nth_root(iv, q, prec)
    return iv


# (den, prec) -> {(p, signed num): Interval of p^(num/den)}; every interval
# verdict rests on these entries, so an audit checks them here.
_bounds: dict[tuple[int, int], dict[tuple[int, int], Interval]] = {}


def prime_power_interval(p: int, num: int, den: int, prec: int) -> Interval:
    """Interval for p ** (num/den), num signed, den >= 1 (the fraction need
    not be reduced), from the table; a miss for num < 0 divides 1 by the -num
    entry, and one for num > 1 and den > 1 powers the root, the (p, 1) entry."""
    if num == 0:
        return exact(1)
    bounds = _bounds.setdefault((den, prec), {})
    iv = bounds.get((p, num))
    if iv is None:
        if num < 0:
            iv = div(exact(1), prime_power_interval(p, -num, den, prec), prec)
        elif den == 1:
            iv = round_to(exact(p**num), prec)
        elif num == 1:
            iv = nth_root_interval(p, den, prec)
        else:
            iv = ipow(prime_power_interval(p, 1, den, prec), num, prec)
        bounds[p, num] = iv
    return iv


def table_product(exponents, den: int, prec: int) -> Interval:
    """Interval of the product of p^(num/den) over (prime, signed numerator)
    pairs: the exact product of their table bounds at prec + GUARD_BITS,
    not rounded."""
    work = prec + GUARD_BITS
    bounds = _bounds.setdefault((den, work), {})
    lo_m, lo_e, hi_m, hi_e = 1, 0, 1, 0
    for pair in exponents:  # the pair itself is the table key
        p, num = pair
        if not num:
            continue
        m, e, n, f = bounds.get(pair) or prime_power_interval(p, num, den, work)
        lo_m, lo_e, hi_m, hi_e = lo_m * m, lo_e + e, hi_m * n, hi_e + f
    # Sound: every table bound is positive and directed, lo <= p^(num/den)
    # <= hi, so the exact products of the lower and of the upper bounds
    # bracket the product.
    return Interval(lo_m, lo_e, hi_m, hi_e)


def power_product(exponents, den: int, prec: int) -> Interval:
    """table_product rounded once to prec bits, outward."""
    return round_to(table_product(exponents, den, prec), prec)
