"""Formal algebra of the independence bound.

The bound assigns every edge uv the factor f(a,b) = (2^a + 2^b - 1)^(1/ab)
with a = d(u), b = d(v) at most MAX_DEGREE, and every isolated vertex the
factor 2.  A FactorProduct is a finite product of such factors, built by
FactorProduct.from_f_counts and stored as a map from prime bases to
integer exponent numerators over _SEARCH_DEN = 3600, as the A/B/C lane
vectors below are (bases are factorized, so two products are equal as
real numbers iff their maps are equal).

Comparisons are certified, never floating point:
  * pure products compare exactly as big integers, their ratio raised to
    the least power that makes every exponent integral;
  * sums (A versus B + C) have one decision procedure, certify_exponents,
    in ratio form: 1 against X + Y for X = B/A and Y = C/A, by
    intervals.power_product at escalating precision, and by exact integers
    when an interval does not separate and the exponents are integral (no
    mantissa arithmetic is done here outside FactorProduct.value_interval).
    The searches, stage 2 and goodness.is_good call it through
    vector_outcome on A/B/C lane vectors, laid out below; all first compare
    upper bounds of X and Y, carried down the searches' enumeration or
    over the level-2 vertices of a root (carried_outcome), with
    carried_limit: below it the sum is strict at the start precision by
    intervals, the route certify_exponents takes first, and the searches'
    enumeration counts what it decides.  The whole-graph reference calls
    it through certify_sum_inequality;
  * Equal is only ever declared by an exact integer identity.
"""

from __future__ import annotations

import enum
import functools
import struct
from math import gcd
from typing import Mapping, NamedTuple

from . import intervals
from .graphs import Graph
from .intervals import GUARD_BITS, Interval, factorize

PRECISION_START = 128
PRECISION_CAP = 8192

# The degree bound Delta of the verified theorem: every search, check and
# report reads it here.  The lane bound of the A/B/C vectors below ("No lane
# reaches 2^31") is proved for 5 only, and _SEARCH_DEN, the one denominator
# of every exponent, must stay a multiple of every a * b (3600 is one for
# all a, b <= 6), so raising it means checking both again.
MAX_DEGREE = 5
_SEARCH_DEN = 3600


class DegreeBoundError(ValueError):
    """Graph exceeds the degree bound the algebra is configured for."""


class Outcome(enum.Enum):
    STRICTLY_GREATER = "strictly_greater"
    EQUAL = "equal"
    STRICTLY_LESS = "strictly_less"
    UNDECIDED = "undecided"

    def is_good(self) -> bool:
        """A >= B + C holds (the certified outcome is >= )."""
        return self in (Outcome.STRICTLY_GREATER, Outcome.EQUAL)


class Verdict(NamedTuple):
    """A certified comparison; equality and hashing ignore detail."""

    outcome: Outcome
    method: str  # "exact" | "interval"
    precision_bits: int | None
    lhs: "FactorProduct | int | None"
    rhs: tuple["FactorProduct", ...]
    detail: dict

    def __eq__(self, other):
        return isinstance(other, Verdict) and self[:5] == other[:5]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:5])

    def to_json(self) -> dict:
        def plain(v):
            if isinstance(v, bool):
                return v
            if isinstance(v, int):
                return str(v)  # certificate integers can be hundreds of digits
            if isinstance(v, (list, tuple)):
                return [plain(x) for x in v]
            return v

        out = {
            "outcome": self.outcome.value,
            "method": self.method,
            "precision_bits": self.precision_bits,
            "lhs": str(self.lhs),
            "rhs_terms": [str(t) for t in self.rhs],
        }
        for k, v in self.detail.items():
            out[k] = plain(v)
        return out


class FactorProduct:
    """Product of prime bases raised to rational exponents, each stored as
    its integer numerator over _SEARCH_DEN."""

    __slots__ = ("_exp",)

    def __init__(self, _exp: dict[int, int]):
        # internal: prime -> nonzero numerator over _SEARCH_DEN;
        # from_f_counts is the one builder of bound products
        self._exp = _exp

    @classmethod
    def from_f_counts(cls, counts: Mapping[tuple[int, int], int], two_exp: int = 0) -> "FactorProduct":
        """Product of f(a,b)^m over a multiplicity map, times 2^two_exp: m
        times the numerators of f(a, b), summed per prime; the bases
        2^a + 2^b - 1 are odd, so the prime 2 comes from two_exp alone."""
        exp = {2: two_exp * _SEARCH_DEN} if two_exp else {}
        for (a, b), m in counts.items():
            if m:
                for p, k in _f_numerators(a, b):
                    exp[p] = exp.get(p, 0) + k * m
        return cls({p: x for p, x in exp.items() if x})

    def exponents(self) -> tuple[tuple[int, int], ...]:
        """((prime, numerator over _SEARCH_DEN), ...), primes ascending."""
        return tuple(sorted(self._exp.items()))

    def is_integral(self) -> bool:
        return all(e >= 0 and e % _SEARCH_DEN == 0 for e in self._exp.values())

    def as_integer(self) -> int:
        if not self.is_integral():
            raise ValueError(f"{self} is not an integer product")
        out = 1
        for p, e in self._exp.items():
            out *= p ** (e // _SEARCH_DEN)
        return out

    def value_interval(self, precision_bits: int = PRECISION_START) -> Interval:
        """Directed-rounding interval containing the exact value."""
        # Not intervals.power_product: a reduced integral exponent stays an
        # exact power, not a root's power, and the negative part divides once;
        # through power_product, check's intervals and low-precision verdicts change.
        work = precision_bits + GUARD_BITS
        pos = intervals.exact(1)
        neg = intervals.exact(1)
        for p, e in self._exp.items():
            g = gcd(e, _SEARCH_DEN)
            iv = intervals.prime_power_interval(p, abs(e) // g, _SEARCH_DEN // g, work)
            if e > 0:
                pos = intervals.mul(pos, iv, work)
            else:
                neg = intervals.mul(neg, iv, work)
        out = pos if neg == intervals.exact(1) else intervals.div(pos, neg, work)
        return intervals.round_to(out, precision_bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FactorProduct) and self._exp == other._exp

    def __hash__(self) -> int:
        return hash(self.exponents())

    def __str__(self) -> str:
        if not self._exp:
            return "1"
        parts = []
        for p, e in sorted(self._exp.items()):
            g = gcd(e, _SEARCH_DEN)
            num, den = e // g, _SEARCH_DEN // g
            if den == 1:
                parts.append(f"{p}^{num}" if num != 1 else str(p))
            else:
                parts.append(f"{p}^({num}/{den})")
        return " * ".join(parts)

    def __repr__(self) -> str:
        return f"FactorProduct({self})"


def pi_product(g: Graph) -> FactorProduct:
    """The bound product: 2^iso(G) * prod over edges of f(d(u), d(v))."""
    degs = g.degrees()
    worst = max(degs, default=0)
    if worst > MAX_DEGREE:
        raise DegreeBoundError(f"graph has degree {worst}, bound configured for <= {MAX_DEGREE}")
    counts: dict[tuple[int, int], int] = {}
    for u, v in g.edges():
        a, b = degs[u], degs[v]
        key = (a, b) if a <= b else (b, a)
        counts[key] = counts.get(key, 0) + 1
    return FactorProduct.from_f_counts(counts, two_exp=g.iso_count())


def compare_pure_products(p: FactorProduct, q: FactorProduct) -> Verdict:
    """Exact ordering of two products; never Undecided.  Their ratio raised
    to L, the least power that makes every exponent integral, is lhs / rhs:
    integers, the primes of positive exponent against the others."""
    diff = dict(p._exp)
    for prime, e in q._exp.items():
        diff[prime] = diff.get(prime, 0) - e
    L = _SEARCH_DEN // gcd(_SEARCH_DEN, *diff.values())
    lhs = rhs = 1
    for prime, e in diff.items():
        k = e * L // _SEARCH_DEN
        if k > 0:
            lhs *= prime**k
        elif k < 0:
            rhs *= prime**-k
    if lhs > rhs:
        outcome = Outcome.STRICTLY_GREATER
    elif lhs < rhs:
        outcome = Outcome.STRICTLY_LESS
    else:
        outcome = Outcome.EQUAL
    return Verdict(
        outcome,
        "exact",
        None,
        p,
        (q,),
        {"clearing_exponent": L, "cleared_lhs": lhs, "cleared_rhs": rhs},
    )


@functools.cache
def precision_schedule(start: int, cap: int) -> tuple[int, ...]:
    """The precisions tried from start, doubling up to cap; ValueError
    unless 1 <= start <= cap."""
    if not 1 <= start <= cap:
        raise ValueError(f"need 1 <= precision start <= cap, got start {start}, cap {cap}")
    out = [start]
    while out[-1] < cap:  # a loop, not a recursion: a huge cap means many doublings
        out.append(min(out[-1] * 2, cap))
    return tuple(out)


def certify_sum_inequality(
    a: FactorProduct,
    b: FactorProduct,
    c: FactorProduct,
    equality_expected: bool = False,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> Verdict:
    """Certified comparison of a against b + c, reported as a Verdict; the
    whole-graph reference check uses it.

    The numerators of B/A and C/A go through certify_exponents, the
    decision procedure the searches use.
    """
    ea = a._exp
    x, y = (tuple((p, t.get(p, 0) - ea.get(p, 0)) for p in ea.keys() | t.keys()) for t in (b._exp, c._exp))
    return sum_verdict(certify_exponents(x, y, precision_start, precision_cap),
                       equality_expected, a, (b, c))


def sum_verdict(certified: tuple, equality_expected: bool, lhs=None, rhs=()) -> Verdict:
    """A certify_exponents result as a Verdict, with the reduced integers
    when the route was exact."""
    outcome, method, precision, values = certified
    detail = {"reduced_lhs": values[0], "reduced_rhs": [values[1], values[2]]} if method == "exact" else {}
    detail["equality_expected"] = equality_expected
    return Verdict(outcome, method, precision, lhs, rhs, detail)


def compare_count_to_product(
    count: int,
    product: FactorProduct,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> Verdict:
    """Certified comparison of an exact integer against a product.

    Only an integral product can equal the count: with a non-integral prime
    exponent the product is irrational, and with a negative one it is not an
    integer (unique factorization), so intervals decide every other case."""
    if product.is_integral():
        value = product.as_integer()
        if count > value:
            outcome = Outcome.STRICTLY_GREATER
        elif count == value:
            outcome = Outcome.EQUAL
        else:
            outcome = Outcome.STRICTLY_LESS
        return Verdict(outcome, "exact", None, count, (product,),
                       {"count": count, "product_value": value})
    for prec in precision_schedule(precision_start, precision_cap):
        iv = product.value_interval(prec)
        if intervals.dyadic_cmp(count, 0, iv.hi_m, iv.hi_e) > 0:
            return Verdict(Outcome.STRICTLY_GREATER, "interval", prec, count,
                           (product,), {"count": count, "product_interval": interval_strings(iv)})
        if intervals.dyadic_cmp(count, 0, iv.lo_m, iv.lo_e) < 0:
            return Verdict(Outcome.STRICTLY_LESS, "interval", prec, count,
                           (product,), {"count": count, "product_interval": interval_strings(iv)})
    return Verdict(Outcome.UNDECIDED, "interval", precision_cap, count, (product,),
                   {"count": count, "product_interval": interval_strings(iv)})


def interval_strings(iv: Interval) -> list[str]:
    """The two ends of iv as decimal strings, lower end first."""
    return [
        intervals.to_decimal_str(iv.lo_m, iv.lo_e),
        intervals.to_decimal_str(iv.hi_m, iv.hi_e),
    ]


# ---------------------------------------------------------------------------
# the decision procedure
#
# certify_exponents takes the signed exponent numerators of B - A and C - A
# over one denominator: the common factor cancels in the ratios.  Every
# bound product is 2^k * prod f(a,b)^m, so that denominator is _SEARCH_DEN.

_GREATER, _EQUAL, _LESS, _UNDECIDED = Outcome  # in definition order


@functools.cache
def _f_numerators(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """f(a, b) as ((prime, exponent numerator over _SEARCH_DEN), ...), for
    degrees a, b >= 1 whose product divides _SEARCH_DEN (every a, b <= 6)."""
    if a < 1 or b < 1 or _SEARCH_DEN % (a * b):
        raise ValueError(f"f({a}, {b}) has no exponents over {_SEARCH_DEN}: degrees must be at least 1 "
                         f"and a * b must divide {_SEARCH_DEN}, as it does for every a, b <= 6")
    step = _SEARCH_DEN // (a * b)
    return tuple((p, k * step) for p, k in factorize((1 << a) + (1 << b) - 1))


def f_exponents(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """_f_numerators(a, b) for the degrees of a search, 1..MAX_DEGREE."""
    if not (1 <= a <= MAX_DEGREE and 1 <= b <= MAX_DEGREE):
        raise ValueError(f"search exponents need degrees in 1..{MAX_DEGREE}, got f{min(a, b), max(a, b)}")
    return _f_numerators(a, b)


def certify_exponents(
    ex,
    ey,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> tuple[Outcome, str, int | None, tuple]:
    """Certified outcome of A >= B + C, decided as 1 against X + Y for
    X = B/A and Y = C/A, given as lists ex and ey of (prime, signed
    numerator over _SEARCH_DEN) pairs.  At each precision p from the
    start, doubling up to the cap, X and Y are intervals.power_product's
    intervals, in fixed point (to_fixed) at scale 2^-s, s = p + GUARD_BITS,
    and the first sum that separates from 1 decides.  When one does not
    and every numerator is a multiple of _SEARCH_DEN, A, B and C divided
    by their common factor compare as exact integers (the only route that
    may return Equal).  Otherwise Undecided is returned at the cap, never
    a silent pass.  Returns (outcome, method, precision, values): the three reduced
    integers, or 2^s and the fixed-point bounds of X + Y."""
    integral = all(num % _SEARCH_DEN == 0 for _, num in (*ex, *ey))
    for prec in precision_schedule(precision_start, precision_cap):
        scale = prec + GUARD_BITS
        lx, hx = intervals.to_fixed(intervals.power_product(ex, _SEARCH_DEN, prec), scale)
        ly, hy = intervals.to_fixed(intervals.power_product(ey, _SEARCH_DEN, prec), scale)
        # Sound: the floor of the lower end and the ceiling of the upper end
        # only widen power_product's interval, so lo * 2^-scale <= X <= hi *
        # 2^-scale (the same for Y), and the sums bracket X + Y.
        one, lo, hi = 1 << scale, lx + ly, hx + hy
        if hi < one:
            return _GREATER, "interval", prec, (one, lo, hi)
        if lo > one:
            return _LESS, "interval", prec, (one, lo, hi)
        if integral:
            ex, ey = dict(ex), dict(ey)
            ia = ib = ic = 1
            for p in ex.keys() | ey.keys():  # a, b and c minus min(a, b, c)
                xp, yp = ex.get(p, 0), ey.get(p, 0)
                m = min(0, xp, yp)
                ia *= p ** (-m // _SEARCH_DEN)
                ib *= p ** ((xp - m) // _SEARCH_DEN)
                ic *= p ** ((yp - m) // _SEARCH_DEN)
            d = ia - (ib + ic)
            outcome = _GREATER if d > 0 else _EQUAL if d == 0 else _LESS
            return outcome, "exact", None, (ia, ib, ic)
    return _UNDECIDED, "interval", precision_cap, (one, lo, hi)


# ---------------------------------------------------------------------------
# A/B/C lane vectors
#
# This is the only module that knows the lane layout, and root_vector and
# level2_vector are the only code that turns degrees into lanes; the
# searches and is_good build every vector as one root_vector plus one
# level2_vector per level-2 vertex.
#
# Every product the searches and is_good certify is 2^k * prod f(a, b)^m
# with a, b <= 5, so its exponents are numerators over _SEARCH_DEN for the
# primes of the f(a, b).  One integer holds all three terms, a 32-bit lane
# per (term, prime); adding two vectors multiplies the products term by
# term.  No lane reaches 2^31.  A search configuration has at most 5 + 20 +
# 100 edge factors and 20 powers of two.  In is_good every true degree is
# at most 5, so a root has at most 5 + 20 + 80 edge factors (its 01, 12 and
# 23 edges) and 1 + 5 + 20 powers of two (iso(G), iso(G - x) and
# iso(G - N[x])).  An edge factor adds at most 2 * 3600 to a lane and a
# power of two 3600, so every lane stays below 125 * 7200 + 26 * 3600.
# Hence the packed B part minus the packed A part,
# sum_i (b_i - a_i) 2^(32 i) with every digit in (-2^31, 2^31), is a unique
# signed-digit expansion: an exact key of X = B/A (C - A keys Y = C/A) for
# one subtraction.

_LANE_PRIMES = tuple(sorted(
    {2} | {p for a in range(1, MAX_DEGREE + 1) for b in range(a, MAX_DEGREE + 1)
           for p, _ in f_exponents(a, b)}
))
_NP = len(_LANE_PRIMES)
_UNPACK = struct.Struct(f"<{_NP}I").unpack
_PART_BITS = 32 * _NP
_PART = (1 << _PART_BITS) - 1
_KEY_BIAS = sum(1 << 31 + 32 * i for i in range(_NP))  # shifts each signed lane to unsigned
_TWO = ((2, _SEARCH_DEN),)
_A, _B, _C = range(3)


def _lanes(term: int, exponents) -> int:
    """Vector of a product given as (prime, numerator) pairs, in one term."""
    return sum(num << 32 * (term * _NP + _LANE_PRIMES.index(p)) for p, num in exponents)


@functools.cache
def root_vector(d0: int, l1_degrees: tuple[int, ...]) -> int:
    """The root's part of an A/B/C vector, for a root of degree d0 whose
    level-1 vertices have degrees l1_degrees: each 01-edge f(d0, d) in A,
    or a factor 2 in A when d0 = 0 (the isolated root), and a factor 2 in B
    per level-1 vertex of degree 1 (isolated in G - x)."""
    if d0 == 0:
        return _lanes(_A, _TWO)
    return sum(_lanes(_A, f_exponents(d0, d)) + (_lanes(_B, _TWO) if d == 1 else 0)
               for d in l1_degrees)


@functools.cache
def level2_vector(b: int, down: tuple[int, ...], up: tuple[int, ...]) -> int:
    """One level-2 vertex of degree b whose level-1 neighbors have degrees
    down and whose level-3 neighbors have degrees up (sorted tuples): each
    12-edge f(d, b) in A and f(d - 1, b) in B (x is gone); each 23-edge
    f(b, d) in A and B and f(len(up), d) in C (N(x) is gone), or a factor 2
    in C when up is empty (the vertex is isolated in G - N[x])."""
    vec = 0 if up else _lanes(_C, _TWO)
    for d in down:
        vec += _lanes(_A, f_exponents(d, b)) + _lanes(_B, f_exponents(d - 1, b))
    for d in up:
        vec += (_lanes(_A, f_exponents(b, d)) + _lanes(_B, f_exponents(b, d))
                + _lanes(_C, f_exponents(len(up), d)))
    return vec


# The pieces with their bounds, cached once per process for the callers
# that carry them: is_good over the level-2 vertices of one graph and stage 2
# over the records of one completion, both through carried_piece, and the
# searches' enumeration over the records of a shard.
@functools.cache
def root_piece(d0: int, l1_degrees: tuple[int, ...], prec: int) -> tuple[int, int, int]:
    """(root_vector(d0, l1_degrees), ux, uy): the vector and its ratio_bounds at prec."""
    vec = root_vector(d0, l1_degrees)
    return (vec, *ratio_bounds(vec, prec))


@functools.cache
def level2_piece(b: int, down: tuple[int, ...], up: tuple[int, ...], prec: int) -> tuple[int, int, int]:
    """(level2_vector(b, down, up), ux, uy): the vector and its ratio_bounds at prec."""
    vec = level2_vector(b, down, up)
    return (vec, *ratio_bounds(vec, prec))


def carried_piece(d0: int, l1_degrees: tuple[int, ...], level2, prec: int) -> tuple[int, int, int]:
    """(vec, hx, hy) of one lane: root_piece(d0, l1_degrees, prec) and a
    level2_piece per (b, down, up) of level2, the vectors summed and the
    bounds multiplied, every product rounded up at scale
    2^-(prec + GUARD_BITS).  is_good carries a vertex's lane this way and
    stage 2 a completion's; the searches multiply the same pieces down
    their enumeration."""
    scale = prec + GUARD_BITS
    vec, hx, hy = root_piece(d0, l1_degrees, prec)
    for b, down, up in level2:
        piece, ux, uy = level2_piece(b, down, up, prec)
        vec += piece
        hx, hy = -(-hx * ux >> scale), -(-hy * uy >> scale)
    return vec, hx, hy


def ratio_keys(vec: int) -> tuple[int, int]:
    """The keys of X = B/A and Y = C/A: the packed B and C parts minus the
    packed A part."""
    a = vec & _PART
    return (vec >> _PART_BITS & _PART) - a, (vec >> 2 * _PART_BITS) - a


def key_exponents(key: int) -> list[tuple[int, int]]:
    """The (prime, signed numerator over _SEARCH_DEN) pairs of a ratio key."""
    lanes = _UNPACK((key + _KEY_BIAS).to_bytes(4 * _NP, "little"))
    return [(p, x - (1 << 31)) for p, x in zip(_LANE_PRIMES, lanes) if x != 1 << 31]


def vector_outcome(
    vec: int,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> tuple[Outcome, str, int | None, tuple]:
    """certify_exponents' (outcome, method, precision, values) for an A/B/C
    exponent vector."""
    kx, ky = ratio_keys(vec)
    return certify_exponents(key_exponents(kx), key_exponents(ky), precision_start, precision_cap)


# Carried bounds: the searches multiply ratio_bounds of the shard's root
# vector and of each level-2 record's vector, once per copy of the record,
# down their enumeration, and carried_piece those of a root vector and of
# each level-2 vertex's vector, for is_good and stage 2, all from root_piece
# and level2_piece, rounding every product up.  Vectors add as their ratios
# multiply, so the carried hx and hy bound X and Y from above, and
# hx + hy < carried_limit(prec) decides the vector strict by intervals at
# prec.


def ratio_bounds(vec: int, prec: int) -> tuple[int, int]:
    """Upper bounds of X = B/A and Y = C/A of a root or record vector at
    scale 2^-(prec + GUARD_BITS): the fixed-point ceilings of the upper ends
    of intervals.table_product, which power_product only rounds further up."""
    scale = prec + GUARD_BITS
    return tuple(intervals.to_fixed(intervals.table_product(key_exponents(key), _SEARCH_DEN, prec),
                                    scale)[1] for key in ratio_keys(vec))


@functools.cache
def carried_limit(prec: int) -> int:
    """The least h = hx + hy whose widening h + floor(h 2^(2-prec)) + 2
    reaches 2^s, s = prec + GUARD_BITS: carried upper ends hx, hy of X and
    Y at scale 2^-s that sum below it decide A > B + C, reported as
    certify_exponents reports it, by intervals at prec (the start of its
    schedule, tried before the exact route whatever the integrality of the
    exponents).  A limit of 0 decides nothing.

    hx + hy < 2^s alone proves X + Y < 1; the widening keeps the route and
    precision certify_exponents would report.  Both bound X by powers of the
    root entries r_lo <= q^(1/3600) <= r_hi of the intervals table at
    w = prec + GUARD_BITS.  Let I be the product of r_hi^n over the lane
    primes q with numerator n > 0 and of r_lo^n over those with n < 0.  The
    carried bound of a search leaf multiplies one factor for the root vector
    and one per copy of each level-2 record; carried_piece, is_good's and
    stage 2's, multiplies one for the root vector and one per level-2
    vertex, for its level2_vector.  Each factor is the upper end of that
    vector's unrounded table product at w, a product of table entries.  The
    table derives every entry from a root entry by outward rounding, so the
    entry of q^(m/3600) is at least r_hi^m for m > 0 and r_lo^m for m < 0.
    The factors' numerators of a prime q sum to its n; with a the sum of the positive ones and b
    minus that of the negative ones, n = a - b, their entries multiply to at
    least r_hi^a / r_lo^b, which is at least the power of q in I.  Every
    rounding only raises the product, so hx >= I 2^s.
    certify_exponents' upper end of X exceeds I by the error of at most 11
    table entries, each about 40 roundings at w bits from a root entry
    (|n| < 2^20: by the lane comment above, every lane of a search or
    is_good vector stays below 125 * 7200 + 26 * 3600 < 2^20), so by a
    relative 2^(-prec-5) at most, then by its rounding up to prec bits (a
    relative 2^(1-prec)) and to the fixed-point grid
    (under 1); so does Y's.  So if certify_exponents' hi_x + hi_y reaches
    2^s, then I_x + I_y > 1/4, the widening's margin over those errors,
    about (I_x + I_y) 2^(s-prec), exceeds 2, and the widened h reaches 2^s
    too: a carried strict is a strict at prec by certify_exponents' first
    interval, which it tries before any exact route, and no tally or
    precision_stats entry moves.  h << 2 >> prec is the floor for every
    prec >= 1.

    The searches also decide whole subtrees of their enumeration below this
    limit (local.record_multisets): a node's bound multiplies the carried
    bound of its prefix by the largest product over its completions.  That
    is a product of the same factors, rounded up in some other order, and
    still at least I 2^s for every leaf under the node, so the argument
    covers it as it stands.  An Equal or failing leaf has X + Y >= 1, so
    every bound above it reaches 2^s >= this limit, and it never lies under
    a pruned node."""
    one = hi = 1 << prec + GUARD_BITS
    lo = 0
    while hi - lo > 1:  # widened lo < one <= widened hi
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid + (mid << 2 >> prec) + 2 < one else (lo, mid)
    return hi


def carried_outcome(
    piece: tuple[int, int, int],
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> tuple[Outcome, str, int | None, tuple]:
    """vector_outcome's (outcome, method, precision, values) of a carried
    piece (vec, hx, hy): strict by intervals at precision_start when hx + hy
    is below carried_limit(precision_start), as vector_outcome would report
    it (see carried_limit), else vector_outcome(vec)."""
    vec, hx, hy = piece
    if hx + hy < carried_limit(precision_start):
        return Outcome.STRICTLY_GREATER, "interval", precision_start, ()
    return vector_outcome(vec, precision_start, precision_cap)


class FFactReport(NamedTuple):
    """Exact check of the factor exchange inequality
    f(a-a', b) * f(a, b-b') >= f(a-a', b-b') * f(a, b)
    over 0 < a' < a <= delta, 0 < b' < b <= delta."""

    delta: int
    cases: tuple[tuple[tuple[int, int, int, int], Outcome], ...]
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "cases": len(self.cases),
            "failures": self.failures,
            "verdict": "PASS" if self.passed else "FAIL",
            "detail": [
                {"a": a, "a_prime": ap, "b": b, "b_prime": bp, "outcome": o.value}
                for (a, ap, b, bp), o in self.cases
            ],
        }


def check_f_fact(delta: int) -> FFactReport:
    """FFactReport of every case up to delta, 2 <= delta <= 6: exact, and
    ValueError from delta 7 on, where some a * b does not divide _SEARCH_DEN."""
    if delta < 2:
        raise ValueError("delta must be at least 2")
    cases = []
    failures = 0
    for a in range(2, delta + 1):
        for ap in range(1, a):
            for b in range(2, delta + 1):
                for bp in range(1, b):
                    lhs = FactorProduct.from_f_counts({(a - ap, b): 1, (a, b - bp): 1})
                    rhs = FactorProduct.from_f_counts({(a - ap, b - bp): 1, (a, b): 1})
                    verdict = compare_pure_products(lhs, rhs)
                    if not verdict.outcome.is_good():
                        failures += 1
                    cases.append(((a, ap, b, bp), verdict.outcome))
    return FFactReport(delta, tuple(cases), failures)
