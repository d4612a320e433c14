"""Rational-endpoint interval arithmetic with certified transcendentals.

Ring operations (+, -, *) on `CertifiedInterval` are exact: endpoints are
`fractions.Fraction`, so no rounding happens at all.  Polynomial evaluation
is exact too: the private kernel `_iv_horner` runs the Horner recurrence on
integer numerators over one common denominator d^m, reads the powers of d
from a table that a whole series can share, and returns the numerators
unreduced; `iv_polyval` reduces them to `Fraction` once, for
`EntropyPolynomial.evaluate`, which only the tests (as the Horner oracle)
and the benchmark tracer call.  Its interval products (`_iv_mul_ints`) form
only the two endpoint products min/max would pick when a factor is
nonnegative, so the endpoints are the same rationals as step-by-step
`CertifiedInterval` arithmetic.  `analytics` multiplies its fixed-point
intervals with `_iv_mul_ints`, and only `tau_certify` still runs
`_iv_horner`.  Two things round, always outward, so every output encloses
the true image of its input.  The transcendental maps (log2, and the
natural-log entropy with its derivative ln((1-x)/x), one `_entropy_pair`)
work on integer ends (m, e), standing for m 2^e, at `_PREC` (120) bits:
every rounding that is not a transcendental is one integer floor or
ceiling, `_round`, which gives the ends of mpmath's correctly rounded `iv`
context bit for bit, and every logarithm end is one `_ln`, which reduces its
argument by a power of two and a table of ln(j/2^_S), sums an atanh
series on integers, and returns the correctly rounded floor and ceiling
by Ziv's test.  Only the exps of `tau_gamma`'s weights call mpmath
(`_exp`), at that explicit precision, reading and writing no mpmath state;
it loads on the first such call.  And fixed-point intervals, integer pairs
over 2^_FIX_BITS (256 bits), round each product and quotient with
`_round_out`, floor below and ceiling above; the weighted derivative series
of `analytics` (`derivative_series_at_p`, `tau_gamma`) finish in them, so
no endpoint grows with the number of terms.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from typing import NamedTuple, Union

Rational = Union[int, Fraction]
Scalar = Union[int, float, Fraction]


def _to_fraction(x: Scalar) -> Fraction:
    # float -> Fraction is exact (binary64 values are dyadic rationals)
    return x if isinstance(x, Fraction) else Fraction(x)


class CertifiedInterval(NamedTuple("CertifiedInterval", [("lo", Fraction), ("hi", Fraction)])):
    """Closed interval [lo, hi] with exact rational endpoints.

    A record: equality and the hash are those of the tuple (lo, hi), and
    + and * are the interval operations below, not the tuple ones.
    """

    __slots__ = ()

    def __new__(cls, lo: Scalar, hi: Scalar):
        lo, hi = _to_fraction(lo), _to_fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        return tuple.__new__(cls, (lo, hi))

    @staticmethod
    def point(x: Scalar) -> "CertifiedInterval":
        f = _to_fraction(x)
        return CertifiedInterval(f, f)

    # -- inspection ----------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def mid_float(self) -> float:
        return float(self.midpoint)

    def contains(self, x: Scalar) -> bool:
        f = _to_fraction(x)
        return self.lo <= f <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def is_positive(self) -> bool:
        return self.lo > 0

    def is_negative(self) -> bool:
        return self.hi < 0

    def __str__(self) -> str:
        return f"[{float(self.lo)!r}, {float(self.hi)!r}]"

    # -- exact ring arithmetic ------------------------------------------------

    def _coerce(self, other) -> "CertifiedInterval":
        if isinstance(other, CertifiedInterval):
            return other
        return CertifiedInterval.point(other)

    def __add__(self, other) -> "CertifiedInterval":
        o = self._coerce(other)
        return CertifiedInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "CertifiedInterval":
        return CertifiedInterval(-self.hi, -self.lo)

    def __sub__(self, other) -> "CertifiedInterval":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CertifiedInterval":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "CertifiedInterval":
        o = self._coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return CertifiedInterval(min(products), max(products))

    __rmul__ = __mul__

    def widen(self, pad: Scalar) -> "CertifiedInterval":
        f = _to_fraction(pad)
        if f < 0:
            raise ValueError("pad must be nonnegative")
        return CertifiedInterval(self.lo - f, self.hi + f)


def _iv_mul_ints(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> tuple[int, int]:
    """[a_lo, a_hi] * [b_lo, b_hi] on integer endpoints, as `CertifiedInterval.__mul__`.

    The result is the min and max of the four endpoint products.  When one
    factor is nonnegative only the two products that min and max would pick
    are formed: with b_lo >= 0 the lower end is a_lo*b_lo if a_lo >= 0, else
    a_lo*b_hi, and the upper end is a_hi*b_hi if a_hi >= 0, else a_hi*b_lo.
    """
    if b_lo < 0 <= a_lo:
        a_lo, a_hi, b_lo, b_hi = b_lo, b_hi, a_lo, a_hi
    if b_lo >= 0:
        return a_lo * (b_lo if a_lo >= 0 else b_hi), a_hi * (b_hi if a_hi >= 0 else b_lo)
    products = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return min(products), max(products)


_FIX_BITS = 256  # a fixed-point interval is an integer pair (lo, hi) standing for [lo, hi] / 2^_FIX_BITS


def _round_out(lo: int, hi: int, den: int) -> tuple[int, int]:
    """The integer interval [floor(lo/den), ceil(hi/den)] around [lo, hi]/den, for den > 0.

    This is the one rounding of fixed-point arithmetic: a rational r = n/d
    enters as `_round_out(n << _FIX_BITS, n << _FIX_BITS, d)`, and a product
    of two fixed-point intervals (`_iv_mul_ints`) returns to 2^-_FIX_BITS
    through `_round_out(lo, hi, 1 << _FIX_BITS)`.  Outward, so the result
    encloses its input.
    """
    return lo // den, -(-hi // den)


def _common_numerators(x: CertifiedInterval) -> tuple[int, int, int]:
    """(x_lo, x_hi, d) with x = [x_lo/d, x_hi/d] and d = lcm(den(lo), den(hi))."""
    d = math.lcm(x.lo.denominator, x.hi.denominator)
    return x.lo.numerator * (d // x.lo.denominator), x.hi.numerator * (d // x.hi.denominator), d


def _powers(d: int, m: int) -> list[int]:
    """[1, d, d^2, ..., d^m]: the denominators `_iv_horner` reads, built once per table."""
    return list(accumulate(repeat(d, m), operator.mul, initial=1))


def _iv_horner(ints, x_lo: int, x_hi: int, powers: list[int]) -> tuple[int, int, int]:
    """Interval Horner on integer numerators: sum_j ints[j] x^j = [lo/scale, hi/scale].

    `ints` are the integer coefficients, ascending, at least one; x is
    [x_lo/d, x_hi/d] and `powers` = `_powers(d, m)` for some m >= the degree,
    so one table serves every polynomial of a series.  The recurrence
    acc = acc * x + c picks the same endpoints at each step as
    `CertifiedInterval` arithmetic, with them kept as numerators over
    scale = d^degree and never normalised by a gcd.  For x_lo >= 0 the
    endpoint choice of `_iv_mul_ints` is made inline; a zero coefficient
    adds nothing.
    """
    lo = hi = ints[-1]
    nonnegative = x_lo >= 0
    for step, c in enumerate(reversed(ints[:-1]), 1):
        if nonnegative:
            lo *= x_lo if lo >= 0 else x_hi
            hi *= x_hi if hi >= 0 else x_lo
        else:
            lo, hi = _iv_mul_ints(lo, hi, x_lo, x_hi)
        if c:
            shift = c * powers[step]
            lo += shift
            hi += shift
    return lo, hi, powers[len(ints) - 1]


def iv_polyval(coeffs, x: CertifiedInterval) -> CertifiedInterval:
    """Interval Horner evaluation of sum_j coeffs[j] x^j with integer coefficients.

    The endpoints are the rationals step-by-step `CertifiedInterval` Horner
    gives; `_iv_horner` computes them on integer numerators and they are
    reduced to `Fraction` once here.
    """
    ints = []
    for c in coeffs:
        q = _to_fraction(c)
        if q.denominator != 1:
            raise ValueError(f"iv_polyval needs integer coefficients, got {c}")
        ints.append(q.numerator)
    if not ints:
        raise ValueError("iv_polyval needs at least one coefficient")
    x_lo, x_hi, d = _common_numerators(x)
    lo, hi, scale = _iv_horner(ints, x_lo, x_hi, _powers(d, len(ints) - 1))
    return CertifiedInterval(Fraction(lo, scale), Fraction(hi, scale))


# -- rounding to _PREC bits and logarithms on integers --------------------------

_PREC = 120  # bits of every transcendental endpoint


def _round(num: int, den: int, up: bool, shift: int = 0) -> tuple[int, int]:
    """(m, e), |m| < 2^_PREC, with m 2^e the floor (ceiling if up) of num/den * 2^shift at _PREC bits; den > 0.

    mpmath's +, -, * and / round correctly, so this gives their endpoints; m need not be odd.
    """
    if not num:
        return 0, 0
    s = _PREC - num.bit_length() + den.bit_length()  # |num| 2^s / den lies in [2^(_PREC-1), 2^(_PREC+1))
    n, d = (num << s, den) if s >= 0 else (num, den << -s)
    q = -(-n // d) if up else n // d
    while abs(q) >> _PREC:  # at most twice: one bit too many, then a carry onto 2^_PREC
        s -= 1
        q = -(-q >> 1) if up else q >> 1
    return q, shift - s


def _outward(ci: CertifiedInterval) -> tuple:
    """ci rounded outward to _PREC bits, as (m, e) ends: floor, ceiling."""
    return _round(ci.lo.numerator, ci.lo.denominator, False), _round(ci.hi.numerator, ci.hi.denominator, True)


_S = 7  # the table holds ln(j / 2^_S) for 3/4 <= j / 2^_S <= 3/2
_J0 = 3 << (_S - 2)  # its first j
_GUARD = 30  # bits past _PREC in the first pass of `_ln`
_table = (0, 0, [], 0)  # (bits, ln 2, entries, err): each within err of its value times 2^bits


def _atanh(a: int, b: int, bits: int) -> tuple[int, int]:
    """(s, n) with s <= atanh(a/b) 2^bits < s + n, for integers 0 <= a <= b/2.

    The series t + t^3/3 + t^5/5 + ... (t = a/b) is summed on floors over 2^bits: each
    power is the floor of the last one times floor(t^2 2^bits), and the loop stops at the
    first power that floors to 0, at divisor d.  With t <= 1/2 each power is short of its
    value by less than 2 units, so each term by less than 2 (the first by less than 1), and
    the terms the loop drops add up to less than 1: the deficit is below d + 1 units.
    """
    s = p = (a << bits) // b
    q = (a * a << bits) // (b * b)
    d = 1
    while p:
        p = p * q >> bits
        d += 2
        s += p // d
    return s, d + 1


def _ln_table(bits: int) -> tuple:
    """The table at `bits` or more bits: (bits, ln 2, [ln(j/2^_S) for j from _J0 to 2 _J0], err).

    Built on the first log and rebuilt only when a log needs more bits, at no fewer than
    _PREC + 64; a constant of the algorithm, so no result depends on when it was built.
    Starting from ln 1 = 0 at j = 2^_S, each entry above adds ln((j+1)/j) = 2 atanh(1/(2j+1))
    to its lower neighbour, and each entry below subtracts ln((j+1)/j) from its upper one.
    Every `_atanh` is a lower bound, so the entries above 2^_S are too low and those below
    too high, each by less than the sum of the deficits on its side; ln 2 = ln(3/2) - ln(3/4)
    is too low by less than both sums together, err.
    """
    global _table
    if _table[0] < bits:
        bits = max(bits, _PREC + 64)
        up, down, err = [0], [0], 0
        for j in range(1 << _S, 2 * _J0):  # ln((j+1)/2^_S) from ln(j/2^_S)
            s, n = _atanh(1, 2 * j + 1, bits)
            up.append(up[-1] + 2 * s)
            err += 2 * n
        for j in range((1 << _S) - 1, _J0 - 1, -1):  # ln(j/2^_S) from ln((j+1)/2^_S)
            s, n = _atanh(1, 2 * j + 1, bits)
            down.append(down[-1] - 2 * s)
            err += 2 * n
        _table = bits, up[-1] - down[-1], down[:0:-1] + up, err
    return _table


def _ln_sum(m: int, e: int, guard: int) -> tuple[int, int, int]:
    """(r, B, W) with |ln(m 2^e) 2^W - r| < B, for an integer m >= 1: one pass of `_ln`.

    With x = m 2^e = f 2^k, 3/4 <= f < 3/2, and j = round(f 2^_S),
    ln x = k ln 2 + ln(j/2^_S) + 2 atanh(t),  t = (f 2^_S - j)/(f 2^_S + j),  |t| < 2^-(_S+1).
    Next to 1, where k = 0 and j = 2^_S, ln x = 2 atanh(t) needs no table, and |ln x| >= 2|t|
    >= 2^-z with z = bits(f 2^_S + j) - bits(f 2^_S - j) (numerators over one denominator);
    elsewhere |ln x| > 2^-9.  So W = _PREC + guard + z (z = 0 away from 1) keeps guard bits
    below the last of _PREC significant ones.  The error bound is
    B = 2n + ((|k| + 1) err >> shift) + 2 units of 2^-W: 2n bounds the doubled deficit n of
    `_atanh`, and the table part k ln 2 + ln(j/2^_S), off by less than (|k| + 1) err units of
    2^-(W + shift), drops shift bits with one floor.
    """
    c = m.bit_length()
    if 4 * m < 3 << c:
        c -= 1  # f = m / 2^c
    k, j = c + e, ((m << (_S + 1) >> c) + 1) >> 1
    a, b = (m << _S) - (j << c), (m << _S) + (j << c)
    near = k == 0 and j == 1 << _S
    W = _PREC + guard + (b.bit_length() - abs(a).bit_length() if near else 0)
    s, n = _atanh(abs(a), b, W)
    r, B = (2 * s if a >= 0 else -2 * s), 2 * n
    if not near:
        bits, ln2, entries, err = _ln_table(W + 16 + abs(k).bit_length())
        shift = bits - W
        r += (k * ln2 + entries[j - _J0]) >> shift
        B += ((abs(k) + 1) * err >> shift) + 2
    return r, B, W


def _ln(m: int, e: int) -> tuple:
    """ln(m 2^e) for an integer m >= 1 as (m, e) ends at _PREC bits: the correct floor and ceiling.

    Ziv's test on `_ln_sum`: when r - B and r + B lie in one binade and share their top _PREC
    bits, those bits over 2^-W are the _PREC-bit floor of both ends and so of ln x between
    them, and one unit more is its ceiling, because ln x, irrational for every dyadic x != 1,
    lies strictly above its floor.  Otherwise the sum runs again with 64 more guard bits.
    The loop ends: B 2^-W shrinks to 0 as W grows (B grows with W only through the number of
    series terms), and ln x lies at a positive distance from every _PREC-bit number.
    ln 1 = 0 is returned exactly, before the loop.  The ends are values: m may be 2^_PREC.
    """
    if m < 1:
        raise ValueError(f"need an integer m >= 1, got {m}")
    if e <= 0 and m == 1 << -e:
        return (0, 0), (0, 0)
    guard = _GUARD
    while True:
        r, B, W = _ln_sum(m, e, guard)
        lo, hi = r - B, r + B
        bits = abs(lo).bit_length()
        shift = bits - _PREC
        if shift > 0 and abs(hi).bit_length() == bits and lo >> shift == hi >> shift:
            q = lo >> shift
            return (q, shift - W), (q + 1, shift - W)
        guard += 64


def _ln_ends(lo: tuple[int, int], hi: tuple[int, int]) -> tuple:
    """ln over the interval [lo, hi] of (m, e) ends, m >= 1: the floor of ln lo, the ceiling of ln hi."""
    return _ln(*lo)[0], _ln(*hi)[1]


def _ln_int(n: int) -> tuple:
    """ln n for an integer n >= 1 as (m, e) ends at _PREC bits: the correct floor and ceiling.

    n enters exactly, however many bits it has, and one `_ln` gives both ends.
    """
    if n < 1:
        raise ValueError(f"need an integer n >= 1, got {n}")
    return _ln(n, 0)


# -- mpmath bridge: exp only ------------------------------------------------------


def _exp(lo: tuple[int, int], hi: tuple[int, int]) -> tuple:
    """mpmath's `mpf_exp` at _PREC bits: floor at the end lo, ceiling at hi; loads mpmath on first use."""
    import mpmath.libmp as libmp  # cheaper than a from-import, once per series term
    raw = libmp.from_man_exp
    return (_dyadic(libmp.mpf_exp(raw(*lo), _PREC, libmp.round_floor)),
            _dyadic(libmp.mpf_exp(raw(*hi), _PREC, libmp.round_ceiling)))


def _dyadic(raw: tuple) -> tuple[int, int]:
    """(m, e) with m 2^e the value of mpmath's raw (sign, man, exp, bc) tuple, zero as (0, 0); inf and nan raise."""
    sign, man, exp, bc = raw
    if bc < 0:
        raise ValueError(f"mpmath endpoint is not a finite number: {raw}")
    return (-int(man) if sign else int(man)), exp


def _interval(lo: tuple[int, int], hi: tuple[int, int]) -> CertifiedInterval:
    return CertifiedInterval(*(Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e) for m, e in (lo, hi)))


@lru_cache(maxsize=None)
def ln2_interval() -> CertifiedInterval:
    return _interval(*_ln_int(2))


def iv_log2(ci: CertifiedInterval) -> CertifiedInterval:
    """Enclosure of log2 over the interval, as ln x / ln 2; requires lo > 0."""
    if ci.lo <= 0:
        raise ValueError(f"log of nonpositive interval {ci}")
    (a, ea), (b, eb) = _ln_ends(*_outward(ci))
    (l, el), (u, eu) = _ln_int(2)  # each end over the end of ln 2 that moves it outward, as `mpi_div` picks
    return _interval(_round(a, u, False, ea - eu) if a >= 0 else _round(a, l, False, ea - el),
                     _round(b, l, True, eb - el) if b >= 0 else _round(b, u, True, eb - eu))


def _entropy_pair(ci: CertifiedInterval) -> tuple[CertifiedInterval, CertifiedInterval]:
    """Enclosures of H(x) = -x ln x - (1-x) ln(1-x) and H'(x) = ln((1-x)/x); requires ci inside (0,1).

    Each step rounds outward as mpmath's `mpi_*` kernels do.  1 - x is the rounded difference, or,
    where its lower end reaches 0 (ci.hi within about 2^-_PREC of 1), rounded from 1 - ci.
    """
    if not (0 < ci.lo and ci.hi < 1):
        raise ValueError(f"need an interval inside (0,1), got {ci}")
    (x_lo, ex_lo), (x_hi, ex_hi) = x = _outward(ci)
    y = _round((1 << -ex_hi) - x_hi, 1, False, ex_hi), _round((1 << -ex_lo) - x_lo, 1, True, ex_lo)  # x <= 1
    (y_lo, ey_lo), (y_hi, ey_hi) = y = y if y[0][0] > 0 else _outward(1 - ci)
    # v = x, y lies in (0, 1], where ln <= 0, so -v ln v is [-v_lo (ln v)_hi, -v_hi (ln v)_lo], and H their sum
    terms = ([], [])
    for ((v_lo, ev_lo), (v_hi, ev_hi)), ((l_lo, el_lo), (l_hi, el_hi)) in ((v, _ln_ends(*v)) for v in (x, y)):
        terms[0].append(_round(-v_lo * l_hi, 1, False, ev_lo + el_hi))
        terms[1].append(_round(-v_hi * l_lo, 1, True, ev_hi + el_lo))
    e_min = min(e for end in terms for _, e in end)
    h = (_round(sum(m << (e - e_min) for m, e in end), 1, up, e_min) for end, up in zip(terms, (False, True)))
    return _interval(*h), _interval(*_ln_ends(_round(y_lo, x_hi, False, ey_lo - ex_hi),
                                              _round(y_hi, x_lo, True, ey_hi - ex_lo)))
