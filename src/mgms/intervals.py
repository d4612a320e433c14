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
context bit for bit, and mpmath only takes logs and exps (`_mpf`,
`_ln_int`) at that explicit precision, reading and writing no mpmath state;
it loads on the first such call.  And fixed-point intervals, integer pairs
over 2^_FIX_BITS (256 bits), round each product and quotient with
`_round_out`, floor below and ceiling above; the weighted derivative series
of `analytics` (`derivative_series_at_p`, `tau_gamma`) finish in them, so
no endpoint grows with the number of terms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Union

Rational = Union[int, Fraction]
Scalar = Union[int, float, Fraction]


def _to_fraction(x: Scalar) -> Fraction:
    # float -> Fraction is exact (binary64 values are dyadic rationals)
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class CertifiedInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _to_fraction(self.lo))
        object.__setattr__(self, "hi", _to_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

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


# -- mpmath bridge ------------------------------------------------------------

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


def _mpf(fn: str, lo: tuple[int, int], hi: tuple[int, int]) -> tuple:
    """mpmath's `mpf_<fn>` (fn "log" or "exp") at _PREC bits: floor at the end lo, ceiling at hi."""
    import mpmath.libmp as libmp  # cheaper than a from-import, once per series term
    f, raw = getattr(libmp, "mpf_" + fn), libmp.from_man_exp
    return _dyadic(f(raw(*lo), _PREC, libmp.round_floor)), _dyadic(f(raw(*hi), _PREC, libmp.round_ceiling))


def _ln_int(n: int) -> tuple:
    """ln n for an integer n >= 1 as (m, e) ends at _PREC bits: floor, ceiling.

    For 2 <= n < 2^_PREC, ln n is irrational, so its ceiling is the successor (m 2^s + 1, e - s),
    s = _PREC - bits(m), of its floor (m, e): one `mpf_log`.  Past 2^_PREC n rounds outward first.
    """
    if n < 1:
        raise ValueError(f"need an integer n >= 1, got {n}")
    if n == 1 or n.bit_length() > _PREC:
        return _mpf("log", _round(n, 1, False), _round(n, 1, True))
    import mpmath.libmp as libmp
    m, e = _dyadic(libmp.mpf_log(libmp.from_int(n), _PREC, libmp.round_floor))
    s = _PREC - m.bit_length()
    return (m, e), ((m << s) + 1, e - s)


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
    (a, ea), (b, eb) = _mpf("log", *_outward(ci))
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
    for ((v_lo, ev_lo), (v_hi, ev_hi)), ((l_lo, el_lo), (l_hi, el_hi)) in ((v, _mpf("log", *v)) for v in (x, y)):
        terms[0].append(_round(-v_lo * l_hi, 1, False, ev_lo + el_hi))
        terms[1].append(_round(-v_hi * l_lo, 1, True, ev_hi + el_lo))
    e_min = min(e for end in terms for _, e in end)
    h = (_round(sum(m << (e - e_min) for m, e in end), 1, up, e_min) for end, up in zip(terms, (False, True)))
    return _interval(*h), _interval(*_mpf("log", _round(y_lo, x_hi, False, ey_lo - ex_hi),
                                                  _round(y_hi, x_lo, True, ey_hi - ex_lo)))
