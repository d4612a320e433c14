"""Rational-endpoint interval arithmetic with certified transcendentals.

Ring operations (+, -, *) on `CertifiedInterval` are exact: endpoints are
`fractions.Fraction`, so no rounding happens at all.  Polynomial evaluation
is exact too: the private kernel `_iv_horner` runs the Horner recurrence on
integer numerators over one common denominator d^m, reads the powers of d
from a table that a whole series can share, and returns the numerators
unreduced; `iv_polyval` reduces them to `Fraction` once, for
`EntropyPolynomial.evaluate`, which only the tests (as the Horner oracle)
and the benchmark tracer call.  Its interval
products (`_iv_mul_ints`) form only the two endpoint products min/max would
pick when a factor is nonnegative, so the endpoints are the same rationals
as step-by-step `CertifiedInterval` arithmetic.  `analytics` multiplies
its fixed-point intervals with `_iv_mul_ints`, and only `tau_certify`
still runs `_iv_horner`.  Two things round, always outward,
so every output encloses the true image of its input.  The transcendental
maps (log2, and the natural-log entropy with its derivative ln((1-x)/x),
one `_entropy_pair`) run on mpmath's raw (lo, hi) interval tuples, through
the `mpmath.libmp` kernels that mpmath's `iv` context calls, at the
explicit precision `_PREC` (120 bits), so they read and write no mpmath
state; `_ln_int` takes the log of an integer.  And fixed-point intervals,
integer pairs over 2^_FIX_BITS (256 bits), round each product and
quotient with `_round_out`, floor below and ceiling above; the weighted
derivative series of `analytics` (`derivative_series_at_p`, `tau_gamma`)
finish in them, so no endpoint grows with the number of terms.  The
mpmath endpoints are dyadic: `_dyadic` reads each as an integer mantissa
and exponent (inf and nan raise), `_from_mpi` turns them into Fractions
exactly, and `analytics` sums them as integers over one power of two.  mpmath loads on the first
transcendental call: each function imports the kernels it runs.
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


def _mpi(x) -> tuple:
    """x, an int or a CertifiedInterval, as a raw interval rounded outward to _PREC bits (floor, ceiling)."""
    import mpmath.libmp as libmp  # cheaper than a from-import, once per series term
    if isinstance(x, int):
        return libmp.from_int(x, _PREC, libmp.round_floor), libmp.from_int(x, _PREC, libmp.round_ceiling)
    return (libmp.from_rational(x.lo.numerator, x.lo.denominator, _PREC, libmp.round_floor),
            libmp.from_rational(x.hi.numerator, x.hi.denominator, _PREC, libmp.round_ceiling))


def _ln_int(n: int) -> tuple:
    """ln n for an integer n >= 1 as a raw interval at _PREC bits.

    For 2 <= n < 2^_PREC, n enters exactly and ln n is irrational, so its
    ceiling is the successor of its floor: one `mpf_log` where `mpi_log`
    runs two.  ln 1 is exactly 0, and past 2^_PREC n enters rounded outward.
    """
    import mpmath.libmp as libmp
    if n == 1 or n.bit_length() > _PREC:
        return libmp.mpi_log(_mpi(n), _PREC)
    lo = libmp.mpf_log(libmp.from_int(n), _PREC, libmp.round_floor)
    _, man, exp, bc = lo
    return lo, libmp.from_man_exp((man << (_PREC - bc)) + 1, exp - (_PREC - bc))


def _dyadic(raw: tuple) -> tuple[int, int]:
    """(m, e) with m 2^e the value of mpmath's raw (sign, man, exp, bc) tuple; zero reads as (0, 0).

    inf and nan, a zero mantissa with a negative bit count, raise; their exponent is never read.
    """
    sign, man, exp, bc = raw
    if bc < 0:
        raise ValueError(f"mpmath endpoint is not a finite number: {raw}")
    return (-int(man) if sign else int(man)), exp


def _from_mpi(x: tuple) -> CertifiedInterval:
    return CertifiedInterval(*(Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e) for m, e in map(_dyadic, x)))


@lru_cache(maxsize=None)
def ln2_interval() -> CertifiedInterval:
    return _from_mpi(_ln_int(2))


def iv_log2(ci: CertifiedInterval) -> CertifiedInterval:
    """Enclosure of log2 over the interval, as ln x / ln 2; requires lo > 0."""
    if ci.lo <= 0:
        raise ValueError(f"log of nonpositive interval {ci}")
    from mpmath.libmp import mpi_div, mpi_log
    return _from_mpi(mpi_div(mpi_log(_mpi(ci), _PREC), _ln_int(2), _PREC))


def _entropy_pair(ci: CertifiedInterval) -> tuple[CertifiedInterval, CertifiedInterval]:
    """Enclosures of H(x) = -x ln x - (1-x) ln(1-x) and H'(x) = ln((1-x)/x); requires ci inside (0,1).

    x and 1 - x enter mpmath once each and both maps read them.  1 - x is
    the rounded difference; where its lower end reaches 0 (ci.hi within
    about 2^-_PREC of 1) it enters from the exact rationals 1 - ci instead.
    """
    if not (0 < ci.lo and ci.hi < 1):
        raise ValueError(f"need an interval inside (0,1), got {ci}")
    from mpmath.libmp import mpf_sign, mpi_div, mpi_log, mpi_mul, mpi_neg, mpi_sub
    x = _mpi(ci)
    y = mpi_sub(_mpi(1), x, _PREC)
    if mpf_sign(y[0]) <= 0:
        y = _mpi(1 - ci)
    x_ln_x, y_ln_y = (mpi_mul(v, mpi_log(v, _PREC), _PREC) for v in (x, y))
    return (_from_mpi(mpi_sub(mpi_neg(x_ln_x, _PREC), y_ln_y, _PREC)),
            _from_mpi(mpi_log(mpi_div(y, x, _PREC), _PREC)))
