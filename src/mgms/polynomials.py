"""The polynomial family behind golden-cylinder partition entropies.

F_0(x) = 1, F_1(x) = 1 + x, F_k(x) = 1 + x F_{k-1}(x) + (1-x) F_{k-2}(x),
so that the entropy of the length-k cylinder partition under the golden
Markov measure with parameter r factors as H(r) * F_{k-1}(r).  The family
also admits the closed form

    F_k(x) = ((x-1)^{k+2} - (k+2) x + (2k+3)) / (x-2)^2,

which is checked against the recurrence coefficient-by-coefficient in the
tests.  Coefficients are exact rationals (integers, by the recurrence);
evaluation is generic over any type supporting + and * with Fraction
(floats, Fractions), and certified intervals go through the exact
integer-numerator Horner `intervals.iv_polyval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .intervals import CertifiedInterval, iv_polyval


@dataclass(frozen=True)
class EntropyPolynomial:
    """F_k as an exact coefficient vector (ascending powers, degree k)."""

    index: int
    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x):
        """Horner evaluation; works for float, Fraction, CertifiedInterval."""
        return _horner(self.coeffs, x)

    @property
    def derivative_coeffs(self) -> tuple[Fraction, ...]:
        # integer coefficients (as the recurrence makes them) give j * c without a gcd
        if any(c.denominator != 1 for c in self.coeffs):
            raise ValueError(f"F_{self.index} has a non-integral coefficient")
        out = tuple(Fraction(j * c.numerator) for j, c in enumerate(self.coeffs[1:], 1))
        return out or (Fraction(0),)

    def evaluate_derivative(self, x):
        return _horner(self.derivative_coeffs, x)


def _horner(coeffs: tuple[Fraction, ...], x):
    """sum_j coeffs[j] x^j by Horner; an interval x of degree >= 1 goes to `iv_polyval`."""
    if isinstance(x, CertifiedInterval) and len(coeffs) > 1:
        return iv_polyval(coeffs, x)
    acc = coeffs[-1] * 1  # copy / coerce
    if isinstance(x, float):
        acc = float(acc)
    for c in reversed(coeffs[:-1]):
        acc = acc * x + (float(c) if isinstance(x, float) else c)
    return acc


@lru_cache(maxsize=None)
def entropy_poly(k: int) -> EntropyPolynomial:
    """F_k by the recurrence, with exact rational coefficients."""
    if k < 0:
        raise ValueError(f"index must be >= 0, got {k}")
    if k == 0:
        return EntropyPolynomial(0, (Fraction(1),))
    if k == 1:
        return EntropyPolynomial(1, (Fraction(1), Fraction(1)))
    a = entropy_poly(k - 1).coeffs  # F_{k-1}
    b = entropy_poly(k - 2).coeffs  # F_{k-2}
    out = [Fraction(0)] * (k + 1)
    out[0] += 1
    for j, c in enumerate(a):  # + x * F_{k-1}
        out[j + 1] += c
    for j, c in enumerate(b):  # + (1 - x) * F_{k-2}
        out[j] += c
        out[j + 1] -= c
    return EntropyPolynomial(k, tuple(out))


def entropy_poly_closed_form(k: int) -> EntropyPolynomial:
    """F_k via the closed form, dividing exactly by (x-2)^2.

    Independent of the recurrence path; the division must leave zero
    remainder, which is asserted.
    """
    if k < 0:
        raise ValueError(f"index must be >= 0, got {k}")
    # numerator (x-1)^{k+2} - (k+2) x + (2k+3), ascending coefficients
    num = [Fraction(0)] * (k + 3)
    sign = 1 if (k + 2) % 2 == 0 else -1
    binom = 1
    for j in range(k + 3):
        num[j] += Fraction(sign * binom)
        sign = -sign
        binom = binom * (k + 2 - j) // (j + 1)
    num[1] -= k + 2
    num[0] += 2 * k + 3
    # synthetic division by x^2 - 4x + 4
    quot = [Fraction(0)] * (k + 1)
    rem = list(num)
    for j in range(k, -1, -1):
        q = rem[j + 2]
        quot[j] = q
        rem[j + 2] -= q
        rem[j + 1] += 4 * q
        rem[j] -= 4 * q
    if any(rem):
        raise ArithmeticError(f"(x-2)^2 does not divide the closed-form numerator at k={k}")
    return EntropyPolynomial(k, tuple(quot))
