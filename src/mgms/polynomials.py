"""The polynomial family behind golden-cylinder partition entropies.

F_0(x) = 1, F_1(x) = 1 + x, F_k(x) = 1 + x F_{k-1}(x) + (1-x) F_{k-2}(x),
so that the entropy of the length-k cylinder partition under the golden
Markov measure with parameter r factors as H(r) * F_{k-1}(r).  The family
also admits the closed form

    F_k(x) = ((x-1)^{k+2} - (k+2) x + (2k+3)) / (x-2)^2,

which the tests check against the recurrence coefficient by coefficient
(the closed-form oracle lives in tests/conftest.py).  The recurrence runs
on Python ints, so coefficients are exact integers; evaluation is generic
over floats and Fractions, and certified intervals go through the exact
integer-numerator Horner `intervals.iv_polyval`.

The coefficients grow like 2^k, and interval Horner on them widens an
enclosure about 2^(k/2)-fold, so the run-time series use the closed form
F_k = 1 + L_k instead (`analytics._zero_count_jet`).  Only
`analytics.tau_certify` still evaluates these coefficients, for k <= 11;
the tests use the rest as the oracle of that closed form.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .intervals import CertifiedInterval, iv_polyval


class EntropyPolynomial(NamedTuple):
    """F_k as an exact integer coefficient vector (ascending powers, degree k)."""

    index: int
    coeffs: tuple[int, ...]

    def evaluate(self, x):
        """Horner evaluation; works for float, Fraction, CertifiedInterval."""
        return _horner(self.coeffs, x)

    @property
    def derivative_coeffs(self) -> tuple[int, ...]:
        return tuple(j * c for j, c in enumerate(self.coeffs[1:], 1)) or (0,)

    def evaluate_derivative(self, x):
        return _horner(self.derivative_coeffs, x)


def _horner(coeffs: tuple[int, ...], x):
    """sum_j coeffs[j] x^j by Horner; an interval x of degree >= 1 goes to `iv_polyval`."""
    if isinstance(x, CertifiedInterval) and len(coeffs) > 1:
        return iv_polyval(coeffs, x)
    acc = coeffs[-1] * 1  # copy / coerce
    if isinstance(x, float):
        acc = float(acc)
    for c in reversed(coeffs[:-1]):
        acc = acc * x + (float(c) if isinstance(x, float) else c)
    return acc


@lru_cache(maxsize=1)
def _coefficient_rows() -> list[tuple[int, ...]]:
    """The coefficients of F_0, F_1, ... computed so far; `entropy_poly` extends the list."""
    return [(1,), (1, 1)]


def entropy_poly(k: int) -> EntropyPolynomial:
    """F_k by the recurrence, with exact integer coefficients.

    Rows are filled bottom-up, one tuple per index, so any k is reached
    without recursion; `entropy_poly.cache_clear()` empties the rows.
    """
    if k < 0:
        raise ValueError(f"index must be >= 0, got {k}")
    rows = _coefficient_rows()
    for j in range(len(rows), k + 1):
        a, b = rows[j - 1], rows[j - 2]  # F_{j-1}, F_{j-2}
        # 1 + x F_{j-1} + (1 - x) F_{j-2}, coefficient by coefficient
        rows.append((1 + b[0],) + tuple(u + v - w for u, v, w in zip(a, b[1:] + (0, 0), b + (0,))))
    return EntropyPolynomial(k, rows[k])


entropy_poly.cache_clear = _coefficient_rows.cache_clear
