"""Entropy polynomial family: recurrence, closed form, CAS cross-check."""

from fractions import Fraction

import pytest
import sympy

from mgms.analytics import solve_p
from mgms.intervals import CertifiedInterval, iv_polyval
from mgms.polynomials import entropy_poly

from conftest import entropy_poly_closed_form, object_horner


def sympy_family(kmax: int):
    x = sympy.Symbol("x")
    polys = [sympy.Integer(1), 1 + x]
    for k in range(2, kmax + 1):
        polys.append(sympy.expand(1 + x * polys[k - 1] + (1 - x) * polys[k - 2]))
    return x, polys


def test_base_cases():
    assert entropy_poly(0).coeffs == (Fraction(1),)
    assert entropy_poly(1).coeffs == (Fraction(1), Fraction(1))
    assert entropy_poly(2).coeffs == (Fraction(2), Fraction(0), Fraction(1))  # x^2 + 2


@pytest.mark.parametrize("k", range(0, 31))
def test_recurrence_equals_closed_form_exactly(k):
    assert entropy_poly(k).coeffs == entropy_poly_closed_form(k).coeffs


def test_matches_sympy_expansion():
    x, polys = sympy_family(25)
    for k in range(26):
        ours = sympy.Poly(
            [sympy.Rational(c) for c in reversed(entropy_poly(k).coeffs)], x
        ).as_expr()
        assert sympy.expand(ours - polys[k]) == 0


def test_closed_form_matches_sympy_division():
    x = sympy.Symbol("x")
    for k in (0, 1, 5, 12):
        expr = sympy.cancel(((x - 1) ** (k + 2) - (k + 2) * x + (2 * k + 3)) / (x - 2) ** 2)
        ours = sympy.Poly(
            [sympy.Rational(c) for c in reversed(entropy_poly_closed_form(k).coeffs)], x
        ).as_expr()
        assert sympy.expand(ours - expr) == 0


@pytest.mark.parametrize("k", range(0, 31))
def test_value_at_one(k):
    assert entropy_poly(k).evaluate(Fraction(1)) == k + 1


@pytest.mark.parametrize("k", range(2, 31))
def test_telescoping_difference_identity(k):
    # F_k - F_{k-1} = 1 - (1-x)(F_{k-1} - F_{k-2}), exactly
    fk = entropy_poly(k).coeffs
    fk1 = entropy_poly(k - 1).coeffs
    fk2 = entropy_poly(k - 2).coeffs

    def sub(a, b):
        size = max(len(a), len(b))
        return [
            (a[j] if j < len(a) else 0) - (b[j] if j < len(b) else 0) for j in range(size)
        ]

    lhs = sub(fk, fk1)
    d = sub(fk1, fk2)
    rhs = [Fraction(1)] + [Fraction(0)] * (len(lhs) - 1)
    for j, c in enumerate(d):  # subtract (1-x) * d = d - x*d
        rhs[j] -= c
        if j + 1 < len(rhs):
            rhs[j + 1] += c
        elif c:
            rhs.append(c)
    assert lhs == rhs


def test_derivative_matches_sympy():
    x = sympy.Symbol("x")
    for k in (1, 3, 8, 15):
        poly = entropy_poly(k)
        expr = sympy.Poly([sympy.Rational(c) for c in reversed(poly.coeffs)], x).as_expr()
        dexpr = sympy.diff(expr, x)
        ours = sympy.Poly(
            [sympy.Rational(c) for c in reversed(poly.derivative_coeffs)], x
        ).as_expr()
        assert sympy.expand(ours - dexpr) == 0


def test_coefficients_are_python_ints():
    for k in range(122):
        assert all(type(c) is int for c in entropy_poly(k).coeffs)
        assert all(type(c) is int for c in entropy_poly(k).derivative_coeffs)


def test_derivative_coefficients_are_j_times_c():
    for k in range(122):
        coeffs = entropy_poly(k).coeffs
        expect = tuple(Fraction(j) * c for j, c in enumerate(coeffs))[1:] or (Fraction(0),)
        assert entropy_poly(k).derivative_coeffs == expect


def test_evaluation_type_dispatch():
    poly = entropy_poly(3)
    exact = poly.evaluate(Fraction(1, 2))
    assert isinstance(exact, Fraction)
    assert abs(poly.evaluate(0.5) - float(exact)) < 1e-15
    box = poly.evaluate(CertifiedInterval(Fraction(1, 2), Fraction(1, 2)))
    assert box.contains(exact)


def float_horner(coeffs, x: float) -> float:
    acc = float(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * x + float(c)
    return acc


ORACLE_POINTS = {
    "p": solve_p,
    "straddles_zero": lambda: CertifiedInterval(Fraction(-3, 7), Fraction(5, 11)),
    "negative": lambda: CertifiedInterval(Fraction(-13, 9), Fraction(-2, 3)),
    "point": lambda: CertifiedInterval.point(Fraction(7, 12)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_POINTS))
def test_iv_polyval_equals_object_horner(name):
    # the integer-numerator Horner yields the same rationals, endpoint for endpoint
    x = ORACLE_POINTS[name]()
    for k in range(41):
        poly = entropy_poly(k)
        for coeffs, via_method in ((poly.coeffs, poly.evaluate),
                                   (poly.derivative_coeffs, poly.evaluate_derivative)):
            ref = object_horner(coeffs, x)
            fast = iv_polyval(coeffs, x)
            assert (fast.lo, fast.hi) == (ref.lo, ref.hi), (name, k)
            got = via_method(x)
            if len(coeffs) > 1:
                assert (got.lo, got.hi) == (ref.lo, ref.hi), (name, k)
            else:  # degree 0 returns the constant itself, as it always has
                assert got == coeffs[0]


@pytest.mark.parametrize("x", [0.3, 0.5683, -1.25])
def test_float_evaluation_is_plain_horner(x):
    for k in range(41):
        poly = entropy_poly(k)
        assert poly.evaluate(x) == float_horner(poly.coeffs, x)
        assert poly.evaluate_derivative(x) == float_horner(poly.derivative_coeffs, x)


def test_high_index_on_a_cleared_cache():
    # the rows fill bottom-up; a recursive fill overflowed the stack from about k = 450
    entropy_poly.cache_clear()
    assert entropy_poly(1000).coeffs == entropy_poly_closed_form(1000).coeffs
    assert entropy_poly(999).coeffs == entropy_poly_closed_form(999).coeffs


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        entropy_poly(-1)
    with pytest.raises(ValueError):
        entropy_poly_closed_form(-2)
