"""Certified interval arithmetic: exact ring ops, transcendental enclosures."""

import math
import random
from fractions import Fraction

import pytest

import mgms.intervals as intervals
from mgms.intervals import (
    _PREC,
    CertifiedInterval,
    _common_numerators,
    _dyadic,
    _entropy_pair,
    _interval,
    _iv_horner,
    _iv_mul_ints,
    _ln,
    _ln_int,
    _ln_sum,
    _ln_table,
    _outward,
    _powers,
    _round,
    iv_log2,
    iv_polyval,
    ln2_interval,
)
from mgms.analytics import solve_p, tau_gamma
from mgms.core import fibonacci
from mgms.polynomials import entropy_poly

from conftest import (_from_iv, _iv, _to_iv, iv_entropy_nat, iv_ln, iv_ln_ratio, iv_log2_int, iv_log2_ratio,
                      near_tau_gamma_reference, object_horner, raw_entropy_pair, reference_tau_gamma_partial)


def box(a, b) -> CertifiedInterval:
    return CertifiedInterval(Fraction(a), Fraction(b))


def test_ring_ops_are_exact():
    x = box(Fraction(1, 3), Fraction(1, 2))
    y = box(Fraction(-2), Fraction(5))
    assert (x + y).lo == Fraction(1, 3) - 2 and (x + y).hi == Fraction(11, 2)
    assert (-x).lo == Fraction(-1, 2)
    z = x * y
    assert z.lo == Fraction(-1) and z.hi == Fraction(5, 2)
    assert (x - x).contains_zero()  # dependency-blind but sound
    assert (x * Fraction(-2)).lo == Fraction(-1)


def test_ordering_validation():
    with pytest.raises(ValueError):
        box(2, 1)


def test_point_and_float_exactness():
    c = CertifiedInterval.point(0.1)
    assert c.lo == Fraction(0.1)  # the binary64 value, exactly
    assert c.width == 0


def test_containment_helpers():
    c = box(-1, 3)
    assert c.contains(0) and c.contains(Fraction(3)) and not c.contains(4)
    assert c.contains_zero() and not c.is_positive() and not c.is_negative()
    assert box(1, 2).is_positive() and box(-2, -1).is_negative()
    assert c.widen(Fraction(1)).hi == 4


def monotone_enclosure_check(fn, ref, lo, hi):
    ci = fn(box(lo, hi))
    assert ci.lo <= Fraction(ref(float(lo))) or abs(float(ci.lo) - ref(float(lo))) < 1e-15
    # true image endpoints must be inside
    for v in (lo, hi, (lo + hi) / 2):
        assert ci.lo <= Fraction(ref(float(v))) + Fraction(1, 10**14)
        assert Fraction(ref(float(v))) - Fraction(1, 10**14) <= ci.hi


def test_log_enclosures():
    ci = iv_log2(box(2, 2))
    assert ci.contains(1) and float(ci.width) < 1e-30
    monotone_enclosure_check(iv_ln, math.log, Fraction(1, 3), Fraction(7, 2))
    monotone_enclosure_check(iv_log2, math.log2, Fraction(1, 3), Fraction(7, 2))
    assert iv_log2_int(1024).contains(10)
    with pytest.raises(ValueError):
        iv_ln(box(-1, 2))
    with pytest.raises(ValueError):
        iv_log2_int(0)


def test_dyadic_reader():
    iv = _iv()
    assert [_dyadic(raw) for raw in iv.mpf([-3, 0.375])._mpi_] == [(-3, 0), (3, -3)]
    assert _dyadic(iv.mpf(0)._mpi_[0]) == (0, 0)
    assert _interval((-3, 0), (1, 70)) == box(-3, 2**70)
    assert _interval((-3, -3), (3, -3)) == box(Fraction(-3, 8), Fraction(3, 8))
    for read in (lambda raw: _interval(*map(_dyadic, raw)), lambda raw: _from_iv(iv.make_mpf(raw))):
        assert read(iv.mpf([-3, 2**70])._mpi_) == box(-3, 2**70)
        assert read(iv.mpf([-0.375, 0.375])._mpi_) == box(Fraction(-3, 8), Fraction(3, 8))
        # an unbounded or nan endpoint must not read as 0
        for x in (iv.mpf([-math.inf, math.inf]), iv.mpf([1, math.inf]), iv.mpf(math.nan)):
            with pytest.raises(ValueError):
                read(x._mpi_)


def value(end: tuple[int, int]) -> Fraction:
    """m 2^e of an (m, e) end, exactly."""
    m, e = end
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def mpmath_value(raw: tuple) -> Fraction:
    from mpmath.libmp import to_rational

    return Fraction(*to_rational(raw))


def operand(rng: random.Random) -> int:
    """An integer in [1, 2^400]: uniform at a random bit length, or next to a power of two."""
    bits = rng.randrange(1, 401)
    return rng.choice((rng.randrange(2 ** (bits - 1), 2**bits), 2**bits - 1, 2**bits, 2 ** (bits - 1) + 1))


def assert_round_is_mpmath(num: int, den: int, shift: int = 0) -> None:
    """`_round` in both directions against mpmath's `from_rational` and `mpf_div` at _PREC bits."""
    from mpmath.libmp import from_int, from_rational, mpf_div, round_ceiling, round_floor

    for up, rnd in ((False, round_floor), (True, round_ceiling)):
        m, e = _round(num, den, up, shift)
        assert abs(m) < 2**_PREC and (m == 0) == (num == 0), (num, den, up)
        quotients = from_rational(num, den, _PREC, rnd), mpf_div(from_int(num), from_int(den), _PREC, rnd)
        assert [value((m, e - shift))] * 2 == list(map(mpmath_value, quotients)), (num, den, up)


def test_round_is_mpmath_rounding():
    rng = random.Random(20261020)
    # the ceiling (and the negative floor) of 2^121 - 1 carries to 2^121, and that of 2^120 - 1/2 to 2^120
    cases = [(2**121 - 1, 1, 0), (-(2**121 - 1), 1, 0), (2**121 - 1, 2, 0), (2**200 - 1, 2**80, 5)]
    while len(cases) < 400:
        num, den = operand(rng), 1 if rng.random() < 0.25 else operand(rng)
        if rng.random() < 0.25:  # an exact quotient: num = den * q
            num = den * (num >> den.bit_length() or 1)
        cases.append((-num if rng.random() < 0.5 else num, den, rng.randint(-300, 300)))
    for num, den, shift in cases:
        assert_round_is_mpmath(num, den, shift)


def test_round_divides_dyadics_as_mpf_div():
    # the quotient of two _PREC-bit ends, as iv_log2 and dim_minkowski_enclosure form it
    from mpmath.libmp import from_man_exp, mpf_div, round_ceiling, round_floor

    rng = random.Random(20261021)
    top = 2**_PREC - 1
    cases = [(0, 1, 0, 0), (top, 1, 0, 0), (-top, top, 7, -3), (1, top, -400, 400), (top, 3, 400, -400)]
    while len(cases) < 300:
        a, b = (rng.randrange(1, 2 ** rng.randint(1, _PREC)) for _ in range(2))
        cases.append((-a if rng.random() < 0.5 else a, b, rng.randint(-400, 400), rng.randint(-400, 400)))
    for a, b, ea, eb in cases:
        for up, rnd in ((False, round_floor), (True, round_ceiling)):
            want = mpf_div(from_man_exp(a, ea), from_man_exp(b, eb), _PREC, rnd)
            assert value(_round(a, b, up, ea - eb)) == mpmath_value(want), (a, b, ea, eb, up)


def test_round_carries_and_zero():
    for bits in (_PREC + 1, _PREC + 2, 300):
        top = 2**bits - 1  # bits ones: the ceiling (and the floor of its negative) carries to 2^bits
        assert value(_round(top, 1, True)) == 2**bits and value(_round(-top, 1, False)) == -(2**bits)
        assert value(_round(top, 1, False)) == top >> (bits - _PREC) << (bits - _PREC)
        assert_round_is_mpmath(top, 1)
        assert_round_is_mpmath(-top, 3)
    assert _round(0, 7, True, 12) == _round(0, 1, False) == (0, 0)
    for den in (1, 3, 2**119, 2**121 + 1):  # exact quotients
        assert_round_is_mpmath(den * 5, den, -4)


def _bridge_cases() -> list[CertifiedInterval]:
    """About 200 rational intervals inside (0,1): points, narrow, wide, and denominators past 2^120."""
    rng = random.Random(20260522)
    cases = [solve_p(), solve_p(2**-112), solve_p(2**-300), box(Fraction(1, 5), Fraction(3, 4)),
             box(Fraction(1, 2), Fraction(1, 2)), box(Fraction(1, 2**200), 1 - Fraction(1, 2**100)),
             box(Fraction(1, 3), Fraction(2, 3)), box(Fraction(57, 100), Fraction(57, 100))]
    while len(cases) < 200:
        bits = rng.choice((8, 53, 119, 120, 121, 160, 400))
        den = rng.randrange(2, 2**bits) | 1  # odd: never dyadic, so the rounding is exercised
        lo = Fraction(rng.randrange(1, den), den)
        width = rng.choice((0, Fraction(1, 2**rng.randrange(1, 300)), Fraction(rng.randrange(1, den), den)))
        if lo + width < 1:
            cases.append(box(lo, lo + width))
    return cases


def oracle_log2(ci):
    iv = _iv()
    return _from_iv(iv.log(_to_iv(ci)) / iv.log(iv.mpf(2)))


def oracle_entropy_nat(ci):
    iv = _iv()
    x, one = _to_iv(ci), iv.mpf(1)
    return _from_iv(-(x * iv.log(x)) - (one - x) * iv.log(one - x))


def oracle_ln_ratio(ci):
    iv = _iv()
    x = _to_iv(ci)
    return _from_iv(iv.log((iv.mpf(1) - x) / x))


def test_bridge_equals_the_interval_context():
    # the package and the raw-interval kernels at an explicit 120 bits against mpmath's `iv` objects,
    # endpoint for endpoint
    cases = _bridge_cases()
    assert len(cases) == 200 and any(max(ci.lo.denominator, ci.hi.denominator) > 2**120 for ci in cases)
    for ci in cases:
        for got, ref in ((iv_log2, oracle_log2), (iv_entropy_nat, oracle_entropy_nat), (iv_ln_ratio, oracle_ln_ratio)):
            a, b = got(ci), ref(ci)
            assert (a.lo, a.hi) == (b.lo, b.hi), (got.__name__, ci)
        # the package's integer rounding against the raw-interval kernels that the `iv` context runs
        assert [(a.lo, a.hi) for a in _entropy_pair(ci)] == [(b.lo, b.hi) for b in raw_entropy_pair(ci)], ci
    # integers past 2^120, where the entry rounds outward
    for n in (2**120 + 1, 2**121 - 1, 3**90, 10**40 + 7):
        a, b = iv_log2(CertifiedInterval.point(n)), iv_log2_int(n)
        assert (a.lo, a.hi) == (b.lo, b.hi) and a.lo < a.hi and abs(a.mid_float - math.log2(n)) < 1e-12
    assert ln2_interval() == _from_iv(_iv().log(2))
    # tau_gamma's weights on the bridge, against the weights of the interval context: the fixed-point
    # sum keeps the per-term loop to 1e-30, where a weight short of 120 bits would move it by ~1e-16
    for gamma in (0.1, 0.5, 1, 2):
        for K in (1, 5, 12, 20, 30):
            v = tau_gamma(gamma, K).value
            assert near_tau_gamma_reference(v, reference_tau_gamma_partial(solve_p(), gamma, K)), (gamma, K)
            assert max(max(f.numerator.bit_length(), f.denominator.bit_length()) for f in (v.lo, v.hi)) < 400, (gamma, K)


@pytest.mark.parametrize("fn", [iv_log2, iv_entropy_nat, iv_ln_ratio, _entropy_pair])
def test_bridge_rejects_bad_domains(fn):
    for ci in (box(0, Fraction(1, 2)), box(Fraction(-1, 3), Fraction(1, 3))):
        with pytest.raises(ValueError):
            fn(ci)
    if fn is not iv_log2:  # log2 is defined past 1; the entropy and its derivative are not
        for ci in (box(Fraction(1, 2), 1), box(Fraction(1, 2), Fraction(3, 2))):
            with pytest.raises(ValueError):
                fn(ci)


def test_one_log_per_integer_gives_mpmath_ceiling():
    # one `_ln` gives both ends of ln n, the ceiling as the successor of the floor (n >= 2) and
    # ln 1 = 0 exactly; both must be mpmath's correctly rounded ends for every integer the package
    # logs: F_{k+1} (Minkowski terms), past 2^_PREC from k = 173 on and still entered exactly,
    # and k up to 20000 (tau_gamma weights)
    from mpmath.libmp import from_int, mpf_log, round_ceiling, round_floor
    fibs = [fibonacci(k + 1) for k in range(1, 200)]
    assert sum(n >= 2**_PREC for n in fibs) > 20
    for n in (*fibs, *range(1, 20001), 2**_PREC + 1, 3**200):
        x = from_int(n)
        ends = [mpmath_value(mpf_log(x, _PREC, rnd)) for rnd in (round_floor, round_ceiling)]
        assert list(map(value, _ln_int(n))) == ends, n


@pytest.mark.parametrize("n", [0, -1, -3, -(2**130)])
def test_ln_int_rejects_nonpositive_integers(n):
    # ln 0 is -inf and ln of a negative is not real: neither has a finite enclosure
    with pytest.raises(ValueError, match="n >= 1"):
        _ln_int(n)
    with pytest.raises(ValueError, match="m >= 1"):
        _ln(n, 0)


# -- the log kernel `_ln`: correctly rounded ends, its error bound, its table and Ziv's loop ----


def odd(end: tuple[int, int]) -> tuple[int, int]:
    """(m, e) with m odd or zero, for the same value m 2^e: as mpmath stores its mantissas."""
    m, e = end
    tz = (m & -m).bit_length() - 1 if m else 0
    return m >> tz, e + tz


def mpmath_ln_ends(m: int, e: int) -> list[tuple[int, int]]:
    """mpmath's floor and ceiling of ln(m 2^e) at _PREC bits, odd-normalized."""
    from mpmath.libmp import from_man_exp, mpf_log, round_ceiling, round_floor

    return [_dyadic(mpf_log(from_man_exp(m, e), _PREC, rnd)) for rnd in (round_floor, round_ceiling)]


def reference_ln(m: int, e: int) -> tuple[Fraction, Fraction]:
    """An enclosure of ln(m 2^e) at least 300 bits narrow.

    Within 2^-40 of 1 it is the series u - u^2/2 + u^3/3 - ... (u = m 2^e - 1, exactly) to
    ten terms, with its tail bound |u|^11 / (11 (1 - |u|)): mpmath's directed logs miss
    ln x there.  Of the inputs next to 1 that `test_ln_next_to_one_is_correctly_rounded`
    draws, its 120-bit floor and ceiling miss 3 of 2000 within 2^-100 of 1, and both its
    120-bit and 300-bit ends miss 527 of 1000 within 2^-180.  Elsewhere the enclosure is
    mpmath's floor and ceiling at 300 bits.
    """
    from mpmath.libmp import from_man_exp, mpf_log, round_ceiling, round_floor

    u = value((m, e)) - 1
    if abs(u) < Fraction(1, 2**40):
        s = sum(Fraction((-1) ** (k + 1), k) * u**k for k in range(1, 11))
        tail = abs(u) ** 11 / (11 * (1 - abs(u)))
        return s - tail, s + tail
    return tuple(mpmath_value(mpf_log(from_man_exp(m, e), 300, rnd)) for rnd in (round_floor, round_ceiling))


def ln_ends_of(lo: Fraction, hi: Fraction) -> list[tuple[int, int]]:
    """The _PREC-bit floor of lo and ceiling of hi, odd-normalized, when the enclosure [lo, hi] fixes
    both (its ends share their floor), as the floor and ceiling of what it encloses."""
    floors = [_round(x.numerator, x.denominator, False) for x in (lo, hi)]
    assert floors[0] == floors[1], (lo, hi)
    return [odd(floors[0]), odd(_round(hi.numerator, hi.denominator, True))]


def p_ends() -> list[tuple[int, int]]:
    """The (m, e) ends that `_entropy_pair` logs at p: those of p, of 1 - p and of (1 - p)/p."""
    (x_lo, ex_lo), (x_hi, ex_hi) = x = _outward(solve_p())
    (y_lo, ey_lo), (y_hi, ey_hi) = y = _outward(1 - solve_p())
    return [*x, *y, _round(y_lo, x_hi, False, ey_lo - ex_hi), _round(y_hi, x_lo, True, ey_hi - ex_lo)]


def kernel_inputs(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """Random (m, e) in (0, 2): 120-bit dyadics, shorter and longer ones, and ones next to 1."""
    cases = []
    for _ in range(count):
        bits = rng.choice((_PREC, _PREC, rng.randint(1, 400)))
        m = rng.randrange(2 ** (bits - 1), 2**bits)
        cases.append((m, -bits + rng.choice((1, 0, 0, -1, -rng.randint(2, 200)))))
        # 120-bit dyadics within 2^-100 of 1, above and below, and 201-bit ones within 2^-180
        d = rng.randrange(1, 2**19)
        cases += [(2 ** (_PREC - 1) + d, 1 - _PREC), (2**_PREC - d, -_PREC), (2**200 + (d if d % 2 else -d), -200)]
    return cases


def test_ln_is_mpmath_rounding():
    # floor and ceiling of ln at _PREC bits against mpmath's own, for every integer the package
    # logs (2..20000 for tau_gamma's weights, F_2..F_1086 for dims down to --tol 5e-324, whose
    # ends past 2^120 enter rounded), the ends at p, powers of two, and random dyadics in (0, 2)
    # away from 1
    fibs = [fibonacci(k) for k in range(2, 1087)]
    cases = [(n, 0) for n in (*range(2, 20001), *fibs)]
    cases += [end for f in fibs if f.bit_length() > _PREC for end in (_round(f, 1, False), _round(f, 1, True))]
    cases += p_ends() + [(1, e) for e in range(-1100, 1101) if e] + [(3, e) for e in range(-1100, 1101, 13)]
    cases += [(m, e) for m, e in kernel_inputs(random.Random(20261022), 3000) if abs(value((m, e)) - 1) > 2**-40]
    assert len(cases) > 25000
    for m, e in cases:
        assert list(map(odd, _ln(m, e))) == mpmath_ln_ends(m, e), (m, e)


def test_ln_next_to_one_is_correctly_rounded():
    # next to 1 mpmath's ends can miss ln x (see reference_ln); there the floor and
    # ceiling must be those of the series enclosure, and ln 1 = 0 exactly
    rng = random.Random(20261023)
    cases = [(m, e) for m, e in kernel_inputs(rng, 1000) if abs(value((m, e)) - 1) < 2**-40]
    cases += [(2**_PREC - 1, -_PREC), (2**(_PREC - 1) + 1, 1 - _PREC), (2**400 + 1, -400), (2**400 - 1, -400)]
    assert len(cases) > 3000
    for m, e in cases:
        assert list(map(odd, _ln(m, e))) == ln_ends_of(*reference_ln(m, e)), (m, e)
    for m, e in [(1, 0), (2, -1), (2**_PREC, -_PREC), (2**1000, -1000)]:
        assert _ln(m, e) == ((0, 0), (0, 0))


def test_ln_sum_error_bound_holds():
    # one pass encloses ln x in [r - B, r + B] over 2^W, at guards from below 0 to past the default,
    # with B a few dozen units: the bound is honest, not merely sound
    rng = random.Random(20261024)
    fibs = [fibonacci(k) for k in range(2, 1087, 7)]
    cases = kernel_inputs(rng, 150) + [(n, 0) for n in (*rng.sample(range(2, 20001), 100), *fibs)] + p_ends()
    cases += [(1, e) for e in (-1074, -1, 1, 7, 1023)]
    for m, e in cases:
        lo, hi = reference_ln(m, e)
        for guard in (-60, 0, intervals._GUARD, 90):
            r, B, W = _ln_sum(m, e, guard)
            assert r - B <= lo * 2**W and hi * 2**W <= r + B and 0 < B < 128, (m, e, guard)


def test_ln_table_matches_an_independent_series():
    # every entry ln(j / 2^S), and ln 2, against 2 atanh((j - 2^S)/(j + 2^S)) summed on Fractions
    # with its tail bound, within the err the table states; err is below 2^16 units of 2^-bits
    bits, ln2, entries, err = _ln_table(1)  # builds the table if no log has yet
    one = 2**intervals._S
    assert bits >= _PREC + 64 and len(entries) == intervals._J0 + 1 and 0 < err < 2**16
    for j, entry in [*enumerate(entries, intervals._J0), (2 * one, ln2)]:
        t = Fraction(j - one, j + one)
        s = 2 * sum(t ** (2 * k + 1) / (2 * k + 1) for k in range(120))
        tail = 2 * abs(t) ** 241 / (241 * (1 - t * t))
        assert abs(entry - s * 2**bits) + tail * 2**bits < err, j
    assert _ln_table(bits) is _ln_table(1)  # built once; a log at no more bits reads the same table


def test_ziv_loop_raises_precision(monkeypatch):
    # with too few guard bits the first pass cannot decide the floor; the loop must run
    # again, at more bits, and return the same ends
    rng = random.Random(20261025)
    cases = [(n, 0) for n in rng.sample(range(2, 20001), 200)] + kernel_inputs(rng, 50) + p_ends()
    want = [_ln(m, e) for m, e in cases]
    passes = []
    monkeypatch.setattr(intervals, "_ln_sum", lambda *a: passes.append(a) or _ln_sum(*a))
    for guard in (-40, 0):
        monkeypatch.setattr(intervals, "_GUARD", guard)
        passes.clear()
        assert [_ln(m, e) for m, e in cases] == want, guard
        assert len(passes) > 1.9 * len(cases), guard


def test_entropy_pair_next_to_one_widens():
    # hi within 2^-120 of 1 rounds up to 1, so the rounded 1 - x has lower end 0 and
    # its log is -inf; 1 - x then enters from its exact ends and both maps stay finite
    import mpmath

    ci = box(Fraction(1, 2), 1 - Fraction(1, 2**130))
    h, g = _entropy_pair(ci)
    assert ((h.lo, h.hi), (g.lo, g.hi)) == tuple((b.lo, b.hi) for b in raw_entropy_pair(ci))
    with mpmath.workprec(200):
        for t in (ci.lo, Fraction(3, 4), 1 - Fraction(1, 2**64), ci.hi):
            x = mpmath.mpf(t.numerator) / t.denominator
            for enc, exact in ((h, -x * mpmath.log(x) - (1 - x) * mpmath.log(1 - x)), (g, mpmath.log((1 - x) / x))):
                assert enc.contains(mpmath_value(exact._mpf_)), (t, enc)


def test_ln2_interval():
    # float ln 2 is ~1e-17 off the true value, far wider than the enclosure:
    # assert closeness of the midpoint, not containment of the float.
    c = ln2_interval()
    assert abs(c.mid_float - math.log(2)) < 1e-15
    assert float(c.width) < 1e-30


def test_entropy_enclosures():
    half = box(Fraction(1, 2), Fraction(1, 2))
    h_half = iv_entropy_nat(half)
    assert h_half.lo < ln2_interval().hi and ln2_interval().lo < h_half.hi  # the value is ln 2
    assert abs(h_half.mid_float - math.log(2)) < 1e-15
    c = iv_entropy_nat(box(Fraction(3, 10), Fraction(4, 10)))
    for r in (0.3, 0.35, 0.4):
        h = -r * math.log(r) - (1 - r) * math.log(1 - r)
        assert float(c.lo) - 1e-14 <= h <= float(c.hi) + 1e-14
    with pytest.raises(ValueError):
        iv_entropy_nat(box(0, Fraction(1, 2)))


def test_entropy_derivative_enclosures():
    c = iv_ln_ratio(box(Fraction(57, 100), Fraction(57, 100)))
    assert abs(c.mid_float - math.log((1 - 0.57) / 0.57)) < 1e-15
    c2 = iv_log2_ratio(box(Fraction(1, 2), Fraction(1, 2)))
    assert c2.contains(0)  # log2(1) = 0 exactly


def test_polyval_matches_exact_values():
    # 2 - 3x + x^3 at x in [-1/2, 1/3]: Horner ((x) x - 3) x + 2 on the box
    ci = iv_polyval((2, -3, 0, 1), box(Fraction(-1, 2), Fraction(1, 3)))
    for v in (Fraction(-1, 2), Fraction(0), Fraction(1, 3)):
        assert ci.contains(2 - 3 * v + v**3)
    point = iv_polyval((Fraction(2), Fraction(-3), Fraction(0), Fraction(1)), box(Fraction(1, 3), Fraction(1, 3)))
    assert point.lo == point.hi == 2 - 1 + Fraction(1, 27)
    assert iv_polyval((5,), box(-1, 1)) == box(5, 5)


@pytest.mark.parametrize("coeffs", [(Fraction(1, 2), 1), (1, 0.25), ()])
def test_polyval_rejects_non_integral_or_empty_coefficients(coeffs):
    with pytest.raises(ValueError):
        iv_polyval(coeffs, box(0, 1))


def four_product_horner(ints, x_lo: int, x_hi: int, d: int):
    """Horner on integer numerators taking min/max over all four products at every step."""
    lo = hi = ints[-1]
    scale = 1
    for c in reversed(ints[:-1]):
        scale *= d
        products = (lo * x_lo, lo * x_hi, hi * x_lo, hi * x_hi)
        lo, hi = min(products) + c * scale, max(products) + c * scale
    return lo, hi, scale


SIGN_CASES = {
    "positive": (Fraction(3, 7), Fraction(5, 6)),
    "lo_zero": (Fraction(0), Fraction(7, 5)),
    "point_zero": (Fraction(0), Fraction(0)),
    "straddles_zero": (Fraction(-4, 9), Fraction(2, 3)),
    "negative": (Fraction(-11, 4), Fraction(-1, 6)),
}


@pytest.mark.parametrize("case", sorted(SIGN_CASES))
def test_sign_selected_horner_equals_four_products(case):
    lo, hi = SIGN_CASES[case]
    x = box(lo, hi)
    d = math.lcm(lo.denominator, hi.denominator)
    x_lo, x_hi = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    powers = _powers(d, 11)
    rng = random.Random(f"horner-{case}")
    for trial in range(200):
        ints = [rng.randint(-50, 50) for _ in range(rng.randint(1, 12))]
        if trial % 4 == 0:  # coefficients of one sign keep the accumulator off zero
            ints = [abs(c) for c in ints]
        # one power table of d serves every degree up to its length
        assert _iv_horner(ints, x_lo, x_hi, powers) == four_product_horner(ints, x_lo, x_hi, d), ints
        # and the reduced endpoints are those of step-by-step CertifiedInterval Horner
        ref = CertifiedInterval.point(ints[-1])
        for c in reversed(ints[:-1]):
            ref = ref * x + c
        got = iv_polyval(ints, x)
        assert (got.lo, got.hi) == (ref.lo, ref.hi), ints


@pytest.mark.parametrize("lo, hi", [(Fraction(-3, 7), Fraction(5, 11)), (Fraction(-13, 9), Fraction(-2, 3)),
                                     (Fraction(-1, 2), Fraction(0))])
def test_horner_below_zero_equals_object_horner(lo, hi):
    # x_lo < 0 takes the four-product branch; one power table serves every degree
    x = box(lo, hi)
    x_lo, x_hi, d = _common_numerators(x)
    powers = _powers(d, 40)
    for k in range(41):
        for coeffs in (entropy_poly(k).coeffs, entropy_poly(k).derivative_coeffs):
            n_lo, n_hi, scale = _iv_horner(coeffs, x_lo, x_hi, powers)
            ref = object_horner(coeffs, x)
            assert (Fraction(n_lo, scale), Fraction(n_hi, scale)) == (ref.lo, ref.hi), k


def test_sign_selected_product_equals_four_products():
    rng = random.Random("interval-product")
    for _ in range(2000):
        a_lo, b_lo = rng.randint(-9, 9), rng.randint(-9, 9)
        a_hi, b_hi = a_lo + rng.randint(0, 9), b_lo + rng.randint(0, 9)
        products = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
        assert _iv_mul_ints(a_lo, a_hi, b_lo, b_hi) == (min(products), max(products))
