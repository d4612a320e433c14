"""Shared oracles: brute-force implementations kept independent of the package
internals so the fast paths always have a second, dumb route to agree with."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import mgms
from mgms.analytics import _jet_bounds, _minkowski_K, binary_entropy, p_float
from mgms.core import BinaryWord, chain_length_counts, fibonacci
from mgms.intervals import _PREC, CertifiedInterval
from mgms.measures import BlockAssignment, chain_breakdown, pdelta_logprob
from mgms.polynomials import EntropyPolynomial, entropy_poly


def brute_is_golden(bits: list[int]) -> bool:
    return all(not (a == 1 and b == 1) for a, b in zip(bits, bits[1:]))


def brute_is_multiplicative(bits: list[int]) -> bool:
    n = len(bits)
    for k in range(1, n // 2 + 1):
        if bits[k - 1] == 1 and bits[2 * k - 1] == 1:
            return False
    return True


def all_words(n: int):
    """Every 0/1 word of length n as a list of ints (lexicographic)."""
    for v in range(2**n):
        yield [(v >> (n - 1 - j)) & 1 for j in range(n)]


def brute_count_multiplicative(n: int) -> int:
    """Vectorized filter over all 2^n words; independent of chain logic.

    Encodes position j as bit j-1 (LSB first) and tests u_k & u_{2k}.
    """
    v = np.arange(2**n, dtype=np.uint32)
    ok = np.ones(v.shape, dtype=bool)
    for k in range(1, n // 2 + 1):
        ok &= ((v >> (k - 1)) & (v >> (2 * k - 1)) & 1) == 0
    return int(ok.sum())


def brute_count_golden(k: int) -> int:
    v = np.arange(2**k, dtype=np.uint32)
    ok = np.ones(v.shape, dtype=bool)
    for j in range(1, k):
        ok &= ((v >> (j - 1)) & (v >> j) & 1) == 0
    return int(ok.sum())


def iter_golden_words(k: int):
    """Every golden word of length k (no pair 11), lexicographic, grown symbol by symbol."""
    def rec(s: str):
        if len(s) == k:
            yield BinaryWord(s)
            return
        yield from rec(s + "0")
        if not s.endswith("1"):
            yield from rec(s + "1")

    return rec("")


def iter_multiplicative_prefixes(n: int):
    """Every multiplicative prefix of length n, lexicographic: position m may hold
    a 1 only when m is odd or u_{m/2} = 0."""
    def rec(s: str):
        m = len(s) + 1
        if m > n:
            yield BinaryWord(s)
            return
        yield from rec(s + "0")
        if m % 2 == 1 or s[m // 2 - 1] == "0":
            yield from rec(s + "1")

    return rec("")


def count_cylinders(n: int) -> int:
    """The exact number of multiplicative prefixes of length n behind `log2_count_cylinders`:
    the product over chain lengths k of F_{k+1} to the number of chains of that length."""
    return math.prod(fibonacci(k + 1) ** c for k, c in chain_length_counts(n).items())


def brute_chain_classes(n: int) -> dict[tuple[int, int], int]:
    """(block, length) -> number of chains J(i), by visiting every odd i <= n."""
    classes: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1, 2):
        key = (i.bit_length() - 1, (n // i).bit_length())
        classes[key] = classes.get(key, 0) + 1
    return classes


def chain_law(r, L: int) -> dict[tuple[int, int], object]:
    """Law of (N1, e) for a golden Markov word of length L >= 1 under parameter r: its
    number of ones and its last symbol, by a dynamic program over (ones, last symbol).

    Exact on Fractions for a Fraction r, in float for a float r; only outcomes of
    positive probability are keys.
    """
    if L < 1:
        raise ValueError(f"need L >= 1, got {L}")
    law = {(0, 0): r, (1, 1): 1 - r}
    for _ in range(L - 1):
        step: dict[tuple[int, int], object] = {}
        for (ones, last), q in law.items():
            step[ones, 0] = step.get((ones, 0), 0) + (q if last else q * r)  # a 1 forces a 0
            if not last:
                step[ones + 1, 1] = step.get((ones + 1, 1), 0) + q * (1 - r)
        law = step
    return law


# the seeds of every chi^2 test against an exact law, fixed before the first of them ran
LAW_SEEDS = (101, 202, 303, 404, 505)


def law_chi2(seen, law: dict, draws: int) -> tuple[float, int]:
    """Pearson's chi^2 of the outcome counts `seen` of `draws` draws against `law`, with
    its degrees of freedom.

    Cells of expected count below 5 are pooled into one, which joins the smallest other
    cell when it is still below 5.  An outcome of law probability 0 fails at once.
    """
    assert set(seen) <= set(law), f"drew outcomes of probability 0: {set(seen) - set(law)}"
    cells = sorted((draws * q, seen.get(key, 0)) for key, q in law.items())
    small = [c for c in cells if c[0] < 5]
    cells = [c for c in cells if c[0] >= 5]
    if small:
        pooled = (sum(e for e, _ in small), sum(o for _, o in small))
        if pooled[0] < 5:  # cells are sorted: this is the smallest one of 5 or more
            e, o = cells.pop(0)
            pooled = (pooled[0] + e, pooled[1] + o)
        cells.append(pooled)
    return sum((o - e) ** 2 / e for e, o in cells), len(cells) - 1


def chi2_z(chi2: float, dof: int) -> float:
    """(chi^2 - dof) / sqrt(2 dof): the chi^2 statistic on the scale of a standard normal."""
    return (chi2 - dof) / math.sqrt(2 * dof)


def block_of_positions(n: int) -> np.ndarray:
    """floor(log2 i) for the odd part i of each position 1..n (index m - 1)."""
    m = np.arange(1, n + 1, dtype=np.int64)
    return np.frexp((m // (m & -m)).astype(np.float64))[1] - 1


def bits_block_one_counts(bits: np.ndarray, cuts) -> np.ndarray:
    """O_b(k) read off a bits array (x_m in column m), shape (rows, len(cuts), blocks)."""
    n = bits.shape[1] - 1
    block = block_of_positions(n)
    return np.array([[np.bincount(block[:k], weights=row[1 : k + 1], minlength=n.bit_length())
                      for k in cuts] for row in bits]).astype(np.int64)


def chains_of(u: BinaryWord) -> dict[int, BinaryWord]:
    """The restriction u_i u_{2i} u_{4i} ... of u to each chain J(i), as `chain_breakdown` reads it."""
    chains = chain_breakdown(BlockAssignment(), u)
    return {i: BinaryWord.from_bits(symbols) for i, _, _, symbols, _ in chains}


def A_closed(r: float) -> float:
    """A(r) = sum_k H(r) F_{k-1}(r) / 2^(k+1) = 2 H(r) / (3 - r), base 2; its maximum is s at p."""
    return 2.0 * binary_entropy(r) / (3.0 - r)


def pmu_identity_gap(u: BinaryWord) -> float:
    """lhs - rhs of the half-word identity for an even admissible u of length n,
    log2 P_mu[u] = (n + N0(u_1..u_{n/2}) - N0(u)/2) log2 p, which holds as
    1 - p = p^(3/2) and the chains without their last symbol tile the half word."""
    n = len(u)
    rhs = (n + u.prefix(n // 2).count_zeros() - u.count_zeros() / 2.0) * math.log2(p_float())
    return pdelta_logprob(BlockAssignment(0.0), u).value - rhs


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


# -- the derivative series around p, one CertifiedInterval operation at a time --
# The package sums weighted series sum_k w_k (H F_{k-1})'(x) as (H G_w)'(x):
# the jet of G_w = sum_k w_k F_{k-1} at x.lo (`_truncated_jet` in closed
# form, `_weighted_jet` for explicit weights), a Taylor form on x and H, H'
# in fixed point.  It must enclose the Fraction sums of the jet below, and lie
# inside the per-term loops of `reference_hf_derivative_at` (the same Taylor
# form per term) widened by its rounding budget.  `tau_certify` alone keeps
# interval Horner on the coefficients of F_{k-1}, which
# `horner_hf_derivative_at` reproduces.


def reference_zero_count_jet(m: int, a: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(L_m, L'_m, L''_m) at a rational a, in q = a - 1 and u = 1/(2 - a)."""
    q, u = a - 1, 1 / (2 - a)
    L0 = m * u - q**2 * u**2 + q ** (m + 2) * u**2
    L1 = m * u**2 - 2 * q * u**2 - 2 * q**2 * u**3 + (m + 2) * q ** (m + 1) * u**2 + 2 * q ** (m + 2) * u**3
    L2 = (2 * m * u**3 - 2 * u**2 - 8 * q * u**3 - 6 * q**2 * u**4 + (m + 2) * (m + 1) * q**m * u**2
          + 4 * (m + 2) * q ** (m + 1) * u**3 + 6 * q ** (m + 2) * u**4)
    return L0, L1, L2


def reference_weighted_jet(weights, shift: int, a: Fraction) -> tuple[Fraction, ...]:
    """(G_w, G_w', G_w'') at a, G_w = sum_k w_k F_{k-1} with w_k = weights[k-1] / 2^shift, and
    the remainder sums sum_k w_k M2(k-1) and sum_k w_k M3(k-1), all summed term by term."""
    sums = [Fraction(0)] * 5
    for m, w in enumerate(weights):
        L0, L1, L2 = reference_zero_count_jet(m, a)
        for i, v in enumerate((1 + L0, L1, L2, *_jet_bounds(m))):
            sums[i] += Fraction(w, 2**shift) * v
    return tuple(sums)


def reference_truncated_jet(K: int, a: Fraction) -> tuple[Fraction, ...]:
    """`reference_weighted_jet` for G_K = sum_{k<=K} F_{k-1} / 2^(k+1)."""
    return reference_weighted_jet([1 << (K - k) for k in range(1, K + 1)], K + 1, a)


# -- mpmath's interval context: the oracle for the certified transcendentals ----
# mgms rounds its products, quotients and differences on integers, takes its
# logs on integers (`intervals._ln`) and calls mpmath only for mpf_exp; these
# go through mpmath's `iv` context objects instead, and read the endpoints back
# with mpmath's own `to_rational`.  Both round each log correctly away from 1;
# next to 1 mpmath's directed logs can miss (`test_intervals.reference_ln`).


def _iv():
    """mpmath's interval context, set to the 120 bits of `mgms.intervals._PREC`."""
    from mpmath import iv

    iv.prec = 120
    return iv


def _to_iv(ci: CertifiedInterval):
    """ci as an mpmath interval, endpoints rounded outward (floor, ceiling)."""
    from mpmath import fdiv

    iv = _iv()
    lo = fdiv(ci.lo.numerator, ci.lo.denominator, prec=iv.prec, rounding="f")
    hi = fdiv(ci.hi.numerator, ci.hi.denominator, prec=iv.prec, rounding="c")
    return iv.mpf([lo, hi])


def _from_iv(x) -> CertifiedInterval:
    """The endpoints of an mpmath interval as Fractions, exactly; inf and nan raise."""
    return from_raw(x._mpi_)


# -- mpmath's raw-interval kernels: the oracle for the integer rounding step ------
# mgms rounds every product, quotient and difference of its transcendental
# enclosures itself, as integers, and takes its logs on integers too; these
# run every step on mpmath's raw (lo, hi) tuples through the
# `mpi_*` kernels of mpmath.libmp that the `iv` context calls, at the same
# explicit 120 bits, so their endpoints must equal the package's bit for bit.


def raw_interval(x) -> tuple:
    """x, an int or a CertifiedInterval, as a raw interval rounded outward to _PREC bits (floor, ceiling)."""
    import mpmath.libmp as libmp

    if isinstance(x, int):
        return libmp.from_int(x, _PREC, libmp.round_floor), libmp.from_int(x, _PREC, libmp.round_ceiling)
    return (libmp.from_rational(x.lo.numerator, x.lo.denominator, _PREC, libmp.round_floor),
            libmp.from_rational(x.hi.numerator, x.hi.denominator, _PREC, libmp.round_ceiling))


def from_raw(x: tuple) -> CertifiedInterval:
    """The endpoints of a raw interval as Fractions, exactly; inf and nan raise."""
    from mpmath import libmp

    ends = []
    for raw in x:
        if raw in (libmp.finf, libmp.fninf, libmp.fnan):
            raise ValueError(f"mpmath endpoint is not a finite number: {raw}")
        ends.append(Fraction(*libmp.to_rational(raw)))
    return CertifiedInterval(*ends)


def raw_entropy_pair(ci: CertifiedInterval) -> tuple[CertifiedInterval, CertifiedInterval]:
    """H(x) = -x ln x - (1-x) ln(1-x) and H'(x) = ln((1-x)/x) on raw intervals; requires ci inside (0,1).

    1 - x is the rounded difference; where its lower end reaches 0 it is
    rounded from the exact rationals 1 - ci instead.
    """
    if not (0 < ci.lo and ci.hi < 1):
        raise ValueError(f"need an interval inside (0,1), got {ci}")
    from mpmath.libmp import mpf_sign, mpi_div, mpi_log, mpi_mul, mpi_neg, mpi_sub

    x = raw_interval(ci)
    y = mpi_sub(raw_interval(1), x, _PREC)
    if mpf_sign(y[0]) <= 0:
        y = raw_interval(1 - ci)
    x_ln_x, y_ln_y = (mpi_mul(v, mpi_log(v, _PREC), _PREC) for v in (x, y))
    return (from_raw(mpi_sub(mpi_neg(x_ln_x, _PREC), y_ln_y, _PREC)),
            from_raw(mpi_log(mpi_div(y, x, _PREC), _PREC)))


def iv_entropy_nat(ci: CertifiedInterval) -> CertifiedInterval:
    """Enclosure of H(x) = -x ln x - (1-x) ln(1-x), on the raw-interval kernels."""
    return raw_entropy_pair(ci)[0]


def iv_ln_ratio(ci: CertifiedInterval) -> CertifiedInterval:
    """Enclosure of H'(x) = ln((1-x)/x), on the raw-interval kernels."""
    return raw_entropy_pair(ci)[1]


def reference_hf_derivative_at(k: int, x: CertifiedInterval) -> CertifiedInterval:
    """(H F_{k-1})'(x), with F_{k-1} and F'_{k-1} in the Taylor form at x.lo and H, H' enclosed per term."""
    m, h = k - 1, x.width
    L0, L1, L2 = reference_zero_count_jet(m, x.lo)
    M2, M3 = (m * m + 9 * m + 32, m**3 + 9 * m * m + 44 * m + 144) if m else (0, 0)
    step, rem = CertifiedInterval(0, h), CertifiedInterval(-h * h / 2, h * h / 2)
    F = 1 + L0 + step * L1 + rem * M2
    dF = L1 + step * L2 + rem * M3
    return iv_entropy_nat(x) * dF + iv_ln_ratio(x) * F


def horner_hf_derivative_at(k: int, x: CertifiedInterval) -> CertifiedInterval:
    """(H F_{k-1})'(x) by interval Horner on the integer coefficients of F_{k-1}."""
    F = entropy_poly(k - 1)
    return iv_entropy_nat(x) * F.evaluate_derivative(x) + iv_ln_ratio(x) * F.evaluate(x)


def reference_derivative_partials(x: CertifiedInterval, K: int,
                                  term=reference_hf_derivative_at) -> list[CertifiedInterval]:
    """[S_1, ..., S_K] with S_K = sum_{k<=K} (H F_{k-1})'(x) / 2^(k+1), before any tail."""
    acc, out = CertifiedInterval.point(0), []
    for k in range(1, K + 1):
        acc = acc + term(k, x) * Fraction(1, 2 ** (k + 1))
        out.append(acc)
    return out


def reference_tau_partial_12(x: CertifiedInterval) -> CertifiedInterval:
    """sum_{k<=12} k (H F_{k-1})'(x) / 2^(k+1), on the Horner terms `tau_certify` keeps."""
    acc = CertifiedInterval.point(0)
    for k in range(1, 13):
        acc = acc + horner_hf_derivative_at(k, x) * Fraction(k, 2 ** (k + 1))
    return acc


def reference_tau_gamma_partial(x: CertifiedInterval, gamma: float, K: int,
                                term=reference_hf_derivative_at) -> CertifiedInterval:
    """sum_{k<=K} k^(1+gamma) (H F_{k-1})'(x) / 2^(k+1), the weight an mpmath enclosure."""
    iv = _iv()
    acc = CertifiedInterval.point(0)
    for k in range(1, K + 1):
        w = iv.exp(iv.log(iv.mpf(k)) * iv.mpf(1 + gamma)) if k > 1 else iv.mpf(1)
        acc = acc + term(k, x) * _from_iv(w) * Fraction(1, 2 ** (k + 1))
    return acc


# tau_gamma sums its lower weights in fixed point and widens by the rest of each
# weight, so it need not hold the per-term loop's endpoints; it holds them to this
TAU_GAMMA_SLACK = Fraction(1, 10**30)


def near_tau_gamma_reference(got: CertifiedInterval, ref: CertifiedInterval) -> bool:
    """got lies inside ref widened by TAU_GAMMA_SLACK and is no wider than ref plus it."""
    return (ref.lo - TAU_GAMMA_SLACK <= got.lo and got.hi <= ref.hi + TAU_GAMMA_SLACK
            and got.width <= ref.width + TAU_GAMMA_SLACK)


def object_horner(coeffs, x):
    """Horner one CertifiedInterval operation at a time, Fractions normalised each step."""
    acc = coeffs[-1] * 1
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc if isinstance(acc, CertifiedInterval) else CertifiedInterval.point(acc)


# -- the certified constants on Fractions, one operation at a time ---------------
# solve_p bisects on integer numerators and dim_minkowski_enclosure sums
# dyadic endpoints as integers over one power of two; their endpoints must
# equal these exactly.


def reference_solve_p(width) -> CertifiedInterval:
    """Bisection of [1/2, 3/5] on Fractions, evaluating p^3 - (1-p)^2 at each midpoint."""
    cubic = lambda v: v * v * v - v * v + 2 * v - 1
    width = Fraction(width)
    lo, hi = Fraction(1, 2), Fraction(3, 5)
    assert cubic(lo) < 0 < cubic(hi)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = cubic(mid)
        if fm == 0:
            return CertifiedInterval(mid, mid)
        if fm < 0:
            lo = mid
        else:
            hi = mid
    return CertifiedInterval(lo, hi)


def integer_bisection_p(width) -> CertifiedInterval:
    """Bisection of [5/10, 6/10] on integer numerators, as `solve_p` ran it before its Newton bracket.

    After j halvings the bracket is [N/D, (N+1)/D] with D = 10 * 2^j, and it
    halves while 1/D > width; the sign of the cubic at (N+1)/D is that of
    the integer (N+1)^3 - (N+1)^2 D + 2 (N+1) D^2 - D^3.
    """
    width = Fraction(width)
    lo, den = 5, 10
    while width.numerator * den < width.denominator:
        lo, den = 2 * lo, 2 * den
        n = lo + 1
        if n * n * (n - den) + den * den * (2 * n - den) < 0:
            lo = n
    return CertifiedInterval(Fraction(lo, den), Fraction(lo + 1, den))


def iv_log2_int(n: int) -> CertifiedInterval:
    """Enclosure of log2 of a positive integer, as the iv context gives ln n / ln 2."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    iv = _iv()
    return _from_iv(iv.log(iv.mpf(n)) / iv.log(iv.mpf(2)))


def exact_log2_int(n: int) -> CertifiedInterval:
    """log2 n for an integer n >= 2 taken exactly, however many bits it has: mpmath's correctly
    rounded 120-bit floor and ceiling of ln n, over the iv context's ln 2.  Below 2^120 this is
    `iv_log2_int`; past it `iv_log2_int` rounds n outward to 120 bits first."""
    from mpmath.libmp import from_int, mpf_log, round_ceiling, round_floor

    iv = _iv()
    x = from_int(n)
    ln_n = iv.make_mpf((mpf_log(x, 120, round_floor), mpf_log(x, 120, round_ceiling)))
    return _from_iv(ln_n / iv.log(iv.mpf(2)))


def reference_dim_minkowski_enclosure(tol: float, log2_int=exact_log2_int) -> CertifiedInterval:
    """sum_{k<=K} 2^-(k+1) log2 F_{k+1} as one CertifiedInterval per term, plus the tail."""
    K = _minkowski_K(tol)
    acc = CertifiedInterval.point(0)
    for k in range(1, K + 1):
        acc = acc + log2_int(fibonacci(k + 1)) * Fraction(1, 2 ** (k + 1))
    return CertifiedInterval(acc.lo, acc.hi + Fraction(K + 2, 2 ** (K + 1)))


@lru_cache(maxsize=None)
def stirling2(m: int, i: int) -> int:
    """Stirling number of the second kind {m over i}."""
    if m == i == 0:
        return 1
    if m == 0 or i == 0:
        return 0
    return i * stirling2(m - 1, i) + stirling2(m - 1, i - 1)


def reference_dyadic_power_tail(m: int, K: int) -> Fraction:
    """sum_{k>=K} k^m 2^-k as the binomial shift of the moments
    A_i = sum_{j>=0} j^i 2^-j = 2 sum_l {i over l} l! (A_0 = 2, A_1 = 2, A_2 = 6, ...)."""
    moment = lambda i: 2 * sum(stirling2(i, l) * math.factorial(l) for l in range(i + 1))
    return sum(math.comb(m, i) * Fraction(K) ** (m - i) * moment(i) for i in range(m + 1)) / 2**K


# -- interval enclosures that only the tests use --------------------------------


def iv_ln(ci: CertifiedInterval) -> CertifiedInterval:
    """Enclosure of natural log over the interval; requires lo > 0."""
    if ci.lo <= 0:
        raise ValueError(f"log of nonpositive interval {ci}")
    return _from_iv(_iv().log(_to_iv(ci)))


def iv_log2_ratio(ci: CertifiedInterval) -> CertifiedInterval:
    """Enclosure of log2((1-x)/x), the derivative of the base-2 entropy."""
    if not (0 < ci.lo and ci.hi < 1):
        raise ValueError(f"need an interval inside (0,1), got {ci}")
    iv = _iv()
    x = _to_iv(ci)
    return _from_iv(iv.log((iv.mpf(1) - x) / x) / iv.log(iv.mpf(2)))


# -- fresh processes ---------------------------------------------------------------


def run_fresh(argv: list[str]) -> subprocess.CompletedProcess:
    """`python -X importtime *argv` in a new process that finds this checkout's mgms."""
    env = dict(os.environ, PYTHONPATH=str(Path(mgms.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, env=env, check=True)


def loaded_modules(argv: list[str]) -> list[str]:
    """The modules a fresh `python *argv` imports, from its -X importtime lines."""
    return [line.rsplit("|", 1)[1].strip() for line in run_fresh(argv).stderr.splitlines()
            if line.startswith("import time:") and "|" in line]


def word(s: str) -> BinaryWord:
    return BinaryWord.from_string(s)


@pytest.fixture(scope="session")
def p_val() -> float:
    from mgms.analytics import p_float

    return p_float()
