"""Dimension constants, entropy identities, and certified series bounds.

Everything here is either exact (rational arithmetic), certified (interval
enclosures with rigorous tails), or an explicitly labelled float formula.

The weighted derivative series around p, sum_k w_k (H F_{k-1})'(p), take
F_{k-1} = 1 + L_{k-1} in closed form and are (H G_w)'(p) for
G_w = sum_k w_k F_{k-1}.  One fixed-point finish, `_hg_derivative`,
encloses that from the jet of G_w at the left end of p's enclosure: a
Taylor form whose remainder bound holds on every interval inside (0,1),
and H, H' over 2^256, rounded outward.  `derivative_series_at_p(K)` has
weights 2^-(k+1) and its jet in closed form (`_truncated_jet`);
`tau_gamma` sums the jet of its explicit weights term by term
(`_weighted_jet`).  `tau_certify` still sums its twelve terms by interval
Horner on the coefficients of F_{k-1} (`_tau_partial_12`), which keeps
its certificate byte for byte.

Conventions.  Entropy comes in two scales and both are used deliberately:

  * `binary_entropy` (base 2) drives the partition-entropy identity
    H^{mu(r)}(alpha_k) = H(r) F_{k-1}(r) and the series A(r) = 2H(r)/(3-r)
    whose maximum over (0,1) is the Hausdorff dimension s = -log2 p.
  * the natural-log entropy (`intervals._entropy_pair`, ln 2 times
    `binary_entropy`) drives the derivative-series calculus
    around p: the explicit constants in the certified tail bounds
    (H(p) < 0.7, |H'(p)| < 0.3, |F_n(p)| < 3 + 3n/2, |F'_n(p)| < 3n + 6)
    are natural-log values, and the certified positive constant tau is
    reported on that scale.  Positivity and the vanishing of the
    first-derivative series are scale-invariant (the scales differ by the
    positive factor ln 2).

p is the unique root in (0,1) of x^3 - x^2 + 2x - 1 = 0, the expansion of
p^3 = (1-p)^2 (re-verified symbolically in the tests).
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial, reduce
from typing import NamedTuple, Optional, Sequence

from .core import chain_length_counts, fibonacci, log2_count_cylinders
from .intervals import (
    _FIX_BITS,
    _PREC,
    CertifiedInterval,
    _common_numerators,
    _entropy_pair,
    _exp,
    _iv_horner,
    _iv_mul_ints,
    _ln_int,
    _outward,
    _powers,
    _round,
    _round_out,
    iv_log2,
    ln2_interval,
)
from .polynomials import entropy_poly

__all__ = [
    "CertificationError",
    "binary_entropy",
    "partition_entropy",
    "solve_p",
    "p_float",
    "hausdorff_dim",
    "dim_minkowski",
    "dim_minkowski_enclosure",
    "derivative_series_at_p",
    "tau_certify",
    "TauCertificate",
    "tau_gamma",
    "TauGammaResult",
    "expected_zero_count_chain",
    "expected_zero_count_prefix",
    "GaugeFamily",
    "Gauge",
    "gauge_log2",
    "covering_sum",
    "box_dimension_estimate",
    "config_hash",
    "Verdict",
    "SCHEMA_VERSION",
    "DEFAULT_N_GRID",
]

SCHEMA_VERSION = 1
DEFAULT_N_GRID = tuple(2**j for j in range(4, 21))


class CertificationError(RuntimeError):
    """A rigorous sign/enclosure check failed."""


# -- entropy ------------------------------------------------------------------


def _check_unit_open(r: float) -> float:
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError(f"parameter must lie in (0,1), got {r}")
    return r


def binary_entropy(r: float) -> float:
    """H(r) = -r log2 r - (1-r) log2(1-r); H(1/2) = 1."""
    r = _check_unit_open(r)
    return -r * math.log2(r) - (1 - r) * math.log2(1 - r)


def partition_entropy(r: float, k: int) -> float:
    """Entropy (base 2) of the length-k golden cylinder partition: H(r) F_{k-1}(r).

    F_{k-1}(r) = 1 + L_{k-1}(r) by the chain rule (the first symbol and
    each symbol after a 0 carry H(r), a symbol after a 1 carries nothing),
    with L the expected zero count; it is evaluated exactly at the rational
    value of the float r and rounded once.  The integer coefficients of F_{k-1} grow past 2^100 by
    k = 120, and float Horner on them cancels catastrophically.
    """
    if k < 1:
        raise ValueError(f"partition order must be >= 1, got {k}")
    r = _check_unit_open(r)
    return binary_entropy(r) * float(1 + _zero_count_chain(Fraction(r), k - 1))


# -- the root p and the dimension constants ------------------------------------


def _cubic(n: int, d: int) -> int:
    # d^3 times x^3 - (1-x)^2 = x^3 - x^2 + 2x - 1 at x = n/d
    return n * n * (n - d) + d * d * (2 * n - d)


@lru_cache(maxsize=None)
def solve_p(width: Fraction = Fraction(1, 2**80)) -> CertifiedInterval:
    """Certified enclosure of the root of p^3 = (1-p)^2 in (0,1).

    The bracket is [N/D, (N+1)/D] with D = 10 * 2^j for the least j with
    1/D <= width, as j halvings of [1/2, 3/5] give it.  With width = a/b
    that j is the least with 10a 2^j >= b: 0 when 10a has more bits than
    b, else the j at which 10a 2^j has as many bits as b, or the next one
    if 10a 2^j < b there.  The sign of
    f(x) = x^3 - x^2 + 2x - 1 at N/D is that of the exact integer
    g(N) = N^3 - N^2 D + 2 N D^2 - D^3.  Integer Newton on g from the float
    root runs until its step is 0; the exact signs g(N) < 0 < g(N+1) then
    fix N = floor(pD), as f has no rational root (only +-1 could be one).
    The width may be any positive finite rational or float.
    """
    if isinstance(width, float) and not math.isfinite(width):
        raise ValueError(f"width must be positive and finite, got {width}")
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    a, b = 10 * width.numerator, width.denominator  # the least j with a 2^j >= b
    j = max(0, b.bit_length() - a.bit_length())
    den = 10 << (j + 1 if a << j < b else j)
    n = int(Fraction(0.5698402909980532) * den)  # the float root
    while step := _cubic(n, den) // (3 * n * n - 2 * n * den + 2 * den * den):
        n -= step
    while _cubic(n, den) > 0:
        n -= 1
    while _cubic(n + 1, den) < 0:
        n += 1
    return CertifiedInterval(Fraction(n, den), Fraction(n + 1, den))


def p_float() -> float:
    """Double-precision midpoint of the certified enclosure of p."""
    return solve_p().mid_float


@lru_cache(maxsize=None)
def hausdorff_dim() -> CertifiedInterval:
    """Certified enclosure of s = -log2 p (~0.81137)."""
    return -iv_log2(solve_p())


def s_float() -> float:
    """-log2 of p_float() in double precision; `hausdorff_dim` encloses it."""
    return -math.log2(p_float())


class SeriesValue(NamedTuple):
    value: float
    tail_bound: float


def _minkowski_K(tol: float) -> int:
    # smallest K with tail bound (K+2) 2^-(K+1) < tol (log2 F_{k+1} <= k), exactly: 2.0**-(K+1) underflows
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    t = Fraction(tol)
    K = 1
    while (K + 2) * t.denominator >= t.numerator << (K + 1):
        K += 1
    return K


def dim_minkowski(tol: float = 1e-6) -> SeriesValue:
    """Minkowski dimension sum_{k>=1} 2^-(k+1) log2 F_{k+1} in floats, cut where the tail is below tol.

    Here F_{k+1} = `fibonacci(k + 1)` (F_1 = 1, F_2 = 2) counts the golden
    words of length k.  The partial sum runs to the smallest K whose tail bound
    (K+2) 2^-(K+1), from log2 F_{k+1} <= k, is below tol; it is returned
    with that bound, rounded up to a float.  Limit value ~0.82429.
    """
    K = _minkowski_K(tol)
    terms = (2.0 ** -(k + 1) * math.log2(fibonacci(k + 1)) for k in range(1, K + 1))
    value = reduce(operator.add, terms, 0.0)  # left to right: sum() compensates from Python 3.12 on
    bound = math.ldexp(K + 2, -(K + 1))  # exact unless subnormal
    return SeriesValue(value, bound if bound >= Fraction(K + 2, 2 ** (K + 1)) else math.nextafter(bound, math.inf))


def dim_minkowski_enclosure(tol: float = 1e-6) -> CertifiedInterval:
    """Certified enclosure of the Minkowski dimension (partial sum + tail).

    Each term 2^-(k+1) log2 F_{k+1} is ln(F_{k+1}) / ln 2: each integer
    end of `_ln_int` (one `intervals._ln`, F_{k+1} exact) over the far
    end of ln 2, rounded outward by `intervals._round`.  A term is at
    least 2^-(k+2), so its ends are integers over 2^E, E = K+1+_PREC; the
    lower ones, and the upper ones with the exact tail (K+2) 2^-(K+1),
    are summed there as two integers, each reduced to `Fraction` once.
    """
    K = _minkowski_K(tol)
    (l, el), (u, eu) = _ln_int(2)
    E, lo, hi = K + 1 + _PREC, 0, (K + 2) << _PREC
    for k in range(1, K + 1):
        (a, ea), (b, eb) = _ln_int(fibonacci(k + 1))
        m, e = _round(a, u, False, ea - eu + E - k - 1)
        lo += m << e
        m, e = _round(b, l, True, eb - el + E - k - 1)
        hi += m << e
    return CertifiedInterval(Fraction(lo, 1 << E), Fraction(hi, 1 << E))


# -- derivative series around p (natural-log scale) -----------------------------


def _jet_bounds(m: int) -> tuple[int, int]:
    """(M2, M3): the sums of |c| over the monomials c q^j u^i of L''_m and L'''_m.

    With q = x - 1 and u = 1/(2-x), L_m = m u - q^2 u^2 + q^(m+2) u^2 and
    du/dx = u^2, so
    L''_m  = 2m u^3 - 2u^2 - 8q u^3 - 6q^2 u^4
             + (m+2)(m+1) q^m u^2 + 4(m+2) q^(m+1) u^3 + 6 q^(m+2) u^4,
    L'''_m = 6m u^4 - 12u^3 - 36q u^4 - 24q^2 u^5 + (m+2)(m+1)m q^(m-1) u^2
             + 6(m+2)(m+1) q^m u^3 + 18(m+2) q^(m+1) u^4 + 24 q^(m+2) u^5.

    For m >= 1 no two monomials coincide, so M2 = m^2 + 9m + 32 and
    M3 = m^3 + 9m^2 + 44m + 144; for m = 0 every coefficient cancels
    (L_0 = 0) and both are 0.  On (0,1), -1 < q < 0 and 1/2 < u < 1, so
    |L''_m| <= M2 and |L'''_m| <= M3 there.
    """
    if m == 0:
        return 0, 0
    return m * m + 9 * m + 32, m**3 + 9 * m * m + 44 * m + 144


def _zero_count_jet(m: int, Q: int, E: int, d: int, qm: int, dm: int) -> tuple[int, int, int]:
    """Numerators (A0, A1, A2) of L_m, L'_m and L''_m at a rational point a = n/d.

    With Q = n - d, E = 2d - n, qm = Q^m and dm = d^m, so that q = Q/d and
    u = d/E: L_m(a) = A0 / (dm E^2), L'_m(a) = d A1 / (dm E^3) and
    L''_m(a) = d^2 A2 / (dm E^4).
    """
    QQ, QE, EE = Q * Q, Q * E, E * E
    a0 = (m * d * E - QQ) * dm + QQ * qm
    a1 = (m * d * E - 2 * QE - 2 * QQ) * dm + ((m + 2) * E + 2 * Q) * Q * qm
    a2 = ((2 * m * d * E - 2 * EE - 8 * QE - 6 * QQ) * dm
          + ((m + 2) * (m + 1) * EE + 4 * (m + 2) * QE + 6 * QQ) * qm)
    return a0, a1, a2


def _weighted_jet(weights: Sequence[int], shift: int, n: int,
                  d: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, int]]:
    """`_truncated_jet` for G_w = sum_k w_k F_{k-1}, w_k = weights[k-1] / 2^shift >= 0, k = 1..K.

    The numerators of `_zero_count_jet` put every term of G_w, G_w' and
    G_w'' over d^(K-1) E^(2,3,4) 2^shift: each step of m = k-1 multiplies
    Q^m by Q, and d^m and the three sums by d, so a term costs O(1)
    operations on integers of O(m log d) bits.  The sums are rounded outward
    once each; the remainder sums are exact numerators over 2^shift.
    """
    Q, E = n - d, 2 * d - n
    EE = E * E
    s0 = s1 = s2 = m2 = m3 = 0
    qm = dm = 1
    for m, w in enumerate(weights):  # m = k - 1
        if m:
            s0, s1, s2, qm, dm = s0 * d, s1 * d, s2 * d, qm * Q, dm * d
        a0, a1, a2 = _zero_count_jet(m, Q, E, d, qm, dm)
        b2, b3 = _jet_bounds(m)
        s0, s1, s2 = s0 + w * (dm * EE + a0), s1 + w * a1, s2 + w * a2
        m2, m3 = m2 + w * b2, m3 + w * b3
    den = dm << shift
    jet = tuple(_round_out(s << _FIX_BITS, s << _FIX_BITS, den * E**i)
                for i, s in enumerate((s0, d * s1, d * d * s2), 2))
    return jet, (m2, m3)


def dyadic_tail(f, degree: int, K: int) -> Fraction:
    """sum_{k>=K} f(k) 2^-k, exactly, for a polynomial f of the given degree.

    With f(K+j) = sum_i C(j, i) (Delta^i f)(K) and sum_j C(j, i) 2^-j = 2,
    the tail is 2^(1-K) sum_{i<=degree} (Delta^i f)(K).
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if K < 0:
        raise ValueError("K must be >= 0")
    row = [Fraction(f(K + j)) for j in range(degree + 1)]
    total = Fraction(0)
    while row:
        total += row[0]
        row = [b - a for a, b in zip(row, row[1:])]
    return 2 * total / 2**K


def _truncated_jet(K: int, n: int, d: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, int]]:
    """Fixed-point enclosures of G_K, G_K', G_K'' at a = n/d in (0,1), and the two remainder sums.

    G_K = sum_{k<=K} F_{k-1} / 2^(k+1) = sum_{m<K} w_m (1 + L_m), w_m = 2^-(m+2).
    Summing the numerators of `_zero_count_jet` against w_m, with Q = n - d,
    E = 2d - n, A = sum w_m = 1/2 - 2^-(K+1) and B = sum m w_m
    = 1/2 - (K+1) 2^-(K+1), gives

        G_K   = A + [(B dE - A Q^2) + Q^2 s0] / E^2,
        G_K'  = d [(B dE - 2A QE - 2A Q^2) + QE s1 + 2Q^2 s0] / E^3,
        G_K'' = d^2 [(2B dE - 2A E^2 - 8A QE - 6A Q^2) + E^2 s2 + 4QE s1 + 6Q^2 s0] / E^4,

    where s0, s1 and s2 are the sums of w_m q^m, w_m (m+2) q^m and
    w_m (m+2)(m+1) q^m, q = Q/d.  They are geometric in z = q/2: with
    t = z^K, c = z/(1-z) = Q/D and D = 3d - n, s_i = d b_i / (2D) for

        b0 = 1 - t,  b1 = 2 - (K+2) t + c b0,  b2 = 2 - (K+2)(K+1) t + 2c b1,

    which is z^2 (1 - z^K)/(1 - z) = sum_{m<K} z^(m+2) and its first two
    derivatives in z.  Only t grows with K: its exact numerator has
    K log2(2d) bits.  So t is enclosed in fixed point by repeated
    squaring (`_round_out`, O(log K) products of _FIX_BITS-bit integers),
    and G_K, G_K' and G_K'', affine in t, are evaluated exactly at both
    ends of that enclosure and rounded outward once each, to integer pairs
    over 2^_FIX_BITS.

    The remainder sums sum_{m<K} w_m M2(m) and sum_{m<K} w_m M3(m) of
    `_jet_bounds` are returned exactly, as numerators over 2^(K+1): for a
    polynomial f, sum_{m>=K} f(m) 2^-m = 2^(1-K) sum_i (Delta^i f)(K), and
    sum_i Delta^i M2 = K^2 + 11K + 44, sum_i Delta^i M3 = K^3 + 12K^2 + 71K + 228.
    """
    S = 1 << _FIX_BITS
    Q, E, D, N = n - d, 2 * d - n, 3 * d - n, 1 << (K + 1)
    A, B = (1 << K) - 1, (1 << K) - K - 1  # A N and B N
    t, z, e = (S, S), _round_out(Q << _FIX_BITS, Q << _FIX_BITS, 2 * d), K
    while e:
        if e & 1:
            t = _round_out(*_iv_mul_ints(*t, *z), S)
        z, e = _round_out(*_iv_mul_ints(*z, *z), S), e >> 1
    QQ, QE, EE = Q * Q, Q * E, E * E
    R = 2 * S * D**3
    poly = (R * (A * EE + B * d * E - A * QQ), R * (B * d * E - 2 * A * QE - 2 * A * QQ),
            R * (2 * B * d * E - 2 * A * EE - 8 * A * QE - 6 * A * QQ))
    ends = []
    for tn in t:  # numerators of G_K S, G_K' S and G_K'' S over 2 N D^3 E^(2,3,4), at t = tn / S
        b0 = S - tn
        b1 = D * (2 * S - (K + 2) * tn) + Q * b0  # S D b1
        b2 = D * D * (2 * S - (K + 2) * (K + 1) * tn) + 2 * Q * b1  # S D^2 b2
        e0, e1, e2 = d * D * D * b0, d * D * b1, d * b2  # s_i = e_i / (2 S D^3)
        ends.append((poly[0] + N * QQ * e0,
                     d * (poly[1] + N * (QE * e1 + 2 * QQ * e0)),
                     d * d * (poly[2] + N * (EE * e2 + 4 * QE * e1 + 6 * QQ * e0))))
    den = 2 * N * D**3 * EE
    jet = tuple(_round_out(min(lo, hi), max(lo, hi), den * E**i) for i, (lo, hi) in enumerate(zip(*ends)))
    m2 = (56 << (K - 1)) - (K * K + 11 * K + 44)
    m3 = (312 << (K - 1)) - (K**3 + 12 * K * K + 71 * K + 228)
    return jet, (m2, m3)


def _hg_derivative(x: CertifiedInterval, jet_at, shift: int) -> CertifiedInterval:
    """(H G)'(x) = H G' + H' G on x = [a, b] inside (0,1), for G = sum_k w_k F_{k-1}.

    jet_at(n, d) encloses G, G' and G'' at a = n/d in fixed point and gives
    the remainder sums sum_k w_k M2(k-1) and sum_k w_k M3(k-1) over 2^shift
    (`_truncated_jet`, `_weighted_jet`).  On x, G lies in
    G(a) + [0, b-a] G'(a) + [-1, 1] (b-a)^2 sum_k w_k M2(k-1) / 2, and G'
    likewise with G'' and M3: Lagrange's remainder, as F_{k-1} = 1 + L_{k-1}
    and `_jet_bounds` bounds L'' and L''' on (0,1).  These meet the 120-bit
    enclosures of H and H' (`intervals._entropy_pair`) over 2^_FIX_BITS,
    every step rounded outward; by subdistributivity the result lies inside
    the per-term sum of w_k (H F'_{k-1} + H' F_{k-1}), each term in the same
    Taylor form, widened by a few units of 2^-_FIX_BITS.
    """
    n, n_hi, d = _common_numerators(x)
    w, S = n_hi - n, 1 << _FIX_BITS
    (g0, g1, g2), (m2, m3) = jet_at(n, d)

    def taylor(c, s, m):  # c + [0, w/d] s + [-1, 1] (w/d)^2 m / 2^(shift+1), over 2^_FIX_BITS
        s_lo, s_hi = _round_out(w * min(s[0], 0), w * max(s[1], 0), d)
        r = w * w * m << _FIX_BITS
        r_lo, r_hi = _round_out(-r, r, d * d << (shift + 1))
        return c[0] + s_lo + r_lo, c[1] + s_hi + r_hi

    h, g = map(_common_numerators, _entropy_pair(x))
    h, g = (_round_out(lo << _FIX_BITS, hi << _FIX_BITS, den) for lo, hi, den in (h, g))
    hdg, gg = _iv_mul_ints(*h, *taylor(g1, g2, m3)), _iv_mul_ints(*g, *taylor(g0, g1, m2))
    lo, hi = _round_out(hdg[0] + gg[0], hdg[1] + gg[1], S)
    return CertifiedInterval(Fraction(lo, S), Fraction(hi, S))


def derivative_series_at_p(K: int) -> CertifiedInterval:
    """Enclosure of sum_k (H F_{k-1})'(p) / 2^(k+1), widened by a rigorous tail.

    The infinite series vanishes (p maximizes A), so the returned interval
    must contain 0.  The partial sum is (H G_K)'(x) on x = solve_p(), with
    G_K = sum_{k<=K} F_{k-1} / 2^(k+1) in closed form (`_truncated_jet`)
    and the fixed-point finish of `_hg_derivative`.  The cost is O(log K)
    operations on integers of a few hundred bits plus K bits for A and B,
    and the endpoints stay near _FIX_BITS bits before the tail.  Tail:
    |(H F_{k-1})'(p)| <= 0.7(3k+3) + 0.3(3k+3)/2 = 2.55 (k+1), summing to
    2.55 (K+3) 2^-(K+1), added exactly.  The width is 1.0e-10 at K = 40,
    1.8e-22 at K = 80, and from K ~ 110 on about 3.17e-24, the enclosure of
    p propagated through H and H'.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    acc = _hg_derivative(solve_p(), partial(_truncated_jet, K), K + 1)
    return acc.widen(Fraction(51, 20) * Fraction(K + 3, 2 ** (K + 1)))


class TauCertificate(NamedTuple):
    """Outcome of the positivity certification of tau = sum k (HF_{k-1})'(p)/2^(k+1)."""

    partial_12: CertifiedInterval
    tail_bound: CertifiedInterval
    margin: Fraction
    sign: str  # always "POSITIVE" on success


def _add_over_lcm(lo1: int, hi1: int, den1: int, lo2: int, hi2: int, den2: int) -> tuple[int, int, int]:
    """[lo1, hi1]/den1 + [lo2, hi2]/den2 as numerators over lcm(den1, den2)."""
    den = math.lcm(den1, den2)
    m1, m2 = den // den1, den // den2
    return lo1 * m1 + lo2 * m2, hi1 * m1 + hi2 * m2, den


def _tau_partial_12(x: CertifiedInterval) -> CertifiedInterval:
    """sum_{k<=12} k (H F_{k-1})'(x) / 2^(k+1) by interval Horner on the coefficients of F_{k-1}.

    Kept for `tau_certify` alone, so that the certificate's bytes stay as
    they are until tau moves to its closed form (H G)'(p).  F_{k-1}(x) and F'_{k-1}(x) come from the
    integer-numerator Horner `_iv_horner` over one table of powers of x's
    common denominator; H F' + H' F, the weight product and the running
    sum are formed on integer numerators over lcm denominators and reduced
    to `Fraction` once.  The endpoints are those of step-by-step
    `CertifiedInterval` Horner.  At k <= 12 the coefficients are small and
    the widening it suffers (about 2^(k/2)-fold) does not matter.
    """
    (h_lo, h_hi, h_den), (g_lo, g_hi, g_den) = map(_common_numerators, _entropy_pair(x))
    x_lo, x_hi, d = _common_numerators(x)
    powers = _powers(d, 11)
    lo = hi = 0
    den = 1
    for k in range(1, 13):
        F = entropy_poly(k - 1)
        f_lo, f_hi, f_den = _iv_horner(F.coeffs, x_lo, x_hi, powers)
        d_lo, d_hi, d_den = _iv_horner(F.derivative_coeffs, x_lo, x_hi, powers)
        t_lo, t_hi, t_den = _add_over_lcm(*_iv_mul_ints(h_lo, h_hi, d_lo, d_hi), h_den * d_den,
                                          *_iv_mul_ints(g_lo, g_hi, f_lo, f_hi), g_den * f_den)
        lo, hi, den = _add_over_lcm(lo, hi, den, *_iv_mul_ints(t_lo, t_hi, k, k), t_den * 2 ** (k + 1))
    return CertifiedInterval(Fraction(lo, den), Fraction(hi, den))


@lru_cache(maxsize=None)
def tau_certify() -> TauCertificate:
    """Certify tau > 0 with an exact tail.

    partial_12 encloses sum_{k<=12} k (HF_{k-1})'(p) / 2^(k+1) (~0.187469,
    natural-log scale); the k >= 13 remainder is bounded in absolute value
    by sum_{k>=13} 3k(k+1)/2^(k+1) = 159/2048 < 0.1, evaluated exactly.
    Raises CertificationError if positivity cannot be established.
    """
    acc = _tau_partial_12(solve_p())
    tail = dyadic_tail(lambda k: Fraction(3 * k * (k + 1), 2), 2, 13)
    margin = acc.lo - tail
    if margin <= 0:
        raise CertificationError(f"tau positivity failed: partial={acc}, tail={tail}")
    return TauCertificate(
        partial_12=acc,
        tail_bound=CertifiedInterval.point(tail),
        margin=margin,
        sign="POSITIVE",
    )


def tau_bits_lower_bound() -> Fraction:
    """Certified lower bound for tau on the base-2 scale (tau_bits = tau / ln 2)."""
    return tau_certify().margin / ln2_interval().hi


class TauGammaResult(NamedTuple):
    value: CertifiedInterval
    tail_bound: Fraction
    sign: str  # POSITIVE | NEGATIVE | UNKNOWN


def tau_gamma(gamma: float, K: int = 12) -> TauGammaResult:
    """Partial sum of sum_k k^(1+gamma) (HF_{k-1})'(p) / 2^(k+1) with certified tail.

    The tail majorizes k^(1+gamma) by k^m with m = ceil(1+gamma), so gamma
    is limited to (0, 2].  Reports the sign when the tail-widened interval
    separates from zero, UNKNOWN otherwise.  Each weight k^(1+gamma) is
    exp((1+gamma) ln k) at 120 bits, ln k by `_ln_int`, the product by
    `intervals._round` and the exp by mpmath (`intervals._exp`, the one
    transcendental the package still leaves to mpmath); its dyadic
    endpoints m 2^e, times 2^-(k+1), go
    onto the least exponent.
    """
    if not 0 < gamma <= 2:
        raise ValueError(f"gamma must lie in (0, 2], got {gamma}")
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    (p_lo, e_lo), (p_hi, e_hi) = _outward(CertifiedInterval.point(1 + gamma))
    ends = []
    for k in range(1, K + 1):  # k = 1 gives exp(0 * power) = 1 exactly
        (a, ea), (b, eb) = _ln_int(k)
        w = _exp(_round(a * p_lo, 1, False, ea + e_lo), _round(b * p_hi, 1, True, eb + e_hi))
        ends.append([(m, e - k - 1) for m, e in w])
    e_min = min(e for end in ends for _, e in end)  # <= -2, from k = 1
    weights = [tuple(m << (e - e_min) for m, e in end) for end in ends]
    # sum the lower ends; the rest of w_k moves the sum by at most
    # (w_hi - w_lo) |(H F_{k-1})'(p)| <= (w_hi - w_lo) 2.55 (k+1), as in the tail
    spread = sum((hi - lo) * 51 * k for k, (lo, hi) in enumerate(weights, 2)) << _FIX_BITS
    acc = _hg_derivative(solve_p(), partial(_weighted_jet, [lo for lo, _ in weights], -e_min), -e_min)
    acc = acc.widen(Fraction(-(-spread // (20 << -e_min)), 1 << _FIX_BITS))
    m = math.ceil(1 + gamma)
    tail = dyadic_tail(lambda k: Fraction(51, 40) * (k ** (m + 1) + k**m), m + 1, K + 1)
    widened = acc.widen(tail)
    if widened.is_positive():
        sign = "POSITIVE"
    elif widened.is_negative():
        sign = "NEGATIVE"
    else:
        sign = "UNKNOWN"
    return TauGammaResult(value=acc, tail_bound=tail, sign=sign)


# -- zero-count expectations -----------------------------------------------------


def _zero_count_chain(r, k: int):
    """L_k(r) = k/(2-r) - (1 - (r-1)^k) (r-1)^2 / (2-r)^2 for a float or a Fraction r; L_0 = 0."""
    q = r - 1
    return k / (2 - r) - (1 - q**k) * q * q / (2 - r) ** 2


def expected_zero_count_chain(p_val: float, k: int) -> float:
    """L_k: expected number of zeros in a length-k golden Markov word.

    L_k = k/(2-p) - (1 - (p-1)^k) (p-1)^2 / (2-p)^2, from the left
    eigenvectors of the transition matrix; L_1 = p and L_2 = 1 + p^2.
    """
    if k < 1:
        raise ValueError(f"chain length must be >= 1, got {k}")
    return _zero_count_chain(_check_unit_open(p_val), k)


def expected_zero_count_prefix(n: int, p_val: Optional[float] = None) -> float:
    """E[N_0(x_1^n)] under the chain product measure with parameter p.

    Sums L_k over the exact chain-length partition of {1,...,n}, k ascending.
    """
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    p = p_float() if p_val is None else _check_unit_open(p_val)
    terms = (c * expected_zero_count_chain(p, k) for k, c in chain_length_counts(n).items())
    return reduce(operator.add, terms, 0.0)  # left to right, as in dim_minkowski


# -- gauges -----------------------------------------------------------------------


class GaugeFamily(Enum):
    PURE_S = "pure_s"
    PHI = "phi"
    PSI_THETA = "psi_theta"
    PHI_GAMMA = "phi_gamma"
    PSI_G = "psi_g"


class Gauge(NamedTuple):
    """A gauge in log2 form at dyadic scales: log2 gauge(2^-n).

    PURE_S:    -n s
    PHI:       -n s - c n / (log2 n)^2
    PSI_THETA: -n s - n / (log2 n)^theta
    PHI_GAMMA: -n s - c n / (log2 n)^(2+gamma)
    PSI_G:     -n s - n / (ln 2 * (log2 n)^theta), the gauge psi_g of g(t) = t^theta
    """

    family: GaugeFamily
    s: float
    c: Optional[float] = None
    theta: Optional[float] = None
    gamma: Optional[float] = None

    @staticmethod
    def pure(s: Optional[float] = None) -> "Gauge":
        return Gauge(GaugeFamily.PURE_S, s=s_float() if s is None else float(s))

    @staticmethod
    def phi(c: float, s: Optional[float] = None) -> "Gauge":
        if not c > 0:  # NaN too
            raise ValueError(f"coefficient must be positive, got {c}")
        return Gauge(GaugeFamily.PHI, s=s_float() if s is None else float(s), c=float(c))

    @staticmethod
    def psi_theta(theta: float, s: Optional[float] = None) -> "Gauge":
        return Gauge(GaugeFamily.PSI_THETA, s=s_float() if s is None else float(s), theta=float(theta))

    @staticmethod
    def phi_gamma(c: float, gamma: float, s: Optional[float] = None) -> "Gauge":
        if not (c > 0 and gamma > 0):  # NaN too
            raise ValueError("need c > 0 and gamma > 0")
        return Gauge(
            GaugeFamily.PHI_GAMMA, s=s_float() if s is None else float(s), c=float(c), gamma=float(gamma)
        )

    @staticmethod
    def psi_g(e: float, s: Optional[float] = None) -> "Gauge":
        return Gauge(GaugeFamily.PSI_G, s=s_float() if s is None else float(s), theta=float(e))

    def describe(self) -> dict:
        d: dict = {"family": self.family.value, "s": self.s}
        if self.c is not None:
            d["c"] = self.c
        if self.theta is not None:
            d["theta"] = self.theta
        if self.gamma is not None:
            d["gamma"] = self.gamma
        return d


def gauge_log2(gauge: Gauge, n: int) -> float:
    """log2 gauge(2^-n) for n >= 4 (so log2 n > 1).

    Raises ValueError when the correction term after -n s is not finite,
    as when an extreme theta or gamma overflows (log2 n)^exponent.
    """
    if n < 4:
        raise ValueError(f"gauge evaluation needs n >= 4, got {n}")
    ln_ = math.log2(n)
    fam = gauge.family
    try:
        if fam is GaugeFamily.PURE_S:
            term = 0.0
        elif fam is GaugeFamily.PHI:
            term = gauge.c * n / ln_**2
        elif fam is GaugeFamily.PSI_THETA:
            term = n / ln_**gauge.theta
        elif fam is GaugeFamily.PHI_GAMMA:
            term = gauge.c * n / ln_ ** (2.0 + gauge.gamma)
        else:  # PSI_G
            term = n / (math.log(2) * ln_**gauge.theta)
    except (OverflowError, ZeroDivisionError):
        term = math.inf
    if not math.isfinite(term):
        raise ValueError(f"gauge {fam.value} must be finite on the grid, and is not at n = {n}")
    return -float(n) * gauge.s - term


# -- covering sums and report configs -------------------------------------------


def covering_sum(gauge: Gauge, n: int) -> float:
    """log2 of the level-n uniform covering sum: log2 #cylinders + log2 gauge(2^-n)."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    return log2_count_cylinders(n) + gauge_log2(gauge, n)


def box_dimension_estimate(n: int) -> float:
    """log2(#cylinders of length n) / n; converges to the Minkowski dimension."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return log2_count_cylinders(n) / n


def config_hash(config: dict) -> str:
    """Stable 12-hex digest of a canonicalized config mapping."""
    import hashlib
    import json

    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# -- what the experiment reports share ------------------------------------------


class Verdict:
    INCREASING = "INCREASING"
    DECREASING = "DECREASING"
    INCONCLUSIVE = "INCONCLUSIVE"
    BOUNDED = "BOUNDED"
    UNBOUNDED = "UNBOUNDED"


class _Report:
    """What every experiment report shares: its config hash and JSON header."""

    __slots__ = ()  # so a NamedTuple report keeps no instance dict

    @property
    def hash(self) -> str:
        return config_hash(self.config)

    def _json(self, **body) -> dict:
        return {"schema_version": SCHEMA_VERSION, "config": self.config, "config_hash": self.hash, **body}
