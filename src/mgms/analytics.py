"""Dimension constants, entropy identities, and certified series bounds.

Everything here is either exact (rational arithmetic), certified (interval
enclosures with rigorous tails), or an explicitly labelled float formula.

The derivative series around p (`derivative_series_at_p`, `tau_certify`,
`tau_gamma`, and `hf_derivative_at` as a one-term series) all go through
one kernel, `_derivative_series`: H(p) and H'(p) are enclosed once per
series, every term and the running sum stay integer numerators over lcm
denominators, and the sum is reduced to `Fraction` once.  Its endpoints
equal those of per-term `CertifiedInterval` arithmetic exactly.

Conventions.  Entropy comes in two scales and both are used deliberately:

  * `binary_entropy` (base 2) drives the partition-entropy identity
    H^{mu(r)}(alpha_k) = H(r) F_{k-1}(r) and the series A(r) = 2H(r)/(3-r)
    whose maximum over (0,1) is the Hausdorff dimension s = -log2 p.
  * `entropy_nat` (natural log) drives the derivative-series calculus
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

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .core import chain_length_counts, fibonacci, log2_count_cylinders
from .intervals import (
    CertifiedInterval,
    _common_numerators,
    _from_iv,
    _iv,
    _iv_horner,
    _iv_mul_ints,
    _powers,
    _raw_to_fraction,
    iv_entropy_nat,
    iv_ln_ratio,
    iv_log2,
)
from .polynomials import entropy_poly

__all__ = [
    "CertificationError",
    "binary_entropy",
    "entropy_nat",
    "partition_entropy",
    "A_closed",
    "A_series",
    "solve_p",
    "p_float",
    "hausdorff_dim",
    "dim_minkowski",
    "dim_minkowski_enclosure",
    "hf_derivative_at",
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


def entropy_nat(r: float) -> float:
    """Natural-log entropy -r ln r - (1-r) ln(1-r); equals ln(2) * binary_entropy."""
    r = _check_unit_open(r)
    return -r * math.log(r) - (1 - r) * math.log(1 - r)


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


# -- the series A(r) -----------------------------------------------------------


def A_closed(r: float) -> float:
    """A(r) = sum_k H(r) F_{k-1}(r) / 2^(k+1) = 2 H(r) / (3 - r)."""
    r = _check_unit_open(r)
    return 2.0 * binary_entropy(r) / (3.0 - r)


class SeriesValue(NamedTuple):
    value: float
    tail_bound: float


def A_series(r: float, K: int) -> SeriesValue:
    """Partial sum of A(r) through k = K, with a rigorous truncation bound.

    The tail uses |F_k(x)| <= 3 + 3k/2 on (0,1), so the remainder is at most
    H(r) * sum_{k>K} (3 + 3(k-1)/2) / 2^(k+1) = 1.5 H(r) (K+3) 2^(-K-1).
    """
    r = _check_unit_open(r)
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    partial = sum(partition_entropy(r, k) / 2.0 ** (k + 1) for k in range(1, K + 1))
    tail = 1.5 * binary_entropy(r) * (K + 3) * 2.0 ** -(K + 1)
    return SeriesValue(partial, tail)


# -- the root p and the dimension constants ------------------------------------


def _cubic(n: int, d: int) -> int:
    # d^3 times x^3 - (1-x)^2 = x^3 - x^2 + 2x - 1 at x = n/d
    return n * n * (n - d) + d * d * (2 * n - d)


@lru_cache(maxsize=None)
def solve_p(width: Fraction = Fraction(1, 2**80)) -> CertifiedInterval:
    """Certified enclosure of the root of p^3 = (1-p)^2 in (0,1).

    Plain bisection of [1/2, 3/5] = [5/10, 6/10] on integer numerators:
    after j halvings the bracket is [N/D, (N+1)/D] with D = 10 * 2^j, and
    the sign of x^3 - x^2 + 2x - 1 at N/D is the sign of the exact integer
    N^3 - N^2 D + 2 N D^2 - D^3, so the bracket is rigorous by
    construction.  The width may be any positive finite rational or float.
    """
    if isinstance(width, float) and not math.isfinite(width):
        raise ValueError(f"width must be positive and finite, got {width}")
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    lo, den = 5, 10
    if not (_cubic(lo, den) < 0 < _cubic(lo + 1, den)):
        raise CertificationError("initial bracket does not straddle the root")
    while width.numerator * den < width.denominator:  # hi - lo = 1/den > width
        lo, den = 2 * lo, 2 * den
        fm = _cubic(lo + 1, den)
        if fm == 0:
            return CertifiedInterval.point(Fraction(lo + 1, den))
        if fm < 0:
            lo += 1
    return CertifiedInterval(Fraction(lo, den), Fraction(lo + 1, den))


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


def _minkowski_K(tol: float) -> int:
    # smallest K with tail bound (K+2) 2^-(K+1) < tol, using log2 F_{k+1} <= k
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    K = 1
    while (K + 2) * 2.0 ** -(K + 1) >= tol:
        K += 1
    return K


def dim_minkowski(tol: float = 1e-6) -> SeriesValue:
    """Partial sum of sum_k 2^-(k-1)... truncated so the tail is below tol.

    Terms are 2^-(k+1) log2 F_{k+1}; the tail bound (K+2) 2^-(K+1) comes from
    log2 F_{k+1} <= k.  Limit value ~0.82429.
    """
    K = _minkowski_K(tol)
    value = sum(2.0 ** -(k + 1) * math.log2(fibonacci(k + 1)) for k in range(1, K + 1))
    return SeriesValue(value, (K + 2) * 2.0 ** -(K + 1))


def dim_minkowski_enclosure(tol: float = 1e-6) -> CertifiedInterval:
    """Certified enclosure of the Minkowski dimension (partial sum + tail).

    Each term 2^-(k+1) log2 F_{k+1} is enclosed as `iv_log2_int` encloses
    it, ln(F_{k+1}) / ln 2 in mpmath's interval context, with ln 2 enclosed
    once per call; the exact dyadic endpoints are scaled and summed as
    `Fraction`s.
    """
    K = _minkowski_K(tol)
    iv = _iv()
    ln2 = iv.log(iv.mpf(2))
    lo = hi = Fraction(0)
    for k in range(1, K + 1):
        raw_lo, raw_hi = (iv.log(iv.mpf(fibonacci(k + 1))) / ln2)._mpi_
        lo += _raw_to_fraction(raw_lo) / 2 ** (k + 1)
        hi += _raw_to_fraction(raw_hi) / 2 ** (k + 1)
    return CertifiedInterval(lo, hi + Fraction(K + 2, 2 ** (K + 1)))


# -- derivative series around p (natural-log scale) -----------------------------


def _add_over_lcm(lo1: int, hi1: int, den1: int, lo2: int, hi2: int, den2: int) -> tuple[int, int, int]:
    """[lo1, hi1]/den1 + [lo2, hi2]/den2 as numerators over lcm(den1, den2)."""
    den = math.lcm(den1, den2)
    m1, m2 = den // den1, den // den2
    return lo1 * m1 + lo2 * m2, hi1 * m1 + hi2 * m2, den


def _derivative_series(x: CertifiedInterval, weights: dict[int, CertifiedInterval]) -> CertifiedInterval:
    """Enclosure of sum_k weights[k] * (H F_{k-1})'(x), keys k >= 1.

    The weights are positive intervals.  H(x) and H'(x) = ln((1-x)/x) are
    enclosed once for the whole series, and so is the table of powers of
    x's common denominator.  F_{k-1}(x) and F'_{k-1}(x) come from the
    integer-numerator Horner `_iv_horner`; H F' + H' F, the weight
    product and the running sum are formed on integer numerators over lcm
    denominators, with the endpoint min/max choices `CertifiedInterval`
    arithmetic makes, and reduced to `Fraction` once at the end.  The
    endpoints are therefore the rationals that step-by-step
    `CertifiedInterval` arithmetic yields, term by term.
    """
    h_lo, h_hi, h_den = _common_numerators(iv_entropy_nat(x))
    g_lo, g_hi, g_den = _common_numerators(iv_ln_ratio(x))
    x_lo, x_hi, d = _common_numerators(x)
    powers = _powers(d, max(weights) - 1)
    lo = hi = 0
    den = 1
    for k, weight in weights.items():
        F = entropy_poly(k - 1)
        f_lo, f_hi, f_den = _iv_horner(F.coeffs, x_lo, x_hi, powers)
        d_lo, d_hi, d_den = _iv_horner(F.derivative_coeffs, x_lo, x_hi, powers)
        t_lo, t_hi, t_den = _add_over_lcm(*_iv_mul_ints(h_lo, h_hi, d_lo, d_hi), h_den * d_den,
                                          *_iv_mul_ints(g_lo, g_hi, f_lo, f_hi), g_den * f_den)
        w_lo, w_hi, w_den = _common_numerators(weight)
        lo, hi, den = _add_over_lcm(lo, hi, den, *_iv_mul_ints(t_lo, t_hi, w_lo, w_hi), t_den * w_den)
    return CertifiedInterval(Fraction(lo, den), Fraction(hi, den))


def hf_derivative_at(k: int, x: CertifiedInterval) -> CertifiedInterval:
    """Enclosure of (H F_{k-1})'(x) = H(x) F'_{k-1}(x) + H'(x) F_{k-1}(x).

    H is the natural-log entropy; H'(x) = ln((1-x)/x).  Polynomial values
    use exact coefficients; only H and H' round (outward).  One term of
    `_derivative_series`, with weight 1.
    """
    if k < 1:
        raise ValueError(f"series index must be >= 1, got {k}")
    return _derivative_series(x, {k: CertifiedInterval.point(1)})


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


def derivative_series_at_p(K: int) -> CertifiedInterval:
    """Enclosure of sum_k (H F_{k-1})'(p) / 2^(k+1), widened by a rigorous tail.

    The infinite series vanishes (p maximizes A), so the returned interval
    must contain 0.  Tail: |(H F_{k-1})'(p)| <= 0.7(3k+3) + 0.3(3k+3)/2
    = 2.55 (k+1), summing to 2.55 (K+3) 2^-(K+1).
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    weights = {k: CertifiedInterval.point(Fraction(1, 2 ** (k + 1))) for k in range(1, K + 1)}
    tail = Fraction(51, 20) * Fraction(K + 3, 2 ** (K + 1))
    return _derivative_series(solve_p(), weights).widen(tail)


@dataclass(frozen=True)
class TauCertificate:
    """Outcome of the positivity certification of tau = sum k (HF_{k-1})'(p)/2^(k+1)."""

    partial_12: CertifiedInterval
    tail_bound: CertifiedInterval
    margin: Fraction
    sign: str  # always "POSITIVE" on success

    @property
    def certified_lower_bound(self) -> Fraction:
        return self.margin


@lru_cache(maxsize=None)
def tau_certify() -> TauCertificate:
    """Certify tau > 0 with an exact tail.

    partial_12 encloses sum_{k<=12} k (HF_{k-1})'(p) / 2^(k+1) (~0.187469,
    natural-log scale); the k >= 13 remainder is bounded in absolute value
    by sum_{k>=13} 3k(k+1)/2^(k+1) = 159/2048 < 0.1, evaluated exactly.
    Raises CertificationError if positivity cannot be established.
    """
    weights = {k: CertifiedInterval.point(Fraction(k, 2 ** (k + 1))) for k in range(1, 13)}
    acc = _derivative_series(solve_p(), weights)
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
    from .intervals import ln2_interval

    return tau_certify().margin / ln2_interval().hi


class TauGammaResult(NamedTuple):
    value: CertifiedInterval
    tail_bound: Fraction
    sign: str  # POSITIVE | NEGATIVE | UNKNOWN


def tau_gamma(gamma: float, K: int = 12) -> TauGammaResult:
    """Partial sum of sum_k k^(1+gamma) (HF_{k-1})'(p) / 2^(k+1) with certified tail.

    The tail majorizes k^(1+gamma) by k^m with m = ceil(1+gamma), so gamma
    is limited to (0, 2].  Reports the sign when the tail-widened interval
    separates from zero, UNKNOWN otherwise.
    """
    if not 0 < gamma <= 2:
        raise ValueError(f"gamma must lie in (0, 2], got {gamma}")
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    iv = _iv()
    weights = {}
    for k in range(1, K + 1):
        # enclosure of the weight k^(1+gamma), times 2^-(k+1)
        w = iv.exp(iv.log(iv.mpf(k)) * iv.mpf(1 + gamma)) if k > 1 else iv.mpf(1)
        weights[k] = _from_iv(w).scale(Fraction(1, 2 ** (k + 1)))
    acc = _derivative_series(solve_p(), weights)
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

    Sums L_k over the exact chain-length partition of {1,...,n}.
    """
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    p = p_float() if p_val is None else _check_unit_open(p_val)
    return sum(c * expected_zero_count_chain(p, k) for k, c in chain_length_counts(n).items())


# -- gauges -----------------------------------------------------------------------


class GaugeFamily(Enum):
    PURE_S = "pure_s"
    PHI = "phi"
    PSI_THETA = "psi_theta"
    PHI_GAMMA = "phi_gamma"
    PSI_G = "psi_g"


@dataclass(frozen=True)
class Gauge:
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
        if c <= 0:
            raise ValueError(f"coefficient must be positive, got {c}")
        return Gauge(GaugeFamily.PHI, s=s_float() if s is None else float(s), c=float(c))

    @staticmethod
    def psi_theta(theta: float, s: Optional[float] = None) -> "Gauge":
        return Gauge(GaugeFamily.PSI_THETA, s=s_float() if s is None else float(s), theta=float(theta))

    @staticmethod
    def phi_gamma(c: float, gamma: float, s: Optional[float] = None) -> "Gauge":
        if c <= 0 or gamma <= 0:
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

    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
