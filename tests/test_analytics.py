"""Dimension constants, entropy identities, series certification, gauges."""

import hashlib
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import sympy
from scipy.optimize import minimize_scalar

import mgms.analytics as analytics
from mgms.analytics import (
    CertificationError,
    Gauge,
    GaugeFamily,
    _hg_derivative,
    _jet_bounds,
    _minkowski_K,
    _truncated_jet,
    _weighted_jet,
    _zero_count_jet,
    binary_entropy,
    derivative_series_at_p,
    dim_minkowski,
    dim_minkowski_enclosure,
    dyadic_tail,
    expected_zero_count_chain,
    expected_zero_count_prefix,
    gauge_log2,
    hausdorff_dim,
    p_float,
    partition_entropy,
    s_float,
    solve_p,
    tau_bits_lower_bound,
    tau_certify,
    tau_gamma,
)
from mgms.core import chain_length_counts, fibonacci
from mgms.intervals import _FIX_BITS, CertifiedInterval, ln2_interval
from mgms.measures import BlockAssignment, MarkovParams, markov_cylinder_logprob, pdelta_logprob
from mgms.polynomials import _coefficient_rows, entropy_poly

from conftest import (
    A_closed,
    horner_hf_derivative_at,
    integer_bisection_p,
    iter_golden_words,
    iter_multiplicative_prefixes,
    iv_entropy_nat,
    iv_ln_ratio,
    iv_log2_int,
    near_tau_gamma_reference,
    reference_derivative_partials,
    reference_dim_minkowski_enclosure,
    reference_dyadic_power_tail,
    reference_hf_derivative_at,
    reference_solve_p,
    reference_tau_gamma_partial,
    reference_tau_partial_12,
    reference_truncated_jet,
    reference_weighted_jet,
    reference_zero_count_jet,
)


class TestCubicRoot:
    def test_cubic_is_the_symbolic_expansion(self):
        # p^3 = (1-p)^2 expands to x^3 - x^2 + 2x - 1 = 0
        x = sympy.Symbol("x")
        assert sympy.expand(x**3 - (1 - x) ** 2 - (x**3 - x**2 + 2 * x - 1)) == 0

    def test_bisection_needs_no_checks(self):
        # no bracket endpoint N/D is the root, so the signs f(N/D) < 0 < f((N+1)/D)
        # fix N = floor(pD): f(1/2) < 0 < f(3/5), and f has no rational root (the
        # rational root theorem leaves +-1, and f(1) = 1, f(-1) = -5)
        f = lambda v: v**3 - v**2 + 2 * v - 1
        assert f(Fraction(1, 2)) == Fraction(-1, 8) and f(Fraction(3, 5)) == Fraction(7, 125)
        assert (f(1), f(-1)) == (1, -5)
        x = sympy.Symbol("x")
        assert sympy.Poly(x**3 - x**2 + 2 * x - 1, x).is_irreducible  # over Q: a cubic has no rational root

    def test_enclosure_contains_printed_value(self):
        p = solve_p()
        assert abs(p.mid_float - 0.56984) < 1e-5
        assert p.width <= Fraction(1, 2**80)
        assert Fraction(1, 2) < p.lo and p.hi < Fraction(3, 5)  # certified bracket

    def test_bracket_signs(self):
        p = solve_p()
        cubic = lambda v: v**3 - v**2 + 2 * v - 1
        assert cubic(p.lo) <= 0 <= cubic(p.hi)

    def test_midpoint_nearly_solves_the_equation(self):
        m = solve_p().midpoint
        assert abs(m**3 - (1 - m) ** 2) < Fraction(1, 2**70)

    def test_width_parameter(self):
        wide = solve_p(Fraction(1, 2**20))
        assert wide.width <= Fraction(1, 2**20)
        assert wide.lo <= solve_p().lo and solve_p().hi <= wide.hi

    @pytest.mark.parametrize("width", [
        Fraction(1, 2**20), Fraction(1, 2**80), Fraction(1, 2**112), Fraction(1, 2**160),
        Fraction(1, 10), Fraction(1, 3), Fraction(3, 7**30), Fraction(1, 5), 1e-9, 0.1,
    ])
    def test_integer_bisection_equals_fraction_bisection(self, width):
        # same rationals as bisection on Fractions, dyadic or not, wider than the bracket or not
        got, ref = solve_p(width), reference_solve_p(width)
        assert (got.lo, got.hi) == (ref.lo, ref.hi)
        assert got.width <= Fraction(width)

    def test_newton_bracket_equals_integer_bisection(self):
        # the Newton bracket is the one bisection finds, N = floor(pD), at every D = 10 * 2^j
        for width in (*(Fraction(1, 2**j) for j in range(1, 401)), 1.0, 0.07, 1e-300):
            got, ref = solve_p(width), integer_bisection_p(width)
            assert (got.lo, got.hi) == (ref.lo, ref.hi), width

    @pytest.mark.parametrize("width", [
        Fraction(1, 2**80), 1, Fraction(1, 10), Fraction(1, 3), 1e-300, 5e-324, Fraction(1, 10**1000),
    ])
    def test_denominator_is_the_doubling_loops(self, width):
        # D = 10 * 2^j from bit lengths is the D that doubling from 10 while 1/D > width
        # reached (1 and 1/10 keep D = 10), and N the one bisection at that D finds
        w, den = Fraction(width), 10
        while w.numerator * den < w.denominator:
            den *= 2
        got, ref = solve_p(width), integer_bisection_p(width)
        assert got.hi - got.lo == Fraction(1, den)
        assert (got.lo, got.hi) == (ref.lo, ref.hi)

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, 0, 0.0, -1e-3, Fraction(-1, 2)])
    def test_bad_width_rejected(self, width):
        # an infinite width used to raise OverflowError from Fraction(inf)
        with pytest.raises(ValueError):
            solve_p(width)


class TestEntropy:
    def test_binary_entropy_basics(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)
        for r in (0.1, 0.3, 0.42):
            assert binary_entropy(r) == pytest.approx(binary_entropy(1 - r))
            assert 0 < binary_entropy(r) <= 1

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                binary_entropy(bad)

    def test_natural_log_value_at_p(self):
        # the certified natural-log entropy at p sits at ~0.68336, below 0.7
        enc = iv_entropy_nat(solve_p())
        assert abs(enc.mid_float - 0.68336) < 1e-5
        assert enc.hi < Fraction(7, 10)
        assert math.log(2) * binary_entropy(p_float()) == pytest.approx(enc.mid_float, abs=1e-12)

    def test_base2_value_at_p_via_series_identity(self):
        # A(p) = s forces H2(p) = s (3 - p) / 2
        H2 = binary_entropy(p_float())
        assert H2 == pytest.approx(s_float() * (3 - p_float()) / 2, abs=1e-12)
        enc = iv_entropy_nat(solve_p())
        assert abs(enc.mid_float / ln2_interval().mid_float - H2) < 1e-12

    @pytest.mark.parametrize("r", [0.3, 0.5, None, 0.7])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_partition_entropy_against_enumeration(self, r, k):
        r = p_float() if r is None else r
        params = MarkovParams(r)
        brute = -sum(
            (lp := markov_cylinder_logprob(params, u)).to_probability() * lp.value
            for u in iter_golden_words(k)
        )
        assert partition_entropy(r, k) == pytest.approx(brute, abs=1e-9)

    def test_partition_entropy_low_orders(self):
        for r in (0.35, 0.5, 0.65):
            assert partition_entropy(r, 1) == pytest.approx(binary_entropy(r))
            assert partition_entropy(r, 2) == pytest.approx(binary_entropy(r) * (1 + r))

    @pytest.mark.parametrize("r", [0.3, None, 0.8])
    @pytest.mark.parametrize("k", [120, 300])
    def test_partition_entropy_at_large_orders(self, r, k):
        # F_{k-1} = 1 + L_{k-1}; float Horner on the 115-bit coefficients of
        # F_119 read -1441772.85 for the factor 84.117 at r = p
        r = p_float() if r is None else r
        closed = binary_entropy(r) * (1 + expected_zero_count_chain(r, k - 1))
        assert partition_entropy(r, k) == pytest.approx(closed, rel=1e-13)

    # the Fraction Horner on the integer coefficients of F_{k-1}, rounded once,
    # is how partition_entropy was computed before the closed form 1 + L_{k-1}
    @pytest.mark.parametrize("r", [None, 0.375, 0.8125])
    def test_partition_entropy_equals_fraction_horner(self, r):
        r = p_float() if r is None else r
        for k in range(1, 401):
            horner = entropy_poly(k - 1).evaluate(Fraction(r))
            assert partition_entropy(r, k) == binary_entropy(r) * float(horner), k


class TestSeriesA:
    def test_closed_form_examples(self):
        assert A_closed(0.5) == pytest.approx(0.8)
        assert A_closed(p_float()) == pytest.approx(s_float(), abs=1e-9)

    def test_partial_sums_within_their_tail(self):
        # |F_k| <= 3 + 3k/2 on (0,1) bounds the rest after K terms by 1.5 H(r) (K+3) 2^(-K-1)
        for r in np.linspace(0.01, 0.99, 99):
            r = float(r)
            for K in (5, 15, 40):
                value = sum(partition_entropy(r, k) / 2.0 ** (k + 1) for k in range(1, K + 1))
                tail = 1.5 * binary_entropy(r) * (K + 3) * 2.0 ** -(K + 1)
                assert abs(A_closed(r) - value) <= tail

    def test_tail_shrinks(self):
        r = 0.6
        gaps = [abs(A_closed(r) - sum(partition_entropy(r, k) / 2.0 ** (k + 1) for k in range(1, K + 1)))
                for K in (5, 10, 20, 40)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_maximum_at_p(self):
        res = minimize_scalar(lambda r: -A_closed(r), bounds=(0.01, 0.99), method="bounded")
        assert abs(-res.fun - s_float()) < 1e-6
        assert abs(res.x - p_float()) < 1e-4


class TestDimensions:
    def test_hausdorff_enclosure(self):
        s = hausdorff_dim()
        assert abs(s.mid_float - 0.81137) < 1e-5
        assert Fraction(81, 100) < s.lo and s.hi < Fraction(82, 100)

    def test_float_s_is_the_enclosure_midpoint(self):
        # s_float is -log2(p_float()) in doubles, without the mpmath enclosure
        s = hausdorff_dim()
        assert s_float() == s.mid_float
        # the enclosure is far narrower than an ulp, so no double lies inside it;
        # both endpoints rounding to s_float makes it s correctly rounded
        assert float(s.lo) == s_float() == float(s.hi)

    def test_minkowski_value_and_tail_contract(self):
        value, tail = dim_minkowski(1e-6)
        assert tail < 1e-6
        assert abs(value - 0.82429) < 1e-5
        wide_value, wide_tail = dim_minkowski(1e-2)
        assert wide_tail < 1e-2
        # wider partial sum still sits below the sharp one plus tails
        assert wide_value <= value <= wide_value + wide_tail

    def test_minkowski_enclosure_brackets(self):
        enc = dim_minkowski_enclosure(1e-9)
        assert Fraction(824, 1000) < enc.lo and enc.hi < Fraction(825, 1000)
        sharp, tail = dim_minkowski(1e-12)
        assert enc.contains(Fraction(sharp))

    def test_ordering_certified(self):
        assert hausdorff_dim().hi < dim_minkowski_enclosure(1e-9).lo

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            dim_minkowski(0.0)

    @pytest.mark.parametrize("tol", [1e-2, 1e-3, 1e-6, 1e-30, 1e-60, 1e-100, 5e-324])
    def test_minkowski_enclosure_equals_interval_per_term(self, tol):
        # at 1e-60 and below the Fibonacci numbers pass 2^120 and still enter exactly:
        # each term's ends are the correctly rounded ends of ln F_{k+1}
        got, ref = dim_minkowski_enclosure(tol), reference_dim_minkowski_enclosure(tol)
        assert (got.lo, got.hi) == (ref.lo, ref.hi)

    @pytest.mark.parametrize("tol", [1e-60, 1e-100, 5e-324])
    def test_exact_entry_nests_inside_the_rounded_one(self, tol):
        # F_{k+1} past 2^120 rounded outward to 120 bits, each end with its own log, gave a wider enclosure
        got, wide = dim_minkowski_enclosure(tol), reference_dim_minkowski_enclosure(tol, iv_log2_int)
        assert wide.lo < got.lo and got.hi <= wide.hi

    @pytest.mark.parametrize("tol", [5e-324, 1e-322, 2e-321, 1e-320, 1e-6])
    def test_minkowski_cutoff_is_exact(self, tol):
        # 2.0 ** -(K+1) underflows to 0 at K = 1074; the cutoff and the float tail must not.
        # At 2e-321, K = 1075 and the tail is 269.25 subnormal ulps: rounding to nearest falls below it
        K = _minkowski_K(tol)
        exact_tail = Fraction(K + 2, 2 ** (K + 1))
        assert exact_tail < Fraction(tol) <= Fraction(K + 1, 2**K)
        tail = dim_minkowski(tol).tail_bound
        assert tail > 0 and Fraction(tail) >= exact_tail

    @pytest.mark.parametrize("tol", [1e-2, 1e-6, 1e-30, 5e-324])
    def test_minkowski_partial_sum_adds_left_to_right(self, tol):
        # builtin sum() compensates from Python 3.12 on, and moved the 1e-6 value by an ulp
        total = 0.0
        for k in range(1, _minkowski_K(tol) + 1):
            total += 2.0 ** -(k + 1) * math.log2(fibonacci(k + 1))
        assert dim_minkowski(tol).value == total

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tol_rejected(self, tol):
        # a NaN tolerance used to fall through every comparison and give K = 1
        with pytest.raises(ValueError):
            dim_minkowski(tol)
        with pytest.raises(ValueError):
            dim_minkowski_enclosure(tol)


def weighted_series(weights, shift: int, x: CertifiedInterval) -> CertifiedInterval:
    """sum_k w_k (H F_{k-1})'(x), w_k = weights[k-1] / 2^shift, by the package's fixed-point finish."""
    return _hg_derivative(x, partial(_weighted_jet, weights, shift), shift)


def term(k: int, x: CertifiedInterval) -> CertifiedInterval:
    """(H F_{k-1})'(x): one term of the weighted series, weight 1."""
    return weighted_series([0] * (k - 1) + [1], 0, x)


class TestDerivativeSeries:
    def test_first_term_is_entropy_derivative(self):
        # F_0 = 1, so the term is H'(p) rounded outward to 2^-_FIX_BITS
        p = solve_p()
        k1 = term(1, p)
        href = iv_ln_ratio(p)
        assert k1.lo <= href.lo and href.hi <= k1.hi
        assert k1.width <= href.width + Fraction(2, 2**_FIX_BITS)

    def test_entropy_derivative_value_and_bound(self):
        enc = iv_ln_ratio(solve_p())
        assert abs(enc.mid_float - (-0.281198)) < 1e-5
        assert Fraction(-3, 10) < enc.lo and enc.hi < 0  # |H'(p)| < 0.3, certified

    def test_series_vanishes_with_tight_width(self):
        enc = derivative_series_at_p(40)
        assert enc.contains_zero()
        assert float(enc.width) < 1e-6

    @pytest.mark.parametrize("K", [12, 15, 20, 30, 45])
    def test_series_contains_zero_for_all_usable_K(self, K):
        assert derivative_series_at_p(K).contains_zero()

    def test_partial_sums_differ_by_one_term(self):
        p = solve_p()
        s1 = derivative_series_at_p(1)
        s2 = derivative_series_at_p(2)
        term2 = term(2, p) * Fraction(1, 8)
        # midpoints differ by exactly the k=2 term (tails differ separately)
        assert float(abs((s2.midpoint - s1.midpoint) - term2.midpoint)) < 1e-20 + float(
            (s1.width + s2.width + term2.width)
        )

    def test_high_order_term_on_a_cold_cache(self):
        # entropy_poly used to recurse once per index and overflow the stack near
        # k = 450; the closed-form terms build no polynomial at all
        entropy_poly.cache_clear()
        p = solve_p()
        assert within_budget(term(600, p), reference_hf_derivative_at(600, p))
        assert len(_coefficient_rows()) == 2

    @pytest.mark.parametrize("k", [120, 600])
    def test_high_order_terms_are_narrow(self, k):
        # interval Horner on the coefficients of F_119 gave width 2.3 at k = 120
        assert term(k, solve_p()).width < Fraction(1, 10**20)

    def test_long_series_contains_zero_narrowly(self):
        enc = derivative_series_at_p(600)
        assert enc.contains_zero()
        assert enc.width < Fraction(4, 10**24)

    def test_tail_is_monotone_in_K(self):
        tails = []
        for K in (12, 20, 30):
            enc = derivative_series_at_p(K)
            tails.append(float(enc.width))
        assert tails[0] > tails[1] > tails[2]


def endpoint_digest_text(ci) -> str:
    return f"{ci.lo.numerator}/{ci.lo.denominator}\n{ci.hi.numerator}/{ci.hi.denominator}\n"


def endpoint_digest(ci) -> str:
    return hashlib.sha256(endpoint_digest_text(ci).encode()).hexdigest()


def test_enclosure_endpoints_are_frozen():
    # sha256 of the exact num/den endpoints: for K80, K120 and tau_gamma those
    # of (H G)'(p) in fixed point over 2^256 (G_K in closed form, tau_gamma's
    # G_w on its lower weights, widened by the rest), and interval Horner for
    # tau's partial_12; p, s and the Minkowski sums as computed through
    # mpmath's interval context, before the raw-tuple kernels; any change of
    # representation must keep them
    assert endpoint_digest(solve_p()) == (
        "c3f92aa8e198dce0e5ab4f68a38561e78cb5ee5deb88c0e0f258f2e4ddc3205f")
    assert endpoint_digest(hausdorff_dim()) == (
        "da2bd1fe98eced1319a852c529342c3bbe6b0dbc24c6916ef073995a038659a7")
    assert endpoint_digest(dim_minkowski_enclosure(1e-6)) == (
        "b1b8df68ab755585728bd0db44dcfebf95d354eea73ca2403a713923a6cbcbfb")
    assert endpoint_digest(dim_minkowski_enclosure(1e-30)) == (
        "2a9ac59889c64d422252042c3db3c155fe4a844730b90395840d2c11f627e801")
    assert endpoint_digest(derivative_series_at_p(80)) == (
        "b94c27a5abca014b8c50b185284ca6fb28a8d9775f46edb962f71cc7c631172e")
    assert endpoint_digest(derivative_series_at_p(120)) == (
        "5d8bd8735eb267033425f4d79fd882ed954d1e7f37a58c199936216a22fc2dde")
    assert endpoint_digest(tau_certify().partial_12) == (
        "910fc9b4f0bbf9841657aa304e091b449d1676552dac301813eb97d1928ab4cb")
    assert endpoint_digest(tau_gamma(0.5, 20).value) == (
        "c3e76bf5ad231bbdcf18f9e88879f848b02b49e346fc41730130ec4b7d24b5e0")


def test_derivative_series_endpoints_are_frozen_for_every_K():
    # sha256 over K = 1..130 of the endpoints of derivative_series_at_p(K), recorded
    # while the fixed-point finish was inline there, before tau_gamma shared it
    digest = hashlib.sha256()
    for K in range(1, 131):
        digest.update(endpoint_digest_text(derivative_series_at_p(K)).encode())
    assert digest.hexdigest() == "ab60538e0ebca9c08a13cd4aa11a02187a256ca8c8ee7ef536cc5b14b0e6f19a"


def same_endpoints(a, b) -> bool:
    return a.lo == b.lo and a.hi == b.hi


# the fixed-point rounding the weighted series may add to the per-term sum
BUDGET = Fraction(1, 2**200)


def within_budget(got, ref) -> bool:
    """Each endpoint of got within BUDGET of ref's: a sum the fixed-point finish
    takes with the same Taylor form per term, so only the rounding moves it."""
    return abs(got.lo - ref.lo) <= BUDGET and abs(got.hi - ref.hi) <= BUDGET


class TestSeriesKernelMatchesFractionLoops:
    """The series kernels against the per-term CertifiedInterval loops: the Taylor-form
    closed-form terms, and interval Horner for tau's partial_12."""

    @pytest.fixture(scope="class")
    def partials(self):
        return reference_derivative_partials(solve_p(), 130)

    def test_derivative_series_every_K(self, partials):
        # the closed form lies inside the per-term sum widened by the budget, contains 0,
        # is no wider but for the budget (the benchmark records the looser Horner
        # widths), and keeps the per-term width to 6 digits
        for K, acc in enumerate(partials, 1):
            tail = Fraction(51, 20) * Fraction(K + 3, 2 ** (K + 1))
            ref, got = acc.widen(tail), derivative_series_at_p(K)
            assert ref.lo - BUDGET <= got.lo and got.hi <= ref.hi + BUDGET, K
            assert got.contains_zero(), K
            assert got.width <= ref.width + BUDGET, K
            assert abs(got.width - ref.width) <= ref.width / 10**6, K

    @pytest.mark.parametrize("K", [1, 2, 3, 40, 130])
    @pytest.mark.parametrize("a", [None, Fraction(1, 5), Fraction(1, 2), Fraction(3, 4)],
                             ids=["p_lo", "one_fifth", "half", "three_quarters"])
    def test_truncated_jet_contains_the_oracle(self, K, a):
        # fixed-point G_K, G_K', G_K'' enclose the exact Fraction sums with width
        # at most the budget; the remainder sums are exact
        a = solve_p().lo if a is None else a
        jet, (m2, m3) = _truncated_jet(K, a.numerator, a.denominator)
        ref = reference_truncated_jet(K, a)
        for (lo, hi), exact in zip(jet, ref):
            assert Fraction(lo, 2**_FIX_BITS) <= exact <= Fraction(hi, 2**_FIX_BITS)
            assert Fraction(hi - lo, 2**_FIX_BITS) <= BUDGET
        assert (Fraction(m2, 2 ** (K + 1)), Fraction(m3, 2 ** (K + 1))) == ref[3:]

    def test_benchmark_tau_gamma_width_is_pinned(self):
        # the benchmark records the Horner width, 3.03e-23; the series widths it
        # records are pinned by test_derivative_series_every_K
        assert tau_gamma(0.5, 20).value.width < Fraction(199, 10**25)

    def test_very_long_series_contains_zero_narrowly(self):
        # a K-term integer sum would carry endpoints of O(K^2) bits
        enc = derivative_series_at_p(5000)
        assert enc.contains_zero()
        assert enc.width < Fraction(4, 10**24)

    def test_single_terms(self):
        p = solve_p()
        for k in range(1, 131):
            assert within_budget(term(k, p), reference_hf_derivative_at(k, p)), k

    def test_single_terms_off_p(self):
        # on a wide x the Taylor remainder dominates, and the finish keeps it but for the rounding
        x = CertifiedInterval(Fraction(1, 5), Fraction(3, 4))
        for k in range(1, 25):
            assert within_budget(term(k, x), reference_hf_derivative_at(k, x)), k

    def test_tau_partial(self):
        assert same_endpoints(tau_certify().partial_12, reference_tau_partial_12(solve_p()))

    @pytest.mark.parametrize("shift", [0, 7])
    def test_kernel_takes_integer_weights_over_a_power_of_two(self, shift):
        # _weighted_jet on arbitrary integer weights over 2^shift, zeros and large ones
        # included, encloses the Fraction sums of G_w, G_w', G_w'' at a to the budget and
        # gives the remainder sums exactly; the finish then lies inside the per-term sum
        weights = [(3, 0, 1, 2**70 + 5, 7)[k % 5] * k for k in range(1, 25)]  # k = 1..24
        for a in (solve_p().lo, Fraction(1, 5), Fraction(1, 2), Fraction(3, 4)):
            jet, (m2, m3) = _weighted_jet(weights, shift, a.numerator, a.denominator)
            ref = reference_weighted_jet(weights, shift, a)
            for (lo, hi), exact in zip(jet, ref):
                assert Fraction(lo, 2**_FIX_BITS) <= exact <= Fraction(hi, 2**_FIX_BITS)
                assert Fraction(hi - lo, 2**_FIX_BITS) <= BUDGET
            assert (Fraction(m2, 2**shift), Fraction(m3, 2**shift)) == ref[3:]
        p = solve_p()
        ref = CertifiedInterval.point(0)
        for k, w in enumerate(weights, 1):
            ref = ref + reference_hf_derivative_at(k, p) * Fraction(w, 2**shift)
        got = weighted_series(weights, shift, p)
        assert ref.lo - BUDGET <= got.lo and got.hi <= ref.hi + BUDGET
        assert got.width <= ref.width + BUDGET

    def test_sums_build_no_fraction_per_term(self, monkeypatch):
        built = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return Fraction(*args, **kwargs)

        solve_p()
        monkeypatch.setattr(analytics, "Fraction", CountingFraction)
        counts = []
        for call in (lambda: derivative_series_at_p(40), lambda: derivative_series_at_p(120),
                     lambda: dim_minkowski_enclosure(1e-6), lambda: dim_minkowski_enclosure(1e-30)):
            built.clear()
            call()
            counts.append(len(built))
        assert counts[0] == counts[1] and counts[2] == counts[3], counts

    @pytest.mark.parametrize("gamma,K", [(0.5, 20), (0.5, 12), (1, 30), (2, 5), (0.1, 1)])
    def test_tau_gamma(self, gamma, K):
        assert near_tau_gamma_reference(tau_gamma(gamma, K).value, reference_tau_gamma_partial(solve_p(), gamma, K))


# 60-digit mpmath values, as perfbench/record.py computes them independently of mgms
TAU_GAMMA_PARTIAL = Fraction("0.48589063619165887386968027311746280671875217326910790525260937799")
TAU_PARTIAL_12 = Fraction("0.18746623633997651768035302505073866464251217784799807967537939084")
REF_TOL = Fraction(1, 10**55)


def horner_fraction(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def derivative(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(j * c for j, c in enumerate(coeffs[1:], 1)) or (0,)


class TestClosedFormAgainstHorner:
    """The closed-form chain terms against interval Horner on the coefficients of F_{k-1}."""

    @pytest.mark.parametrize("K", [40, 80, 120])
    def test_series_is_sound_and_no_wider(self, K):
        tail = Fraction(51, 20) * Fraction(K + 3, 2 ** (K + 1))
        horner = reference_derivative_partials(solve_p(), K, term=horner_hf_derivative_at)[-1].widen(tail)
        new = derivative_series_at_p(K)
        assert max(new.lo, horner.lo) <= min(new.hi, horner.hi)
        assert new.contains_zero()
        assert new.width <= horner.width

    def test_tau_gamma_is_sound_and_no_wider(self):
        horner = reference_tau_gamma_partial(solve_p(), 0.5, 20, term=horner_hf_derivative_at)
        new = tau_gamma(0.5, 20).value
        assert max(new.lo, horner.lo) <= min(new.hi, horner.hi)
        assert new.lo - REF_TOL <= TAU_GAMMA_PARTIAL <= new.hi + REF_TOL
        assert horner.lo - REF_TOL <= TAU_GAMMA_PARTIAL <= horner.hi + REF_TOL
        assert new.width <= horner.width

    def test_tau_partial_contains_reference(self):
        ci = tau_certify().partial_12
        assert ci.lo - REF_TOL <= TAU_PARTIAL_12 <= ci.hi + REF_TOL

    @staticmethod
    def _points():
        # the left end of p's enclosure, and rationals inside the wide x = [1/5, 3/4]
        return [solve_p().lo, Fraction(1, 5), Fraction(2, 7), Fraction(1, 2), Fraction(57, 100),
                Fraction(2, 3), Fraction(3, 4)]

    def test_jet_equals_fraction_horner(self):
        for m in range(0, 61):
            c0 = entropy_poly(m).coeffs
            c1 = derivative(c0)
            c2 = derivative(c1)
            for a in self._points():
                n, d = a.numerator, a.denominator
                Q, E = n - d, 2 * d - n
                a0, a1, a2 = _zero_count_jet(m, Q, E, d, Q**m, d**m)
                kernel = (Fraction(a0, d**m * E**2), Fraction(d * a1, d**m * E**3),
                          Fraction(d * d * a2, d**m * E**4))
                horner = (horner_fraction(c0, a) - 1, horner_fraction(c1, a), horner_fraction(c2, a))
                assert kernel == horner == reference_zero_count_jet(m, a), (m, a)

    def test_remainder_bounds_hold_on_the_unit_interval(self):
        grid = [Fraction(i, 64) for i in range(1, 64)]
        for m in range(0, 41):
            c2 = derivative(derivative(entropy_poly(m).coeffs))
            c3 = derivative(c2)
            M2, M3 = _jet_bounds(m)
            assert max(abs(horner_fraction(c2, t)) for t in grid) <= M2, m
            assert max(abs(horner_fraction(c3, t)) for t in grid) <= M3, m


def power_tail(m: int, K: int) -> Fraction:
    return dyadic_tail(lambda k: k**m, m, K)


class TestDyadicTails:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("K", [1, 5, 13])
    def test_matches_brute_force_partial(self, m, K):
        brute = sum(Fraction(k**m, 2**k) for k in range(K, K + 400))
        exact = power_tail(m, K)
        assert 0 <= exact - brute < Fraction(1, 2**300)

    def test_polynomial_matches_brute_force_partial(self):
        f = lambda k: Fraction(51, 40) * (k**4 + k**3) - 7 * k + Fraction(1, 3)
        brute = sum(f(k) / 2**k for k in range(9, 9 + 400))
        assert 0 <= dyadic_tail(f, 4, 9) - brute < Fraction(1, 2**300)

    def test_negative_power_rejected(self):
        # a polynomial has degree >= 0, and the tail starts at K >= 0
        with pytest.raises(ValueError):
            dyadic_tail(lambda k: 1, -1, 3)
        with pytest.raises(ValueError):
            dyadic_tail(lambda k: 1, 0, -1)

    def test_moments(self):
        assert power_tail(0, 0) == 2
        assert power_tail(1, 1) == 2
        assert power_tail(2, 1) == 6
        assert power_tail(3, 1) == 26

    def test_matches_the_stirling_moment_formula(self):
        for m in range(9):
            for K in range(30):
                assert power_tail(m, K) == reference_dyadic_power_tail(m, K), (m, K)

    def test_certificate_tails_are_the_power_tails(self):
        assert tau_certify().tail_bound.hi == Fraction(3, 2) * (
            reference_dyadic_power_tail(2, 13) + reference_dyadic_power_tail(1, 13))
        for gamma, K in [(0.1, 12), (0.5, 20), (1.5, 12), (2, 5)]:
            m = math.ceil(1 + gamma)
            assert tau_gamma(gamma, K).tail_bound == Fraction(51, 40) * (
                reference_dyadic_power_tail(m + 1, K + 1) + reference_dyadic_power_tail(m, K + 1))
        assert tau_gamma(0.5, 20).tail_bound == Fraction(71859, 5242880)


class TestTau:
    def test_partial_sum_encloses_reported_value(self):
        cert = tau_certify()
        assert abs(cert.partial_12.mid_float - 0.187469) < 1e-5

    def test_tail_is_exact_and_small(self):
        cert = tau_certify()
        assert cert.tail_bound.hi == Fraction(159, 2048)
        assert cert.tail_bound.hi < Fraction(1, 10)

    def test_certified_margin(self):
        cert = tau_certify()
        assert cert.sign == "POSITIVE"
        assert cert.margin > Fraction(8, 100)
        assert cert.margin == cert.partial_12.lo - cert.tail_bound.hi

    def test_bits_scale_bound(self):
        lb = tau_bits_lower_bound()
        assert Fraction(15, 100) < lb < Fraction(30, 100)


class TestTauGamma:
    def test_small_gamma_approaches_tau_partial(self):
        cert = tau_certify()
        for gamma in (1e-6, 1e-9):
            res = tau_gamma(gamma, K=12)
            assert abs(res.value.mid_float - cert.partial_12.mid_float) < 1e-4

    def test_gamma_one_certifies_positive(self):
        res = tau_gamma(1.0, K=12)
        assert res.sign == "POSITIVE"

    def test_tail_monotone_in_K(self):
        t1 = tau_gamma(0.5, K=12).tail_bound
        t2 = tau_gamma(0.5, K=20).tail_bound
        assert t1 > t2

    def test_domain(self):
        with pytest.raises(ValueError):
            tau_gamma(0.0)
        with pytest.raises(ValueError):
            tau_gamma(2.5)
        with pytest.raises(ValueError):
            tau_gamma(0.5, K=0)


class TestZeroCountExpectations:
    def test_closed_forms(self, p_val):
        assert expected_zero_count_chain(p_val, 1) == pytest.approx(p_val, abs=1e-12)
        assert expected_zero_count_chain(p_val, 2) == pytest.approx(1 + p_val**2, abs=1e-12)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_chain_expectation_against_enumeration(self, p_val, k):
        params = MarkovParams(p_val)
        brute = sum(
            markov_cylinder_logprob(params, u).to_probability() * u.count_zeros()
            for u in iter_golden_words(k)
        )
        assert expected_zero_count_chain(p_val, k) == pytest.approx(brute, abs=1e-10)

    def test_deviation_from_linear_term_is_bounded(self, p_val):
        cap = 2 * (p_val - 1) ** 2 / (2 - p_val) ** 2
        for k in range(1, 60):
            lk = expected_zero_count_chain(p_val, k)
            assert abs(lk - k / (2 - p_val)) <= cap + 1e-12

    def test_prefix_expectation_small_cases(self, p_val):
        assert expected_zero_count_prefix(1) == pytest.approx(p_val)
        expected3 = expected_zero_count_chain(p_val, 2) + expected_zero_count_chain(p_val, 1)
        assert expected_zero_count_prefix(3) == pytest.approx(expected3)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_prefix_expectation_against_enumeration(self, p_val, n):
        brute = sum(
            pdelta_logprob(BlockAssignment(0.0), u).to_probability() * u.count_zeros()
            for u in iter_multiplicative_prefixes(n)
        )
        assert expected_zero_count_prefix(n) == pytest.approx(brute, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 100, 256, 512, 1024, 2**20 + 1])
    def test_prefix_expectation_adds_left_to_right(self, p_val, n):
        # the ldev2 means: builtin sum() compensates from Python 3.12 on, and moved them by an ulp
        total = 0.0
        for k, c in sorted(chain_length_counts(n).items()):
            total += c * expected_zero_count_chain(p_val, k)
        assert expected_zero_count_prefix(n) == total

    def test_prefix_expectation_is_chain_sum(self, p_val):
        for n in (5, 17, 100, 1023):
            manual = sum(
                expected_zero_count_chain(p_val, (n // i).bit_length()) for i in range(1, n + 1, 2)
            )
            assert expected_zero_count_prefix(n) == pytest.approx(manual, abs=1e-9)

    def test_doubling_diff_is_polylog(self):
        # |E[N0(x_1^(2n))]/2 - E[N0(x_1^n)]| <= C (log2 n)^2 with a modest C
        worst = 0.0
        for j in range(1, 21):
            n = 2**j
            diff = abs(expected_zero_count_prefix(2 * n) / 2 - expected_zero_count_prefix(n))
            worst = max(worst, diff / math.log2(n) ** 2)
        for n in (3, 100, 999, 12345, 2**20 - 1):
            diff = abs(expected_zero_count_prefix(2 * n) / 2 - expected_zero_count_prefix(n))
            worst = max(worst, diff / math.log2(n) ** 2)
        print(f"fitted doubling constant C = {worst:.4f}")
        assert worst < 2.0


class TestGauges:
    def test_pure_gauge(self):
        g = Gauge.pure()
        assert gauge_log2(g, 100) == pytest.approx(-100 * s_float())

    def test_psi_theta_example(self):
        g = Gauge.psi_theta(1.0)
        assert gauge_log2(g, 1024) == pytest.approx(-1024 * g.s - 102.4)

    def test_phi_vs_psi_theta2_algebra(self):
        c = 0.4
        phi = Gauge.phi(c)
        psi2 = Gauge.psi_theta(2.0)
        for n in (16, 100, 4096):
            diff = gauge_log2(phi, n) - gauge_log2(psi2, n)
            assert diff == pytest.approx((1 - c) * n / math.log2(n) ** 2)
            assert gauge_log2(psi2, n) < gauge_log2(phi, n)  # c < 1

    def test_phi_gamma_weaker_than_phi(self):
        g2 = Gauge.phi(0.3)
        g3 = Gauge.phi_gamma(0.3, 0.7)
        for n in (64, 2048):
            assert gauge_log2(g3, n) > gauge_log2(g2, n)
            assert gauge_log2(g3, n) == pytest.approx(
                -n * g3.s - 0.3 * n / math.log2(n) ** 2.7
            )

    def test_psi_g_formula(self):
        g = Gauge.psi_g(1.0)
        n = 4096
        assert gauge_log2(g, n) == pytest.approx(
            -n * g.s - n / (math.log(2) * math.log2(n))
        )

    def test_ordering_for_large_n(self):
        pure = Gauge.pure()
        phi = Gauge.phi(0.5)
        psi = Gauge.psi_theta(1.5)
        for n in (2**10, 2**16, 2**20):
            assert gauge_log2(psi, n) <= gauge_log2(phi, n) <= gauge_log2(pure, n)

    @pytest.mark.parametrize(
        "g",
        [
            Gauge.pure(),
            Gauge.phi(0.01),
            Gauge.psi_theta(1.0),
            Gauge.psi_theta(1.9),
            Gauge.phi_gamma(0.01, 0.5),
            Gauge.psi_g(1.0),
            Gauge.psi_g(2.0),
        ],
    )
    def test_strictly_decreasing_in_n(self, g):
        values = [gauge_log2(g, n) for n in range(4, 3000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_and_validation(self):
        with pytest.raises(ValueError):
            gauge_log2(Gauge.pure(), 3)
        with pytest.raises(ValueError):
            Gauge.phi(-0.1)
        with pytest.raises(ValueError):
            Gauge.phi_gamma(0.1, 0.0)

    def test_nan_coefficients_are_refused(self):
        # every comparison with NaN is False: a check written c <= 0 lets it through
        with pytest.raises(ValueError, match="coefficient must be positive, got nan"):
            Gauge.phi(math.nan)
        for c, gamma in [(math.nan, 0.5), (0.1, math.nan)]:
            with pytest.raises(ValueError, match="need c > 0 and gamma > 0"):
                Gauge.phi_gamma(c, gamma)

    def test_psi_g_keeps_its_exponent_in_theta(self):
        g = Gauge.psi_g(1.5)
        assert g.theta == 1.5 and g.describe() == {"family": "psi_g", "s": g.s, "theta": 1.5}
        assert gauge_log2(g, 256) == -256 * g.s - 256 / (math.log(2) * 8**1.5)

    # an overflow or a division by an underflowed power is a ValueError, not a crash
    @pytest.mark.parametrize("gauge", [Gauge.psi_theta(2000.0), Gauge.psi_theta(-2000.0),
                                       Gauge.psi_theta(math.nan), Gauge.phi_gamma(0.01, 1e300),
                                       Gauge.psi_g(2000.0), Gauge.phi(1e308)])
    def test_non_finite_gauge_is_a_value_error(self, gauge):
        with pytest.raises(ValueError, match="must be finite on the grid, and is not at n = 16"):
            gauge_log2(gauge, 16)

    def test_describe_round_trips_parameters(self):
        d = Gauge.phi_gamma(0.25, 0.5).describe()
        assert d["family"] == GaugeFamily.PHI_GAMMA.value
        assert d["c"] == 0.25 and d["gamma"] == 0.5
