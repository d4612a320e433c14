"""Dimension constants, entropy identities, series certification, gauges."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from scipy.optimize import minimize_scalar

from mgms.analytics import (
    A_closed,
    A_series,
    CertificationError,
    Gauge,
    GaugeFamily,
    binary_entropy,
    derivative_series_at_p,
    dim_minkowski,
    dim_minkowski_enclosure,
    dyadic_power_tail,
    entropy_nat,
    expected_zero_count_chain,
    expected_zero_count_prefix,
    gauge_log2,
    hausdorff_dim,
    hf_derivative_at,
    p_float,
    partition_entropy,
    s_float,
    solve_p,
    tau_bits_lower_bound,
    tau_certify,
    tau_gamma,
)
from mgms.core import chain_partition, iter_golden_words, iter_multiplicative_prefixes
from mgms.intervals import CertifiedInterval, iv_entropy_bits, iv_entropy_nat, iv_ln_ratio
from mgms.measures import MarkovParams, markov_cylinder_logprob, pmu_logprob
from mgms.polynomials import entropy_poly

from conftest import (
    reference_derivative_partials,
    reference_dim_minkowski_enclosure,
    reference_hf_derivative_at,
    reference_solve_p,
    reference_tau_gamma_partial,
    reference_tau_partial_12,
)


class TestCubicRoot:
    def test_cubic_is_the_symbolic_expansion(self):
        # p^3 = (1-p)^2 expands to x^3 - x^2 + 2x - 1 = 0
        x = sympy.Symbol("x")
        assert sympy.expand(x**3 - (1 - x) ** 2 - (x**3 - x**2 + 2 * x - 1)) == 0

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
            with pytest.raises(ValueError):
                entropy_nat(bad)

    def test_natural_log_value_at_p(self):
        # the certified natural-log entropy at p sits at ~0.68336, below 0.7
        enc = iv_entropy_nat(solve_p())
        assert abs(enc.mid_float - 0.68336) < 1e-5
        assert enc.hi < Fraction(7, 10)
        assert entropy_nat(p_float()) == pytest.approx(enc.mid_float, abs=1e-12)

    def test_base2_value_at_p_via_series_identity(self):
        # A(p) = s forces H2(p) = s (3 - p) / 2
        H2 = binary_entropy(p_float())
        assert H2 == pytest.approx(s_float() * (3 - p_float()) / 2, abs=1e-12)
        enc = iv_entropy_bits(solve_p())
        assert abs(enc.mid_float - H2) < 1e-12

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
        for r in np.linspace(0.01, 0.99, 99):
            for K in (5, 15, 40):
                value, tail = A_series(float(r), K)
                assert abs(A_closed(float(r)) - value) <= tail

    def test_tail_shrinks(self):
        r = 0.6
        tails = [A_series(r, K).tail_bound for K in (5, 10, 20, 40)]
        assert all(a > b for a, b in zip(tails, tails[1:]))

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

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-30, 1e-60])
    def test_minkowski_enclosure_equals_interval_per_term(self, tol):
        # at 1e-60 the Fibonacci numbers pass the 120-bit mpmath precision
        got, ref = dim_minkowski_enclosure(tol), reference_dim_minkowski_enclosure(tol)
        assert (got.lo, got.hi) == (ref.lo, ref.hi)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tol_rejected(self, tol):
        # a NaN tolerance used to fall through every comparison and give K = 1
        with pytest.raises(ValueError):
            dim_minkowski(tol)
        with pytest.raises(ValueError):
            dim_minkowski_enclosure(tol)


class TestDerivativeSeries:
    def test_first_term_is_entropy_derivative(self):
        p = solve_p()
        k1 = hf_derivative_at(1, p)
        href = iv_ln_ratio(p)
        assert k1.lo == href.lo and k1.hi == href.hi

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
        term2 = hf_derivative_at(2, p).scale(Fraction(1, 8))
        # midpoints differ by exactly the k=2 term (tails differ separately)
        assert float(abs((s2.midpoint - s1.midpoint) - term2.midpoint)) < 1e-20 + float(
            (s1.width + s2.width + term2.width)
        )

    def test_high_order_term_on_a_cold_cache(self):
        # entropy_poly used to recurse once per index and overflow the stack near k = 450
        entropy_poly.cache_clear()
        p = solve_p()
        assert same_endpoints(hf_derivative_at(600, p), reference_hf_derivative_at(600, p))

    def test_tail_is_monotone_in_K(self):
        tails = []
        for K in (12, 20, 30):
            enc = derivative_series_at_p(K)
            tails.append(float(enc.width))
        assert tails[0] > tails[1] > tails[2]


def endpoint_digest(ci) -> str:
    text = f"{ci.lo.numerator}/{ci.lo.denominator}\n{ci.hi.numerator}/{ci.hi.denominator}\n"
    return hashlib.sha256(text.encode()).hexdigest()


def test_enclosure_endpoints_are_frozen():
    # sha256 of the exact num/den endpoints as step-by-step CertifiedInterval
    # Horner produced them; any change of representation must keep them
    assert endpoint_digest(derivative_series_at_p(80)) == (
        "2d5171d059d0be4037a01628d3e9e600718d9e959b74f51fcca6f9a780052138")
    assert endpoint_digest(derivative_series_at_p(120)) == (
        "6dba90c825e7551f896a7f2046c770cb39dcbee203c8d6b9acea798958aed552")
    assert endpoint_digest(tau_certify().partial_12) == (
        "910fc9b4f0bbf9841657aa304e091b449d1676552dac301813eb97d1928ab4cb")
    assert endpoint_digest(tau_gamma(0.5, 20).value) == (
        "f450aebd3a06a5ae3da3035d6a67d054fadb3c567aa684e5805e436ca4107363")


def same_endpoints(a, b) -> bool:
    return a.lo == b.lo and a.hi == b.hi


class TestSeriesKernelMatchesFractionLoops:
    """The integer-numerator series kernel against the per-term CertifiedInterval loops."""

    @pytest.fixture(scope="class")
    def partials(self):
        return reference_derivative_partials(solve_p(), 130)

    def test_derivative_series_every_K(self, partials):
        for K, acc in enumerate(partials, 1):
            tail = Fraction(51, 20) * Fraction(K + 3, 2 ** (K + 1))
            assert same_endpoints(derivative_series_at_p(K), acc.widen(tail)), K

    def test_single_terms(self):
        p = solve_p()
        for k in range(1, 131):
            assert same_endpoints(hf_derivative_at(k, p), reference_hf_derivative_at(k, p)), k

    def test_single_terms_off_p(self):
        x = CertifiedInterval(Fraction(1, 5), Fraction(3, 4))
        for k in range(1, 25):
            assert same_endpoints(hf_derivative_at(k, x), reference_hf_derivative_at(k, x)), k

    def test_tau_partial(self):
        assert same_endpoints(tau_certify().partial_12, reference_tau_partial_12(solve_p()))

    @pytest.mark.parametrize("gamma,K", [(0.5, 20), (0.5, 12), (1, 30), (2, 5), (0.1, 1)])
    def test_tau_gamma(self, gamma, K):
        ref = reference_tau_gamma_partial(solve_p(), gamma, K)
        assert same_endpoints(tau_gamma(gamma, K).value, ref)


class TestDyadicTails:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("K", [1, 5, 13])
    def test_matches_brute_force_partial(self, m, K):
        brute = sum(Fraction(k**m, 2**k) for k in range(K, K + 400))
        exact = dyadic_power_tail(m, K)
        assert 0 <= exact - brute < Fraction(1, 2**300)

    def test_negative_power_rejected(self):
        # sum_{k>=K} k^m 2^-k is positive for every m; m < 0 used to return 0
        with pytest.raises(ValueError):
            dyadic_power_tail(-1, 3)

    def test_moments(self):
        assert dyadic_power_tail(0, 0) == 2
        assert dyadic_power_tail(1, 1) == 2
        assert dyadic_power_tail(2, 1) == 6
        assert dyadic_power_tail(3, 1) == 26


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
            pmu_logprob(p_val, u).to_probability() * u.count_zeros()
            for u in iter_multiplicative_prefixes(n)
        )
        assert expected_zero_count_prefix(n) == pytest.approx(brute, abs=1e-10)

    def test_prefix_expectation_is_chain_sum(self, p_val):
        for n in (5, 17, 100, 1023):
            manual = sum(
                expected_zero_count_chain(p_val, k) for k in chain_partition(n).values()
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
        g = Gauge.psi_g(lambda t: t, label="t")
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
            Gauge.psi_g(lambda t: t, label="t"),
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
        with pytest.raises(ValueError):
            gauge_log2(Gauge.psi_g(lambda t: -t), 16)

    def test_describe_round_trips_parameters(self):
        d = Gauge.phi_gamma(0.25, 0.5).describe()
        assert d["family"] == GaugeFamily.PHI_GAMMA.value
        assert d["c"] == 0.25 and d["gamma"] == 0.5
