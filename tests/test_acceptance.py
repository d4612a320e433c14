"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines with measured runtimes.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mgms.analytics import (
    binary_entropy,
    derivative_series_at_p,
    dim_minkowski,
    expected_zero_count_chain,
    expected_zero_count_prefix,
    Gauge,
    hausdorff_dim,
    p_float,
    partition_entropy,
    s_float,
    solve_p,
    tau_certify,
)
from mgms.experiments import (
    CenteredChainLogMass,
    Rademacher,
    Verdict,
    box_dimension_estimate,
    density_trajectory,
    hoeffding_check,
    lower_bound_trajectory,
    zero_count_deviation_check,
)
from mgms.measures import (
    BlockAssignment,
    MarkovParams,
    markov_cylinder_logprob,
    pdelta_logprob,
    sample_bits_batch,
)
from mgms.polynomials import entropy_poly

from conftest import (
    A_closed,
    brute_count_multiplicative,
    count_cylinders,
    entropy_poly_closed_form,
    iter_golden_words,
    iter_multiplicative_prefixes,
    pmu_identity_gap,
    word,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_certified_constants():
    t0 = time.perf_counter()
    solve_p.cache_clear()
    hausdorff_dim.cache_clear()
    p = solve_p()
    s = hausdorff_dim()
    dm, tail = dim_minkowski(1e-6)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(p.mid_float - 0.56984) < 1e-5
        and p.width <= Fraction(1, 2**80)
        and abs(s.mid_float - 0.81137) < 1e-5
        and abs(dm - 0.82429) < 1e-5
        and tail < 1e-6
        and elapsed < 1.0
    )
    report(1, ok, f"p={p.mid_float:.6f}, s={s.mid_float:.6f}, dim_M={dm:.6f} in {elapsed:.3f}s")


def test_criterion_02_tau_certification():
    t0 = time.perf_counter()
    tau_certify.cache_clear()
    cert = tau_certify()
    elapsed = time.perf_counter() - t0
    ok = (
        abs(cert.partial_12.mid_float - 0.187469) < 1e-5
        and cert.tail_bound.hi <= Fraction(1, 10)
        and cert.sign == "POSITIVE"
        and cert.margin > 0
        and elapsed < 1.0
    )
    report(
        2,
        ok,
        f"partial12={cert.partial_12.mid_float:.6f}, tail={float(cert.tail_bound.hi):.6f}, "
        f"margin={float(cert.margin):.6f} in {elapsed:.3f}s",
    )


def test_criterion_03_entropy_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.3, 0.5, p_float(), 0.7):
        params = MarkovParams(r)
        for k in range(1, 13):
            brute = -math.fsum(
                (lp := markov_cylinder_logprob(params, u)).to_probability() * lp.value
                for u in iter_golden_words(k)
            )
            worst = max(worst, abs(brute - partition_entropy(r, k)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(3, ok, f"max |brute - H(r)F_(k-1)(r)| = {worst:.2e} over k<=12 in {elapsed:.1f}s")


def test_criterion_04_polynomial_identity():
    exact = all(
        entropy_poly(k).coeffs == entropy_poly_closed_form(k).coeffs for k in range(31)
    )
    at_one = all(entropy_poly(k).evaluate(Fraction(1)) == k + 1 for k in range(31))
    report(4, exact and at_one, "recurrence == closed form and F_k(1) = k+1, exact, k <= 30")


def test_criterion_05_series_identities():
    gap = abs(A_closed(p_float()) - s_float())
    enc = derivative_series_at_p(40)
    ok = gap < 1e-6 and enc.contains_zero() and float(enc.width) < 1e-6
    report(
        5,
        ok,
        f"|A(p)-s| = {gap:.2e}; derivative series K=40 width {float(enc.width):.2e} contains 0",
    )


def test_criterion_06_measure_correctness():
    t0 = time.perf_counter()
    assigns = {"P_mu": BlockAssignment(0.0), "P_delta": BlockAssignment(0.05)}
    worst_norm = 0.0
    for n in range(1, 16):
        words_n = list(iter_multiplicative_prefixes(n))
        for assign in assigns.values():
            total = math.fsum(pdelta_logprob(assign, u).to_probability() for u in words_n)
            worst_norm = max(worst_norm, abs(total - 1.0))
    worst_cons = 0.0
    for n in range(1, 15):
        for u in iter_multiplicative_prefixes(n):
            for assign in assigns.values():
                lhs = pdelta_logprob(assign, u).to_probability()
                rhs = pdelta_logprob(assign, word(str(u) + "0")).to_probability()
                rhs += pdelta_logprob(assign, word(str(u) + "1")).to_probability()
                worst_cons = max(worst_cons, abs(lhs - rhs))
    worst_gap = 0.0
    for n in range(2, 17, 2):
        for u in iter_multiplicative_prefixes(n):
            worst_gap = max(worst_gap, abs(pmu_identity_gap(u)))
    elapsed = time.perf_counter() - t0
    ok = worst_norm < 1e-12 and worst_cons < 1e-12 and worst_gap <= 1e-10
    report(
        6,
        ok,
        f"normalization gap {worst_norm:.2e}, consistency gap {worst_cons:.2e}, "
        f"identity gap {worst_gap:.2e} in {elapsed:.1f}s",
    )


def test_criterion_07_expectation_formulas():
    p = p_float()
    params = MarkovParams(p)
    l1 = math.fsum(
        markov_cylinder_logprob(params, u).to_probability() * u.count_zeros()
        for u in iter_golden_words(1)
    )
    l2 = math.fsum(
        markov_cylinder_logprob(params, u).to_probability() * u.count_zeros()
        for u in iter_golden_words(2)
    )
    ok_l = (
        abs(expected_zero_count_chain(p, 1) - l1) < 1e-10
        and abs(expected_zero_count_chain(p, 2) - l2) < 1e-10
        and abs(l1 - p) < 1e-10
        and abs(l2 - (1 + p * p)) < 1e-10
    )
    worst = 0.0
    for n in range(1, 13):
        brute = math.fsum(
            pdelta_logprob(BlockAssignment(0.0), u).to_probability() * u.count_zeros()
            for u in iter_multiplicative_prefixes(n)
        )
        worst = max(worst, abs(brute - expected_zero_count_prefix(n)))
    n = 2**10
    trials = 1000
    bits = sample_bits_batch(BlockAssignment(0.0), n, seed=0, trials=np.arange(trials))
    n0 = (n - bits[:, 1:].sum(axis=1)).astype(np.float64)
    se = n0.std(ddof=1) / math.sqrt(trials)
    mc_gap = abs(n0.mean() - expected_zero_count_prefix(n))
    ok = ok_l and worst < 1e-10 and mc_gap <= 3 * se
    report(
        7,
        ok,
        f"L1, L2 exact; enumeration gap {worst:.2e} (n<=12); MC gap {mc_gap:.2f} <= 3se={3*se:.2f}",
    )


def test_criterion_08_counting():
    t0 = time.perf_counter()
    ok_counts = all(count_cylinders(n) == brute_count_multiplicative(n) for n in range(1, 21))
    est = box_dimension_estimate(2**16)
    elapsed = time.perf_counter() - t0
    ok = ok_counts and abs(est - 0.82429) < 5e-3
    report(8, ok, f"counts exact n<=20; boxdim(2^16) = {est:.6f} in {elapsed:.1f}s")


def test_criterion_09_deviation_bounds():
    t0 = time.perf_counter()
    trials = 100_000
    hoeff_rad = hoeffding_check(Rademacher(), t=[0.0, 0.1, 0.3, 0.5], n=100, trials=trials, seed=1)
    hoeff_log = hoeffding_check(
        CenteredChainLogMass(3, p_float()), t=[0.1, 0.2, 0.4], n=200, trials=trials, seed=2
    )
    ldev = zero_count_deviation_check(trials=trials, seed=3)
    elapsed = time.perf_counter() - t0
    ok = hoeff_rad.all_ok and hoeff_log.all_ok and ldev.all_ok and elapsed < 120.0
    report(
        9,
        ok,
        f"hoeffding {len(hoeff_rad.rows) + len(hoeff_log.rows)} cells ok, "
        f"ldev2 {len(ldev.rows)} cells ok (c3 fit {ldev.fit.get('c3', float('nan')):.2f}) "
        f"in {elapsed:.0f}s (10^5 trials)",
    )
    # the fit as computed with scipy.stats.linregress and t.ppf
    frozen = {"c2": 0.5264120025347528, "c3": 1.9417600236238564,
              "c3_ci": [1.8144607354588849, 2.069059311788828],
              "r_value": -0.9929793132589219, "points": 17}
    assert ldev.fit == pytest.approx(frozen, rel=1e-12)


def test_criterion_10_asymptotic_trends():
    t0 = time.perf_counter()
    lower = lower_bound_trajectory(0.05, 0.002)
    density = density_trajectory(BlockAssignment(0.0), Gauge.psi_theta(1.0))
    elapsed = time.perf_counter() - t0
    ok = (
        lower.verdict == Verdict.DECREASING
        and density.verdict == Verdict.INCREASING
        and len(lower.seeds) >= 100
        and len(density.seeds) >= 100
        and max(lower.n_grid) == 2**20
        and elapsed < 300.0
    )
    report(
        10,
        ok,
        f"lower {lower.verdict} (slope {lower.slope:.2f}), "
        f"density-psi1 {density.verdict} (slope {density.slope:.1f}), "
        f"{len(lower.seeds)} seeds to 2^20 in {elapsed:.0f}s",
    )
    # the Theil-Sen slopes and bands exactly as scipy.stats.theilslopes gives them on
    # log-masses summed from the block one counts with math.fsum
    assert (lower.slope, lower.slope_ci) == (-1.905112473629788, (-5.800473257406338, 4.3457664559005025))
    assert (density.slope, density.slope_ci) == (2785.138738001119, (1004.3083308789119, 6511.719348469145))


def test_criterion_11_determinism(tmp_path):
    from mgms.cli import main

    configs = [
        ["experiment", "lower", "--seed", "0", "--seeds", "6", "--n-grid", "16,256,1024",
         "--format", "json"],
        ["experiment", "ldev2", "--seed", "7", "--trials", "3000", "--t-grid", "0.05,0.1",
         "--n-grid", "32,64", "--format", "csv"],
        ["experiment", "telescope", "--seed", "5", "--g", "t", "--ell-max", "12",
         "--format", "json"],
    ]
    identical = True
    for idx, argv in enumerate(configs):
        f1 = tmp_path / f"run_{idx}_a.out"
        f2 = tmp_path / f"run_{idx}_b.out"
        assert main(argv + ["--out", str(f1)]) == 0
        assert main(argv + ["--out", str(f2)]) == 0
        identical = identical and f1.read_bytes() == f2.read_bytes()
    report(11, identical, f"{len(configs)} stochastic configs rerun byte-identical")
