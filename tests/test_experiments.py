"""Experiment harness: trends, telescoping, deviation bounds, reports."""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from mgms import experiments, measures, telescoping
from mgms.analytics import (
    Gauge,
    dim_minkowski,
    gauge_log2,
    p_float,
    partition_entropy,
    s_float,
    tau_bits_lower_bound,
)
from mgms.experiments import (
    CenteredChainLogMass,
    DeviationReport,
    Rademacher,
    TrajectoryReport,
    Verdict,
    block_one_counts,
    box_dimension_estimate,
    config_hash,
    covering_sum,
    density_trajectory,
    hoeffding_check,
    lower_bound_trajectory,
    upper_bound_telescoping,
    zero_count_bound,
    zero_count_deviation_check,
)
from mgms.measures import BlockAssignment, pdelta_logprob, sample_bits_batch, sample_point, zero_count_from_bits

from conftest import bits_block_one_counts, block_of_positions, iter_golden_words


def level_by_level_logmass_sums(dist, seed, trials, n):
    """`CenteredChainLogMass.sample_sums` as one gather and one add per level:
    the masses of the pattern table must equal these bit for bit."""
    from mgms.measures import _chain_walk
    from mgms.rng import threshold

    # cost of a symbol at 2 prev + sym: free 0, free 1, 0 forced by a 1
    table = np.array([math.log2(dist.r), math.log2(1.0 - dist.r), 0.0])
    one_below = np.array([threshold(1.0 - dist.r)], dtype=np.uint64)
    out = np.zeros(len(trials), dtype=np.float64)
    for rows, _, levels in _chain_walk(seed, trials, range(n), one_below, np.broadcast_to(0, (n,)),
                                       [n] * dist.k, 2048):
        x = [one.view(np.uint8) for one in levels]
        mass = table[x[0]]
        for prev, one in zip(x, x[1:]):
            mass += table[2 * prev + one]
        out[rows] += (mass + dist.entropy).sum(axis=1)
    return out

GRID_SMALL = [2**j for j in range(4, 13)]
SEEDS_SMALL = list(range(24))


class TestDensityTrajectory:
    def test_series_match_direct_evaluation(self, p_val):
        gauge = Gauge.psi_theta(1.0)
        rep = density_trajectory(
            BlockAssignment(0.0), gauge, n_grid=[16, 64, 256], seeds=[3, 8]
        )
        for row, seed in enumerate(rep.seeds):
            pt = sample_point(BlockAssignment(0.0), 256, seed)
            for j, n in enumerate(rep.n_grid):
                lp = pdelta_logprob(BlockAssignment(0.0), pt.word.prefix(n)).value
                direct = lp - gauge_log2(gauge, n)
                assert rep.series[row][j] == pytest.approx(direct, abs=1e-9)

    def test_all_values_finite(self):
        rep = density_trajectory(
            BlockAssignment(0.1), Gauge.phi(0.01), n_grid=GRID_SMALL, seeds=SEEDS_SMALL
        )
        assert np.all(np.isfinite(np.array(rep.series)))

    def test_summary_is_seedwise_median(self):
        rep = density_trajectory(
            BlockAssignment(0.0), Gauge.pure(), n_grid=[16, 32, 64], seeds=range(9)
        )
        arr = np.array(rep.series)
        assert rep.medians == tuple(np.median(arr, axis=0))
        assert rep.q1 == tuple(np.percentile(arr, 25, axis=0))

    def test_psi1_drifts_up_even_at_moderate_scale(self):
        rep = density_trajectory(
            BlockAssignment(0.0), Gauge.psi_theta(1.0), n_grid=GRID_SMALL, seeds=SEEDS_SMALL
        )
        assert rep.verdict == Verdict.INCREASING
        assert rep.medians[-1] > rep.medians[0]

    def test_determinism(self):
        kw = dict(n_grid=[16, 128, 512], seeds=[0, 1, 2])
        a = density_trajectory(BlockAssignment(0.05), Gauge.phi(0.002), **kw)
        b = density_trajectory(BlockAssignment(0.05), Gauge.phi(0.002), **kw)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            density_trajectory(BlockAssignment(0.0), Gauge.pure(), n_grid=[2, 8, 16], seeds=[0])

    @pytest.mark.parametrize("grid", [[16], [16, 64]])
    def test_short_grid_rejected(self, grid):
        # one point gave a NaN slope, which to_json_dict wrote as bare NaN
        with pytest.raises(ValueError, match="grid points"):
            density_trajectory(BlockAssignment(0.0), Gauge.pure(), n_grid=grid, seeds=[0])
        with pytest.raises(ValueError, match="grid points"):
            lower_bound_trajectory(0.05, 0.002, n_grid=grid, seeds=[0, 1])

    @pytest.mark.parametrize("run", [
        lambda: density_trajectory(BlockAssignment(0.0), Gauge.pure(), n_grid=[16, 64, 256], seeds=[]),
        lambda: lower_bound_trajectory(0.05, 0.002, n_grid=[16, 64, 256], seeds=[]),
    ], ids=["density", "lower"])
    def test_no_seeds_rejected(self, run):
        # the seedwise percentiles of no rows raised IndexError after a numpy RuntimeWarning
        with pytest.raises(ValueError, match="seeds must name at least one seed"):
            run()

    def test_half_word_counts_on_an_irregular_grid(self):
        # odd points, halves inside and outside the grid, a repeated point: the one counts
        # that density_trajectory reads are those of the bits array, and so are the zeros
        grid = [4, 6, 7, 12, 12, 99, 100, 200, 1000]
        cuts = [m for n in grid for m in (n, n // 2)]
        trials = np.array([0, 5, 17, 2**40])
        for measure in (BlockAssignment(0.0), BlockAssignment(0.05)):
            bits = sample_bits_batch(measure, 1000, 4, trials)
            ones = block_one_counts(measure, 1000, 4, trials, cuts)
            assert ones.shape == (4, len(cuts), 10)
            assert np.array_equal(ones, bits_block_one_counts(bits, cuts))
            distinct = sorted(set(cuts))
            zeros = np.array(distinct) - ones[:, [cuts.index(k) for k in distinct]].sum(axis=2)
            assert np.array_equal(zeros, zero_count_from_bits(bits, distinct))

    def test_one_counts_at_2_20(self):
        n = 2**20
        cuts = [n, n // 2, n - 1, 3 * 2**17 + 5, 1000, 1000, 1, 2]
        trials = np.arange(3)
        measure = BlockAssignment(0.3)
        bits = sample_bits_batch(measure, n, 9, trials)
        ones = block_one_counts(measure, n, 9, trials, cuts)
        assert np.array_equal(ones, bits_block_one_counts(bits, cuts))
        assert np.array_equal(n - ones[:, 0].sum(axis=1), zero_count_from_bits(bits, [n])[:, 0])

    @pytest.mark.parametrize("cuts", [[], [0, 4], [5, 17]])
    def test_one_counts_refuse_cuts_outside_the_prefix(self, cuts):
        with pytest.raises(ValueError, match="cuts must lie in 1..16"):
            block_one_counts(BlockAssignment(0.0), 16, 0, np.array([0]), cuts)

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.3])
    def test_log_masses_meet_a_50_digit_sum(self, delta):
        # the same float parameters, summed at 50 digits over counts read off the bits array
        from mpmath import mp

        measure, grid, seed = BlockAssignment(delta), list(experiments.DEFAULT_N_GRID), 6
        (got,) = experiments._log_masses(measure, grid, [seed])
        bits = sample_bits_batch(measure, grid[-1], seed, np.array([0]))
        cuts = sorted({m for n in grid for m in (n, n // 2)})
        ones = dict(zip(cuts, bits_block_one_counts(bits, cuts)[0].tolist()))
        block = block_of_positions(grid[-1])
        with mp.workdps(50):
            logs = [(mp.log(mp.mpf(r), 2), mp.log(mp.mpf(1.0 - r), 2))
                    for r in map(measure.param, range(grid[-1].bit_length()))]
            for n, value in zip(grid, got):
                length = np.bincount(block[:n], minlength=len(logs)).tolist()
                ref = mp.fsum(o * log_q + (size - o - h) * log_r
                              for (log_r, log_q), size, o, h in zip(logs, length, ones[n], ones[n // 2]))
                assert abs(value - ref) <= 1e-14 * abs(ref), (n, value, ref)

    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_log_masses_equal_the_scalar_walk(self, delta):
        measure, grid = BlockAssignment(delta), [4, 5, 16, 99, 1000, 2**12]
        for seed in (0, 3):
            (got,) = experiments._log_masses(measure, grid, [seed])
            u = sample_point(measure, grid[-1], seed).word
            for n, value in zip(grid, got):
                assert value == pytest.approx(pdelta_logprob(measure, u.prefix(n)).value, rel=1e-13, abs=0)


class TestLowerBoundTrajectory:
    def test_admissibility_gate_rejects_large_c(self):
        tau_hat = float(tau_bits_lower_bound())
        delta = 0.05
        rep = lower_bound_trajectory(delta, tau_hat * delta, n_grid=[16, 64, 256], seeds=[0, 1])
        assert rep.verdict == Verdict.INCONCLUSIVE
        assert "not below" in rep.inconclusive_reason

    def test_admissibility_gate_rejects_zero_delta(self):
        rep = lower_bound_trajectory(0.0, 0.0, n_grid=[16, 64, 256], seeds=[0, 1])
        assert rep.verdict == Verdict.INCONCLUSIVE

    def test_zero_delta_series_reduces_to_half_word_statistic(self, p_val):
        # S_n with delta = c = 0 is s (N0(x_1^(n/2)) ... the centered statistic
        rep = lower_bound_trajectory(0.0, 0.0, n_grid=[16, 64, 256], seeds=[5])
        s = s_float()
        pt = sample_point(BlockAssignment(0.0), 256, 5)
        for j, n in enumerate(rep.n_grid):
            n0_full = pt.word.prefix(n).count_zeros()
            n0_half = pt.word.prefix(n // 2).count_zeros()
            expected = s * (n0_full / 2 - n0_half)
            assert rep.series[0][j] == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize("delta, c", [(0.05, math.nan), (math.nan, 0.002), (0.05, math.inf),
                                          (0.05, -math.inf)])
    def test_non_finite_parameters_are_refused(self, delta, c):
        # NaN fails every comparison of the admissibility gate, so it must be refused before it
        with pytest.raises(ValueError, match="delta and c must be finite"):
            lower_bound_trajectory(delta, c, n_grid=[16, 64, 256], seeds=[0, 1])

    def test_default_parameters_pass_gate(self):
        rep = lower_bound_trajectory(0.05, 0.002, n_grid=[16, 64, 256], seeds=[0, 1])
        assert rep.inconclusive_reason == ""

    def test_csv_rows_schema(self):
        rep = lower_bound_trajectory(0.05, 0.002, n_grid=[16, 64, 256], seeds=[0, 1])
        rows = rep.to_csv_rows()
        assert all(len(r) == 6 for r in rows)
        experiments = {r[0] for r in rows}
        assert experiments == {"lower"}
        assert {r[2] for r in rows} >= {"median", "q1", "q3"}


class TestTelescoping:
    def test_identity_gaps_are_float_noise(self):
        rep = upper_bound_telescoping(1.0, ell_max=13, seed=2)
        assert rep.max_identity_gap < 1e-8

    # sum_j j^-e diverges exactly when e <= 1, at every number of scales
    @pytest.mark.parametrize("ell_max", [2, 8, 16])
    @pytest.mark.parametrize("exponent", [0.9, 1, 1.1, 1.5, 2])
    def test_flag_is_the_p_series_test(self, exponent, ell_max):
        rep = upper_bound_telescoping(exponent, ell_max, seed=4)
        assert rep.divergence_flag == (Verdict.UNBOUNDED if exponent <= 1 else Verdict.BOUNDED)

    def test_harmonic_partials(self):
        rep = upper_bound_telescoping(1, ell_max=15, seed=4)
        # partial sums grow like the harmonic series over 1/ln2
        ratio = rep.inverse_g_partials[-1] / (
            sum(1.0 / j for j in range(1, 16)) / math.log(2)
        )
        assert ratio == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("exponent, label", [(1, "t"), (1.0, "t"), (2.0, "t^2"), (-3, "t^-3"),
                                                 (1.5, "t^1.5"), (0.9, "t^0.9")])
    def test_config_spells_the_exponent(self, exponent, label):
        assert upper_bound_telescoping(exponent, 2, seed=0).config["g"] == label

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_exponent(self, exponent):
        with pytest.raises(ValueError, match="exponent must be finite"):
            upper_bound_telescoping(exponent, 4, seed=0)

    def test_requires_enough_scales(self):
        with pytest.raises(ValueError):
            upper_bound_telescoping(1.0, ell_max=1, seed=0)

    # sha256 of json.dumps(to_json_dict(), sort_keys=True), as computed with
    # the callables g(t) = t and t * t labelled "t" and "t^2", before g became
    # an exponent: (exponent, ell_max, seed, digest)
    FROZEN = [
        (1, 12, 3, "092b3d43d79a5bfa9c7132c62312ca5c48166994fd6e4cd1501c17dc50b30546"),
        (2, 16, 5, "5f7167f24eafa36b6881ef70096f40fad7bdf15d4491692827ca84a55094c534"),
        # the largest scalar word, and one past it: both as the batch kernels computed them
        (1, 17, 7, "2dd548e5d18c3fa889e00e32cd4963c73659c0e69198fb4490ea3096034b4268"),
        (1.5, 18, 2, "8de091a637f3db2aee53e1b2e198a3c66d8afc0cbcc2249fc43883eb90970d57"),
    ]

    @pytest.mark.parametrize("exponent, ell_max, seed, digest", FROZEN)
    def test_report_bytes_are_frozen(self, exponent, ell_max, seed, digest):
        rep = upper_bound_telescoping(exponent, ell_max, seed)
        text = json.dumps(rep.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # the two sources of N0 and the log-masses: the scalar sampler with one pass over its word,
    # and the batch sampler with blocked cumulative sums of the same costs in the same order
    @pytest.mark.parametrize("seed", [0, 1, 9, -3])
    def test_scalar_and_batch_counts_are_identical(self, seed):
        measure = BlockAssignment(0.0)
        for ell_max in range(2, 19):
            assert telescoping._scalar_counts(measure, ell_max, seed) == \
                telescoping._batch_counts(measure, ell_max, seed)

    @pytest.mark.parametrize("chunk", [63, 64])
    def test_batch_counts_carry_across_blocks(self, chunk, monkeypatch):
        # 63-position blocks start at odd positions inside every dyadic range, so the
        # even positions of a block start at its first or its second entry
        monkeypatch.setattr(measures, "_CHUNK", chunk)
        measure = BlockAssignment(0.0)
        for seed in (0, 9, -3):
            for ell_max in range(2, 13):
                assert telescoping._batch_counts(measure, ell_max, seed) == \
                    telescoping._scalar_counts(measure, ell_max, seed), (seed, ell_max)

    @pytest.mark.parametrize("exponent", [0.5, 1, 1.5, 2])
    @pytest.mark.parametrize("ell_max", [2, 5, 12, 16, 17])
    def test_report_does_not_depend_on_the_sampler(self, exponent, ell_max, monkeypatch):
        scalar = upper_bound_telescoping(exponent, ell_max, seed=3)
        monkeypatch.setattr(telescoping, "_SCALAR_ELL_MAX", 1)
        assert upper_bound_telescoping(exponent, ell_max, seed=3) == scalar

    def test_only_small_words_take_the_scalar_sampler(self, monkeypatch):
        taken = []

        def source(name):
            def counts(measure, ell_max, seed):
                taken.append((name, ell_max))
                return [0] * (ell_max + 1), [0.0] * (ell_max + 1)
            return counts

        for name in ("_scalar_counts", "_batch_counts"):
            monkeypatch.setattr(telescoping, name, source(name))
        for ell_max in (2, 17, 18):
            upper_bound_telescoping(1, ell_max, seed=0)
        assert taken == [("_scalar_counts", 2), ("_scalar_counts", 17), ("_batch_counts", 18)]


class TestHoeffding:
    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_no_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be positive"):
            hoeffding_check(Rademacher(), t=0.1, n=50, trials=trials, seed=1)

    def test_repeated_threshold_counts_once_per_entry(self):
        # a dict keyed by t counted each trial twice: 0.92 for P(S_7 >= 0) = 0.5
        single = hoeffding_check(Rademacher(), [0.0], 7, 100, 5).rows
        assert hoeffding_check(Rademacher(), [0.0, 0.0], 7, 100, 5).rows == single * 2

    def test_rejects_n_below_one(self):
        # n = 0 used to give a trivial row (empirical 1.0, bound 1.0)
        with pytest.raises(ValueError, match="need n >= 1, got 0"):
            hoeffding_check(Rademacher(), t=0.1, n=[50, 0], trials=100, seed=1)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_threshold(self, t):
        # a NaN t was reported as passing: empirical 0.0, bound 1.0, all_ok True
        with pytest.raises(ValueError, match="thresholds must be finite"):
            hoeffding_check(Rademacher(), t=[0.1, t], n=16, trials=20, seed=1)

    def test_several_n_count_as_each_n_alone(self):
        # the trial chunks are the outer loop, and each n still draws its own sums
        dist = CenteredChainLogMass(3, p_float())
        ts, ns = [0.05, 0.2], [40, 7, 40]
        rows = hoeffding_check(dist, ts, ns, 5000, 9).rows
        assert rows == tuple(row for n in ns for row in hoeffding_check(dist, ts, n, 5000, 9).rows)

    def test_zero_threshold_is_trivial(self):
        rep = hoeffding_check(Rademacher(), t=0.0, n=50, trials=2000, seed=1)
        (row,) = rep.rows
        assert row.bound == 1.0 and row.ok

    def test_rademacher_sharp_cell(self):
        rep = hoeffding_check(Rademacher(), t=0.5, n=100, trials=30000, seed=1)
        (row,) = rep.rows
        assert row.bound == pytest.approx(math.exp(-12.5), rel=1e-12)
        assert row.empirical == 0.0
        assert rep.all_ok

    def test_rademacher_moderate_cells_respect_bound(self):
        rep = hoeffding_check(Rademacher(), t=[0.05, 0.1, 0.2], n=400, trials=20000, seed=3)
        assert rep.all_ok
        for row in rep.rows:
            assert row.empirical <= row.bound + 3 * row.stderr

    def test_logmass_bound_constant_is_exact_max(self, p_val):
        # the per-word walk of markov_cylinder_logprob over every golden word
        from mgms.measures import _walk

        words = {k: [list(u) for u in iter_golden_words(k)] for k in range(1, 21)}
        for r in (p_val, 0.05, 0.2, 0.5, 0.77, 0.95):
            for k, symbols in words.items():
                dist = CenteredChainLogMass(k, r)
                H = dist.entropy
                assert dist.bound_C == max(abs(_walk(r, u) + H) for u in symbols), (r, k)

    def test_logmass_sums_have_small_mean(self, p_val):
        dist = CenteredChainLogMass(4, p_val)
        sums = dist.sample_sums(7, np.arange(4000, dtype=np.uint64), 64)
        # E[S_64] = 0; sd ~ sqrt(64) * sd_per_chain
        assert abs(sums.mean()) < 5 * sums.std(ddof=1) / math.sqrt(len(sums))

    # sha256 of sample_sums(7, trials 0..63, n) at r = p, as computed from two
    # masks and a nested np.where per level: (k, n, digest).  k = 5 centres on
    # the correctly rounded H(p) F_4(p), one ulp above the float-Horner value
    # it was first frozen with (the next test checks that old digest)
    FROZEN_SUMS = [
        (1, 1, "73d9f8ea0a78923f0d51000636ade2cebb9cc0824bab4bfe4ec2da96599d9a7d"),
        (1, 2049, "64dd532a77ad368cf836a18af1dd429a72d17fb05499b03c0c9efe1086f1d08c"),
        (2, 77, "2e707c2bf0cfa549e62761f129947752b00d469edb9d236d1c3ef5e2eab59d3e"),
        (3, 2048, "0672bdb6cb6d408539a46c6b6fddf140b87ee1e6e32ddc562ba1f981e094726b"),
        (3, 2049, "23aac233a69a1a81ea7bcc8313a8dbbace38c65e140c15b95755446d4960dacf"),
        (5, 5000, "f79d8b68bfdd8876920a9ce1f64bc9c5500fadd551731c305803f064811937d7"),
        (8, 77, "0acae4b2fbdc2d3b161ae50fb5a01dc9866c8928b7890572ea37435043796446"),
        (8, 2049, "e756f30ba8294a77cae5f65b87128dcf6954e6084086065fc6954fc02bfe59a8"),
    ]

    @pytest.mark.parametrize("k, n, digest", FROZEN_SUMS)
    def test_logmass_sums_are_frozen(self, k, n, digest):
        sums = CenteredChainLogMass(k, p_float()).sample_sums(7, np.arange(64, dtype=np.uint64), n)
        assert hashlib.sha256(sums.tobytes()).hexdigest() == digest

    def test_logmass_kernel_is_unchanged_under_the_old_k5_centring(self, monkeypatch):
        # the float-Horner H(p) F_4(p) the k = 5 digest was first frozen with
        monkeypatch.setattr(experiments, "partition_entropy", lambda r, k: 3.6571420815104747)
        sums = CenteredChainLogMass(5, p_float()).sample_sums(7, np.arange(64, dtype=np.uint64), 5000)
        assert hashlib.sha256(sums.tobytes()).hexdigest() == (
            "c31181b71758651525bc6319cbbb32100763d51cb8cc778a6ad6cde6af0f2cbb")

    # sha256 of sample_sums(7, trials 0..T-1, n), as computed from float
    # uniforms in one (T, columns) array per chunk: (distribution, T, n, digest);
    # 4096 trials is the chunk hoeffding_check passes
    FROZEN_BLOCKED_SUMS = [
        ("rademacher", 64, 1, "c388d738047381015a74d6f43195b07fa3cbbdb1e46e2f75218b1310a0b0a70c"),
        ("rademacher", 64, 77, "3c818a6ccd78f55f493667b3b6442ed382cf5679e14b10f0fc6c343e27b9b83c"),
        ("rademacher", 64, 8192, "89e13bd02ecf5ce12479cb1de56e2cd5944c73aa8ca3453ff9ddd490c66fd8e9"),
        ("rademacher", 64, 8193, "25aace2fb6d2946614b09178bb81accfe9a72864252211744a54b1c72c06530a"),
        ("rademacher", 64, 20000, "b774cce8fe7b156eb46250c8c37bc1a32c092594432941395b58af2d62b5acd6"),
        ("rademacher", 4096, 100, "abc540276bb877b497345e9bd0bf93a23413682d447db520e4cb6ad982aa5b2e"),
        ("logmass3", 4096, 200, "0d76d36049a2d89dbd3b6eb49945f5e49a969b95b9a025988e043343da4e7aa8"),
    ]

    @pytest.mark.parametrize("dist, trials, n, digest", FROZEN_BLOCKED_SUMS)
    def test_blocked_sums_are_frozen(self, dist, trials, n, digest):
        d = Rademacher() if dist == "rademacher" else CenteredChainLogMass(3, p_float())
        sums = d.sample_sums(7, np.arange(trials, dtype=np.uint64), n)
        assert hashlib.sha256(sums.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("k", [1, 3, 8, 9, 20])
    @pytest.mark.parametrize("r", [p_float(), 0.3])
    @pytest.mark.parametrize("n", [1, 2047, 2049, 4100])
    def test_logmass_sums_equal_the_level_by_level_sum(self, k, r, n):
        # n crosses the 2048-chain blocks; k = 9 and 20 add levels past the pattern table
        dist = CenteredChainLogMass(k, r)
        trials = np.arange(40, dtype=np.uint64) * 3 + 1
        assert np.array_equal(dist.sample_sums(5, trials, n), level_by_level_logmass_sums(dist, 5, trials, n))

    @pytest.mark.parametrize("dist, width", [(Rademacher(), 8192), (CenteredChainLogMass(3, p_float()), 2048)],
                             ids=["rademacher", "logmass3"])
    @pytest.mark.parametrize("trials", [1, 37, 4096])
    @pytest.mark.parametrize("n", [1, 77, 2049, 8193])
    def test_constant_depth_keeps_its_blocks(self, dist, width, trials, n, monkeypatch):
        # row blocks of `width` chains, rows outer: the float summation order the frozen sums pin
        seen = []
        walk = measures._chain_walk

        def recording(*args):
            for rows, a, levels in walk(*args):
                seen.append((rows.start, rows.stop, a, levels[0].shape[1]))
                yield rows, a, levels

        monkeypatch.setattr(experiments, "_chain_walk", recording)
        dist.sample_sums(7, np.arange(trials, dtype=np.uint64), n)
        cols = min(n, width)
        height = measures._CHUNK // cols
        assert seen == [(r0, r0 + height, a, min(cols, n - a))
                        for r0 in range(0, trials, height) for a in range(0, n, cols)]

    @pytest.mark.parametrize("dist", [Rademacher(), CenteredChainLogMass(1, p_float()),
                                      CenteredChainLogMass(3, p_float()), CenteredChainLogMass(6, 0.3)],
                             ids=["rademacher", "logmass1", "logmass3", "logmass6"])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_sums_equal_a_scalar_walk(self, dist, n, monkeypatch):
        # summand j of trial tr walks the chain keyed fold(fold(fold(0, seed), tr), j) in
        # Python ints; 64-cell blocks split 5 trials by n summands into rows and columns
        from mgms.rng import fold, threshold

        monkeypatch.setattr(measures, "_CHUNK", 64)
        trials = np.arange(5, dtype=np.uint64) * 3 + 2
        got = dist.sample_sums(11, trials, n)
        rademacher = isinstance(dist, Rademacher)
        k, below = (1, int(threshold(0.5))) if rademacher else (dist.k, int(threshold(1.0 - dist.r)))
        for tr, value in zip(trials.tolist(), got):
            terms = []
            for j in range(n):
                key = fold(fold(fold(0, 11), tr), j)
                symbols = [0]
                for t in range(k):
                    symbols.append(int(symbols[-1] == 0 and fold(key, t) >> 11 < below))
                terms.append(2.0 * symbols[1] - 1.0 if rademacher
                             else measures._walk(dist.r, symbols[1:]) + dist.entropy)
            if rademacher:
                assert value == sum(terms)  # exact integers
            else:
                assert abs(value - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms))

    @pytest.mark.parametrize("dist", [Rademacher(), CenteredChainLogMass(3, p_float())],
                             ids=["rademacher", "logmass3"])
    def test_sums_memory_does_not_grow_with_n(self, dist):
        # the summands are drawn in blocks: a chain index or threshold array
        # of length n would take 16 MB here
        import tracemalloc

        trials = np.arange(1, dtype=np.uint64)
        dist.sample_sums(7, trials, 10)  # the cached entropy is computed outside the trace
        tracemalloc.start()
        try:
            dist.sample_sums(7, trials, 2 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_logmass_entropy_is_computed_once(self, monkeypatch):
        # a hoeffding run reads entropy through bound_C, describe and
        # sample_sums: one entropy call per instance
        calls = []
        monkeypatch.setattr(experiments, "partition_entropy",
                            lambda r, k: calls.append(k) or partition_entropy(r, k))
        dist = CenteredChainLogMass(3, p_float())
        dist.sample_sums(7, np.arange(4096, dtype=np.uint64), 200)
        hoeffding_check(dist, t=[0.2, 0.4], n=[20, 40], trials=5000, seed=5)
        assert calls == [3]

    def test_logmass_cells_respect_bound(self, p_val):
        dist = CenteredChainLogMass(3, p_val)
        rep = hoeffding_check(dist, t=[0.2, 0.4], n=150, trials=20000, seed=5)
        assert rep.all_ok

    def test_report_roundtrip(self):
        rep = hoeffding_check(Rademacher(), t=[0.1], n=64, trials=1000, seed=9)
        payload = rep.to_json_dict()
        assert payload["schema_version"] == 1
        assert payload["all_ok"] == rep.all_ok
        assert payload["config_hash"] == config_hash(rep.config)


class TestZeroCountDeviation:
    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_no_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be positive"):
            zero_count_deviation_check(t_grid=[0.1], n_grid=[32], trials=trials, seed=2)

    def test_rejects_n_below_one(self):
        # the message names n, not the prefix length 2n the sampler would see
        with pytest.raises(ValueError, match="need n >= 1, got -3$"):
            zero_count_deviation_check(t_grid=[0.1], n_grid=[-3], trials=100, seed=2)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_threshold(self, t):
        # a NaN t was reported as passing: zero_count_bound(nan, n) is min(1.0, nan) = 1.0
        with pytest.raises(ValueError, match="thresholds must be finite"):
            zero_count_deviation_check(t_grid=[t], n_grid=[16], trials=20, seed=2)

    def test_several_n_share_one_draw_per_chunk(self, monkeypatch):
        # each chunk of trials is drawn once, to 2 max(n); the counts are those of each n alone
        ts, ns = [0.05, 0.1, 0.3], (32, 8, 64, 32)
        alone = [row for n in ns for row in zero_count_deviation_check(ts, [n], 5000, 11).rows]
        calls = []
        sample = experiments.sample_bits_batch
        monkeypatch.setattr(experiments, "sample_bits_batch",
                            lambda assign, n, seed, idx: calls.append((n, len(idx))) or sample(assign, n, seed, idx))
        assert list(zero_count_deviation_check(ts, ns, 5000, 11).rows) == alone
        assert calls == [(128, 4096), (128, 904)]

    def test_zero_threshold_has_frequency_one(self):
        rep = zero_count_deviation_check(t_grid=[0.0], n_grid=[32], trials=500, seed=2)
        (row,) = rep.rows
        assert row.empirical == 1.0 and row.bound == 1.0 and row.ok

    def test_explicit_bound_is_valid_everywhere(self):
        rep = zero_count_deviation_check(
            t_grid=[0.05, 0.1, 0.2, 0.4], n_grid=[32, 128, 512], trials=4000, seed=8
        )
        assert rep.all_ok

    def test_informative_bound_cell_sees_no_exceedance(self):
        # pick t with bound < 1e-6; the event is then never observed
        t = 12.0
        n = 1024
        assert zero_count_bound(t, n) < 1e-6
        rep = zero_count_deviation_check(t_grid=[t], n_grid=[n], trials=3000, seed=4)
        (row,) = rep.rows
        assert row.empirical == 0.0 and row.ok

    def test_fit_shows_exponential_decay(self):
        rep = zero_count_deviation_check(
            t_grid=[0.02, 0.05, 0.1, 0.15], n_grid=[64, 128, 256], trials=20000, seed=6
        )
        assert rep.fit["c3"] > 0
        lo, hi = rep.fit["c3_ci"]
        assert lo > 0  # decay rate positive with 95% confidence
        assert rep.fit["r_value"] < -0.9  # log-frequency ~ linear in t^2 n
        # as computed with scipy.stats.linregress and t.ppf
        frozen = {"c2": 0.618433942909516, "c3": 2.0706457954057154,
                  "c3_ci": [1.9086781181393406, 2.23261347267209],
                  "r_value": -0.9946626680201969, "points": 11}
        assert rep.fit == pytest.approx(frozen, rel=1e-12)

    def test_bound_monotone_in_t(self):
        bounds = [zero_count_bound(t, 256) for t in (0.05, 0.1, 0.2, 0.5, 1.0, 3.0)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_determinism(self):
        kw = dict(t_grid=[0.1], n_grid=[64], trials=2000, seed=12)
        a = zero_count_deviation_check(**kw).to_json_dict()
        b = zero_count_deviation_check(**kw).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestStatistics:
    """The Theil-Sen band, the line fit and the t quantile, against scipy.stats."""

    # (n grid, medians, (slope, lo, hi)) as scipy.stats.theilslopes gave them,
    # with ties in log2 n and in the medians; NaN where the ties leave Sen's
    # variance negative or no pair has distinct x
    TIED = [
        ((16, 16, 64, 256, 256, 1024), (1.0, 2.0, 2.0, 3.5, 2.0, 7.25), (0.625, 0.0, 1.875)),
        ((16, 32, 64, 128, 256, 512, 1024), (0.5, 0.5, 0.5, 1.0, 1.0, -2.0, 3.0),
         (0.16666666666666666, -0.625, 0.625)),
        ((4, 4, 4, 8, 8, 16, 32, 32), (1.0, -1.0, 0.25, 0.25, 3.0, 3.0, 3.0, -4.5),
         (0.6666666666666666, -1.8333333333333333, 2.0)),
        ((16, 64, 256, 1024, 4096), (2.0, 2.0, 2.0, 2.0, 2.0), (0.0, 0.0, 0.0)),
        ((16, 16, 64), (1.0, 1.0, 1.0), (0.0, math.nan, math.nan)),
        ((16, 64), (1.0, -3.0), (-2.0, -2.0, -2.0)),
        ((8, 8, 8, 8), (1.0, 2.0, 3.0, 4.0), (math.nan, math.nan, math.nan)),
        ((16,), (1.0,), (math.nan, math.nan, math.nan)),  # a one-point --n-grid
    ]

    @pytest.mark.parametrize("ns, ys, frozen", TIED)
    def test_theil_sen_on_tied_grids_is_frozen(self, ns, ys, frozen):
        got = experiments.stats.theilslopes(ys, np.log2(ns))
        assert repr(got) == repr(frozen)

    def test_theil_sen_matches_scipy_on_random_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            n = int(rng.integers(2, 18))
            x = rng.integers(0, 6, n).astype(float)
            if np.all(x == x[0]):
                x[0] += 1.0
            y = rng.integers(-3, 4, n) / 2.0 if rng.random() < 0.5 else rng.normal(size=n)
            ref = scipy_stats.theilslopes(y, x, alpha=0.95)
            got = experiments.stats.theilslopes(y, x)
            assert repr(got) == repr((float(ref[0]), float(ref[2]), float(ref[3])))

    def test_line_fit_matches_scipy(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n) * 3
            y = 0.7 * x + rng.normal(size=n)
            ref = scipy_stats.linregress(x, y)
            got = experiments.stats.linregress(x, y)
            for field in ("slope", "intercept", "rvalue", "stderr"):
                assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=1e-12, abs=1e-15)

    def test_line_fit_of_constant_y_has_no_r(self):
        fit = experiments.stats.linregress([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
        assert fit.slope == 0.0 and fit.intercept == 3.0
        assert math.isnan(fit.rvalue) and math.isnan(fit.stderr)

    @pytest.mark.parametrize("q", [0.975, 0.95, 0.995, 0.6, 0.025])
    def test_t_quantile_matches_scipy(self, q):
        for df in range(1, 31):
            ref = float(scipy_stats.t.ppf(q, df))
            assert experiments.stats.t.ppf(q, df) == pytest.approx(ref, rel=1e-14)

    def test_t_quantile_is_correctly_rounded(self):
        from mpmath import mp

        def cdf(t, df):  # P(T <= t) for t > 0, by the incomplete beta function
            return 1 - mp.betainc(mp.mpf(df) / 2, 0.5, 0, df / (df + t * t), regularized=True) / 2

        with mp.workdps(50):
            for df in (1, 2, 14, 30):
                t = mp.mpf(experiments.stats.t.ppf(0.975, df))
                half_ulp = mp.mpf(math.ulp(float(t))) / 2
                assert cdf(t - half_ulp, df) <= 0.975 <= cdf(t + half_ulp, df)


class TestCoveringSums:
    def test_at_minkowski_exponent_stays_near_zero(self):
        dm = dim_minkowski(1e-9).value
        worst = 0.0
        for j in range(4, 21):
            n = 2**j
            v = covering_sum(Gauge.pure(dm), n)
            worst = max(worst, abs(v) / math.log2(n) ** 2)
        print(f"fitted covering fluctuation constant {worst:.4f}")
        assert worst < 1.0  # |covering sum| = O(log^2 n), small constant

    def test_at_hausdorff_exponent_grows_linearly(self):
        dm = dim_minkowski(1e-9).value
        s = s_float()
        for j in (10, 14, 18):
            n = 2**j
            v = covering_sum(Gauge.pure(), n)
            assert v == pytest.approx((dm - s) * n, rel=0.02)

    def test_psi_correction_dominates_at_minkowski_exponent(self):
        dm = dim_minkowski(1e-9).value
        g = Gauge.psi_theta(1.0, s=dm)
        values = [covering_sum(g, 2**j) for j in range(6, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < -(2**20) / 40  # ~ -n / log2 n

    def test_domain(self):
        with pytest.raises(ValueError):
            covering_sum(Gauge.pure(), 3)


class TestBoxDimension:
    def test_small_value(self):
        assert box_dimension_estimate(3) == pytest.approx(math.log2(6) / 3)

    def test_converges_to_minkowski(self):
        dm = dim_minkowski(1e-9).value
        errs = [abs(box_dimension_estimate(2**j) - dm) for j in range(4, 21)]
        assert errs[-1] < 5e-3
        # errors shrink on the dyadic grid until they hit float resolution
        assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            box_dimension_estimate(1)


class TestDeviationThreshold:
    def test_default_event_scaling(self):
        from mgms.experiments import DEFAULT_EPSILON, deviation_threshold

        assert DEFAULT_EPSILON == 0.25
        # t n = n^(1-eps)
        for n in (16, 1000):
            t = deviation_threshold(n)
            assert t * n == pytest.approx(n**0.75)
        assert deviation_threshold(256, 0.4) == pytest.approx(256**-0.4)

    def test_epsilon_domain(self):
        from mgms.experiments import deviation_threshold

        for bad in (0.0, 0.5, 0.9, -0.1):
            with pytest.raises(ValueError):
                deviation_threshold(100, bad)


class TestReportPlumbing:
    def test_config_hash_stable_and_sensitive(self):
        a = {"x": 1, "y": [1, 2]}
        assert config_hash(a) == config_hash({"y": [1, 2], "x": 1})
        assert config_hash(a) != config_hash({"x": 2, "y": [1, 2]})

    def test_json_report_reproduces_verdict(self):
        rep = lower_bound_trajectory(0.05, 0.002, n_grid=GRID_SMALL, seeds=range(12))
        payload = rep.to_json_dict()
        medians = payload["summary"]["median"]
        ns = payload["n_grid"]
        # re-derive the trend from the persisted medians
        from mgms.experiments import _trend_verdict

        verdict, slope, ci, mono = _trend_verdict(ns, medians, payload["verdict_floor"])
        if not payload["inconclusive_reason"]:
            assert verdict == payload["verdict"]
        assert slope == pytest.approx(payload["slope"])
