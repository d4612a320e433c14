"""Measures: Markov cylinder masses, chain products, perturbation, sampling."""

import collections
import functools
import hashlib
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from mgms.analytics import expected_zero_count_prefix
from mgms.core import BinaryWord, block_of
from mgms.measures import (
    BlockAssignment,
    LogProb,
    MarkovParams,
    chain_breakdown,
    logprob_prefix_grid,
    markov_cylinder_logprob,
    pdelta_logprob,
    sample_bits_batch,
    sample_point,
)
from mgms import measures
from mgms.experiments import DEFAULT_N_GRID
from mgms.rng import chain_keys, fold, threshold, uniform_grid

from conftest import (
    brute_is_multiplicative,
    chain_law,
    chains_of,
    iter_golden_words,
    iter_multiplicative_prefixes,
    pmu_identity_gap,
    word,
)


def pdelta_logprob_level_indexed(assign: BlockAssignment, u: BinaryWord) -> LogProb:
    """The literal level-indexed product (not Kolmogorov-consistent).

    With 2^(l-1) < n <= 2^l, a chain of length k (odd i in (n/2^k, n/2^(k-1)])
    gets parameter index l - k.  The index of a fixed chain changes as n
    grows across block boundaries, which breaks P[u] = P[u0] + P[u1] there,
    and when n is an exact power of two the k <= l products miss chain i=1
    entirely.  Kept only to exhibit the difference from `pdelta_logprob`.
    """
    n = len(u)
    level = (n - 1).bit_length()  # l with 2^(l-1) < n <= 2^l  (l=0 for n=1)
    chains = chains_of(u)
    total = 0.0
    for k in range(1, level + 1):
        lo, hi = n >> k, n >> (k - 1)  # floor(n/2^k) < i <= floor(n/2^(k-1)) picks the odds
        for i in range(lo + 1 + (lo % 2 == 1), hi + 1, 2):
            total += markov_cylinder_logprob(MarkovParams(assign.param(level - k)), chains[i]).value
            if total == -math.inf:
                return LogProb(total)
    return LogProb(total)


def inline_pdelta_logprob(assign: BlockAssignment, u: BinaryWord) -> LogProb:
    """`pdelta_logprob` as it was written before it shared the scalar walk:
    the golden Markov loop inlined once per chain.  pdelta_logprob must equal
    it exactly, floats and summation order included."""
    n = len(u)
    total = 0.0
    arr = u.array
    for i in range(1, n + 1, 2):
        params = MarkovParams(assign.param(block_of(i)))
        log_r = math.log2(params.r)
        log_q = math.log2(1.0 - params.r)
        acc = 0.0
        prev = 0
        m = i
        while m <= n:
            sym = arr[m - 1]
            if prev == 1:
                if sym == 1:
                    return LogProb(-math.inf)
            else:
                acc += log_q if sym else log_r
            prev = sym
            m <<= 1
        total += acc
    return LogProb(total)


def reference_sample_point(assign, n, seed):
    """The chain-by-chain walk that sample_point packs into lanes: one fold per
    draw, compared as a double."""
    trial_key = fold(fold(0, int(seed)), 0)
    out = ["0"] * n
    for i in range(1, n + 1, 2):
        one_prob = 1.0 - assign.param(block_of(i))
        key = fold(trial_key, i)
        prev = "0"
        for t in range((n // i).bit_length()):  # positions i 2^t <= n
            prev = "1" if prev == "0" and (fold(key, t) >> 11) * 2.0**-53 < one_prob else "0"
            out[(i << t) - 1] = prev
    return "".join(out)


# Fancy-index forms of the batch sampler and the log-mass grid, kept as
# oracles: sample_bits_batch and logprob_prefix_grid must equal them bit for bit.


def _reference_blocks(n: int) -> np.ndarray:
    m = np.arange(n + 1, dtype=np.int64)
    low = m & -m
    odd = np.ones(n + 1, dtype=np.int64)
    odd[1:] = m[1:] // low[1:]
    block = np.zeros(n + 1, dtype=np.int64)
    block[1:] = np.frexp(odd[1:].astype(np.float64))[1] - 1
    return block


def reference_sample_bits_batch(assign, n, seed, trials):
    trials = np.asarray(trials, dtype=np.uint64)
    block = _reference_blocks(n)
    one_prob = 1.0 - np.array([assign.param(b) for b in range(int(block.max()) + 1)])
    bits = np.zeros((len(trials), n + 1), dtype=np.uint8)
    t = 0
    while (1 << t) <= n:
        odds = np.arange(1, (n >> t) + 1, 2, dtype=np.int64)
        pos = odds << t
        u = uniform_grid(chain_keys(seed, trials, odds), t) * 2.0**-53
        draw = (u < one_prob[block[pos]][None, :]).astype(np.uint8)
        if t == 0:
            bits[:, pos] = draw
        else:
            bits[:, pos] = draw & (1 - bits[:, pos >> 1])
        t += 1
    return bits


def reference_logprob_prefix_grid(assign, bits, n_list):
    n_max = bits.shape[1] - 1
    block = _reference_blocks(n_max)
    params = [assign.param(b) for b in range(int(block[1:].max()) + 1)]
    log_r = np.array([math.log2(r) for r in params])  # the logs of the scalar walk
    log_q = np.array([math.log2(1.0 - r) for r in params])
    x = bits[:, 1:]
    lb = block[1:]
    m = np.arange(1, n_max + 1)
    has_pred = m % 2 == 0
    pred = np.where(has_pred, m // 2, 0)
    forced = np.zeros(bits.shape, dtype=bool)[:, 1:]
    forced[:, has_pred] = bits[:, pred[has_pred]] == 1
    cost = np.where(x == 1, log_q[lb][None, :], log_r[lb][None, :])
    cost[forced] = 0.0
    forbidden = forced & (x == 1)
    cums = np.cumsum(cost, axis=1)
    bad = np.cumsum(forbidden, axis=1) > 0
    idx = np.array([int(n) for n in n_list]) - 1
    out = cums[:, idx].astype(np.float64)
    out[bad[:, idx]] = -np.inf
    return out


# ids "mu", "delta" and "param_fn"; the last case takes the schedule at a p off the root
ORACLE_MEASURES = [
    BlockAssignment(0.0),
    BlockAssignment(0.05),
    BlockAssignment(0.03, p=0.4),
]


class TestLogProb:
    def test_sentinel_and_arithmetic(self):
        z = LogProb(-math.inf)
        assert z.is_zero and z.to_probability() == 0.0
        assert not LogProb(-1.0).is_zero and LogProb(-1.0).to_probability() == 0.5
        assert LogProb(0.0).to_probability() == 1.0

    def test_rejects_positive_values(self):
        with pytest.raises(ValueError):
            LogProb(0.5)
        with pytest.raises(ValueError):
            LogProb(float("nan"))


class TestMarkovCylinders:
    @pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
    def test_single_symbol_masses(self, r):
        params = MarkovParams(r)
        assert markov_cylinder_logprob(params, word("0")).value == pytest.approx(math.log2(r))
        assert markov_cylinder_logprob(params, word("10")).value == pytest.approx(math.log2(1 - r))
        assert markov_cylinder_logprob(params, word("11")).is_zero
        assert markov_cylinder_logprob(params, word("01")).value == pytest.approx(
            math.log2(r) + math.log2(1 - r)
        )

    def test_empty_word_has_full_mass(self):
        assert markov_cylinder_logprob(MarkovParams(0.4), BinaryWord.empty()).value == 0.0

    @pytest.mark.parametrize("r", [0.3, 0.5698402909980532, 0.8])
    @pytest.mark.parametrize("k", range(1, 11))
    def test_walk_equals_count_formula(self, r, k):
        # (1-r)^N1(u) * r^(N0(u) - N1(u_1..u_{k-1})) against the walk
        params = MarkovParams(r)
        for u in iter_golden_words(k):
            n1 = u.count_ones()
            n1_head = u.prefix(k - 1).count_ones()
            expected = n1 * math.log2(1 - r) + (u.count_zeros() - n1_head) * math.log2(r)
            assert markov_cylinder_logprob(params, u).value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_normalization(self, k):
        params = MarkovParams(0.37)
        total = sum(markov_cylinder_logprob(params, u).to_probability() for u in iter_golden_words(k))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_consistency(self, k):
        params = MarkovParams(0.61)
        for u in iter_golden_words(k):
            lhs = markov_cylinder_logprob(params, u).to_probability()
            rhs = sum(
                markov_cylinder_logprob(params, word(str(u) + c)).to_probability() for c in "01"
            )
            assert lhs == pytest.approx(rhs, abs=1e-14)

    @pytest.mark.parametrize("r", [0.3, 0.5698402909980532, 1e-300, 1 - 2**-53])
    def test_golden_costs_table(self, r):
        # one table at 2 pred + x: a free 0, a 1, a 0 forced by a 1, and the pair 11
        costs = measures.golden_costs(r)
        assert costs[:2] == (math.log2(r), math.log2(1.0 - r))
        assert costs[2] == 0.0 and math.copysign(1.0, costs[2]) == 1.0
        assert costs[3] == -math.inf

    def test_invalid_parameter(self):
        with pytest.raises(ValueError):
            MarkovParams(0.0)
        with pytest.raises(ValueError):
            MarkovParams(1.0)


class TestChainProducts:
    def test_pmu_examples(self, p_val):
        pmu = BlockAssignment(0.0)
        assert pdelta_logprob(pmu, word("000")).value == pytest.approx(3 * math.log2(p_val))
        assert pdelta_logprob(pmu, word("10")).value == pytest.approx(math.log2(1 - p_val))
        assert pdelta_logprob(pmu, word("11")).is_zero

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pmu_is_chainwise_product(self, p_val, n):
        params = MarkovParams(p_val)
        for u in iter_multiplicative_prefixes(n):
            manual = sum(markov_cylinder_logprob(params, chain).value for chain in chains_of(u).values())
            assert pdelta_logprob(BlockAssignment(0.0), u).value == pytest.approx(manual, abs=1e-12)

    def test_support_is_exactly_the_admissible_words(self, p_val):
        for n in range(1, 11):
            v = np.arange(2**n)
            for x in v:
                u = word(format(x, f"0{n}b"))
                zero = pdelta_logprob(BlockAssignment(0.0), u).is_zero
                assert zero == (not brute_is_multiplicative(list(u)))

    def test_pdelta_reduces_to_pmu_at_zero_delta(self, p_val):
        # one parameter p on every chain: a 1 costs log2(1-p), a 0 log2 p unless a 1 at
        # u_{m/2} forces it, and the forcing ones are the ones of the half word
        a0 = BlockAssignment(delta=0.0)
        for n in range(1, 9):
            for u in iter_multiplicative_prefixes(n):
                ones, forced = u.count_ones(), u.prefix(n // 2).count_ones()
                closed = ones * math.log2(1 - p_val) + (n - ones - forced) * math.log2(p_val)
                assert pdelta_logprob(a0, u).value == pytest.approx(closed, abs=1e-12)

    def test_pdelta_block_examples(self, p_val):
        a = BlockAssignment(delta=0.05)
        assert a.param(0) == p_val and a.param(1) == pytest.approx(p_val + 0.05)
        assert a.param(2) == pytest.approx(p_val + 0.025)
        assert pdelta_logprob(a, word("0")).value == pytest.approx(math.log2(p_val))
        expected = 2 * math.log2(p_val) + math.log2(a.param(1))
        assert pdelta_logprob(a, word("000")).value == pytest.approx(expected)

    def test_block_assignment_validation(self):
        with pytest.raises(ValueError):
            BlockAssignment(delta=-0.1)
        with pytest.raises(ValueError):
            BlockAssignment(delta=0.5, p=0.6)  # p + delta >= 1
        with pytest.raises(ValueError):
            BlockAssignment(delta=0.0, p=1.5)
        # NaN fails every comparison: it is refused as a delta, not as p + delta
        with pytest.raises(ValueError, match="delta must be >= 0, got nan"):
            BlockAssignment(delta=math.nan)

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_normalization(self, delta, n):
        a = BlockAssignment(delta=delta)
        total = sum(pdelta_logprob(a, u).to_probability() for u in iter_multiplicative_prefixes(n))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_consistency(self, n):
        a = BlockAssignment(delta=0.07)
        for u in iter_multiplicative_prefixes(n):
            lhs = pdelta_logprob(a, u).to_probability()
            rhs = sum(pdelta_logprob(a, word(str(u) + c)).to_probability() for c in "01")
            assert lhs == pytest.approx(rhs, abs=1e-14)

    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_pdelta_equals_inline_walk_exactly(self, delta):
        a = BlockAssignment(delta=delta)
        rng = np.random.default_rng(11)
        words = [
            BinaryWord.from_array((rng.random(n) < density).astype(np.uint8))
            for n in (1, 2, 3, 7, 33, 100, 1000)
            for density in (0.5, 0.1, 0.02)
            for _ in range(4)
        ]
        words += [sample_point(a, n, seed).word for n in (1, 5, 64, 1000, 4097) for seed in (0, 1)]
        zero = 0
        for u in words:
            got = pdelta_logprob(a, u)
            assert got.value == inline_pdelta_logprob(a, u).value
            zero += got.is_zero
        assert 0 < zero < len(words)  # forbidden pairs and admissible words both occur

    # the third word's only pair 11 is x_333 = x_666 on the late chain J(333)
    @pytest.mark.parametrize("text, zero", [
        ("0100100010", False), ("001001", True), ("0" * 332 + "1" + "0" * 332 + "1" + "0" * 334, True),
    ])
    def test_pdelta_is_the_sum_of_the_chain_breakdown(self, text, zero):
        a = BlockAssignment(delta=0.05)
        u = word(text)
        parts = list(chain_breakdown(a, u))
        assert [i for i, *_ in parts] == list(range(1, len(u) + 1, 2))
        for i, b, r, symbols, mass in parts:
            rest = BinaryWord.from_array(u.array[[(i << t) - 1 for t in range((len(u) // i).bit_length())]])
            assert (b, r) == (block_of(i), a.param(block_of(i)))
            assert symbols == rest.array.tolist()
            assert mass == markov_cylinder_logprob(MarkovParams(r), rest).value
        masses = [mass for *_, mass in parts]
        assert masses.count(-math.inf) == zero
        assert pdelta_logprob(a, u).value == functools.reduce(operator.add, masses, 0.0)

    def test_level_indexed_form_breaks_consistency_at_block_boundary(self):
        # chain J(3) switches parameter index between n=5 and n=6
        a = BlockAssignment(delta=0.1)
        u5 = word("00000")
        lhs = pdelta_logprob_level_indexed(a, u5).to_probability()
        rhs = sum(
            pdelta_logprob_level_indexed(a, word("00000" + c)).to_probability() for c in "01"
        )
        assert abs(lhs - rhs) > 1e-4  # the literal reading is not a measure
        # while the block form is consistent at the same word
        lhs_b = pdelta_logprob(a, u5).to_probability()
        rhs_b = sum(pdelta_logprob(a, word("00000" + c)).to_probability() for c in "01")
        assert lhs_b == pytest.approx(rhs_b, abs=1e-15)

    def test_level_indexed_form_misses_chain_one_at_powers_of_two(self):
        # at n = 2^l the k <= l products cover only i > 1
        a = BlockAssignment(delta=0.0)
        u = word("0000")
        lit = pdelta_logprob_level_indexed(a, u).value
        full = pdelta_logprob(a, u).value
        chain1 = markov_cylinder_logprob(MarkovParams(a.p), word("000")).value  # u_1 u_2 u_4
        assert lit == pytest.approx(full - chain1, abs=1e-12)

    def test_level_indexed_agrees_on_non_dyadic_small_n(self):
        # away from block boundaries both readings coincide (e.g. n = 3)
        a = BlockAssignment(delta=0.05)
        for u in iter_multiplicative_prefixes(3):
            assert pdelta_logprob_level_indexed(a, u).value == pytest.approx(
                pdelta_logprob(a, u).value, abs=1e-12
            )


class TestIdentityGap:
    @pytest.mark.parametrize("s", ["01", "00", "10"])
    def test_examples_are_zero(self, s):
        assert pmu_identity_gap(word(s)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_exhaustive_small_even_lengths(self, n):
        for u in iter_multiplicative_prefixes(n):
            assert abs(pmu_identity_gap(u)) < 1e-10


class TestSampling:
    # chain J(1) of a sampled word: the symbols x_1 x_2 x_4 ..., drawn with parameter p
    # (block 0), so BlockAssignment(0.0, p=r) samples the golden Markov law with parameter r

    def test_chain_sampler_is_golden_and_deterministic(self):
        a = BlockAssignment(0.0)
        for seed in range(30):
            u = sample_point(a, 2**12, seed).word
            chain = chains_of(u)[1].array
            assert len(chain) == 13
            assert not np.any(chain[1:] & chain[:-1])
            assert u == sample_point(a, 2**12, seed).word

    def test_chain_sampler_never_emits_one_after_one(self):
        a = BlockAssignment(0.0, p=0.3)  # many ones
        for seed in range(20):
            for chain in chains_of(sample_point(a, 1024, seed).word).values():
                assert not np.any(chain.array[1:] & chain.array[:-1])

    def test_one_frequency_matches_initial_law(self):
        a = BlockAssignment(0.0, p=0.6)
        draws = np.array([sample_point(a, 1, seed).word[1] for seed in range(100_000)])
        freq = draws.mean()
        se = math.sqrt(0.4 * 0.6 / draws.size)
        assert abs(freq - 0.4) <= 3 * se

    def test_length_two_distribution(self):
        a = BlockAssignment(0.0, p=0.55)
        counts = {"00": 0, "01": 0, "10": 0}
        trials = 60_000
        for seed in range(trials):
            counts[str(sample_point(a, 2, seed).word)] += 1  # x_1 x_2 is the chain J(1)
        expected = {"00": 0.55**2, "01": 0.55 * 0.45, "10": 0.45}
        chi = sum(
            (counts[w] - trials * q) ** 2 / (trials * q) for w, q in expected.items()
        )
        assert chi < stats.chi2.ppf(1 - 1e-3, df=2)

    # sha256 of the words of sample_point over deltas x lengths x seeds, as the
    # per-chain sampler with keyed stream objects drew them, one word per line
    SAMPLE_POINT_DIGEST = "abfdc50ef52b2d5d806b145678163d6fa67a87367b95b73d0d37dadc42b834e6"

    def test_sample_point_digest_is_frozen(self):
        h = hashlib.sha256()
        for delta in (0, 0.03, 0.05, 0.2):
            for n in (1, 2, 5, 97, 257, 4097):
                for seed in (0, 21, -7, 2**64 + 3, np.int64(7)):
                    h.update(str(sample_point(BlockAssignment(delta), n, seed).word).encode() + b"\n")
        assert h.hexdigest() == self.SAMPLE_POINT_DIGEST

    def test_sample_point_contract(self):
        a = BlockAssignment(delta=0.05)
        pt = sample_point(a, 257, seed=11)
        assert brute_is_multiplicative(list(pt.word))
        assert pt.word == sample_point(a, 257, seed=11).word
        longer = sample_point(a, 400, seed=11)
        assert str(longer.word)[:257] == str(pt.word)
        assert pt.descriptor == longer.descriptor

    # lengths on both sides of the powers of two and of the first two packed blocks of chains
    @pytest.mark.parametrize("delta", [0.0, 0.03, 0.3])
    def test_sample_point_equals_the_chain_walk(self, delta):
        a = BlockAssignment(delta)
        for n in (1, 2, 3, 4, 5, 7, 8, 9, 97, 1000, 8191, 8192, 8193, 8195, 2**14 + 3):
            for seed in (0, 5, -7, 2**64 + 3):
                assert str(sample_point(a, n, seed).word) == reference_sample_point(a, n, seed)

    @pytest.mark.parametrize("lanes", [1, 2, 3, 7])
    def test_any_number_of_lanes_draws_the_same_word(self, lanes, monkeypatch):
        monkeypatch.setattr(measures, "_LANES", lanes)
        a = BlockAssignment(0.05)
        for n in (1, 2, 5, 16, 63, 64, 65, 200):
            assert str(sample_point(a, n, 11).word) == reference_sample_point(a, n, 11)

    # telescope draws up to 2^17 symbols with the scalar sampler, more with the batch one
    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_sample_point_is_batch_row_zero_at_2_16(self, delta):
        a = BlockAssignment(delta)
        bits = sample_bits_batch(a, 2**16, seed=5, trials=np.array([0]))
        assert (bits[0, 1:] + ord("0")).tobytes().decode() == str(sample_point(a, 2**16, seed=5).word)

    def test_sample_point_differs_across_seeds(self):
        a = BlockAssignment(delta=0.0)
        words = {str(sample_point(a, 64, seed=s).word) for s in range(20)}
        assert len(words) > 15

    def test_chain_marginals_chi_square(self, p_val):
        # per-chain restriction law against the cylinder masses, k <= 4
        a = BlockAssignment(delta=0.08)
        n = 48
        trials = 4000
        bits = sample_bits_batch(a, n, seed=13, trials=np.arange(trials))
        for i in (1, 3, 9, 25, 47):
            k = (n // i).bit_length()  # positions i 2^t <= n
            params = MarkovParams(a.param(block_of(i)))
            idx = [i * 2**t for t in range(k)]
            sub = bits[:, idx]
            seen = {}
            for row in sub:
                seen[tuple(row)] = seen.get(tuple(row), 0) + 1
            words_k = list(iter_golden_words(k))
            probs = [markov_cylinder_logprob(params, u).to_probability() for u in words_k]
            obs = [seen.get(tuple(u.array), 0) for u in words_k]
            assert sum(obs) == trials  # no inadmissible chain word ever sampled
            chi = sum(
                (o - trials * q) ** 2 / (trials * q) for o, q in zip(obs, probs) if q > 0
            )
            crit = stats.chi2.ppf(1 - 1e-3, df=max(1, len(words_k) - 1))
            assert chi < crit

    def test_vector_sampler_equals_scalar_walk(self):
        a = BlockAssignment(delta=0.03)
        bits = sample_bits_batch(a, 97, seed=21, trials=np.array([0, 4]))
        assert "".join(map(str, bits[0, 1:])) == str(sample_point(a, 97, seed=21).word)
        # trial-4 row reproduces the chain walk keyed fold(fold(fold(0, seed), 4), i)
        manual = np.zeros(98, dtype=np.uint8)
        for i in range(1, 98, 2):
            key = fold(fold(fold(0, 21), 4), i)
            one_prob = 1.0 - a.param(block_of(i))
            prev, m, t = 0, i, 0
            while m <= 97:
                prev = 0 if prev else int((fold(key, t) >> 11) * 2.0**-53 < one_prob)
                manual[m] = prev
                m, t = m << 1, t + 1
        assert np.array_equal(bits[1], manual)

    def test_vector_logprob_matches_reference_and_flags_forbidden(self):
        a = BlockAssignment(delta=0.06)
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(40):
            rows.append(rng.integers(0, 2, size=33, dtype=np.uint8))
        bits = np.concatenate([np.zeros((40, 1), np.uint8), np.array(rows)], axis=1)
        lp = logprob_prefix_grid(a, bits, [33])[:, 0]
        grid = logprob_prefix_grid(a, bits, [8, 16, 33])
        for r in range(40):
            u = BinaryWord.from_array(bits[r, 1:34])
            ref = pdelta_logprob(a, u)
            if ref.is_zero:
                assert lp[r] == -np.inf
            else:
                assert lp[r] == pytest.approx(ref.value, abs=1e-10)
            for j, n in enumerate([8, 16, 33]):
                ref_n = pdelta_logprob(a, u.prefix(n))
                if ref_n.is_zero:
                    assert grid[r, j] == -np.inf
                else:
                    assert grid[r, j] == pytest.approx(ref_n.value, abs=1e-10)

    def test_sampled_zero_density_matches_expectation(self):
        a = BlockAssignment(delta=0.0)
        n = 2**10
        trials = 400
        bits = sample_bits_batch(a, n, seed=3, trials=np.arange(trials))
        n0 = (n - bits[:, 1:].sum(axis=1)).astype(np.float64)
        mean = n0.mean()
        se = n0.std(ddof=1) / math.sqrt(trials)
        assert abs(mean - expected_zero_count_prefix(n)) <= 3 * se


# chains of blocks 0 to 7 and lengths 11 down to 3 in a prefix of length 1024
CHI2_CHAINS = (1, 3, 5, 7, 9, 15, 33, 65, 129)
CHI2_SEEDS = (101, 202, 303, 404, 505)  # fixed before the test first ran


def chain_chi2(bits: np.ndarray, assign: BlockAssignment) -> tuple[float, int]:
    """Pearson's chi^2 of the (N1, last symbol) counts of the chains CHI2_CHAINS of the
    sampled rows against `chain_law`, summed over the chains, with its degrees of freedom.

    Cells of expected count below 5 are pooled into one, which joins the smallest other
    cell when it is still below 5.  An outcome of law probability 0 fails at once.
    """
    trials, n = len(bits), bits.shape[1] - 1
    chi2, dof = 0.0, 0
    for i in CHI2_CHAINS:
        chain = bits[:, [i << t for t in range((n // i).bit_length())]]
        seen = collections.Counter(zip(chain.sum(axis=1).tolist(), chain[:, -1].tolist()))
        law = chain_law(assign.param(block_of(i)), chain.shape[1])
        assert set(seen) <= set(law), f"chain J({i}) drew an outcome of probability 0: {set(seen) - set(law)}"
        cells = sorted((trials * q, seen[key]) for key, q in law.items())
        small = [c for c in cells if c[0] < 5]
        cells = [c for c in cells if c[0] >= 5]
        if small:
            pooled = (sum(e for e, _ in small), sum(o for _, o in small))
            if pooled[0] < 5:  # cells are sorted: this is the smallest one of 5 or more
                e, o = cells.pop(0)
                pooled = (pooled[0] + e, pooled[1] + o)
            cells.append(pooled)
        chi2 += sum((o - e) ** 2 / e for e, o in cells)
        dof += len(cells) - 1
    return chi2, dof


class TestChainLaws:
    def test_chain_law_is_the_brute_law(self):
        r = Fraction(3, 7)
        for L in range(1, 10):
            brute = collections.defaultdict(Fraction)
            for u in iter_golden_words(L):
                mass = Fraction(1)
                for prev, x in zip((0, *u), u):
                    mass *= 1 if prev else (1 - r if x else r)
                brute[u.count_ones(), u[L]] += mass
            law = chain_law(r, L)
            assert law == dict(brute) and sum(law.values()) == 1
            assert all(v == pytest.approx(float(law[k]), rel=1e-14) for k, v in chain_law(3 / 7, L).items())

    @pytest.mark.parametrize("seed", CHI2_SEEDS)
    def test_batch_sampler_follows_the_chain_laws(self, seed):
        # the walk that the trajectory counts read: a biased threshold moves |z| far past 5
        assign = BlockAssignment(0.05)
        chi2, dof = chain_chi2(sample_bits_batch(assign, 1024, seed, np.arange(4096)), assign)
        z = (chi2 - dof) / math.sqrt(2 * dof)
        assert abs(z) < 5, (chi2, dof, z)


class TestBatchKernels:
    @pytest.mark.parametrize("assign", ORACLE_MEASURES, ids=["mu", "delta", "param_fn"])
    @pytest.mark.parametrize("n", [1, 2, 3, 33, 1000, 1001])
    def test_prefix_grid_equals_reference(self, assign, n):
        rng = np.random.default_rng(n)
        bits = np.zeros((8, n + 1), dtype=np.uint8)
        bits[1, 1:] = 1  # forbidden pair at m = 2
        bits[2:5, 1:] = rng.random((3, n)) < 0.15
        bits[5:, 1:] = rng.random((3, n)) < 0.5
        grids = [[1], [n], sorted({1, max(1, n // 3), max(1, n // 2), n})]
        for grid in grids:
            got = logprob_prefix_grid(assign, bits, grid)
            assert np.array_equal(got, reference_logprob_prefix_grid(assign, bits, grid))
            assert np.array_equal(logprob_prefix_grid(assign, bits.astype(bool), grid), got)
        assert np.isfinite(got[0]).all()
        assert np.isneginf(got[1, -1]) == (n >= 2)

    @pytest.mark.parametrize("assign", ORACLE_MEASURES, ids=["mu", "delta", "param_fn"])
    @pytest.mark.parametrize("n", [1, 2, 255, 1024])
    @pytest.mark.parametrize("trials", [1, 7, 4096])
    def test_sampler_equals_reference(self, assign, n, trials):
        idx = np.arange(trials) + 3
        got = sample_bits_batch(assign, n, 17, idx)
        assert np.array_equal(got, reference_sample_bits_batch(assign, n, 17, idx))

    @pytest.mark.parametrize("assign", ORACLE_MEASURES, ids=["mu", "delta", "param_fn"])
    @pytest.mark.parametrize("n", [1000, 1001])
    def test_blocked_kernels_equal_reference(self, assign, n, monkeypatch):
        # a small block size splits both kernels into several blocks per call
        monkeypatch.setattr(measures, "_CHUNK", 64)
        rng = np.random.default_rng(n)
        bits = np.zeros((8, n + 1), dtype=np.uint8)
        bits[1, [128, 256]] = 1  # first forbidden pair ends a block (positions 1..256)
        bits[2, [129, 258]] = 1  # ... or sits in the second one
        bits[3, [300, 600]] = 1  # ... or in the third
        bits[4:, 1:] = rng.random((4, n)) < 0.15
        grid = [1, 255, 256, 257, 511, 512, 600, n - 1, n]
        got = logprob_prefix_grid(assign, bits, grid)
        assert np.array_equal(got, reference_logprob_prefix_grid(assign, bits, grid))
        assert np.isneginf(got[1]).tolist() == [g >= 256 for g in grid]
        assert np.isneginf(got[3]).tolist() == [g >= 600 for g in grid]
        idx = np.arange(7) + 3
        assert np.array_equal(sample_bits_batch(assign, n, 17, idx),
                              reference_sample_bits_batch(assign, n, 17, idx))

    @pytest.mark.parametrize("assign", ORACLE_MEASURES, ids=["mu", "delta", "param_fn"])
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 1000, 1001])
    @pytest.mark.parametrize("trials", [0, 1, 3, 37])
    def test_sampler_blocks_equal_reference(self, assign, n, trials, monkeypatch):
        # 32-cell blocks: 37 trials split into row blocks at every n, and
        # n >= 65 splits the chains as well, so levels run inside each block
        monkeypatch.setattr(measures, "_CHUNK", 32)
        idx = np.arange(trials) * 5 + 2
        got = sample_bits_batch(assign, n, 29, idx)
        assert got.shape == (trials, n + 1)
        assert np.array_equal(got, reference_sample_bits_batch(assign, n, 29, idx))

    @pytest.mark.parametrize("rows", [1, 3, 37, 4096])
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 1024, 1025])
    def test_chain_walk_visits_every_cell_once(self, rows, n):
        # the walk of sample_bits_batch: chain 2j + 1 reaches level t when (2j + 1) 2^t <= n
        chains = range(1, n + 1, 2)
        active = [((n >> t) + 1) >> 1 for t in range(n.bit_length())]
        below = np.array([threshold(0.5)], dtype=np.uint64)
        visits = np.zeros((len(active), rows, len(chains)), dtype=np.uint8)
        last = np.full(rows, -1)  # the first chain of each row's latest block
        for block, a, levels in measures._chain_walk(5, np.arange(rows), chains, below,
                                                     np.zeros(len(chains), dtype=np.intp), active):
            assert levels and levels[0].size <= measures._CHUNK
            assert (last[block] < a).all()  # in order along each row
            last[block] = a
            for t, one in enumerate(levels):
                assert one.shape == (levels[0].shape[0], min(levels[0].shape[1], active[t] - a))
                visits[t, block, a : a + one.shape[1]] += 1
        for t, reach in enumerate(active):
            assert (visits[t, :, :reach] == 1).all() and not visits[t, :, reach:].any()

    def test_ldev2_shape_draws_deep_levels_once(self, monkeypatch):
        # ldev2 at n = 512: 4096 rows of 1024 symbols took 352 uniform_grid calls
        # when each 129-row block drew all 11 levels
        from mgms import rng

        sizes = []
        grid = rng.uniform_grid
        monkeypatch.setattr(rng, "uniform_grid", lambda keys, pos: sizes.append(keys.size) or grid(keys, pos))
        sample_bits_batch(BlockAssignment(0.0), 1024, 3, np.arange(4096))
        assert len(sizes) <= 80
        assert sum(sizes) == 4096 * 1024  # one draw per symbol

    def test_prefix_grid_adds_math_log2_costs_in_position_order(self):
        # np.log2 and math.log2 differ by an ulp on about 1 double in 500, and
        # 200 measures give 4000 logs, so a table from np.log2 would fail here
        rng = np.random.default_rng(33)
        n = 1023
        for _ in range(200):
            p = rng.uniform(0.05, 0.95)
            assign = BlockAssignment(rng.uniform(0.0, 0.99 * min(0.3, 1.0 - p)), p=p)
            bits = sample_bits_batch(assign, n, 1, [0, 1])
            got = logprob_prefix_grid(assign, bits, range(1, n + 1))
            for row, x in zip(got.tolist(), bits.tolist()):
                total, want = 0.0, []
                for m in range(1, n + 1):
                    r = assign.param(block_of(m // (m & -m)))
                    if not (m % 2 == 0 and x[m // 2]):  # a 0 forced by a 1 costs nothing
                        total += math.log2(1.0 - r) if x[m] else math.log2(r)
                    want.append(total)
                assert row == want, assign

    def test_ldev2_shape_digest_is_frozen(self):
        # sha256 of the 4096-trial prefixes of length 1024 that ldev2 draws at
        # n = 512, as computed by the per-level sampler with float compares
        bits = sample_bits_batch(BlockAssignment(0.0), 1024, 3, np.arange(4096))
        assert hashlib.sha256(bits.tobytes()).hexdigest() == (
            "d27dd2779c9d3966009240602e96fb5f15143314018cc5bbce42cfe52c8efd77")

    # sha256 of the 2^20-symbol trajectories and their log-mass grids, as
    # computed by the fancy-index kernels: (delta, seed, bits, grid)
    FROZEN = [
        (0.05, 0, "b0b64218c7ed5b93090903e21e51194aba91f34448ccd38b234228d762f18360",
         "5158d23c484a52256fc8b3dd04fd0f01ce625f9e859c4a38b8af1287088ad539"),
        (0.05, 1, "4b5f0c87930eb7a7c7f8d09875c4f276c939ff1579221dca9e5b562279367590",
         "d5d0cbdb767bb6eaae23a9716843d62a814f2f03c14844a98182ec2862ffc30f"),
        (0.0, 0, "8e34108ef5ceabe36b7b08d3721926dce42d1b027d33bff405cf21503c0766f6",
         "f42c28d8b3aa360d56bb6133ba2727c79a8407f97e04a12bd133698a3acda1bd"),
        (0.0, 1, "9c983c1d2de8de45763d666733cbb67e9d7543dcb058feadab61e5d816e4137f",
         "1eb9a867a66b8edb30db6c9e110c429c2c07a3e77a88c05037c4745a60d43d78"),
    ]

    @pytest.mark.parametrize("delta, seed, bits_sha, grid_sha", FROZEN)
    def test_trajectory_digests_are_frozen(self, delta, seed, bits_sha, grid_sha):
        a = BlockAssignment(delta)
        bits = sample_bits_batch(a, 2**20, seed, [0])
        assert hashlib.sha256(bits.tobytes()).hexdigest() == bits_sha
        grid = logprob_prefix_grid(a, bits, DEFAULT_N_GRID)
        assert hashlib.sha256(grid.tobytes()).hexdigest() == grid_sha

    @staticmethod
    def _python_blocks(n: int) -> list[int]:
        # floor(log2) of the odd part of each position 1..n, on Python ints
        return [0] + [(m >> ((m & -m).bit_length() - 1)).bit_length() - 1 for m in range(1, n + 1)]

    def test_block_table_equals_python_oracle(self):
        for n in (*range(1, 301), 2**16 + 3, 2**20):
            table = measures._block_table.__wrapped__(n)
            assert table.dtype == np.uint8 and table.tolist() == self._python_blocks(n), n

    def test_block_table_allocates_about_its_own_size(self):
        # 2^20 one-byte entries: the table once, and no full-length int64 or float64 temporary
        import tracemalloc

        n = 2**20
        tracemalloc.start()
        try:
            measures._block_table.__wrapped__(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n, peak

    def test_zero_counts_equal_python_count(self):
        rng = np.random.default_rng(5)
        for rows, n in ((1, 1), (1, 257), (3, 1000), (64, 4096)):
            bits = np.zeros((rows, n + 1), dtype=np.uint8)
            bits[:, 1:] = rng.random((rows, n)) < rng.random((rows, 1))
            for _ in range(5):
                ns = sorted(set(rng.integers(1, n + 1, size=rng.integers(1, 8)).tolist()))
                got = measures.zero_count_from_bits(bits, ns)
                assert got.dtype == np.int64 and got.shape == (rows, len(ns))
                want = [[sum(1 for v in row[1 : m + 1] if v == 0) for m in ns] for row in bits.tolist()]
                assert got.tolist() == want

    @pytest.mark.parametrize("ns", [[3, 2], [2, 2], [0, 4], [-1], [9], [4, 9]])
    def test_zero_counts_reject_unsorted_repeated_or_out_of_range(self, ns):
        with pytest.raises(ValueError):
            measures.zero_count_from_bits(np.zeros((2, 9), dtype=np.uint8), ns)
