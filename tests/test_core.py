"""Word combinatorics, chain decomposition, and exact counting."""

import copy
import math
import pickle
import random

import pytest

from mgms.core import (
    BinaryWord,
    block_of,
    chain_classes,
    chain_length_counts,
    chains_reaching,
    fibonacci,
    log2_count_cylinders,
)
from mgms.measures import BlockAssignment, MarkovParams, chain_breakdown, markov_cylinder_logprob, pdelta_logprob

from conftest import (
    all_words,
    brute_chain_classes,
    brute_count_golden,
    brute_count_multiplicative,
    brute_is_golden,
    brute_is_multiplicative,
    chains_of,
    count_cylinders,
    iter_golden_words,
    iter_multiplicative_prefixes,
    word,
)


# Admissibility as the measures see it: a golden Markov mass is zero exactly
# at a pair 11, a chain product mass exactly at a pair u_k = u_2k = 1.
def is_golden_word(u: BinaryWord) -> bool:
    return not markov_cylinder_logprob(MarkovParams(0.5), u).is_zero


def is_multiplicative_prefix(u: BinaryWord) -> bool:
    return not pdelta_logprob(BlockAssignment(0.05), u).is_zero


def partition(n: int) -> dict[int, int]:
    """Odd i <= n to the length of the chain J(i) that `chain_breakdown` walks in a word of length n."""
    return {i: len(symbols) for i, _, _, symbols, _ in chain_breakdown(BlockAssignment(), BinaryWord("0" * n))}


class TestBinaryWord:
    def test_roundtrip_and_indexing(self):
        u = word("010011")
        assert len(u) == 6
        assert str(u) == "010011"
        assert [u[k] for k in range(1, 7)] == [0, 1, 0, 0, 1, 1]
        assert u.count_ones() == 3 and u.count_zeros() == 3

    def test_empty_word(self):
        e = BinaryWord.empty()
        assert len(e) == 0 and str(e) == ""
        assert is_golden_word(e) and is_multiplicative_prefix(e)

    def test_index_bounds(self):
        u = word("01")
        with pytest.raises(IndexError):
            u[0]
        with pytest.raises(IndexError):
            u[3]

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BinaryWord.from_string("012")
        with pytest.raises(ValueError):
            BinaryWord.from_bits([0, 2])

    def test_prefix_and_equality(self):
        u = word("110100101")
        assert u.prefix(4) == word("1101")
        assert u.prefix(0) == BinaryWord.empty()
        assert hash(u.prefix(9)) == hash(u)

    def test_round_trip_through_the_array_view(self):
        # every word of length <= 12 and random words up to the 4096-symbol
        # oracle prefix; the numpy array view is the reference
        rng = random.Random(2024)
        strings = ["".join(map(str, bits)) for n in range(13) for bits in all_words(n)]
        strings += ["".join(rng.choice("01") for _ in range(rng.randint(0, 4096))) for _ in range(200)]
        for s in strings:
            u = BinaryWord.from_string(s)
            a = u.array.tolist()
            assert a == [int(c) for c in s]
            assert BinaryWord.from_array(u.array) == u
            assert str(u) == s and len(u) == len(a)
            assert [u[k] for k in range(1, len(s) + 1)] == a
            assert u.count_ones() == sum(a)

    @pytest.mark.parametrize("s", ["0_1", " 01", "01 ", "+01", "0b1", "-1", "\u0661"])
    def test_string_rejects_what_int_would_parse(self, s):
        with pytest.raises(ValueError):
            BinaryWord.from_string(s)

    def test_scalar_ops_match_the_array_view(self):
        # the word operations read str(word); the numpy view that the batch
        # kernels use is the reference
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(0, 300)
            u = BinaryWord.from_bits([rng.randint(0, 1) for _ in range(n)])
            a = u.array.tolist()
            assert [u[k] for k in range(1, n + 1)] == list(u) == a
            m = rng.randint(0, n)
            assert u.prefix(m) == BinaryWord.from_array(u.array[:m])
            assert is_golden_word(u) == (not (u.array[1:] & u.array[:-1]).any())
            assert is_multiplicative_prefix(u) == (not (u.array[: n // 2] & u.array[1::2]).any())
            for i, chain in chains_of(u).items():
                idx = [(i << t) - 1 for t in range(len(chain))]
                assert chain == BinaryWord.from_array(u.array[idx])

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65])
    def test_packing_boundary_lengths(self, n):
        rng = random.Random(n)
        bits = [rng.randint(0, 1) for _ in range(n)]
        u = BinaryWord.from_bits(bits)
        assert list(u) == bits
        assert u.count_ones() == sum(bits)

    @pytest.mark.parametrize("s", ["", "0", "0101", "0110" * 40])
    def test_copy_and_pickle_round_trip(self, s):
        # a tuple record rebuilds from __getnewargs__, which would read the word through __iter__
        u = BinaryWord(s)
        for twin in (copy.copy(u), copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
            assert type(twin) is BinaryWord and twin == u and twin.symbols == s


class TestAdmissibility:
    @pytest.mark.parametrize(
        "s,expected", [("101", True), ("110", False), ("", True), ("0", True), ("1", True)]
    )
    def test_golden_examples(self, s, expected):
        assert is_golden_word(word(s)) is expected

    @pytest.mark.parametrize(
        "s,expected", [("110", False), ("101", True), ("0111", False), ("1", True)]
    )
    def test_multiplicative_examples(self, s, expected):
        assert is_multiplicative_prefix(word(s)) is expected

    @pytest.mark.parametrize("n", range(13))
    def test_multiplicative_matches_brute_force(self, n):
        for bits in all_words(n):
            assert is_multiplicative_prefix(BinaryWord.from_bits(bits)) == brute_is_multiplicative(bits)

    @pytest.mark.parametrize("n", range(13))
    def test_golden_matches_brute_force(self, n):
        for bits in all_words(n):
            assert is_golden_word(BinaryWord.from_bits(bits)) == brute_is_golden(bits)

    def test_multiplicative_iff_every_chain_golden(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 64)
            u = BinaryWord.from_bits([rng.randint(0, 1) for _ in range(n)])
            chains_ok = all(brute_is_golden(list(chain)) for chain in chains_of(u).values())
            assert is_multiplicative_prefix(u) == chains_ok


class TestChains:
    def test_restriction_examples(self):
        assert str(chains_of(word("010011"))[3]) == "01"
        assert str(chains_of(word("010010"))[3]) == "00"
        assert str(chains_of(word("0100"))[1]) == "010"
        # boundary chain: i = n odd picks the single symbol u_n
        assert str(chains_of(word("00001"))[5]) == "1"

    @pytest.mark.parametrize("n,i,k", [(6, 3, 2), (6, 5, 1), (8, 1, 4), (1, 1, 1), (7, 7, 1)])
    def test_chain_length_examples(self, n, i, k):
        assert partition(n)[i] == k

    def test_chain_length_matches_log_formula(self):
        rng = random.Random(3)
        for n in [*range(1, 257), *(rng.randint(257, 10**5) for _ in range(5))]:
            for i, k in partition(n).items():
                assert 2 ** (k - 1) * i <= n < 2**k * i

    def test_chain_length_power_of_two_boundaries(self):
        # exactness at powers of two: i * 2^(k-1) == n must count position n
        assert partition(8)[1] == 4
        assert partition(16)[1] == 5
        assert partition(12)[3] == 3

    @pytest.mark.parametrize("n,expected", [(3, {1: 2, 3: 1}), (6, {1: 3, 3: 2, 5: 1}), (1, {1: 1})])
    def test_partition_examples(self, n, expected):
        assert partition(n) == expected

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000, 4097, 10**6])
    def test_partition_covers_everything(self, n):
        part = partition(n)
        assert set(part) == set(range(1, n + 1, 2))
        assert sum(part.values()) == n

    @pytest.mark.parametrize("n", [1, 5, 16, 100, 2**20])
    def test_length_counts_agree_with_partition(self, n):
        counts = chain_length_counts(n)
        assert sum(k * c for k, c in counts.items()) == n
        if n <= 10**4:
            from collections import Counter

            assert counts == dict(Counter(partition(n).values()))

    def test_chains_reaching_is_a_brute_count(self):
        import numpy as np

        # level t holds the odd i with i 2^t <= n
        for n in [*range(1, 513), 2**20 - 1, 2**20, 2**20 + 1]:
            odd = np.arange(1, n + 1, 2, dtype=np.int64)
            brute = [int(np.count_nonzero(odd << t <= n)) for t in range(n.bit_length())]
            assert chains_reaching(n) == brute, n
            assert brute[-1] == 1 and int(np.count_nonzero(odd << n.bit_length() <= n)) == 0
        with pytest.raises(ValueError, match="prefix length must be positive"):
            chains_reaching(0)

    def test_chain_classes_is_a_brute_count(self):
        # and chain_length_counts is its marginal, k ascending
        for n in [*range(1, 301), 2**20 - 1, 2**20, 2**20 + 1]:
            classes = chain_classes(n)
            assert classes == brute_chain_classes(n), n
            assert list(classes) == sorted(classes), n
            marginal: dict[int, int] = {}
            for (_, k), count in sorted(classes.items(), key=lambda kv: kv[0][1]):
                marginal[k] = marginal.get(k, 0) + count
            assert list(chain_length_counts(n).items()) == list(marginal.items()), n

    def test_block_of(self):
        assert [block_of(i) for i in (1, 3, 5, 7, 9, 15, 17)] == [0, 1, 2, 2, 3, 3, 4]
        with pytest.raises(ValueError):
            block_of(4)


class TestCounting:
    def test_fibonacci_convention(self):
        assert [fibonacci(k) for k in range(1, 8)] == [1, 2, 3, 5, 8, 13, 21]
        for k in range(3, 90):
            assert fibonacci(k) == fibonacci(k - 1) + fibonacci(k - 2)

    @pytest.mark.parametrize("k,expected", [(1, 2), (2, 3), (3, 5)])
    def test_golden_count_examples(self, k, expected):
        assert fibonacci(k + 1) == expected

    @pytest.mark.parametrize("k", range(1, 21))
    def test_golden_count_matches_brute_force(self, k):
        assert fibonacci(k + 1) == brute_count_golden(k)

    @pytest.mark.parametrize("k", range(0, 15))
    def test_golden_enumeration_matches_count(self, k):
        words = list(iter_golden_words(k))
        assert len(words) == (1 if k == 0 else fibonacci(k + 1))
        assert len(set(map(str, words))) == len(words)
        assert all(is_golden_word(w) for w in words)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_enumerations_are_the_lexicographic_filters(self, n):
        words = [BinaryWord.from_bits(bits) for bits in all_words(n)]
        assert list(iter_golden_words(n)) == [w for w in words if brute_is_golden(list(w))]
        assert list(iter_multiplicative_prefixes(n)) == [
            w for w in words if brute_is_multiplicative(list(w))]

    @pytest.mark.parametrize("n,expected", [(1, 2), (3, 6), (4, 10)])
    def test_cylinder_count_examples(self, n, expected):
        assert count_cylinders(n) == expected

    @pytest.mark.parametrize("n", range(1, 21))
    def test_cylinder_count_matches_brute_force(self, n):
        assert count_cylinders(n) == brute_count_multiplicative(n)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_cylinder_enumeration_matches_count(self, n):
        words = list(iter_multiplicative_prefixes(n))
        assert len(words) == count_cylinders(n)
        assert all(is_multiplicative_prefix(w) for w in words)
        assert len(set(map(str, words))) == len(words)

    @pytest.mark.parametrize("n", [1, 7, 1000, 1024, 2**20 + 1])
    def test_log2_count_adds_left_to_right(self, n):
        # builtin sum() compensates from Python 3.12 on; this loop is the order on every version
        total = 0.0
        for k, c in sorted(chain_length_counts(n).items()):
            total += c * math.log2(fibonacci(k + 1))
        assert log2_count_cylinders(n) == total

    def test_big_counts_are_exact_integers(self):
        c = count_cylinders(2**20)
        assert c > 2**63  # overflows any fixed-width integer
        assert abs(log2_count_cylinders(2**20) - math.log2(c)) < 1e-9

    def test_log2_companion(self):
        for n in (1, 2, 10, 100, 4096):
            assert abs(log2_count_cylinders(n) - math.log2(count_cylinders(n))) < 1e-10
