"""Word combinatorics, chain decomposition, and exact counting."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mgms.core import (
    BinaryWord,
    assemble_from_chains,
    block_of,
    chain_length,
    chain_length_counts,
    chain_partition,
    count_cylinders,
    count_golden_words,
    fibonacci,
    is_golden_word,
    is_multiplicative_prefix,
    iter_golden_words,
    iter_multiplicative_prefixes,
    log2_count_cylinders,
    odd_indices_in,
    restrict_to_chain,
)

from conftest import (
    all_words,
    brute_count_golden,
    brute_count_multiplicative,
    brute_is_golden,
    brute_is_multiplicative,
    word,
)


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

    def test_packing_is_compact(self):
        u = BinaryWord.from_bits([1] * 1000)
        assert len(u.packed) == 125

    def test_string_packing_matches_numpy_on_short_words(self):
        for n in range(13):
            for bits in all_words(n):
                self.check_string_packing("".join(map(str, bits)))

    def test_string_packing_matches_numpy_on_random_words(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(0, 4096)
            self.check_string_packing("".join(rng.choice("01") for _ in range(n)))

    @staticmethod
    def check_string_packing(s: str):
        # from_string packs in pure Python; np.packbits and from_bits are the references
        u = BinaryWord.from_string(s)
        assert u.packed == np.packbits(np.array([int(c) for c in s], dtype=np.uint8)).tobytes()
        assert str(u) == s
        assert u == BinaryWord.from_bits(int(c) for c in s)

    @pytest.mark.parametrize("s", ["0_1", " 01", "01 ", "+01", "0b1", "-1", "\u0661"])
    def test_string_rejects_what_int_would_parse(self, s):
        with pytest.raises(ValueError):
            BinaryWord.from_string(s)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65])
    def test_packing_boundary_lengths(self, n):
        rng = random.Random(n)
        bits = [rng.randint(0, 1) for _ in range(n)]
        u = BinaryWord.from_bits(bits)
        assert list(u) == bits
        assert u.count_ones() == sum(bits)


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
            chains_ok = all(
                is_golden_word(restrict_to_chain(u, i)) for i in range(1, n + 1, 2)
            )
            assert is_multiplicative_prefix(u) == chains_ok


class TestChains:
    def test_restriction_examples(self):
        assert str(restrict_to_chain(word("010011"), 3)) == "01"
        assert str(restrict_to_chain(word("010010"), 3)) == "00"
        assert str(restrict_to_chain(word("0100"), 1)) == "010"
        # boundary chain: i = n odd picks the single symbol u_n
        assert str(restrict_to_chain(word("00001"), 5)) == "1"

    def test_restriction_errors(self):
        with pytest.raises(ValueError):
            restrict_to_chain(word("0101"), 5)
        with pytest.raises(ValueError):
            restrict_to_chain(word("0101"), 2)

    @pytest.mark.parametrize("n,i,k", [(6, 3, 2), (6, 5, 1), (8, 1, 4), (1, 1, 1), (7, 7, 1)])
    def test_chain_length_examples(self, n, i, k):
        assert chain_length(n, i) == k

    def test_chain_length_matches_log_formula(self):
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randint(1, 10**9)
            i = rng.randrange(1, n + 1, 2)
            k = chain_length(n, i)
            assert 2 ** (k - 1) * i <= n < 2**k * i

    def test_chain_length_power_of_two_boundaries(self):
        # exactness at powers of two: i * 2^(k-1) == n must count position n
        assert chain_length(8, 1) == 4
        assert chain_length(16, 1) == 5
        assert chain_length(12, 3) == 3

    def test_chain_length_errors(self):
        with pytest.raises(ValueError):
            chain_length(4, 5)
        with pytest.raises(ValueError):
            chain_length(6, 4)

    @pytest.mark.parametrize(
        "a,b,expected", [(1.5, 3, [3]), (3, 6, [5]), (0.75, 1.5, [1]), (0, 10, [1, 3, 5, 7, 9])]
    )
    def test_odd_indices_examples(self, a, b, expected):
        assert odd_indices_in(a, b) == expected

    def test_odd_indices_validation(self):
        with pytest.raises(ValueError):
            odd_indices_in(3, 3)
        with pytest.raises(ValueError):
            odd_indices_in(-1, 2)

    def test_odd_count_differs_from_half_length_by_at_most_one(self):
        rng = random.Random(11)
        for _ in range(1000):
            a = Fraction(rng.randint(0, 4000), rng.randint(1, 64))
            b = a + Fraction(rng.randint(1, 4000), rng.randint(1, 64))
            count = len(odd_indices_in(a, b))
            assert abs(count - float(b - a) / 2) <= 1

    @pytest.mark.parametrize("n,expected", [(3, {1: 2, 3: 1}), (6, {1: 3, 3: 2, 5: 1}), (1, {1: 1})])
    def test_partition_examples(self, n, expected):
        assert chain_partition(n) == expected

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000, 4097, 10**6])
    def test_partition_covers_everything(self, n):
        part = chain_partition(n)
        assert set(part) == set(range(1, n + 1, 2))
        assert sum(part.values()) == n

    @pytest.mark.parametrize("n", [1, 5, 16, 100, 2**20])
    def test_length_counts_agree_with_partition(self, n):
        counts = chain_length_counts(n)
        assert sum(k * c for k, c in counts.items()) == n
        if n <= 10**4:
            from collections import Counter

            assert counts == dict(Counter(chain_partition(n).values()))

    def test_block_of(self):
        assert [block_of(i) for i in (1, 3, 5, 7, 9, 15, 17)] == [0, 1, 2, 2, 3, 3, 4]
        with pytest.raises(ValueError):
            block_of(4)

    def test_reassembling_chains_reconstructs_word(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 200)
            u = BinaryWord.from_bits([rng.randint(0, 1) for _ in range(n)])
            chains = {i: restrict_to_chain(u, i) for i in range(1, n + 1, 2)}
            assert assemble_from_chains(n, chains) == u


class TestCounting:
    def test_fibonacci_convention(self):
        assert [fibonacci(k) for k in range(1, 8)] == [1, 2, 3, 5, 8, 13, 21]
        for k in range(3, 90):
            assert fibonacci(k) == fibonacci(k - 1) + fibonacci(k - 2)

    @pytest.mark.parametrize("k,expected", [(1, 2), (2, 3), (3, 5)])
    def test_golden_count_examples(self, k, expected):
        assert count_golden_words(k) == expected

    @pytest.mark.parametrize("k", range(1, 21))
    def test_golden_count_matches_brute_force(self, k):
        assert count_golden_words(k) == brute_count_golden(k)

    @pytest.mark.parametrize("k", range(0, 15))
    def test_golden_enumeration_matches_count(self, k):
        words = list(iter_golden_words(k))
        assert len(words) == (1 if k == 0 else count_golden_words(k))
        assert len(set(map(str, words))) == len(words)
        assert all(is_golden_word(w) for w in words)

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

    def test_big_counts_are_exact_integers(self):
        c = count_cylinders(2**20)
        assert c > 2**63  # overflows any fixed-width integer
        assert abs(log2_count_cylinders(2**20) - math.log2(c)) < 1e-9

    def test_log2_companion(self):
        for n in (1, 2, 10, 100, 4096):
            assert abs(log2_count_cylinders(n) - math.log2(count_cylinders(n))) < 1e-10
