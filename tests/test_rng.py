"""Counter-based stream: determinism, scalar/vector agreement, stability."""

import math
import random
import warnings

import numpy as np
import pytest

from mgms.measures import BlockAssignment
from mgms.rng import chain_keys, fold, fold_lanes, mix64, pack_lanes, threshold, uniform_grid


# The scalar stream composes fold in Python ints: the key of (seed, trial, chain) is
# fold(fold(fold(0, seed), trial), chain), and its uniform at pos is
# (fold(key, pos) >> 11) * 2**-53, the top 53 bits of one more fold.


def test_uniforms_in_unit_interval():
    key = fold(fold(fold(0, 123), 0), 7)
    vals = [(fold(key, t) >> 11) * 2.0**-53 for t in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(sum(vals) / len(vals) - 0.5) < 0.05


def test_determinism_and_key_sensitivity():
    def draw(seed, chain, pos):
        return fold(fold(fold(fold(0, seed), 0), chain), pos) >> 11

    a = draw(1, 3, 5)
    assert a == draw(1, 3, 5)
    assert a != draw(1, 5, 5)
    assert a != draw(2, 3, 5)
    assert a != draw(1, 3, 6)


def test_vector_grid_matches_scalar():
    trials = np.array([0, 1, 17], dtype=np.uint64)
    chains = np.array([1, 3, 999], dtype=np.int64)
    keys = chain_keys(42, trials, chains)
    assert keys.dtype == np.uint64 and keys.shape == (3, 3)
    scalar = [[fold(fold(fold(0, 42), int(tr)), int(ch)) for ch in chains] for tr in trials]
    assert keys.tolist() == scalar
    for pos in (0, 5, 2**40 + 3):
        grid = uniform_grid(keys, pos)
        assert grid.dtype == np.uint64 and grid.shape == keys.shape
        assert grid.tolist() == [[fold(key, pos) >> 11 for key in row] for row in scalar]
        assert int(grid.max()) < 2**53
    assert np.array_equal(grid * 2.0**-53, [[(fold(key, 2**40 + 3) >> 11) * 2.0**-53 for key in row]
                                             for row in scalar])


def _unpack(packed, count):
    return [(packed >> (128 * k)) & (2**128 - 1) for k in range(count)]


def test_lanes_fold_as_the_scalar_does():
    # the extremes of each half of a lane: carries, products and shifts must stay in their lane
    rng = random.Random(3)
    hs = [0, 1, 2**63, 2**64 - 1] + [rng.getrandbits(64) for _ in range(60)]
    vs = [2**64 - 1, 0, 7, 2**63 + 5] + [rng.getrandbits(64) for _ in range(60)]
    ones = pack_lanes([1] * len(hs))
    assert _unpack(ones, len(hs)) == [1] * len(hs)
    assert _unpack(pack_lanes(hs), len(hs)) == hs
    assert _unpack(fold_lanes(pack_lanes(hs), pack_lanes(vs), ones), len(hs)) == list(map(fold, hs, vs))
    key = fold(0, 2026)
    assert _unpack(fold_lanes(key * ones, 9 * ones, ones), len(hs)) == [fold(key, 9)] * len(hs)
    assert fold_lanes(0, 0, pack_lanes([])) == 0


def test_stream_values_are_frozen():
    # regression pins: any change to the mixing arithmetic breaks replay
    assert mix64(0) == 16294208416658607535
    assert fold(0, 1) == 3246858695411730098
    assert (fold(fold(fold(fold(0, 1), 0), 3), 0) >> 11) * 2.0**-53 == 0.5757975972827197
    assert (fold(fold(fold(fold(0, 2026), 5), 101), 9) >> 11) * 2.0**-53 == 0.3333960347509588


def test_fold_reads_components_modulo_2_64():
    # a negative or oversized seed folds as its residue, and the top draw stays below 1
    assert fold(0, -7) == fold(0, 2**64 - 7) and fold(0, 2**64 + 3) == fold(0, 3)
    assert int(chain_keys(-7, np.array([0]), np.array([1]))[0, 0]) == fold(fold(fold(0, -7), 0), 1)
    assert ((2**64 - 1) >> 11) * 2.0**-53 < 1.0


def test_grid_leaves_its_inputs_alone_and_warns_nothing():
    trials = np.array([0, 5, 2**63 + 1], dtype=np.uint64)
    chains = np.array([1, 7, 2**40 + 1], dtype=np.uint64)
    before = (trials.copy(), chains.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keys = chain_keys(2026, trials, chains)
        kept = keys.copy()
        grid = uniform_grid(keys, 2**40 + 3)
        uniform_grid(keys[:, :2], 7)  # a column prefix, as the samplers pass it
    assert np.array_equal(trials, before[0]) and np.array_equal(chains, before[1])
    assert np.array_equal(keys, kept)
    assert int(grid[1, 2]) == fold(fold(fold(fold(0, 2026), 5), 2**40 + 1), 2**40 + 3) >> 11


# probabilities the samplers compare against: 1/2 (Rademacher), 1 - p and
# the one-probabilities 1 - (p + delta/b) of the perturbed blocks
_P = BlockAssignment().p
_QS = [0.5, 1.0 - _P] + [1.0 - (_P + 0.05 / b) for b in (1, 2, 3, 7, 64)]


@pytest.mark.parametrize("q", _QS + [0.0, 1.0, 2.0**-53, 3 * 2.0**-53, 1.0 - 2.0**-53, 0.25 + 2.0**-50]
                         + [float(np.nextafter(x, d)) for x in (0.5, 2.0**-53, 0.25 + 2.0**-50, 1.0 - _P)
                            for d in (0.0, 1.0)])
def test_threshold_is_the_exact_float_compare(q):
    K = int(threshold(q))
    assert K == math.ceil(q * 2**53) and 0 <= K <= 2**53
    for k in range(max(0, K - 2), min(2**53, K + 2)):
        assert (k < threshold(q)) == (k * 2**-53 < q)
        assert bool(np.array([k], dtype=np.uint64) < threshold(q)) == (k * 2**-53 < q)


def test_threshold_splits_sampled_numerators_like_the_float_compare():
    grid = uniform_grid(chain_keys(7, np.arange(64, dtype=np.uint64), np.arange(1, 257, 2)), 3)
    for q in _QS:
        assert np.array_equal(grid < threshold(q), grid * 2.0**-53 < q)


@pytest.mark.parametrize("q", [float("nan"), -0.0 - 2.0**-60, -1.0, 1.0 + 2.0**-52, float("inf")])
def test_threshold_rejects_non_probabilities(q):
    with pytest.raises(ValueError):
        threshold(q)
