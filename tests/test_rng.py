"""Counter-based stream: determinism, scalar/vector agreement, stability."""

import warnings

import numpy as np

from mgms.rng import RandomStream, key_of, mix64, uniform_grid, unit_double, fold


def test_uniforms_in_unit_interval():
    s = RandomStream(123, 0, 7)
    vals = [s.uniform(t) for t in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(sum(vals) / len(vals) - 0.5) < 0.05


def test_determinism_and_key_sensitivity():
    a = RandomStream(1, 0, 3).uniform(5)
    assert a == RandomStream(1, 0, 3).uniform(5)
    assert a != RandomStream(1, 0, 5).uniform(5)
    assert a != RandomStream(2, 0, 3).uniform(5)
    assert a != RandomStream(1, 0, 3).uniform(6)


def test_substream_matches_flat_key():
    base = RandomStream(9, 1)
    assert base.substream(11).uniform(2) == RandomStream(9, 1, 11).uniform(2)


def test_vector_grid_matches_scalar():
    trials = np.array([0, 1, 17], dtype=np.uint64)
    chains = np.array([1, 3, 999], dtype=np.int64)
    for pos in (0, 5, 2**40 + 3):
        grid = uniform_grid(42, trials, chains, pos)
        for a, tr in enumerate(trials):
            for b, ch in enumerate(chains):
                assert grid[a, b] == RandomStream(42, int(tr), int(ch)).uniform(pos)


def test_stream_values_are_frozen():
    # regression pins: any change to the mixing arithmetic breaks replay
    assert mix64(0) == 16294208416658607535
    assert fold(0, 1) == 3246858695411730098
    assert RandomStream(1, 0, 3).uniform(0) == 0.5757975972827197
    assert RandomStream(2026, 5, 101).uniform(9) == 0.3333960347509588


def test_key_of_composes_folds():
    assert key_of(4, 5, 6) == fold(fold(fold(0, 4), 5), 6)
    assert unit_double(2**64 - 1) < 1.0


def test_grid_leaves_its_inputs_alone_and_warns_nothing():
    trials = np.array([0, 5, 2**63 + 1], dtype=np.uint64)
    chains = np.array([1, 7, 2**40 + 1], dtype=np.uint64)
    before = (trials.copy(), chains.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = uniform_grid(2026, trials, chains, 2**40 + 3)
    assert np.array_equal(trials, before[0]) and np.array_equal(chains, before[1])
    assert grid[1, 2] == RandomStream(2026, 5, 2**40 + 1).uniform(2**40 + 3)
