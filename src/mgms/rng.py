"""Counter-based random streams for reproducible, chain-parallel sampling.

Every uniform draw is a pure function of an integer key tuple, typically
(seed, trial, chain index, position). There is no generator state, so

  * substreams keyed by different chains are independent and may be
    consumed in any schedule (parallel or serial) with identical results,
  * extending a word keeps all previously drawn positions fixed,
  * the stream is stable across platforms and library versions (pure
    64-bit integer arithmetic, SplitMix64 finalizer).

The key of a substream is fold(fold(fold(0, seed), trial), chain), and
its uniform at a position is (fold(key, pos) >> 11) 2^-53, the top 53
bits of one more fold.  `threshold(q)` turns a probability into the
integer K = ceil(q 2^53), with k < K exactly when k 2^-53 < q, so a draw
is one fold and one integer compare.  The scalar half imports no numpy:
`mix64`, `fold`, `threshold`, and the packed form that
`measures.sample_point` runs on, in which `fold_lanes` folds every lane
of a Python int (`pack_lanes`) at once with exact big-int arithmetic.

Only `measures._chain_walk` calls the vectorized twins, which split the
folds that the walk reuses: `chain_keys` folds (seed, trial, chain) once
per chain, and `uniform_grid` folds in one position with one mix and
returns the 53-bit numerators k of the uniforms k 2^-53 rather than the
doubles.  They import numpy on their first call, which binds its uint64
constants in this module, so later calls pay one `None` test for it.
Tests pin the two paths against each other and against frozen reference
values.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SPREAD = 0xD1B54A32D192ED03
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def fold(h: int, v: int) -> int:
    """Absorb one key component, a Python int read modulo 2^64, into a 64-bit hash."""
    return mix64(h ^ ((v * _SPREAD) & _MASK))


def threshold(q: float) -> int:
    """The integer K = ceil(q 2^53), so that a 53-bit numerator k (of
    `uniform_grid`, or fold(key, pos) >> 11) has k < K exactly when
    k * 2**-53 < q.

    Exact: q 2^53 is q scaled by a power of two, and for an integer k,
    k < ceil(x) holds exactly when k < x.
    """
    q = float(q)
    if not 0.0 <= q <= 1.0:  # NaN fails too
        raise ValueError(f"probability must lie in [0, 1], got {q}")
    return math.ceil(q * 2.0**53)


# packed lanes ------------------------------------------------------------


def pack_lanes(values: Sequence[int]) -> int:
    """Values below 2^64 in one Python int, value k in bits 128k..128k+63 (lane k).

    A lane spans 128 bits, so the product of a lane value with a 64-bit
    constant stays inside its lane.
    """
    words = array("Q", values)  # 8-byte items
    if sys.byteorder == "big":
        words.byteswap()
    lanes = array("Q", bytes(16 * len(words)))
    lanes[::2] = words
    return int.from_bytes(lanes, "little")


def fold_lanes(h: int, v: int, ones: int) -> int:
    """fold(h_k, v_k) in every lane k of the packed h and v (values below 2^64).

    `ones` is pack_lanes([1] * count) for the count of lanes, so c * ones
    packs c into every lane.
    Each step of mix64 is one big-int operation on all lanes at once: no sum
    or product leaves its lane, and the bits a right shift moves down from
    the next lane land above bit 64, where the mask clears them before the
    next multiplication.
    """
    mask = (ones << 64) - ones
    z = ((h ^ ((v * _SPREAD) & mask)) + _GOLDEN * ones) & mask
    z = (((z ^ (z >> 30)) & mask) * _MIX1) & mask
    z = (((z ^ (z >> 27)) & mask) * _MIX2) & mask
    return (z ^ (z >> 31)) & mask


# vectorized folds --------------------------------------------------------

# numpy's uint64 and the constants as its scalars, bound by _load_numpy on the first vector call
_U = _NP_GOLDEN = _NP_SPREAD = _NP_MIX1 = _NP_MIX2 = None


def _load_numpy() -> None:
    global _U, _NP_GOLDEN, _NP_SPREAD, _NP_MIX1, _NP_MIX2
    import numpy as np

    _U = np.uint64
    _NP_GOLDEN, _NP_SPREAD, _NP_MIX1, _NP_MIX2 = map(_U, (_GOLDEN, _SPREAD, _MIX1, _MIX2))


def _np_mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer in place on a uint64 array; returns z."""
    z += _NP_GOLDEN
    z ^= z >> _U(30)
    z *= _NP_MIX1
    z ^= z >> _U(27)
    z *= _NP_MIX2
    z ^= z >> _U(31)
    return z


def chain_keys(seed: int, trials: np.ndarray, chains: np.ndarray) -> np.ndarray:
    """Substream keys of the (trial, chain) grid, as a fresh uint64 array.

    Returns shape (len(trials), len(chains)); the (a, b) entry equals
    fold(fold(fold(0, seed), trials[a]), chains[b]).  `trials` and
    `chains` are never written.
    """
    if _U is None:
        _load_numpy()
    h0 = fold(0, seed & _MASK)  # scalar folds in exact Python ints
    ht = trials.astype(_U)  # a fresh copy, mixed in place
    ht *= _NP_SPREAD
    ht ^= _U(h0)
    _np_mix64(ht)  # (T,)
    hc = ht[:, None] ^ (chains.astype(_U) * _NP_SPREAD)[None, :]
    return _np_mix64(hc)  # (T, C)


def uniform_grid(keys: np.ndarray, pos: int) -> np.ndarray:
    """53-bit numerators of the uniforms at one position of keyed substreams.

    Returns a fresh uint64 array k of the shape of `keys` (as `chain_keys`
    builds them) with k equal to fold(key, pos) >> 11, so the uniform of
    each substream at pos is k * 2**-53.  One mix per entry; `keys` is
    never written.
    """
    if _U is None:
        _load_numpy()
    h = keys ^ _U((int(pos) * _SPREAD) & _MASK)  # the position fold in Python ints: no overflow warning
    _np_mix64(h)
    h >>= _U(11)
    return h
