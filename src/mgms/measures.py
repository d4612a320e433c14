"""Log-domain measures on golden and multiplicative cylinders, plus sampling.

The golden Markov measure with parameter r has initial law (r, 1-r) and
transitions 0 -> {0 w.p. r, 1 w.p. 1-r}, 1 -> 0 w.p. 1, so a cylinder mass
factors symbol-by-symbol: every log2 mass here sums prices from one table,
`golden_costs(r)` at 2 pred + x, where a free 0 costs log2 r, a 1 log2(1-r),
a 0 forced by a 1 nothing and the pair 11 -inf.  No price is +inf, so -inf
stays in every later sum: the table is the only forbidden-pair path of the
scalar walk and of telescope's passes alike.  Product measures on
multiplicative cylinders assign an independent Markov law to every chain
J(i); the block-perturbed variant uses parameter p + delta/b on chains
starting in dyadic block b >= 1 (block 0 keeps p), which is the
Kolmogorov-consistent reading of the perturbation.  That schedule is the only one: `BlockAssignment` holds
p and delta, and P_mu is its delta = 0 case.

All probability arithmetic is base-2 logarithmic with an exact zero
sentinel: typical cylinder masses near 2^(-0.81 n) would underflow doubles
around n ~ 1300.

Sampling is deterministic: every symbol is a pure function of
(seed, trial, chain index, position along the chain), so words extend
monotonically in n and chain-parallel evaluation is schedule-independent.
`sample_point` is the scalar sampler: it draws a few thousand chains at
once, each in one lane of a Python int (`rng.fold_lanes`), and compares
every lane with the integer threshold of its block in one subtraction.
It shares no numpy code with the batch path it is checked against, and
imports no numpy; tests check it against a chain-by-chain loop.

Every Monte Carlo draw runs on one keyed walk, `_chain_walk`: per block of
rows (trials) by chains it folds each chain's key once, then draws level
by level, a 1 only after a 0, bit-for-bit as `sample_point`; a draw is one
mix and one integer compare against an exact threshold.  Its blocks hold
chains that reach the same levels: the walk cuts the chain range where the
depth changes, and the few deep chains share one head block of every row,
so each level is drawn in a few large calls (68 for 4096 prefixes of
length 1024, where blocks of 129 rows by all 512 chains took 352).
`sample_bits_batch` writes level t of chain J(i) to position i 2^t, and
`experiments` adds its deviation sums, and the per-block one counts that
trajectory log-masses come from, up from the levels with no bits array.
A sampled word's log-masses are priced where they are read: `telescoping`
adds the prices of its one row in position order.  The walk works in
blocks of at most `_CHUNK` cells, so temporaries stay in cache whatever n
is.  Every lookup through an index array is one `ndarray.take`, which
gathers a block in about a third of the time of `table[idx]`, and a forced
zero is one `np.greater` in place.  There is one scalar walk, `_walk`,
over a list of symbols: `markov_cylinder_logprob` runs it on a word and
`chain_breakdown` on each chain restriction, whose masses `pdelta_logprob`
sums.  They stay as the readable definitions that tests and benchmark
checks compare against.  The scalar walk reads a word through `str`, so it
runs without numpy, as does `sample_point`; the batch sampler and its walk
import numpy when they are called.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from .analytics import p_float
from .core import BinaryWord, block_of, chains_reaching

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LogProb",
    "MarkovParams",
    "BlockAssignment",
    "SampledPoint",
    "markov_cylinder_logprob",
    "pdelta_logprob",
    "chain_breakdown",
    "golden_costs",
    "sample_point",
    "sample_bits_batch",
    "zero_count_from_bits",
]


class LogProb(NamedTuple("LogProb", [("value", float)])):
    """Base-2 log probability; NEG_INFINITY is the exact zero sentinel."""

    __slots__ = ()

    def __new__(cls, value: float):
        if math.isnan(value) or value > 1e-12:
            raise ValueError(f"log2 probability must be <= 0, got {value}")
        return tuple.__new__(cls, (value,))

    @property
    def is_zero(self) -> bool:
        return self.value == float("-inf")

    def to_probability(self) -> float:
        return 0.0 if self.is_zero else 2.0**self.value


class MarkovParams(NamedTuple("MarkovParams", [("r", float)])):
    """Golden Markov measure parameter: initial law (r, 1-r), no 11 transition."""

    __slots__ = ()

    def __new__(cls, r: float):
        if not 0.0 < r < 1.0:
            raise ValueError(f"parameter must lie in (0,1), got {r}")
        return tuple.__new__(cls, (r,))


def golden_costs(r: float) -> tuple[float, float, float, float]:
    """log2 price of a symbol x after pred under parameter r, at index 2 pred + x.

    A free 0 costs log2 r and a 1 log2(1-r), a 0 forced by a 1 costs 0.0,
    and the pair 11 costs -inf.  math.log2: np.log2 can differ by an ulp.
    """
    return (math.log2(r), math.log2(1.0 - r), 0.0, -math.inf)


def _walk(r: float, symbols: Sequence[int]) -> float:
    """log2 golden Markov mass of a list of 0/1 symbols; -inf at a pair 11."""
    cost = golden_costs(r)
    total = 0.0
    prev = 0
    for sym in symbols:
        total += cost[2 * prev + sym]
        prev = sym
    return total


def markov_cylinder_logprob(params: MarkovParams, u: BinaryWord) -> LogProb:
    """log2 of the golden Markov mass of the cylinder [u].

    Equivalent closed form: (1-r)^(N1(u)) * r^(N0(u) - N1(u_1..u_{k-1})).
    Words containing 11 get the zero sentinel (legal input, zero mass).
    """
    return LogProb(_walk(params.r, list(map(int, str(u)))))


class BlockAssignment(NamedTuple("BlockAssignment", [("delta", float), ("p", float)])):
    """Per-dyadic-block chain parameters p_b: p_0 = p, p_b = p + delta/b (b >= 1).

    p defaults to p_float().
    """

    __slots__ = ()

    def __new__(cls, delta: float = 0.0, p: Optional[float] = None):
        if p is None:
            p = p_float()
        if not delta >= 0:  # NaN too
            raise ValueError(f"delta must be >= 0, got {delta}")
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must lie in (0,1), got {p}")
        if not p + delta < 1.0:
            raise ValueError(f"p + delta must stay below 1, got {p + delta}")
        return tuple.__new__(cls, (delta, p))

    def param(self, block: int) -> float:
        if block < 0:
            raise ValueError(f"block must be >= 0, got {block}")
        return self.p if block == 0 else self.p + self.delta / block

    def describe(self) -> dict:
        return {"measure": "P_mu" if self.delta == 0 else "P_delta", "p": self.p, "delta": self.delta}


def chain_breakdown(assign: BlockAssignment, u: BinaryWord) -> Iterator[tuple]:
    """(i, block, parameter, symbols, log2 mass) of each chain J(i) of u, i ascending.

    The symbols u_i u_{2i} u_{4i} ... weigh their golden Markov log2 mass
    under the parameter of block floor(log2 i), -inf at a pair 11.
    """
    n = len(u)
    word = list(map(int, str(u)))
    for i in range(1, n + 1, 2):
        b = block_of(i)
        r = assign.param(b)
        chain = [word[(i << t) - 1] for t in range((n // i).bit_length())]  # positions i 2^t <= n
        yield i, b, r, chain, _walk(r, chain)


def pdelta_logprob(assign: BlockAssignment, u: BinaryWord) -> LogProb:
    """log2 of the block-perturbed chain product measure mass of [u].

    Chain J(i) uses the Markov parameter of block floor(log2 i), so delta = 0
    gives P_mu; the zero sentinel appears exactly when u is not a
    multiplicative prefix.  Kolmogorov-consistent in |u| by construction
    (the parameter of a chain never changes as the word grows).
    """
    total = 0.0
    for *_, mass in chain_breakdown(assign, u):
        total += mass
        if total == -math.inf:  # a pair 11: zero mass whatever the later chains hold
            break
    return LogProb(total)


# -- sampling -------------------------------------------------------------------


class SampledPoint(NamedTuple):
    """A measure-typical prefix with its reproducibility key."""

    word: BinaryWord
    seed: int
    descriptor: tuple  # sorted (key, value) pairs of the measure description


# Chains that `sample_point` draws at once: packed ints of 64 KB.  A 2^16 word took
# 11.9 ms at 4096, 12.3 ms at 2048 and 12.9 ms at 1024 and 8192 (2-core Xeon).
_LANES = 4096
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def sample_point(assign: BlockAssignment, n: int, seed: int) -> SampledPoint:
    """Sample a multiplicative prefix of length n from the keyed streams of its chains.

    Chain J(i) has the key fold(fold(fold(0, seed), 0), i), trial 0 of the
    batch sampler.  Position i 2^t draws u = (fold(key, t) >> 11) 2^-53 and
    holds a 1 when u < 1 - p_b, b the block of i, and the chain's previous
    symbol is 0.  So extending n never resamples earlier symbols and the
    result is independent of chain evaluation order.

    Up to `_LANES` chains are drawn at once, one per lane of a Python int
    (`rng.fold_lanes`), a level at a time.  With F = fold(key, t) and
    K = threshold(1 - p_b), u < 1 - p_b exactly when F < K 2^11, that is
    when bit 64 of 2^64 + K 2^11 - 1 - F is set: one subtraction compares
    every lane.  Exact integer arithmetic, no numpy: the independent
    reference for `sample_bits_batch`.
    """
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    from .rng import fold, fold_lanes, pack_lanes, threshold

    trial_key = fold(fold(0, int(seed)), 0)  # int(): fold would overflow on a numpy integer
    active = chains_reaching(n)  # the chains 2c + 1 <= n / 2^t, at each level t
    # K 2^11 - 1 of each chain 2c + 1, c = 0, 1, ...: one chain in block 0, 2^(b-1) in block b >= 1
    limits = [(threshold(1.0 - assign.param(0)) << 11) - 1]
    for b in range(1, len(active)):
        limits += [(threshold(1.0 - assign.param(b)) << 11) - 1] * (1 << (b - 1))
    out = bytearray(b"0" * n)
    for c0 in range(0, active[0], _LANES):
        c1 = min(active[0], c0 + _LANES)
        ones = pack_lanes([1] * (c1 - c0))
        keys = fold_lanes(trial_key * ones, pack_lanes(range(2 * c0 + 1, 2 * c1, 2)), ones)
        tops = pack_lanes(limits[c0:c1]) + (ones << 64)
        prev = 0
        for t, reach in enumerate(active):
            m = min(c1, reach) - c0  # the chains of this block that reach level t
            if m <= 0:
                break
            low = (1 << (128 * m)) - 1
            keys, tops, ones = keys & low, tops & low, ones & low
            one = ((tops - fold_lanes(keys, t * ones, ones)) >> 64) & ones & ~prev  # a 1 forces a 0
            start = ((2 * c0 + 1) << t) - 1  # position (2 c0 + 1) 2^t, 0-based, then every 2^(t+1)
            symbols = one.to_bytes(16 * m, "little")[::16]  # the low byte of each lane
            out[start : start + (m << (t + 1)) : 2 << t] = symbols.translate(_DIGITS)
            prev = one
    word = BinaryWord(out.decode())
    return SampledPoint(word=word, seed=seed, descriptor=tuple(sorted(assign.describe().items())))


# -- vectorized twin (experiments engine) ----------------------------------------


# Cells per temporary array of the chain walk and of the telescope's price
# sums (about 512 KB of float64), so no call allocates and frees megabytes of
# heap that the next one faults back in.  Not 2^16 itself: there a 2^20
# trajectory took 0.013 to 0.0165 s per call from one fresh process to the
# next, as the import history fell, with no page faults either way; at 2^15,
# 2^16 - 4096, -512, -256, -64, +64 and +512 every process read 0.0125 to
# 0.0130 s (2-core Xeon).  Above 2^16, the 4096-trial chunks of the deviation
# checks split into as many blocks as at 2^16.
_CHUNK = (1 << 16) + 512


@lru_cache(maxsize=4)
def _chain_blocks(n: int) -> np.ndarray:
    """Dyadic block floor(log2 i) of each chain J(i), i = 2c + 1 <= n, at index c, as uint8:
    chain 1 in block 0, then the 2^(b-1) chains 2^b..2^(b+1) - 1 of each block b >= 1."""
    import numpy as np

    count = (int(n) + 1) // 2
    edges = [min((1 << b) >> 1, count) for b in range(int(n).bit_length() + 1)]  # first chain c of block b
    block = np.repeat(np.arange(len(edges) - 1, dtype=np.uint8), np.diff(edges))
    block.flags.writeable = False
    return block


def _chain_walk(seed: int, trials: np.ndarray, chains: range, below: np.ndarray, group: np.ndarray,
                active: Sequence[int], width: int | None = None) -> Iterator[tuple]:
    """The keyed golden chain walk of every sampler, in blocks of at most _CHUNK
    cells: rows (trials) by up to `width` chains (default _CHUNK).

    Chain c of row r is keyed fold(fold(fold(0, seed), trials[r]), chains[c]);
    the first active[t] chains (non-increasing in t) reach level t, where a
    chain holds a 1 when uniform_grid(key, t) < below[group[c]] after a 0 (a
    table and an index per chain, so no n thresholds are stored).  Yields
    (rows, a, levels) per block, in order along each row: its row slice, its
    first chain a and one bool array (rows, m) per level, for chains a..a+m-1.

    The chain range is cut at every active count above _CHUNK // rows, so the
    chains of one piece reach the same levels and a deep level is drawn for
    all rows of a piece at once rather than once per row block.  When some
    chains below that count stop early, those first _CHUNK // rows chains
    form one head block of all rows and all levels.  A walk of constant
    depth is one piece, blocked as rows by `width` chains.
    """
    import numpy as np

    from .rng import chain_keys, uniform_grid

    fit = _CHUNK // max(len(trials), 1)  # chains per block of every row
    head = min(fit, len(chains)) if min(active) < fit else 0
    ends = sorted({head, *(c for c in active if c > head), len(chains)} - {0})
    for lo, hi in zip([0, *ends], ends):
        cols = min(hi - lo, _CHUNK, width or _CHUNK)  # chains per block
        height = _CHUNK // cols  # rows per block
        for r0 in range(0, len(trials), height):
            rows = slice(r0, r0 + height)
            for a in range(lo, hi, cols):
                part = chains[a : min(a + cols, hi)]
                keys = chain_keys(seed, trials[rows], np.arange(part.start, part.stop, part.step))
                thresholds = below.take(group[a : a + len(part)])
                levels = []
                for t, m in enumerate(min(len(part), reach - a) for reach in active if reach > a):
                    one = uniform_grid(keys[:, :m], t) < thresholds[:m]
                    if t:  # a 1 at the previous level forces a 0: one > prev is one & ~prev
                        np.greater(one, levels[-1][:, :m], out=one)
                    levels.append(one)
                yield rows, a, levels


def sample_bits_batch(
    assign: BlockAssignment, n: int, seed: int, trials: np.ndarray
) -> np.ndarray:
    """Sample len(trials) independent prefixes of length n at once.

    Returns a uint8 array of shape (len(trials), n+1); column m holds
    symbol x_m (column 0 is padding).  Row t reproduces the scalar
    sample_point word when trials[t] = 0, and more generally the chain
    walk with streams (seed, trials[t], i).  Chain i = 2j+1 reaches level t
    of `_chain_walk` when i 2^t <= n, and its symbol there is x_(i 2^t),
    column j of the strided slice step::2*step with step = 2^t.
    """
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    import numpy as np

    from .rng import threshold

    trials = np.asarray(trials, dtype=np.uint64)
    block = _chain_blocks(n)  # the block of chain i = 2j+1 at index j
    one_below = np.array([threshold(1.0 - assign.param(b)) for b in range(block.max() + 1)], np.uint64)
    bits = np.zeros((len(trials), n + 1), dtype=np.uint8)
    for rows, a, levels in _chain_walk(seed, trials, range(1, n + 1, 2), one_below, block, chains_reaching(n)):
        for t, one in enumerate(levels):
            bits[rows, 1 << t :: 2 << t][:, a : a + one.shape[1]] = one
    return bits


def zero_count_from_bits(bits: np.ndarray, ns: Sequence[int]) -> np.ndarray:
    """N0 of the first n symbols per row (x_m in column m), for each n of the strictly
    increasing ns, as int64 of shape (rows, len(ns)); each symbol is summed once."""
    import numpy as np

    ends = [0, *map(int, ns)]
    if any(a >= b for a, b in zip(ends, ends[1:])) or ends[-1] >= bits.shape[1]:
        raise ValueError(f"prefix lengths must increase strictly within 1..{bits.shape[1] - 1}, got {ends[1:]}")
    ones = np.zeros((len(bits), len(ends)), dtype=np.int64)
    for j, (lo, hi) in enumerate(zip(ends, ends[1:]), 1):
        ones[:, j] = ones[:, j - 1] + bits[:, lo + 1 : hi + 1].sum(axis=1, dtype=np.int64)
    return np.array(ends[1:], dtype=np.int64) - ones[:, 1:]
