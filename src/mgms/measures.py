"""Log-domain measures on golden and multiplicative cylinders, plus sampling.

The golden Markov measure with parameter r has initial law (r, 1-r) and
transitions 0 -> {0 w.p. r, 1 w.p. 1-r}, 1 -> 0 w.p. 1, so a cylinder mass
factors symbol-by-symbol: a 1 always costs (1-r), a 0 costs r unless it is
forced after a 1 (cost 1).  Product measures on multiplicative cylinders
assign an independent Markov law to every chain J(i); the block-perturbed
variant uses parameter p + delta/b on chains starting in dyadic block
b >= 1 (block 0 keeps p), which is the Kolmogorov-consistent reading of
the perturbation.

All probability arithmetic is base-2 logarithmic with an exact zero
sentinel: typical cylinder masses near 2^(-0.81 n) would underflow doubles
around n ~ 1300.

Sampling is deterministic: every symbol is a pure function of
(seed, trial, chain index, position along the chain), so words extend
monotonically in n and chain-parallel evaluation is schedule-independent.

The batch path works on uint8 matrices of sampled symbols.
`sample_bits_batch` works in blocks of rows (trials) by chains: it folds
each chain's key once, then draws position i 2^t of the chains J(i) one
level t at a time inside the block, through strided column slices,
bit-for-bit as the scalar walk of `sample_point`; a draw is one mix and
one integer compare against an exact threshold.  `logprob_prefix_grid` is
the one vectorized log-mass kernel: a gather from a per-block cost table,
then a cumulative sum.  Both work in blocks of at most `_CHUNK` cells, so
temporaries stay in cache whatever n is.  There is one scalar walk,
`_walk`, over a list of symbols: `markov_cylinder_logprob` runs it on a
word and `chain_breakdown` on each chain restriction, whose masses
`pdelta_logprob` sums.  They stay as the readable definitions that
tests and benchmark checks compare against.  The scalar walk reads a word
through `str`, so it runs without numpy; the samplers and the batch
kernels import numpy and `rng` when they are called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from .analytics import p_float
from .core import (
    BinaryWord,
    assemble_from_chains,
    block_of,
    chain_length,
    is_multiplicative_prefix,
)
from .intervals import CertifiedInterval

if TYPE_CHECKING:
    import numpy as np

    from .rng import RandomStream

__all__ = [
    "LogProb",
    "MarkovParams",
    "BlockAssignment",
    "SampledPoint",
    "markov_cylinder_logprob",
    "pmu_logprob",
    "pdelta_logprob",
    "chain_breakdown",
    "pmu_identity_gap",
    "sample_chain",
    "sample_point",
    "sample_bits_batch",
    "logprob_prefix_grid",
    "zero_count_from_bits",
]


@dataclass(frozen=True)
class LogProb:
    """Base-2 log probability; NEG_INFINITY is the exact zero sentinel."""

    value: float

    def __post_init__(self):
        if math.isnan(self.value) or self.value > 1e-12:
            raise ValueError(f"log2 probability must be <= 0, got {self.value}")

    @staticmethod
    def zero() -> "LogProb":
        return LogProb(float("-inf"))

    @staticmethod
    def one() -> "LogProb":
        return LogProb(0.0)

    @property
    def is_zero(self) -> bool:
        return self.value == float("-inf")

    def __add__(self, other: "LogProb") -> "LogProb":
        # product of probabilities; the zero sentinel absorbs
        if self.is_zero or other.is_zero:
            return LogProb.zero()
        return LogProb(self.value + other.value)

    def __float__(self) -> float:
        return self.value

    def to_probability(self) -> float:
        return 0.0 if self.is_zero else 2.0**self.value


@dataclass(frozen=True)
class MarkovParams:
    """Golden Markov measure parameter: initial law (r, 1-r), no 11 transition."""

    r: float

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"parameter must lie in (0,1), got {self.r}")

    @property
    def initial(self) -> tuple[float, float]:
        return (self.r, 1.0 - self.r)

    @property
    def transition(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.r, 1.0 - self.r), (1.0, 0.0))


def _walk(r: float, symbols: Sequence[int]) -> float:
    """log2 golden Markov mass of a list of 0/1 symbols; -inf at a pair 11."""
    log_r = math.log2(r)
    log_q = math.log2(1.0 - r)
    total = 0.0
    prev = 0
    for sym in symbols:
        if prev == 1:
            if sym == 1:
                return float("-inf")
            # forced 0 after a 1: probability one
        else:
            total += log_q if sym else log_r
        prev = sym
    return total


def markov_cylinder_logprob(params: MarkovParams, u: BinaryWord) -> LogProb:
    """log2 of the golden Markov mass of the cylinder [u].

    Equivalent closed form: (1-r)^(N1(u)) * r^(N0(u) - N1(u_1..u_{k-1})).
    Words containing 11 get the zero sentinel (legal input, zero mass).
    """
    return LogProb(_walk(params.r, list(map(int, str(u)))))


@dataclass(frozen=True)
class BlockAssignment:
    """Per-dyadic-block chain parameters p_b: p_0 = p, p_b = p + delta/b (b >= 1).

    `param_fn` overrides the default schedule (e.g. sign-flipped
    perturbations p - delta/b^(1+gamma)); it receives the block index and
    must return a value in (0,1).
    """

    delta: float = 0.0
    p: float = field(default_factory=p_float)
    param_fn: Optional[object] = None  # Callable[[int], float]

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0,1), got {self.p}")
        if self.param_fn is None and not self.p + self.delta < 1.0:
            raise ValueError(f"p + delta must stay below 1, got {self.p + self.delta}")

    def param(self, block: int) -> float:
        if block < 0:
            raise ValueError(f"block must be >= 0, got {block}")
        if self.param_fn is not None:
            r = float(self.param_fn(block))  # type: ignore[operator]
            if not 0.0 < r < 1.0:
                raise ValueError(f"param_fn({block}) = {r} outside (0,1)")
            return r
        return self.p if block == 0 else self.p + self.delta / block

    def params_for_blocks(self, max_block: int) -> np.ndarray:
        import numpy as np

        return np.array([self.param(b) for b in range(max_block + 1)], dtype=np.float64)

    def describe(self) -> dict:
        d = {"measure": "P_mu" if self.delta == 0 and self.param_fn is None else "P_delta",
             "p": self.p, "delta": self.delta}
        if self.param_fn is not None:
            d["measure"] = "P_custom"
        return d


def pmu_logprob(p: Union[float, CertifiedInterval, None], u: BinaryWord) -> LogProb:
    """log2 of the chain product measure mass of [u] with one parameter p.

    Sums the golden Markov log-mass of every chain restriction; the zero
    sentinel appears exactly when u is not a multiplicative prefix.
    """
    if p is None:
        r = p_float()
    elif isinstance(p, CertifiedInterval):
        r = p.mid_float
    else:
        r = float(p)
    return pdelta_logprob(BlockAssignment(delta=0.0, p=r), u)


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
        chain = [word[(i << t) - 1] for t in range((n // i).bit_length())]  # chain_length(n, i)
        yield i, b, r, chain, _walk(r, chain)


def pdelta_logprob(assign: BlockAssignment, u: BinaryWord) -> LogProb:
    """log2 of the block-perturbed chain product measure mass of [u].

    Chain J(i) uses the Markov parameter of block floor(log2 i).  Reduces
    to pmu_logprob when delta = 0, and is Kolmogorov-consistent in |u| by
    construction (the parameter of a chain never changes as the word grows).
    """
    total = 0.0
    for *_, mass in chain_breakdown(assign, u):
        total += mass
        if total == -math.inf:  # a pair 11: zero mass whatever the later chains hold
            break
    return LogProb(total)


def pmu_identity_gap(u: BinaryWord, p: Optional[float] = None) -> float:
    """Gap in the half-word zero-count identity for even admissible words.

    For |u| = n even and p the root of p^3 = (1-p)^2,
       log2 P_mu[u] = n log2 p + (N0(u_1..u_{n/2}) - N0(u)/2) log2 p,
    because 1 - p = p^(3/2) and the chain prefixes-without-last-symbol of
    u tile the half word.  Returns lhs - rhs; zero up to rounding.
    """
    n = len(u)
    if n % 2 != 0 or n == 0:
        raise ValueError(f"identity needs even positive length, got {n}")
    if not is_multiplicative_prefix(u):
        raise ValueError("identity needs an admissible word")
    r = p_float() if p is None else float(p)
    lhs = pmu_logprob(r, u).value
    half_zeros = u.prefix(n // 2).count_zeros()
    rhs = (n + half_zeros - u.count_zeros() / 2.0) * math.log2(r)
    return lhs - rhs


# -- sampling -------------------------------------------------------------------


@dataclass(frozen=True)
class SampledPoint:
    """A measure-typical prefix with its reproducibility key."""

    word: BinaryWord
    seed: int
    descriptor: tuple  # sorted (key, value) pairs of the measure description

    @property
    def n(self) -> int:
        return len(self.word)


def sample_chain(params: MarkovParams, k: int, stream: RandomStream) -> BinaryWord:
    """Draw a length-k golden Markov word; position t consumes stream.uniform(t)."""
    if k < 1:
        raise ValueError(f"chain length must be >= 1, got {k}")
    one_prob = 1.0 - params.r
    bits = []
    prev = 0
    for t in range(k):
        prev = 0 if prev == 1 else int(stream.uniform(t) < one_prob)
        bits.append(prev)
    return BinaryWord.from_bits(bits)


def sample_point(assign: BlockAssignment, n: int, seed: int) -> SampledPoint:
    """Sample a multiplicative prefix of length n, chain by chain.

    Chain J(i) is drawn with the block parameter of i from the substream
    (seed, 0, i), so extending n never resamples earlier symbols and the
    result is independent of chain evaluation order.
    """
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    from .rng import RandomStream

    chains: dict[int, BinaryWord] = {}
    for i in range(1, n + 1, 2):
        params = MarkovParams(assign.param(block_of(i)))
        stream = RandomStream(seed, 0, i)
        chains[i] = sample_chain(params, chain_length(n, i), stream)
    word = assemble_from_chains(n, chains)
    return SampledPoint(word=word, seed=seed, descriptor=tuple(sorted(assign.describe().items())))


# -- vectorized twin (experiments engine) ----------------------------------------


# Cells per temporary array of the batch kernels (about 512 KB of float64), so
# no call allocates and frees megabytes of heap that the next one faults back
# in.  Not 2^16 itself: there a 2^20 trajectory took 0.013 to 0.0165 s per call
# from one fresh process to the next, as the import history fell, with no page
# faults either way; at 2^15, 2^16 - 4096, -512, -256, -64, +64 and +512 every
# process read 0.0125 to 0.0130 s (2-core Xeon).  Above 2^16, the 4096-trial
# chunks of the deviation checks split into as many blocks as at 2^16.
_CHUNK = (1 << 16) + 512


@lru_cache(maxsize=4)
def _block_table(n: int) -> np.ndarray:
    """Dyadic block floor(log2 i) of the chain J(i) through each position 0..n.

    i is the odd part of the position; entry 0 is unused (0).  Blocks are
    below 64, so uint8 holds them and 4 * block + 3 as well.
    """
    import numpy as np

    m = np.arange(1, n + 1, dtype=np.int64)
    block = np.zeros(n + 1, dtype=np.uint8)
    block[1:] = np.frexp((m // (m & -m)).astype(np.float64))[1] - 1
    block.flags.writeable = False
    return block


def logprob_prefix_grid(
    assign: BlockAssignment, bits: np.ndarray, n_list: Sequence[int]
) -> np.ndarray:
    """log2 measure mass at several prefix lengths in one pass.

    Vectorizes the per-chain Markov walk: position m in block b costs
    log2(1-p_b) for a 1 and log2 p_b for a 0, except that a 0 forced by a 1
    at its chain predecessor m/2 costs nothing.  That cost never depends on
    the prefix length (the walk is Kolmogorov-consistent), so prefix
    log-masses are cumulative sums of one cost vector.  `bits` holds 0/1
    symbols in columns 1..n, as sample_bits_batch returns them.

    Returns shape (rows, len(n_list)); -inf marks a prefix that contains a
    forbidden pair x_{m/2} = x_m = 1.
    """
    import numpy as np

    ns = [int(n) for n in n_list]
    n_max = bits.shape[1] - 1
    if not ns or min(ns) < 1 or max(ns) > n_max:
        raise ValueError("grid outside the sampled range")
    block = _block_table(n_max)[1:]
    params = assign.params_for_blocks(int(block.max()))
    # cost of x_m in block b sits at 4b + 2 x_{m/2} + x_m (x_{m/2} = 0 at odd m);
    # a 1 at the predecessor forces x_m, which then costs 0 (a forced 1 is flagged below)
    table = np.zeros(4 * len(params))
    table[0::4] = np.log2(params)
    table[1::4] = np.log2(1.0 - params)
    x = bits[:, 1:].astype(np.uint8, copy=False)  # no copy for sampled bits
    rows = len(x)
    grid = np.array(ns)
    out = np.empty((rows, len(ns)))
    first_bad = np.full(rows, n_max + 1)  # position of each row's first forbidden pair
    carry = np.zeros(rows)
    # columns lo..hi-1 (positions lo+1..hi) at a time; the running sum enters
    # as the first term, so every prefix sum adds in the same order as one cumsum
    width = max(256, _CHUNK // max(rows, 1) & ~1)
    for lo in range(0, n_max, width):
        hi = min(lo + width, n_max)
        pred = x[:, lo // 2 : lo // 2 + (hi - lo) // 2]  # x_j for the positions 2j in lo+1..hi
        idx = 4 * block[lo:hi] + x[:, lo:hi]
        idx[:, 1::2] += 2 * pred
        cost = table[idx]
        cost[:, 0] += carry  # exact: 0.0 + c is c in the first block
        np.cumsum(cost, axis=1, out=cost)
        carry = cost[:, -1]
        bad = pred & x[:, lo + 1 : hi : 2]
        hit = (first_bad > n_max) & bad.any(axis=1)
        if hit.any():
            first_bad[hit] = lo + 2 + 2 * bad[hit].argmax(axis=1)
        here = (lo < grid) & (grid <= hi)
        out[:, here] = cost[:, grid[here] - 1 - lo]
    out[first_bad[:, None] <= grid] = -np.inf
    return out


def sample_bits_batch(
    assign: BlockAssignment, n: int, seed: int, trials: np.ndarray
) -> np.ndarray:
    """Sample len(trials) independent prefixes of length n at once.

    Returns a uint8 array of shape (len(trials), n+1); column m holds
    symbol x_m (column 0 is padding).  Row t reproduces the scalar
    sample_point word when trials[t] = 0, and more generally the chain
    walk with streams (seed, trials[t], i).

    The work runs in blocks of rows (trials) by chains, at most _CHUNK
    cells each.  A block folds the keys of its chains once, then walks
    levels t = 0, 1, ... for as long as its first chain reaches level t:
    chain i reaches it when i 2^t <= n, so the chains at level t are a
    prefix of the block.  Position i 2^t of the chain i = 2j+1 is column j
    of the strided slice step::2*step with step = 2^t, and its chain
    predecessor i 2^(t-1) is column j of step/2::step.
    """
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    import numpy as np

    from .rng import chain_keys, threshold, uniform_grid

    trials = np.asarray(trials, dtype=np.uint64)
    block = _block_table(n)[1::2]  # the block of chain i = 2j+1 at index j
    params = assign.params_for_blocks(int(block.max()))
    one_below = np.array([threshold(1.0 - r) for r in params])  # per block
    bits = np.zeros((len(trials), n + 1), dtype=np.uint8)
    chains = len(block)
    width = min(chains, _CHUNK)  # chains per block
    height = _CHUNK // width  # rows per block
    for r0 in range(0, len(trials), height):
        rows = bits[r0 : r0 + height]
        for a in range(0, chains, width):
            b = min(a + width, chains)
            keys = chain_keys(seed, trials[r0 : r0 + height], np.arange(2 * a + 1, 2 * b, 2))
            below = one_below[block[a:b]]
            t = 0
            while (2 * a + 1) << t <= n:  # the block's first chain reaches level t
                step = 1 << t
                m = min(b, (n // step + 1) >> 1) - a  # its chains 2j+1 <= n / step
                one = uniform_grid(keys[:, :m], t) < below[:m]
                if t:  # a 1 at the chain predecessor forces a 0
                    one &= rows[:, step >> 1 :: step][:, a : a + m] == 0
                rows[:, step :: 2 * step][:, a : a + m] = one
                t += 1
    return bits


def zero_count_from_bits(bits: np.ndarray, n: int) -> np.ndarray:
    """N0 of the first n symbols, per row."""
    if not 1 <= n < bits.shape[1]:
        raise ValueError(f"n={n} outside the sampled range")
    import numpy as np

    return n - bits[:, 1 : n + 1].sum(axis=1, dtype=np.int64)
