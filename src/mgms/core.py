"""Exact combinatorics of the golden mean shift and its multiplicative twin.

A binary word u = u_1...u_n (1-based, matching the usual symbolic-dynamics
convention) is *golden-admissible* if it has no adjacent pair 11, and a
*multiplicative prefix* if u_k u_{2k} = 0 whenever 2k <= n.  The two are
linked by the chain decomposition: for odd i, the chain J(i) = {i, 2i, 4i,
...} meets {1,...,n} in the (n // i).bit_length() = 1 + floor(log2(n/i))
positions i 2^t <= n, the chains partition {1,...,n}, and u is a
multiplicative prefix iff every chain restriction is golden-admissible.
`chains_reaching` counts, level by level, the chains that reach i 2^t <= n:
the samplers draw level t of that many chains, and `chain_classes` counts
the chains of each dyadic block and length from them (`chain_length_counts`
is its marginal).

Counting is exact: golden words of length k are counted by the Fibonacci
number F_{k+1} (F_1 = 1, F_2 = 2), and multiplicative prefixes of length n
by the product of F_{k+1} over chains of length k, which
`log2_count_cylinders` takes to a float log2 for dimension estimates.  A
word is its string of 0/1 symbols, so counting and the word operations run
on Python ints and strings alone; numpy loads only with
`BinaryWord.from_array` and `BinaryWord.array`, the bridge to the batch
kernels.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, reduce
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BinaryWord",
    "block_of",
    "chain_classes",
    "chain_length_counts",
    "chains_reaching",
    "fibonacci",
    "log2_count_cylinders",
]


class BinaryWord(NamedTuple("BinaryWord", [("symbols", str)])):
    """Immutable 0/1 word with 1-based indexing, held as its string of symbols.

    `word[k]` returns the k-th symbol for 1 <= k <= len(word), and
    `str(word)` is the string itself.  A record of one field: equality and
    the hash are those of the tuple (symbols,).  It keeps an instance dict
    (no __slots__), where `array` caches itself.
    """

    def __new__(cls, symbols: str):
        if not set(symbols) <= {"0", "1"}:
            raise ValueError(f"not a 0/1 string: {symbols!r}")
        return tuple.__new__(cls, (symbols,))

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_bits(bits: Iterable[int]) -> "BinaryWord":
        return BinaryWord("".join(str(int(b)) for b in bits))

    @staticmethod
    def from_string(s: str) -> "BinaryWord":
        return BinaryWord(s)

    @staticmethod
    def from_array(arr: np.ndarray) -> "BinaryWord":
        import numpy as np

        arr = np.asarray(arr, dtype=np.uint8)
        if arr.size and arr.max(initial=0) > 1:
            raise ValueError("symbols must be 0 or 1")
        return BinaryWord((arr + ord("0")).tobytes().decode("ascii"))

    @staticmethod
    def empty() -> "BinaryWord":
        return BinaryWord("")

    # -- access ------------------------------------------------------------

    @cached_property
    def array(self) -> np.ndarray:
        """The word as a read-only uint8 array of 0/1 (0-based)."""
        import numpy as np

        arr = np.frombuffer(self.symbols.encode("ascii"), dtype=np.uint8) - ord("0")
        arr.flags.writeable = False
        return arr

    @property
    def n(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise IndexError(f"position {k} outside 1..{self.n}")
        return int(self.symbols[k - 1])

    def __iter__(self) -> Iterator[int]:
        return map(int, self.symbols)

    def __str__(self) -> str:
        return self.symbols

    def __getnewargs__(self) -> tuple[str]:
        # copy and pickle rebuild the word from this; the tuple's own reads the word through __iter__
        return (self.symbols,)

    def __repr__(self) -> str:
        return f"BinaryWord({self.symbols!r})"

    def prefix(self, m: int) -> "BinaryWord":
        if not 0 <= m <= self.n:
            raise ValueError(f"prefix length {m} outside 0..{self.n}")
        return BinaryWord(self.symbols[:m])

    def count_ones(self) -> int:
        """N_1(u): number of 1 symbols."""
        return self.symbols.count("1")

    def count_zeros(self) -> int:
        """N_0(u): number of 0 symbols."""
        return self.n - self.count_ones()


def block_of(i: int) -> int:
    """Dyadic block of an odd chain start: floor(log2 i), so 2^b <= i < 2^(b+1)."""
    i = int(i)
    if i < 1 or i % 2 == 0:
        raise ValueError(f"chain index must be an odd positive integer, got {i}")
    return i.bit_length() - 1


def chains_reaching(n: int) -> list[int]:
    """#odd i with i 2^t <= n, for t = 0..floor(log2 n): the first chains J(1), J(3), ... reach level t."""
    n = int(n)
    if n < 1:
        raise ValueError(f"prefix length must be positive, got {n}")
    return [((n >> t) + 1) >> 1 for t in range(n.bit_length())]


def chain_classes(n: int) -> dict[tuple[int, int], int]:
    """Map (b, k) to the number of chains J(i) of block b = floor(log2 i) and length k, b then k ascending.

    Block b holds the chains 2c + 1, 2^(b-1) <= c < 2^b (block 0: c = 0), of length m - b, m =
    floor(log2 n), and m - b + 1 for those that reach level m - b: c < chains_reaching(n)[m - b].
    """
    reach = chains_reaching(n)
    m = len(reach) - 1
    classes = {}
    for b in range(m + 1):
        lo, hi = (1 << b) >> 1, min(1 << b, reach[0])
        cut = min(max(reach[m - b], lo), hi)
        if hi > cut:
            classes[b, m - b] = hi - cut
        if cut > lo:
            classes[b, m - b + 1] = cut - lo
    return classes


def chain_length_counts(n: int) -> dict[int, int]:
    """Map k to the number of chains of length k, k ascending: the marginal of `chain_classes`."""
    counts: dict[int, int] = {}
    for (_, k), count in chain_classes(n).items():
        counts[k] = counts.get(k, 0) + count
    return dict(sorted(counts.items()))


# -- counting ---------------------------------------------------------------

_FIB: list[int] = [0, 1, 2]  # F_1 = 1, F_2 = 2, F_{k+1} = F_{k-1} + F_k


def fibonacci(k: int) -> int:
    """F_k with F_1 = 1, F_2 = 2 (exact big integer)."""
    if k < 1:
        raise ValueError(f"index must be >= 1, got {k}")
    while len(_FIB) <= k:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return _FIB[k]


def log2_count_cylinders(n: int) -> float:
    """log2 of the number of multiplicative prefixes of length n, prod F_{k+1}^c, in float."""
    terms = (c * math.log2(fibonacci(k + 1)) for k, c in chain_length_counts(n).items())
    return reduce(operator.add, terms, 0.0)  # left to right: sum() compensates from Python 3.12 on
