"""Exact combinatorics of the golden mean shift and its multiplicative twin.

A binary word u = u_1...u_n (1-based, matching the usual symbolic-dynamics
convention) is *golden-admissible* if it has no adjacent pair 11, and a
*multiplicative prefix* if u_k u_{2k} = 0 whenever 2k <= n.  The two are
linked by the chain decomposition: for odd i, the chain J(i) = {i, 2i, 4i,
...} meets {1,...,n} in chain_length(n, i) positions, the chains partition
{1,...,n}, and u is a multiplicative prefix iff every chain restriction is
golden-admissible.

Counting is exact: golden words of length k are counted by the Fibonacci
number F_{k+1} (F_1 = 1, F_2 = 2), and multiplicative prefixes of length n
by the product of F_{chain_length+1} over chains, held as big integers with
a float log2 companion for dimension estimates.  The counting functions
run on Python ints and floats alone, and so do `BinaryWord.from_string` and
`str(word)`; numpy is loaded by the other word operations and the
enumerators when they first run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BinaryWord",
    "is_golden_word",
    "is_multiplicative_prefix",
    "block_of",
    "restrict_to_chain",
    "chain_length",
    "odd_indices_in",
    "chain_partition",
    "chain_length_counts",
    "assemble_from_chains",
    "fibonacci",
    "count_golden_words",
    "count_cylinders",
    "log2_count_cylinders",
    "iter_golden_words",
    "iter_multiplicative_prefixes",
]


@dataclass(frozen=True)
class BinaryWord:
    """Immutable packed 0/1 word with 1-based indexing.

    Bits are stored packed 8-per-byte (big-endian within bytes), so prefixes
    up to n = 2**24 cost n/8 bytes.  `word[k]` returns the k-th symbol for
    1 <= k <= len(word).
    """

    packed: bytes
    n: int

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_bits(bits: Iterable[int]) -> "BinaryWord":
        import numpy as np

        return BinaryWord.from_array(np.fromiter(bits, dtype=np.uint8))

    @staticmethod
    def from_string(s: str) -> "BinaryWord":
        if not set(s) <= {"0", "1"}:
            raise ValueError(f"not a 0/1 string: {s!r}")
        pad = -len(s) % 8  # zero bits that fill the last byte, as np.packbits pads
        packed = (int(s, 2) << pad).to_bytes((len(s) + pad) // 8, "big") if s else b""
        return BinaryWord(packed, len(s))

    @staticmethod
    def from_array(arr: np.ndarray) -> "BinaryWord":
        import numpy as np

        arr = np.asarray(arr, dtype=np.uint8)
        if arr.size and arr.max(initial=0) > 1:
            raise ValueError("symbols must be 0 or 1")
        return BinaryWord(np.packbits(arr).tobytes(), int(arr.size))

    @staticmethod
    def empty() -> "BinaryWord":
        return BinaryWord(b"", 0)

    # -- access ------------------------------------------------------------

    @cached_property
    def array(self) -> np.ndarray:
        """The word as a read-only uint8 array of 0/1 (0-based)."""
        import numpy as np

        arr = np.unpackbits(np.frombuffer(self.packed, dtype=np.uint8), count=self.n)
        arr.flags.writeable = False
        return arr

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise IndexError(f"position {k} outside 1..{self.n}")
        return int(self.array[k - 1])

    def __iter__(self) -> Iterator[int]:
        return iter(int(b) for b in self.array)

    def __str__(self) -> str:
        return format(int.from_bytes(self.packed, "big"), f"0{8 * len(self.packed)}b")[: self.n]

    def __repr__(self) -> str:
        return f"BinaryWord({str(self)!r})"

    def prefix(self, m: int) -> "BinaryWord":
        if not 0 <= m <= self.n:
            raise ValueError(f"prefix length {m} outside 0..{self.n}")
        return BinaryWord.from_array(self.array[:m])

    def count_ones(self) -> int:
        """N_1(u): number of 1 symbols."""
        return int.from_bytes(self.packed, "big").bit_count()

    def count_zeros(self) -> int:
        """N_0(u): number of 0 symbols."""
        return self.n - self.count_ones()


def is_golden_word(u: BinaryWord) -> bool:
    """True iff u has no adjacent pair 11 (vacuously true for |u| <= 1)."""
    a = u.array
    return not (a[1:] & a[:-1]).any()


def is_multiplicative_prefix(u: BinaryWord) -> bool:
    """True iff u_k * u_{2k} = 0 for all k with 2k <= |u|."""
    a = u.array
    half = u.n // 2
    return not (a[:half] & a[1::2]).any()


def _require_odd(i: int) -> int:
    i = int(i)
    if i < 1 or i % 2 == 0:
        raise ValueError(f"chain index must be an odd positive integer, got {i}")
    return i


def block_of(i: int) -> int:
    """Dyadic block of an odd chain start: floor(log2 i), so 2^b <= i < 2^(b+1)."""
    return _require_odd(i).bit_length() - 1


def chain_length(n: int, i: int) -> int:
    """Number of chain positions i, 2i, 4i, ... inside {1,...,n}.

    Equals 1 + floor(log2(n/i)), computed with integer shifts so powers of
    two land on the correct side of the boundary.
    """
    i = _require_odd(i)
    n = int(n)
    if n < 1:
        raise ValueError(f"prefix length must be positive, got {n}")
    if i > n:
        raise ValueError(f"chain start {i} exceeds prefix length {n}")
    return (n // i).bit_length()


def restrict_to_chain(u: BinaryWord, i: int) -> BinaryWord:
    """The restriction u_i u_{2i} u_{4i} ... of u to the chain J(i)."""
    i = _require_odd(i)
    if i > u.n:
        raise ValueError(f"chain J({i}) does not intersect a prefix of length {u.n}")
    idx = []
    m = i
    while m <= u.n:
        idx.append(m - 1)
        m <<= 1
    return BinaryWord.from_array(u.array[idx])


def odd_indices_in(a, b) -> list[int]:
    """All odd integers i with a < i <= b, ascending. Requires 0 <= a < b."""
    fa, fb = Fraction(a), Fraction(b)
    if not 0 <= fa < fb:
        raise ValueError(f"need 0 <= a < b, got a={a}, b={b}")
    first = math.floor(fa) + 1
    if first % 2 == 0:
        first += 1
    last = math.floor(fb)
    return list(range(first, last + 1, 2))


def chain_partition(n: int) -> dict[int, int]:
    """Map odd i <= n to chain_length(n, i); the values sum to n."""
    n = int(n)
    if n < 1:
        raise ValueError(f"prefix length must be positive, got {n}")
    return {i: (n // i).bit_length() for i in range(1, n + 1, 2)}


def chain_length_counts(n: int) -> dict[int, int]:
    """Map k to the number of chains of length k, i.e. #odds in (n/2^k, n/2^(k-1)]."""
    n = int(n)
    if n < 1:
        raise ValueError(f"prefix length must be positive, got {n}")
    counts: dict[int, int] = {}
    k = 1
    while (n >> (k - 1)) >= 1:
        c = ((n >> (k - 1)) + 1) // 2 - ((n >> k) + 1) // 2
        if c:
            counts[k] = c
        k += 1
    return counts


def assemble_from_chains(n: int, chains: dict[int, BinaryWord]) -> BinaryWord:
    """Interleave per-chain words back into a word of length n.

    `chains` must map every odd i <= n to a word of length chain_length(n, i).
    """
    import numpy as np

    out = np.zeros(n, dtype=np.uint8)
    seen = 0
    for i, w in chains.items():
        i = _require_odd(i)
        k = chain_length(n, i)
        if len(w) != k:
            raise ValueError(f"chain J({i}) needs length {k}, got {len(w)}")
        m = i
        for sym in w.array:
            out[m - 1] = sym
            m <<= 1
        seen += k
    if seen != n:
        raise ValueError("chains do not cover the prefix")
    return BinaryWord.from_array(out)


# -- counting ---------------------------------------------------------------

_FIB: list[int] = [0, 1, 2]  # F_1 = 1, F_2 = 2, F_{k+1} = F_{k-1} + F_k


def fibonacci(k: int) -> int:
    """F_k with F_1 = 1, F_2 = 2 (exact big integer)."""
    if k < 1:
        raise ValueError(f"index must be >= 1, got {k}")
    while len(_FIB) <= k:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return _FIB[k]


def count_golden_words(k: int) -> int:
    """Number of golden-admissible words of length k, equal to F_{k+1}."""
    if k < 1:
        raise ValueError(f"length must be >= 1, got {k}")
    return fibonacci(k + 1)


def count_cylinders(n: int) -> int:
    """Number of multiplicative prefixes of length n (exact big integer).

    Product over chains of the golden count at the chain length, grouped by
    length so the big-integer work is a handful of powers.
    """
    total = 1
    for k, c in chain_length_counts(n).items():
        total *= fibonacci(k + 1) ** c
    return total


def log2_count_cylinders(n: int) -> float:
    """log2 of count_cylinders(n) in float, without forming the big integer."""
    return sum(c * math.log2(fibonacci(k + 1)) for k, c in chain_length_counts(n).items())


# -- enumeration (exhaustive oracles and experiment support) -----------------


def iter_golden_words(k: int) -> Iterator[BinaryWord]:
    """Yield all golden-admissible words of length k (lexicographic)."""
    if k < 0:
        raise ValueError(f"length must be >= 0, got {k}")
    import numpy as np

    buf = np.zeros(k, dtype=np.uint8)

    def rec(pos: int) -> Iterator[BinaryWord]:
        if pos == k:
            yield BinaryWord.from_array(buf)
            return
        buf[pos] = 0
        yield from rec(pos + 1)
        if pos == 0 or buf[pos - 1] == 0:
            buf[pos] = 1
            yield from rec(pos + 1)
            buf[pos] = 0

    return rec(0)


def iter_multiplicative_prefixes(n: int) -> Iterator[BinaryWord]:
    """Yield all multiplicative prefixes of length n (lexicographic)."""
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    import numpy as np

    buf = np.zeros(n, dtype=np.uint8)

    def rec(pos: int) -> Iterator[BinaryWord]:
        if pos == n:
            yield BinaryWord.from_array(buf)
            return
        m = pos + 1  # 1-based position being assigned
        buf[pos] = 0
        yield from rec(pos + 1)
        if m % 2 == 1 or buf[m // 2 - 1] == 0:
            buf[pos] = 1
            yield from rec(pos + 1)
            buf[pos] = 0

    return rec(0)
