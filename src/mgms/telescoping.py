"""The telescoping upper-bound diagnostic, on one sampled P_mu word.

At the dyadic scales 2^j the half-word identity turns the density of
P_mu against the gauge psi_g into increments b_j whose partial sums
telescope, so the gauge dichotomy reads off sum_j 1/g(j).  All a run needs
from its word x_1^(2^ell) is N0 and the log2 mass of each dyadic prefix.

Up to 2^`_SCALAR_ELL_MAX` symbols the word comes from the scalar sampler
`measures.sample_point` and one position-order pass over its string, so a
cold `mgms experiment telescope` (whose default is 2^16 symbols) loads no
numpy; beyond that, from row 0 of the batch sampler, whose prices add in
position order too, as blocked numpy cumulative sums that each start from
the running total.  Both sources give the same counts and the same
log-masses bit for bit (recursive summation in one order, Higham 2002),
and the b_j arithmetic is written once, in `upper_bound_telescoping`.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

from .analytics import Gauge, Verdict, _Report, gauge_log2, s_float
from .measures import BlockAssignment, golden_costs, sample_point

__all__ = ["TelescopingReport", "upper_bound_telescoping"]

# The largest ell whose word the scalar sampler draws, the measured crossover: its
# time doubles with each scale, the batch path's starts at the numpy import.  A cold
# `telescope` took 117 ms on the scalar path and 139 ms on the batch one at 2^17, and
# 162 ms and 143 ms at 2^18 (medians of 15 interleaved runs, 2-core Xeon, Python 3.11).
_SCALAR_ELL_MAX = 17
_BITS = bytes.maketrans(b"01", b"\0\1")


def _scalar_counts(measure: BlockAssignment, ell_max: int, seed: int) -> tuple[list[int], list[float]]:
    """N0 and the log2 mass of x_1^(2^j), j = 0..ell_max, from `sample_point` and one pass.

    Position m pays golden_costs(p)[x_m + 2 x_(m/2)] (x_(m/2) = 0 at odd m),
    so a pair 11 is -inf from m on.  The costs add in position order, as
    `_batch_counts` adds them.
    """
    n = 2**ell_max
    x = sample_point(measure, n, seed).word.symbols.encode().translate(_BITS)
    pred = bytearray(n)
    pred[1::2] = x[: n // 2]  # x_(m/2) at each even m
    # each position's cost index x_m + 2 x_(m/2): one big-int sum of the two 0/1 strings, no byte carries
    index = (int.from_bytes(x, "little") + 2 * int.from_bytes(pred, "little")).to_bytes(n, "little")
    cost = golden_costs(measure.p)  # delta = 0: one parameter
    logmass = list(accumulate(map(cost.__getitem__, index)))
    return ([2**j - x.count(1, 0, 2**j) for j in range(ell_max + 1)],
            [logmass[2**j - 1] for j in range(ell_max + 1)])


def _batch_counts(measure: BlockAssignment, ell_max: int, seed: int) -> tuple[list[int], list[float]]:
    """What `_scalar_counts` returns, from row 0 of `sample_bits_batch`: the same costs added
    in position order, in blocks of at most `measures._CHUNK` that start from the running sum."""
    import numpy as np

    from . import measures

    n, width = 2**ell_max, measures._CHUNK
    x = measures.sample_bits_batch(measure, n, seed, np.array([0]))[0]  # x_m at m, x_0 = 0
    cost = np.array(golden_costs(measure.p))
    logmass, carry = [], 0.0
    for lo in range(0, n, width):  # positions lo+1..hi
        hi = min(lo + width, n)
        index = x[lo + 1 : hi + 1].copy()  # x_m, then + 2 x_(m/2) at each even m
        index[(lo + 1) % 2 :: 2] += 2 * x[lo // 2 + 1 : hi // 2 + 1]
        prices = cost.take(index)
        prices[0] += carry  # exact: 0.0 + c is c in the first block
        np.cumsum(prices, out=prices)
        carry = prices[-1]
        logmass += prices[[2**j - 1 - lo for j in range(ell_max + 1) if lo < 2**j <= hi]].tolist()
    return [2**j - int(np.count_nonzero(x[1 : 2**j + 1])) for j in range(ell_max + 1)], logmass


class TelescopingReport(NamedTuple("TelescopingReport", [
    ("ell_max", int),
    ("seed", int),
    ("exponent", float),                       # g(t) = t^exponent
    ("b", tuple[float, ...]),                  # b_1..b_ell
    ("partial_sums", tuple[float, ...]),
    ("closed_forms", tuple[float, ...]),
    ("max_identity_gap", float),
    ("inverse_g_partials", tuple[float, ...]),
    ("divergence_flag", str),
    ("config", dict),
]), _Report):
    """Dyadic-scale increments b_j and their telescoped partial sums."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return self._json(
            experiment="telescope",
            b=list(self.b),
            partial_sums=list(self.partial_sums),
            closed_forms=list(self.closed_forms),
            max_identity_gap=self.max_identity_gap,
            inverse_g_partials=list(self.inverse_g_partials),
            divergence_flag=self.divergence_flag,
        )

    def to_csv_rows(self) -> list[tuple]:
        h = self.hash
        rows = []
        for j, bj in enumerate(self.b, start=1):
            rows.append(("telescope", 2**j, "b_j", bj, 1, h))
            rows.append(("telescope", 2**j, "partial_sum", self.partial_sums[j - 1], 1, h))
        rows.append(("telescope", 2**self.ell_max, "max_identity_gap", self.max_identity_gap, 1, h))
        return rows

    def summary_line(self) -> str:
        return (
            f"telescope: sum 1/g {self.divergence_flag}, "
            f"max telescoping gap {self.max_identity_gap:.3g}, "
            f"partial sum b_1..b_{self.ell_max} = {self.partial_sums[-1]:.4f}"
        )


def upper_bound_telescoping(exponent: float, ell_max: int, seed: int) -> TelescopingReport:
    """Evaluate b_j = [log2 P_mu[x_1^(2^j)] - log2 psi_g(2^-2^j)] / 2^j dyadically,
    for g(t) = t^exponent.

    The half-word identity gives
    b_j = (s/2)(N0(x_1^(2^j))/2^j - N0(x_1^(2^(j-1)))/2^(j-1))
    + 1/((ln 2) g(j)), and partial sums telescope to
    (s/2)(N0(x_1^(2^ell))/2^ell - N0(x_1^1)) + sum_j 1/((ln 2) g(j)),
    which diverges to +infinity exactly when sum 1/g does (the zero-count
    bracket stays bounded).  Both the telescoping identity and the direct
    measure-vs-gauge evaluation of b_j are checked numerically at every
    scale.  The divergence flag is exact: sum_j j^-e diverges if and only
    if e <= 1 (the integral test).
    """
    exponent = float(exponent)
    if not math.isfinite(exponent):
        raise ValueError(f"exponent must be finite, got {exponent}")
    if ell_max < 2:
        raise ValueError(f"need ell_max >= 2, got {ell_max}")
    measure = BlockAssignment(delta=0.0)
    counts = _scalar_counts if ell_max <= _SCALAR_ELL_MAX else _batch_counts
    n0, lps = counts(measure, ell_max, seed)
    s = s_float()
    ln2 = math.log(2)
    gauge = Gauge.psi_g(exponent)
    b = []
    direct_gaps = []  # at n = 4..2^ell, the gauge domain (j = 1 is covered by the closed form)
    closed = []
    inv_g = []
    acc = 0.0
    for j in range(1, ell_max + 1):
        nj = 2**j
        g = float(j) ** exponent
        if g <= 0:
            raise ValueError(f"g({j}) must be positive, got {g}")
        inc = 1.0 / (ln2 * g)
        b.append((s / 2.0) * (n0[j] / 2**j - n0[j - 1] / 2 ** (j - 1)) + inc)
        if j >= 2:
            direct_gaps.append(abs(b[-1] - (lps[j] - gauge_log2(gauge, nj)) / nj))
        acc += inc
        inv_g.append(acc)
        closed.append((s / 2.0) * (n0[j] / 2**j - n0[0]) + acc)
    partials = list(accumulate(b))
    gaps = [abs(partials[j] - closed[j]) for j in range(ell_max)]
    gaps += direct_gaps

    config = {
        "experiment": "telescope",
        "g": "t" if exponent == 1 else f"t^{int(exponent) if exponent.is_integer() else exponent!r}",
        "ell_max": ell_max,
        "seed": seed,
    }
    return TelescopingReport(
        ell_max=ell_max,
        seed=seed,
        exponent=exponent,
        b=tuple(b),
        partial_sums=tuple(partials),
        closed_forms=tuple(closed),
        max_identity_gap=max(gaps),
        inverse_g_partials=tuple(inv_g),
        divergence_flag=Verdict.UNBOUNDED if exponent <= 1 else Verdict.BOUNDED,
        config=config,
    )
