"""Monte Carlo and exact-enumeration experiments on density and deviations.

The density diagnostic for a measure P and gauge phi tracks

    d_n = log2 P[x_1^n] - log2 phi(2^-n)

along sampled points: drift to -infinity is the regime where the gauge'd
Hausdorff measure is infinite, drift to +infinity the regime where it
vanishes.  Limit statements cannot be verified at desk scale, so runs
report *trends*: the sign of the Theil-Sen slope of the median series over
the large-n part of the grid, with its confidence band attached as
metadata.  A parameter-admissibility gate (c < tau_hat * delta / 3, with
tau_hat the certified lower bound on the base-2 scale) marks runs outside
the proven regime INCONCLUSIVE before any statistics are computed.

Deviation experiments check explicit Hoeffding-style tail bounds against
empirical frequencies; the zero-count bound is assembled from the exact
chain-length counts of the prefix, so it is rigorous rather than
asymptotic, with the non-constructive constants reported as fits only.

All experiments are deterministic functions of their config: trials and
seeds key counter-based substreams, and reports embed the config plus its
hash so reruns are byte-identical.
"""

from __future__ import annotations

import math
import types
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .analytics import (
    DEFAULT_N_GRID,
    SCHEMA_VERSION,
    Gauge,
    Verdict,
    _Report,
    box_dimension_estimate,
    config_hash,
    covering_sum,
    expected_zero_count_prefix,
    gauge_log2,
    partition_entropy,
    tau_bits_lower_bound,
)
from .core import chain_classes, chain_length_counts, chains_reaching
from .measures import (
    BlockAssignment,
    _chain_blocks,
    _chain_walk,
    golden_costs,
    sample_bits_batch,
    zero_count_from_bits,
)
from .rng import threshold
from .telescoping import TelescopingReport, upper_bound_telescoping

__all__ = [
    "Verdict",
    "TrajectoryReport",
    "DeviationReport",
    "TelescopingReport",
    "density_trajectory",
    "lower_bound_trajectory",
    "upper_bound_telescoping",
    "block_one_counts",
    "Rademacher",
    "CenteredChainLogMass",
    "hoeffding_check",
    "zero_count_bound",
    "zero_count_deviation_check",
    "covering_sum",
    "box_dimension_estimate",
    "config_hash",
    "deviation_threshold",
    "SCHEMA_VERSION",
    "DEFAULT_N_GRID",
    "DEFAULT_SEEDS",
    "DEFAULT_EPSILON",
]

DEFAULT_SEEDS = tuple(range(100))
DEFAULT_EPSILON = 0.25
_TRIAL_CHUNK = 4096
_TREND_LEVEL = 0.95  # the confidence level of the Theil-Sen band of a trend
# the trend verdict uses the grid points beyond the floor, or the whole grid
# when fewer than this many lie beyond it
MIN_TREND_POINTS = 3


def _theilslopes(y, x) -> tuple[float, float, float]:
    """Theil-Sen slope of y on x (the median of the pairwise slopes over
    distinct x) and Sen's (1968) band at _TREND_LEVEL: order statistics of the
    slopes placed by the normal approximation, with the eq. 2.6 variance
    corrected for ties in x and y; NaN when ties leave that variance negative.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = x[:, None] - x
    up = dx > 0
    slopes = np.sort((y[:, None] - y)[up] / dx[up])
    n, pairs = len(y), len(slopes)
    ties = sum(int(k * (k - 1) * (2 * k + 5)) for v in (x, y) for k in np.unique(v, return_counts=True)[1])
    sigsq = 1 / 18.0 * (n * (n - 1) * (2 * n + 5) - ties)
    if not pairs or sigsq < 0:
        return (float(np.median(slopes)) if pairs else math.nan), math.nan, math.nan
    from statistics import NormalDist  # here, so that the paths without a trend never load it

    z_sigma = NormalDist().inv_cdf((1 - _TREND_LEVEL) / 2) * math.sqrt(sigsq)  # negative
    lo = max(round((pairs + z_sigma) / 2) - 1, 0)
    hi = min(round((pairs - z_sigma) / 2), pairs - 1)
    return float(np.median(slopes)), float(slopes[lo]), float(slopes[hi])


def _linregress(x, y) -> types.SimpleNamespace:
    """Least-squares line of y on x (at least 3 points, x not all equal): slope,
    intercept, r (NaN for constant y) and the slope's standard error."""
    sxx, sxy, _, syy = np.cov(x, y, bias=1).flat
    r = min(1.0, max(-1.0, sxy / math.sqrt(sxx * syy))) if syy else math.nan
    slope = sxy / sxx
    return types.SimpleNamespace(slope=slope, intercept=np.mean(y) - slope * np.mean(x), rvalue=r,
                                 stderr=np.sqrt((1 - r**2) * syy / sxx / (len(x) - 2)))


@lru_cache(maxsize=None)
def _t_ppf(q: float, df: int) -> float:
    """Quantile q of Student's t with df degrees of freedom.

    2 P(T > |t|) = I_x(df/2, 1/2) at x = df / (df + t^2), so the root x of
    I_x = 2 min(q, 1 - q) gives |t|.  At 30 digits the float is correctly
    rounded on df = 1..30; a call costs about 2 ms, hence the cache.
    """
    from mpmath import mp

    with mp.workdps(30):
        tail = 2 * min(mp.mpf(q), 1 - mp.mpf(q))
        x = mp.findroot(lambda x: mp.betainc(df / 2, 0.5, 0, x, regularized=True) - tail, (0, 1),
                        solver="pegasus")
        t = float(mp.sqrt(df * (1 - x) / x))
    return t if q > 0.5 else -t


# The three statistics of the trend verdict and the ldev2 fit, as one
# namespace: perfbench/tracing.py wraps exactly these names.
stats = types.SimpleNamespace(theilslopes=_theilslopes, linregress=_linregress,
                              t=types.SimpleNamespace(ppf=_t_ppf))


def deviation_threshold(n: int, epsilon: float = DEFAULT_EPSILON) -> float:
    """Threshold t with t*n = n^(1-epsilon): the sub-linear deviation event.

    epsilon must lie in (0, 1/2); the default 0.25 makes S_n >= n^(1-eps)
    a Borel-Cantelli-summable event under the Hoeffding bound.
    """
    if not 0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return float(n) ** (-epsilon)


@dataclass(frozen=True)
class TrajectoryReport(_Report):
    """Per-seed density series on a prefix grid with summary and trend."""

    experiment: str
    n_grid: tuple[int, ...]
    seeds: tuple[int, ...]
    measure: dict
    gauge: dict
    series: tuple[tuple[float, ...], ...]  # one row per seed
    medians: tuple[float, ...]
    q1: tuple[float, ...]
    q3: tuple[float, ...]
    verdict: str
    slope: float
    slope_ci: tuple[float, float]
    verdict_floor: int
    monotone_beyond_floor: bool
    config: dict
    inconclusive_reason: str = ""

    def to_json_dict(self) -> dict:
        return self._json(
            experiment=self.experiment,
            measure=self.measure,
            gauge=self.gauge,
            n_grid=list(self.n_grid),
            seeds=list(self.seeds),
            series=[list(row) for row in self.series],
            summary={"median": list(self.medians), "q1": list(self.q1), "q3": list(self.q3)},
            verdict=self.verdict,
            slope=self.slope,
            slope_ci=list(self.slope_ci),
            verdict_floor=self.verdict_floor,
            monotone_beyond_floor=self.monotone_beyond_floor,
            inconclusive_reason=self.inconclusive_reason,
        )

    def to_csv_rows(self) -> list[tuple]:
        rows = []
        h, sc = self.hash, len(self.seeds)
        for j, n in enumerate(self.n_grid):
            rows.append((self.experiment, n, "median", self.medians[j], sc, h))
            rows.append((self.experiment, n, "q1", self.q1[j], sc, h))
            rows.append((self.experiment, n, "q3", self.q3[j], sc, h))
        rows.append((self.experiment, max(self.n_grid), "slope", self.slope, sc, h))
        return rows

    def summary_line(self) -> str:
        floor = self.verdict_floor
        if sum(n > floor for n in self.n_grid) >= MIN_TREND_POINTS:
            points = f"n > {floor}"
        else:  # the fallback of _trend_verdict
            points = f"whole grid n >= {min(self.n_grid)}: < {MIN_TREND_POINTS} points beyond {floor}"
        return (
            f"{self.experiment}: verdict {self.verdict} "
            f"(Theil-Sen slope {self.slope:.4g} per log2 n, "
            f"{_TREND_LEVEL:.0%} CI [{self.slope_ci[0]:.4g}, {self.slope_ci[1]:.4g}], "
            f"{points}, {len(self.seeds)} seeds)"
        )


def _summaries(series: np.ndarray) -> tuple[tuple, tuple, tuple]:
    med = tuple(float(v) for v in np.median(series, axis=0))
    q1 = tuple(float(v) for v in np.percentile(series, 25, axis=0))
    q3 = tuple(float(v) for v in np.percentile(series, 75, axis=0))
    return med, q1, q3


def _trend_verdict(
    n_grid: Sequence[int], medians: Sequence[float], floor: int
) -> tuple[str, float, tuple[float, float], bool]:
    idx = [j for j, n in enumerate(n_grid) if n > floor]
    if len(idx) < MIN_TREND_POINTS:
        idx = list(range(len(n_grid)))
    ns = [n_grid[j] for j in idx]
    ys = [medians[j] for j in idx]
    slope, lo, hi = stats.theilslopes(ys, np.log2(ns))  # against log2 n
    if slope < 0:
        verdict = Verdict.DECREASING
    elif slope > 0:
        verdict = Verdict.INCREASING
    else:
        verdict = Verdict.INCONCLUSIVE
    diffs = np.diff(ys)
    monotone = bool(np.all(diffs < 0)) if slope < 0 else bool(np.all(diffs > 0))
    return verdict, slope, (lo, hi), monotone


def block_one_counts(measure: BlockAssignment, n: int, seed: int, trials: np.ndarray,
                     cuts: Sequence[int]) -> np.ndarray:
    """O_b(k), the ones at positions m <= k in block b, for each prefix that
    `sample_bits_batch(measure, n, seed, trials)` draws and each cut k in 1..n:
    int64 of shape (rows, len(cuts), n.bit_length()), read off its walk with no bits array.

    Level t of chain 2c + 1 is position (2c + 1) 2^t <= k when c < R = chains_reaching(k)[t],
    and block b holds the chains e_b <= c < e_(b+1), e_b = 2^(b-1) (e_0 = 0).  So O_b(k)
    sums F_t(min(R, e_(b+1))) - F_t(min(R, e_b)) over the levels, F_t(x) the ones of
    the chains c < x at level t, which one `np.add.reduceat` per level block adds up.
    """
    n, cuts = int(n), [int(k) for k in cuts]
    if not cuts or min(cuts) < 1 or max(cuts) > n:
        raise ValueError(f"cuts must lie in 1..{n}, got {cuts}")
    levels = n.bit_length()
    edges = [(1 << b) >> 1 for b in range(levels + 1)]
    reach = np.array([chains_reaching(k) + [0] * (levels - k.bit_length()) for k in cuts])  # R by cut, level
    points = [sorted({*edges, *reach[:, t].tolist()}) for t in range(levels)]  # every min(R, e) of level t
    sums = [np.zeros((len(trials), len(p)), dtype=np.int64) for p in points]  # ones of p[j] <= c < p[j+1]
    one_below = np.array([threshold(1.0 - measure.param(b)) for b in range(levels)], dtype=np.uint64)
    for rows, a, ones in _chain_walk(seed, np.asarray(trials, dtype=np.uint64), range(1, n + 1, 2), one_below,
                                     _chain_blocks(n), chains_reaching(n)):  # sample_bits_batch's walk
        for t, one in enumerate(ones):
            p = points[t]
            j0, j1 = bisect_right(p, a) - 1, bisect_left(p, a + one.shape[1])
            starts = [0, *(x - a for x in p[j0 + 1 : j1])]
            sums[t][rows, j0:j1] += np.add.reduceat(one.view(np.uint8), starts, axis=1, dtype=np.int64)
    total = np.zeros((len(trials), len(cuts), len(edges)), dtype=np.int64)  # sum over t of F_t(min(R, e))
    for t, (p, s) in enumerate(zip(points, sums)):
        total += (np.cumsum(s, axis=1) - s)[:, np.searchsorted(p, np.minimum.outer(reach[:, t], edges))]
    return np.diff(total, axis=2)


def _log_masses(measure: BlockAssignment, n_grid: Sequence[int], seeds: Sequence[int]) -> np.ndarray:
    """log2 P[x_1^n] of trial 0 of each seed (rows) at each n of n_grid, each one `math.fsum`:
    block b holds O_b(n) ones, O_b(n/2) zeros forced by them and L_b(n) - O_b(n) - O_b(n/2)
    free zeros, L_b(n) its positions up to n (`chain_classes`)."""
    cuts = sorted({m for n in n_grid for m in (n, n // 2)})
    costs = [golden_costs(measure.param(b))[:2] for b in range(max(n_grid).bit_length())]
    lengths = [[0] * len(costs) for _ in n_grid]
    for length, n in zip(lengths, n_grid):
        for (b, k), count in chain_classes(n).items():
            length[b] += k * count
    rows = []
    for seed in seeds:
        ones = dict(zip(cuts, block_one_counts(measure, max(n_grid), seed, np.array([0]), cuts)[0].tolist()))
        rows.append([math.fsum(o * log_q + (size - o - h) * log_r
                               for (log_r, log_q), size, o, h in zip(costs, length, ones[n], ones[n // 2]))
                     for n, length in zip(n_grid, lengths)])
    return np.array(rows, dtype=np.float64).reshape(len(seeds), len(n_grid))


def density_trajectory(
    measure: BlockAssignment,
    gauge: Gauge,
    n_grid: Sequence[int] = DEFAULT_N_GRID,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    verdict_floor: int = 1024,
) -> TrajectoryReport:
    """Track d_n = log2 P[x_1^n] - log2 gauge(2^-n) across seeds and a grid.

    One point is sampled per seed out to max(n_grid); d_n is evaluated on the
    grid from its block one counts and summarized per n.  At delta = 0 those
    counts give the half-word identity in real arithmetic (p^3 = (1-p)^2), so
    it needs no check.  The trend needs MIN_TREND_POINTS grid points and a seed.
    """
    n_grid = tuple(sorted(int(n) for n in n_grid))
    if len(n_grid) < MIN_TREND_POINTS:
        raise ValueError(f"a trend needs at least {MIN_TREND_POINTS} grid points, got {len(n_grid)}")
    if n_grid[0] < 4:
        raise ValueError("grid must start at n >= 4")
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("seeds must name at least one seed, got none")
    gauges = np.array([gauge_log2(gauge, n) for n in n_grid])
    rows = _log_masses(measure, n_grid, seeds) - gauges
    med, q1, q3 = _summaries(rows)
    verdict, slope, ci, monotone = _trend_verdict(n_grid, med, verdict_floor)
    config = {
        "experiment": "density",
        "measure": measure.describe(),
        "gauge": gauge.describe(),
        "n_grid": list(n_grid),
        "seeds": list(seeds),
        "verdict_floor": verdict_floor,
    }
    return TrajectoryReport(
        experiment="density",
        n_grid=n_grid,
        seeds=seeds,
        measure=measure.describe(),
        gauge=gauge.describe(),
        series=tuple(tuple(float(v) for v in r) for r in rows),
        medians=med,
        q1=q1,
        q3=q3,
        verdict=verdict,
        slope=slope,
        slope_ci=ci,
        verdict_floor=verdict_floor,
        monotone_beyond_floor=monotone,
        config=config,
    )


def lower_bound_trajectory(
    delta: float,
    c: float,
    n_grid: Sequence[int] = DEFAULT_N_GRID,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> TrajectoryReport:
    """Track S_n = log2 P_delta[x_1^n] + n s + c n/(log2 n)^2.

    In the proven regime (delta > 0, p + delta < 1, c < tau_hat delta / 3
    with the certified tau lower bound) the drift is downward; outside it
    the verdict is INCONCLUSIVE by definition, whatever the data shows.
    The trend is fitted beyond the verdict floor 2^12, where the report
    also flags whether the median decreases monotonically.  Like
    `density_trajectory`, it raises ValueError on a grid of fewer than
    MIN_TREND_POINTS points or on no seeds.
    """
    if not (math.isfinite(delta) and math.isfinite(c)):
        raise ValueError(f"delta and c must be finite, got delta={delta}, c={c}")
    measure = BlockAssignment(delta=float(delta))
    gauge = Gauge.phi(c=float(c)) if c > 0 else Gauge.pure()
    report = density_trajectory(measure, gauge, n_grid, seeds, verdict_floor=4096)
    tau_hat = float(tau_bits_lower_bound())
    reason = ""
    if delta <= 0:
        reason = "delta must be positive for the perturbed-measure drift"
    elif measure.p + delta >= 1:
        reason = "p + delta >= 1 leaves the parameter space"
    elif c <= 0:
        reason = "c must be positive"
    elif c >= tau_hat * delta / 3:
        reason = (
            f"c={c} is not below the certified tau_hat*delta/3 = "
            f"{tau_hat * delta / 3:.6g}; decreasing drift not guaranteed"
        )
    verdict = report.verdict if not reason else Verdict.INCONCLUSIVE
    config = dict(report.config)
    config.update({"experiment": "lower", "delta": delta, "c": c})
    return replace(report, experiment="lower", verdict=verdict, config=config,
                   inconclusive_reason=reason)


# -- deviation checks --------------------------------------------------------------


@dataclass(frozen=True)
class DeviationRow:
    t: float
    n: int
    empirical: float
    bound: float
    stderr: float
    trials: int

    @property
    def ok(self) -> bool:
        return self.empirical <= self.bound + 3.0 * self.stderr

    def as_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


@dataclass(frozen=True)
class DeviationReport(_Report):
    """Empirical tail frequencies against explicit theoretical bounds."""

    experiment: str
    rows: tuple[DeviationRow, ...]
    config: dict
    fit: dict

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json_dict(self) -> dict:
        return self._json(experiment=self.experiment, rows=[r.as_dict() for r in self.rows],
                          fit=self.fit, all_ok=self.all_ok)

    def to_csv_rows(self) -> list[tuple]:
        h = self.hash
        rows = []
        for r in self.rows:
            rows.append((self.experiment, r.n, f"empirical(t={r.t:g})", r.empirical, r.trials, h))
            rows.append((self.experiment, r.n, f"bound(t={r.t:g})", r.bound, r.trials, h))
        return rows

    def summary_line(self) -> str:
        state = "OK (no exceedance)" if self.all_ok else "EXCEEDANCE FOUND"
        c2, c3 = (math.nan if self.fit.get(k) is None else self.fit[k] for k in ("c2", "c3"))
        extra = f", fitted c2={c2:.3g}, c3={c3:.3g}" if self.fit else ""
        return f"{self.experiment}: {len(self.rows)} cells, bounds {state}{extra}"


def _level_ones(seed: int, trials: np.ndarray, n: int, q: float, k: int) -> np.ndarray:
    """Ones per trial (rows) and level of n independent golden chains of k levels, a 1
    after a 0 with probability q, keyed as chains 0..n-1 of `measures._chain_walk`: int64
    (len(trials), k).  Blocks of 8192 chains keep a trial's temporaries near 0.25 MiB."""
    ones = np.zeros((len(trials), k), dtype=np.int64)
    below = np.array([threshold(q)], dtype=np.uint64)
    for rows, _, levels in _chain_walk(seed, trials, range(n), below, np.broadcast_to(0, (n,)), [n] * k, 8192):
        for t, one in enumerate(levels):
            ones[rows, t] += np.count_nonzero(one, axis=1)
    return ones


@dataclass(frozen=True)
class Rademacher:
    """Independent uniform +-1 summands (C = 1): a summand is +1 when level 0 of its
    chain in `_level_ones` holds a 1, so S_n = 2 N1 - n is an exact integer."""

    @property
    def bound_C(self) -> float:
        return 1.0

    def describe(self) -> dict:
        return {"distribution": "rademacher", "C": 1.0}

    def sample_sums(self, seed: int, trials: np.ndarray, n: int) -> np.ndarray:
        return 2.0 * _level_ones(seed, trials, n, 0.5, 1)[:, 0] - n


@dataclass(frozen=True)
class CenteredChainLogMass:
    """Centered log2 cylinder masses of golden Markov words of length k.

    X = log2 mu[u] + H^mu(alpha_k) has zero mean; |X| <= C with C the exact
    maximum over the admissible cylinders; u is one chain of `_level_ones`.
    """

    k: int
    r: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need k >= 1, got {self.k}")
        if not 0 < self.r < 1:
            raise ValueError(f"parameter must lie in (0,1), got {self.r}")

    # computed once per instance (cached_property writes the instance dict,
    # which a frozen dataclass allows)
    @cached_property
    def entropy(self) -> float:
        return partition_entropy(self.r, self.k)

    @cached_property
    def bound_C(self) -> float:
        # largest and smallest log2 mass of a word ending in 0 and in 1, one
        # symbol at a time as measures._walk adds them; float addition is
        # monotone, so these are the extremes over every admissible word
        log_r, log_q, _, _ = golden_costs(self.r)
        hi0 = lo0 = 0.0
        hi1, lo1 = -math.inf, math.inf
        for _ in range(self.k):
            hi0, hi1 = max(hi0 + log_r, hi1), hi0 + log_q
            lo0, lo1 = min(lo0 + log_r, lo1), lo0 + log_q
        H = self.entropy
        return max(abs(max(hi0, hi1) + H), abs(min(lo0, lo1) + H))

    def describe(self) -> dict:
        return {"distribution": "centered_log_mass", "k": self.k, "r": self.r, "C": self.bound_C}

    def sample_sums(self, seed: int, trials: np.ndarray, n: int) -> np.ndarray:
        """Sum of n centered log-masses per trial.  A word with N1 ones, ending in e, has
        N1 - e forced zeros, so the sum prices the ones N1 over all levels and E at the last:
        N1 log2(1-r) + (n k - 2 N1 + E) log2 r + n H."""
        log_r, log_q, _, _ = golden_costs(self.r)
        ones = _level_ones(seed, trials, n, 1.0 - self.r, self.k)
        N1 = ones.sum(axis=1)
        return N1 * log_q + (n * self.k - 2 * N1 + ones[:, -1]) * log_r + n * self.entropy


def _tail_rows(statistic, bound, ts: Sequence[float], ns: Sequence[int], trials: int) -> list[DeviationRow]:
    """One DeviationRow per (n, t), n outer: the frequency of the n-th array of
    statistic(trial ids, ns) reaching t n over trials 0..trials-1, drawn in
    chunks of _TRIAL_CHUNK ids, against bound(t, n).

    The stderr column is the binomial standard error at the bound value, so
    "empirical <= bound + 3 stderr" is the acceptance predicate per cell.
    Raises ValueError when trials < 1, any n < 1 or any t is not finite
    (a NaN t would pass: no value reaches NaN n).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    for n in ns:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
    for t in ts:
        if not math.isfinite(t):
            raise ValueError(f"thresholds must be finite, got {t}")
    exceed = [[0] * len(ts) for _ in ns]  # by position, so a repeated t or n is counted once per entry
    for start in range(0, trials, _TRIAL_CHUNK):
        idx = np.arange(start, min(trials, start + _TRIAL_CHUNK), dtype=np.uint64)
        for counts, n, values in zip(exceed, ns, statistic(idx, ns)):
            for i, t in enumerate(ts):
                counts[i] += int(np.count_nonzero(values >= t * n))
    rows = []
    for n, counts in zip(ns, exceed):
        for t, count in zip(ts, counts):
            b = bound(t, n)
            se = math.sqrt(max(b * (1 - b), 1e-300) / trials)
            rows.append(DeviationRow(t=t, n=n, empirical=count / trials, bound=b, stderr=se,
                                     trials=trials))
    return rows


def hoeffding_check(
    distribution,
    t: float | Sequence[float],
    n: int | Sequence[int],
    trials: int,
    seed: int,
) -> DeviationReport:
    """Empirical P(S_n >= t n) against the explicit bound exp(-t^2 n / (2 C^2))."""
    ts = [float(v) for v in (t if isinstance(t, (list, tuple)) else [t])]
    ns = [int(v) for v in (n if isinstance(n, (list, tuple)) else [n])]
    C = distribution.bound_C
    rows = _tail_rows(lambda idx, ns_: (distribution.sample_sums(seed, idx, n_) for n_ in ns_),
                      lambda tv, n_: min(1.0, math.exp(-(tv * tv) * n_ / (2.0 * C * C))) if tv > 0 else 1.0,
                      ts, ns, trials)
    config = {
        "experiment": "hoeffding",
        "distribution": distribution.describe(),
        "t": ts,
        "n": ns,
        "trials": trials,
        "seed": seed,
    }
    return DeviationReport(experiment="hoeffding", rows=tuple(rows), config=config, fit={})


def zero_count_bound(t: float, n: int) -> float:
    """Explicit tail bound for P(|N0*(x_1^(2n))| >= t n) from chain Hoeffding.

    Splits the centered count over chain-length classes k of the 2n-prefix
    (A_k chains, summands bounded by k, threshold share t n / (k(k+1))) and
    adds the per-class Hoeffding bounds.  Rigorous for every (t, n).
    """
    if t <= 0:
        return 1.0
    counts = chain_length_counts(2 * n)
    total = 0.0
    for k, A_k in counts.items():
        lam = t * n / (k * (k + 1))
        total += 2.0 * math.exp(-(lam * lam) / (2.0 * k * k * A_k))
    return min(1.0, total)


def zero_count_deviation_check(
    t_grid: Sequence[float] = (0.02, 0.05, 0.1, 0.15, 0.2),
    n_grid: Sequence[int] = (64, 128, 256, 512),
    trials: int = 100_000,
    seed: int = 0,
) -> DeviationReport:
    """Tail of the centered zero count N0*(x_1^(2n)) under the product measure.

    Empirical frequencies of |N0*| >= t n are compared with the explicit
    chain-Hoeffding bound; on top, log-frequency is regressed on t^2 n to
    fit the exponential-decay shape (c2, c3), reported with a 95% CI for
    the decay rate.  Each chunk of trials is drawn once, to 2 max(n_grid),
    and N0 is read off it at every 2n.
    """
    measure = BlockAssignment(delta=0.0)
    ts = [float(v) for v in t_grid]
    ns = [int(v) for v in n_grid]
    mean = lru_cache(maxsize=None)(lambda n_: expected_zero_count_prefix(2 * n_, measure.p))

    def centered_zero_counts(idx: np.ndarray, ns_: Sequence[int]) -> list[np.ndarray]:
        # the keyed streams are prefix-consistent: one draw to 2 max(n) holds every shorter prefix
        lengths = sorted({2 * n_ for n_ in ns_})
        zeros = zero_count_from_bits(sample_bits_batch(measure, lengths[-1], seed, idx), lengths)
        col = {m: j for j, m in enumerate(lengths)}
        return [np.abs(zeros[:, col[2 * n_]].astype(np.float64) - mean(n_)) for n_ in ns_]

    rows = _tail_rows(centered_zero_counts, zero_count_bound, ts, ns, trials)
    fit_x = [r.t * r.t * r.n for r in rows if 0 < r.empirical < 1]
    fit_y = [math.log(r.empirical) for r in rows if 0 < r.empirical < 1]
    fit: dict = {}
    if len(fit_x) >= 3:
        res = stats.linregress(fit_x, fit_y)
        tcrit = stats.t.ppf(0.975, len(fit_x) - 2)
        num = lambda v: v if math.isfinite(v) else None  # JSON has no NaN: such a number is null
        fit = {
            "c2": num(math.exp(res.intercept)),
            "c3": num(-res.slope),
            "c3_ci": [num(-res.slope - tcrit * res.stderr), num(-res.slope + tcrit * res.stderr)],
            "r_value": num(res.rvalue),  # NaN when the log-frequencies are constant
            "points": len(fit_x),
        }
    config = {
        "experiment": "ldev2",
        "t_grid": ts,
        "n_grid": ns,
        "trials": trials,
        "seed": seed,
        "p": measure.p,
    }
    return DeviationReport(experiment="ldev2", rows=tuple(rows), config=config, fit=fit)
