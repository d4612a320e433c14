"""The four benchmark workloads: inputs drawn from the seed stream, ops, output checks.

Each workload hands out rounds (one pass over its op kinds), runs one op and
checks its output against the references in `references.json` and, where
the package has one, against an independent slow path. Ops call the package
through module attributes, so the traced run sees the wrapped functions;
the checks use names bound here at import, before any wrapper exists.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import mgms.cli  # noqa: F401  (the cli layer is traced and probed in-process)
from mgms import analytics, experiments
from mgms.analytics import Gauge, gauge_log2
from mgms.measures import BlockAssignment, pdelta_logprob, sample_bits_batch, sample_point

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCES = HERE / "references.json"

TRAJ_POOL = 64       # op seeds with recorded trajectory series
DEV_POOL = 32        # op seeds with recorded exceedance counts
CLI_POOL = 16        # telescope seeds and measure words with recorded stdout
DEV_TRIALS = 8192    # two 4096-row chunks per deviation op
ORACLE_N = 2**12     # prefix checked against the scalar sample_point + pdelta_logprob path
ORACLE_OPS = 2       # timed ops per phase that also get the scalar check
REF_TOL = Fraction(1, 10**50)  # slack for the 60-digit references
WIDTH_SLACK = 1.01   # an enclosure may not get wider than its recorded width by more


@dataclass
class Op:
    kind: str
    arg: object = None  # the generated input: an op seed, a word index, or None
    work: int = 1       # symbols, uniform draws, or 1 (one op)


def clear_caches() -> None:
    """cache_clear() every attribute of the mgms modules that has one."""
    for name, mod in list(sys.modules.items()):
        if name == "mgms" or name.startswith("mgms."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def child_env() -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _close(value: float, ref: float, scale: float) -> bool:
    return abs(value - ref) <= 1e-9 * max(abs(ref), scale)


class Workload:
    """Shared shape: op kinds of one round, recorded references, untimed preparation."""

    name = ""
    kinds: tuple[str, ...] = ()

    def __init__(self, refs: dict):
        self.refs = refs.get(self.name, {})

    def prepare(self, op: Op) -> None:
        """Untimed work before an op."""


class Trajectory(Workload):
    """Alternating lower-bound and density trajectories, one seed per call."""

    name = "trajectory"
    kinds = ("lower", "density")
    n_grid = experiments.DEFAULT_N_GRID

    def round(self, rng: random.Random) -> list[Op]:
        return [Op(kind, rng.randrange(TRAJ_POOL), self.n_grid[-1]) for kind in self.kinds]

    @staticmethod
    def measure_and_gauge(kind: str):
        if kind == "lower":
            return BlockAssignment(0.05), Gauge.phi(c=0.002)
        return BlockAssignment(0.0), Gauge.psi_theta(1.0)

    def run(self, op: Op):
        if op.kind == "lower":
            return experiments.lower_bound_trajectory(delta=0.05, c=0.002, seeds=[op.arg])
        return experiments.density_trajectory(*self.measure_and_gauge(op.kind), seeds=[op.arg])

    def check(self, op: Op, report, deep: bool) -> tuple[list[str], dict]:
        # The lower verdict is not checked: its Theil-Sen band contains 0.
        series = report.series[0]
        if not all(math.isfinite(v) for v in series):
            return [f"{op.kind} seed {op.arg}: non-finite log-mass"], {}
        problems = []
        ref = self.refs[op.kind][str(op.arg)]
        # relative to the log-mass scale n: the series is a difference of O(n) terms
        bad = [n for n, v, r in zip(self.n_grid, series, ref) if not _close(v, r, n)]
        if bad:
            problems.append(f"{op.kind} seed {op.arg}: series differs from the reference at n={bad}")
        if deep:
            problems += self._scalar_oracle(op, series)
        return problems, {}

    def _scalar_oracle(self, op: Op, series) -> list[str]:
        measure, gauge = self.measure_and_gauge(op.kind)
        word = sample_point(measure, ORACLE_N, op.arg).word
        bits = sample_bits_batch(measure, ORACLE_N, op.arg, np.array([0]))[0, 1:]
        if not np.array_equal(word.array, bits):
            return [f"{op.kind} seed {op.arg}: batch bits differ from the scalar sampler"]
        for n, v in zip(self.n_grid, series):
            if n > ORACLE_N:
                break
            expect = pdelta_logprob(measure, word.prefix(n)).value - gauge_log2(gauge, n)
            if not _close(v, expect, n):
                return [f"{op.kind} seed {op.arg}: series at n={n} differs from the scalar log-mass"]
        return []


class Deviation(Workload):
    """Hoeffding and zero-count deviation checks, many trials on short prefixes."""

    name = "deviation"
    kinds = ("rademacher", "logmass", "ldev2_64", "ldev2_128", "ldev2_256", "ldev2_512")

    @staticmethod
    def draws(kind: str) -> int:
        if kind == "rademacher":
            return DEV_TRIALS * 100
        if kind == "logmass":
            return DEV_TRIALS * 200 * 3
        return DEV_TRIALS * 2 * int(kind.split("_")[1])  # one uniform per symbol of x_1^(2n)

    def round(self, rng: random.Random) -> list[Op]:
        kinds = list(self.kinds)
        rng.shuffle(kinds)
        return [Op(kind, rng.randrange(DEV_POOL), self.draws(kind)) for kind in kinds]

    def run(self, op: Op):
        if op.kind == "rademacher":
            return experiments.hoeffding_check(experiments.Rademacher(), [0.1, 0.3, 0.5], 100, DEV_TRIALS, op.arg)
        if op.kind == "logmass":
            dist = experiments.CenteredChainLogMass(3, analytics.p_float())
            return experiments.hoeffding_check(dist, [experiments.deviation_threshold(200)], 200, DEV_TRIALS, op.arg)
        n = int(op.kind.split("_")[1])
        return experiments.zero_count_deviation_check(n_grid=(n,), trials=DEV_TRIALS, seed=op.arg)

    def check(self, op: Op, report, deep: bool) -> tuple[list[str], dict]:
        counts = [round(row.empirical * row.trials) for row in report.rows]
        problems = []
        if counts != self.refs[op.kind][str(op.arg)]:
            problems.append(f"{op.kind} seed {op.arg}: exceedance counts {counts} differ from the reference")
        if not report.all_ok:
            problems.append(f"{op.kind} seed {op.arg}: an empirical tail exceeds its bound")
        return problems, {}


def _endpoint_bits(intervals) -> int:
    return max(max(f.numerator.bit_length(), f.denominator.bit_length())
               for ci in intervals for f in (ci.lo, ci.hi))


class Certify(Workload):
    """Certified constants in exact arithmetic, each op paying a cold cache."""

    name = "certify"
    kinds = ("solve_p", "hausdorff_dim", "tau_certify", "dim_minkowski_1e-6", "dim_minkowski_1e-30",
             "tau_gamma", "K40", "K80", "K120")

    def round(self, rng: random.Random) -> list[Op]:
        kinds = list(self.kinds)
        rng.shuffle(kinds)
        return [Op(kind) for kind in kinds]

    def prepare(self, op: Op) -> None:
        clear_caches()

    def run(self, op: Op):
        kind = op.kind
        if kind == "solve_p":
            return analytics.solve_p()
        if kind == "hausdorff_dim":
            return analytics.hausdorff_dim()
        if kind == "tau_certify":
            return analytics.tau_certify()
        if kind.startswith("dim_minkowski_"):
            return analytics.dim_minkowski_enclosure(float(kind.split("_")[2]))
        if kind == "tau_gamma":
            return analytics.tau_gamma(0.5, 20)
        return analytics.derivative_series_at_p(int(kind[1:]))

    def _contains(self, ci, key: str) -> bool:
        ref = Fraction(self.refs["values"][key])
        return ci.lo - REF_TOL <= ref <= ci.hi + REF_TOL

    def check(self, op: Op, result, deep: bool) -> tuple[list[str], dict]:
        kind, problems, extras = op.kind, [], {}
        if kind == "tau_certify":
            ci = result.partial_12
            if result.tail_bound.lo != Fraction(self.refs["tau_tail"]) or result.tail_bound.width != 0:
                problems.append(f"tau tail {result.tail_bound} is not exactly {self.refs['tau_tail']}")
            if not result.margin > 0:
                problems.append("tau margin is not positive")
            contained = self._contains(ci, "tau_partial_12")
            intervals = [ci, result.tail_bound]
        elif kind == "tau_gamma":
            ci = result.value
            if result.tail_bound != Fraction(self.refs["tau_gamma_tail"]) or result.sign != self.refs["tau_gamma_sign"]:
                problems.append(f"tau_gamma tail or sign differs: {result.tail_bound}, {result.sign}")
            contained = self._contains(ci, "tau_gamma_partial")
            intervals = [ci]
        else:
            ci = result
            key = {"solve_p": "p", "hausdorff_dim": "s"}.get(kind, "dim_minkowski")
            contained = ci.contains_zero() if kind.startswith("K") else self._contains(ci, key)
            intervals = [ci]
        if not contained:
            problems.append(f"{kind}: enclosure {ci} misses its reference")
        if float(ci.width) > WIDTH_SLACK * self.refs["width"][kind]:
            problems.append(f"{kind}: width {float(ci.width):.3e} exceeds the recorded {self.refs['width'][kind]:.3e}")
        extras["intervals.endpoint_bits_max"] = _endpoint_bits(intervals)
        if kind == "K120":
            tail = Fraction(51, 20) * Fraction(123, 2**121)
            extras["analytics.derivative_series_at_p.K120_width_over_tail"] = float(ci.width / tail)
        return problems, extras


class CliCold(Workload):
    """One fresh `python -m mgms.cli` process per op, run one after another."""

    name = "cli_cold"
    kinds = ("dims", "tau", "measure", "telescope", "boxdim")

    def round(self, rng: random.Random) -> list[Op]:
        kinds = list(self.kinds)
        rng.shuffle(kinds)
        return [Op(kind, rng.randrange(CLI_POOL) if kind in ("measure", "telescope") else None)
                for kind in kinds]

    def argv(self, op: Op) -> list[str]:
        if op.kind == "measure":
            return ["measure", "--pdelta", "0.05", self.refs["words"][op.arg]]
        if op.kind == "telescope":
            return ["experiment", "telescope", "--seed", str(op.arg), "--ell-max", "16"]
        if op.kind == "boxdim":
            return ["experiment", "boxdim", "--n-grid", "16,1024,65536"]
        return [op.kind]

    def expected(self, op: Op) -> str:
        out = self.refs["stdout"][op.kind]
        return out if op.arg is None else out[op.arg]

    def run(self, op: Op):
        cmd = [sys.executable, "-m", "mgms.cli", *self.argv(op)]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
            out, err = proc.stdout.read(), proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)  # wait4 gives this child's own peak RSS
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, err, usage.ru_maxrss

    def check(self, op: Op, result, deep: bool) -> tuple[list[str], dict]:
        rc, out, err, maxrss_kb = result
        extras = {"peak_rss_kb": maxrss_kb}
        if rc != 0:
            return [f"{' '.join(self.argv(op))}: exit code {rc}: {err.decode(errors='replace')[-300:]}"], extras
        if out.decode() != self.expected(op):
            return [f"{' '.join(self.argv(op))}: stdout differs from the reference"], extras
        return [], extras


WORKLOADS = {w.name: w for w in (Trajectory, Deviation, Certify, CliCold)}


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def make(name: str, refs: dict):
    return WORKLOADS[name](refs)
