"""Command-line front end: constants, certification, measures, experiments.

Subcommands
    dims        certified enclosures for p, s, and the Minkowski dimension
    tau         positivity certification of the series constant tau
    measure     log2 cylinder mass with a per-chain breakdown
    experiment  density/lower/telescope/hoeffding/ldev2/cover/boxdim runs

Exit codes: 0 success, 1 certification failure, 2 usage error.  Every
usage error, a bad value or one argparse rejects (an unknown flag or
choice, a missing argument), is reported in one `usage error:` line on
stderr and exits 2 before the report is written: nothing on stdout, no
--out file.

Every report goes through one writer, `_write`: --format plain or json
everywhere, and csv for `experiment` alone, whose reports have the flat
CSV schema (`--format csv` on dims, tau or measure is a usage error).
`experiment cover` and `density` take all four --gauge families from
one table, `_gauge`.  Stochastic experiments require --seed; reports
embed the full config and library version, and rerunning a config
reproduces the report body byte for byte.

Each handler imports the modules it runs, so a cold process pays only for
those: `dims` and `tau` load mpmath but not numpy; `measure`,
`experiment boxdim` and `cover` load neither; `telescope`, `density` and
`hoeffding` load numpy but not mpmath (an s-gauge takes the float
s = -log2 p); `lower` and `ldev2` load both, for the certified tau bound
and the Student-t quantile; `--version` loads no other mgms module.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, Optional

from . import __version__

if TYPE_CHECKING:
    from .intervals import CertifiedInterval

EXPERIMENT_KINDS = ("density", "lower", "telescope", "hoeffding", "ldev2", "cover", "boxdim")
STOCHASTIC_KINDS = ("density", "lower", "telescope", "hoeffding", "ldev2")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError; its subparsers inherit the class."""

    def error(self, message: str):
        raise UsageError(message)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _checked(build, *args, **kwargs):
    """Call a constructor whose ValueError means a bad command-line value."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _interval_dict(ci: CertifiedInterval) -> dict:
    return {
        "lo": f"{ci.lo.numerator}/{ci.lo.denominator}",
        "hi": f"{ci.hi.numerator}/{ci.hi.denominator}",
        "lo_float": float(ci.lo),
        "hi_float": float(ci.hi),
        "mid": ci.mid_float,
        "width": float(ci.width),
    }


def _interval_line(name: str, ci: CertifiedInterval) -> str:
    return (
        f"{name} = {ci.mid_float:.12f}  "
        f"(enclosure width {float(ci.width):.3e}; "
        f"lo {ci.lo.numerator}/{ci.lo.denominator}, hi {ci.hi.numerator}/{ci.hi.denominator})"
    )


def _write(args, payload: dict, text: str, rows: Optional[list[tuple]] = None) -> None:
    """Write one report in --format, to --out or to stdout.

    `payload` is the JSON body, which gains the library and schema
    versions; `text` is the plain report; `rows` are the CSV rows
    `experiment,n,statistic,value,seed_count,config_hash` under a header
    naming payload["config"].  Only `experiment` admits --format csv.
    """
    from .analytics import SCHEMA_VERSION

    if args.format == "json":
        payload = {"version": __version__, "schema_version": SCHEMA_VERSION, **payload}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        config = json.dumps(payload["config"], sort_keys=True, separators=(",", ":"), default=str)
        lines = [f"# mgms {__version__} schema_version={SCHEMA_VERSION}", "# config: " + config,
                 "experiment,n,statistic,value,seed_count,config_hash"]
        lines += [f"{exp},{n},{stat},{value!r},{seeds},{h}" for exp, n, stat, value, seeds, h in rows]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- dims / tau ------------------------------------------------------------------


def cmd_dims(args) -> int:
    _require(math.isfinite(args.tol) and args.tol > 0,
             f"--tol must be positive and finite, got {args.tol}")
    from .analytics import dim_minkowski, dim_minkowski_enclosure, hausdorff_dim, solve_p

    p = solve_p()
    s = hausdorff_dim()
    dm_val, dm_tail = dim_minkowski(args.tol)
    dm = dim_minkowski_enclosure(args.tol)
    payload = {
        "config": {"command": "dims", "tol": args.tol},
        "p": _interval_dict(p),
        "s": _interval_dict(s),
        "dim_minkowski": {**_interval_dict(dm), "partial": dm_val, "tail_bound": dm_tail},
    }
    lines = [
        f"mgms {__version__} -- certified dimension constants",
        _interval_line("p      (root of p^3 = (1-p)^2)", p),
        _interval_line("s      (Hausdorff dimension, -log2 p)", s),
        _interval_line(f"dim_M  (Minkowski dimension, tail < {args.tol:g})", dm),
        "",
    ]
    _write(args, payload, "\n".join(lines))
    return 0


def cmd_tau(args) -> int:
    from .analytics import tau_certify

    cert = tau_certify()  # raises CertificationError on failure
    lower = float(cert.margin)
    payload = {
        "config": {"command": "tau"},
        "partial_12": _interval_dict(cert.partial_12),
        "tail_bound": _interval_dict(cert.tail_bound),
        "certified_lower_bound": lower,
        "verdict": cert.sign,
    }
    lines = [
        f"mgms {__version__} -- series constant certification",
        _interval_line("partial sum (k <= 12)", cert.partial_12),
        f"tail bound (k >= 13)  = {float(cert.tail_bound.hi):.12f}  "
        f"(exact {cert.tail_bound.hi.numerator}/{cert.tail_bound.hi.denominator})",
        f"certified lower bound = {lower:.12f}",
        f"tau > 0 CERTIFIED (margin {lower:.6f})",
        "",
    ]
    _write(args, payload, "\n".join(lines))
    return 0


# -- measure ---------------------------------------------------------------------


def cmd_measure(args) -> int:
    word_str = args.word
    if not word_str or any(c not in "01" for c in word_str):
        raise UsageError(f"word must be a nonempty 0/1 string, got {word_str!r}")
    from .core import BinaryWord
    from .measures import BlockAssignment, LogProb, MarkovParams, chain_breakdown, markov_cylinder_logprob

    u = BinaryWord.from_string(word_str)
    if args.mu is not None:
        params = _checked(MarkovParams, args.mu)
        lp = markov_cylinder_logprob(params, u)
        breakdown = [{"i": 1, "restriction": word_str, "parameter": params.r,
                      "log2_mass": None if lp.is_zero else lp.value}]
        label = f"golden Markov measure, r = {params.r}"
    else:
        assign = _checked(BlockAssignment, delta=args.pdelta if args.pdelta is not None else 0.0)
        chains = list(chain_breakdown(assign, u))
        total = 0.0
        for *_, mass in chains:
            total += mass  # left to right, as pdelta_logprob sums (sum() compensates from 3.12)
        lp = LogProb(total)
        breakdown = [{"i": i, "restriction": "".join(map(str, symbols)), "block": b, "parameter": r,
                      "log2_mass": None if mass == -math.inf else mass}
                     for i, b, r, symbols, mass in chains]
        label = ("chain product measure P_mu" if args.pdelta in (None, 0.0)
                 else f"block-perturbed measure, delta = {args.pdelta}")
    payload = {
        "config": {"command": "measure", "word": word_str,
                   "mu": args.mu, "pmu": args.pmu, "pdelta": args.pdelta},
        "measure": label,
        "word": word_str,
        "log2_probability": None if lp.is_zero else lp.value,
        "probability_zero": lp.is_zero,
        "chains": breakdown,
    }
    lines = [f"{label}; word {word_str}"]
    if lp.is_zero:
        lines.append("log2 P[u] = ZERO (word not admissible)")
    else:
        lines.append(f"log2 P[u] = {lp.value:.12f}   (P[u] = {lp.to_probability():.6e})")
    for c in breakdown:
        mass = "ZERO" if c["log2_mass"] is None else f"{c['log2_mass']:.12f}"
        blk = f" block {c['block']}" if "block" in c else ""
        lines.append(f"  chain J({c['i']}): '{c['restriction']}'{blk}"
                     f" parameter {c['parameter']:.10f}  contribution {mass}")
    lines.append("")
    _write(args, payload, "\n".join(lines))
    return 0


# -- experiments -------------------------------------------------------------------


# smallest prefix length each experiment accepts on its grid
GRID_MIN = {"density": 4, "lower": 4, "ldev2": 1, "cover": 4, "boxdim": 2}


def _parse_grid(text: str, least: int) -> list[int]:
    try:
        grid = [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from None
    _require(bool(grid), f"empty grid {text!r}")
    _require(len(set(grid)) == len(grid), f"duplicate points in grid {text!r}")
    _require(min(grid) >= least, f"grid {text!r} must have every n >= {least}")
    return grid


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad threshold list {text!r}: {exc}") from None
    _require(all(math.isfinite(v) for v in values), f"thresholds must be finite, got {text!r}")
    return values


def _check_experiment_args(args) -> None:
    for flag, value, least in (("--seeds", args.seeds, 1), ("--trials", args.trials, 1),
                               ("--n", args.n, 1), ("--k", args.k, 1), ("--ell-max", args.ell_max, 2)):
        _require(value >= least, f"{flag} must be >= {least}, got {value}")
    for flag in ("delta", "c", "theta", "gamma", "epsilon"):
        value = getattr(args, flag)  # None: the library default
        _require(value is None or math.isfinite(value), f"--{flag} must be finite, got {value}")


def _gauge(args, s: Optional[float] = None):
    """The --gauge family with its --c, --theta and --gamma; s None means the Hausdorff dimension."""
    from .analytics import Gauge

    if args.gauge == "pure":
        return Gauge.pure(s)
    if args.gauge == "psi":
        return Gauge.psi_theta(args.theta, s)
    if args.gauge == "phi":
        return _checked(Gauge.phi, args.c, s)
    return _checked(Gauge.phi_gamma, args.c, args.gamma, s)


def cmd_experiment(args) -> int:
    from .analytics import DEFAULT_N_GRID, box_dimension_estimate, covering_sum, dim_minkowski

    kind = args.kind
    if kind in STOCHASTIC_KINDS and args.seed is None:
        raise UsageError(f"experiment {kind!r} is stochastic: --seed is required")
    _check_experiment_args(args)
    n_grid = _parse_grid(args.n_grid, GRID_MIN.get(kind, 1)) if args.n_grid else list(DEFAULT_N_GRID)
    # the two counting formulas: no sampling, so neither numpy nor the experiments module
    if kind == "cover":
        gauge = _gauge(args, dim_minkowski(1e-9).value if args.exponent == "dimm" else None)
        return _write_series("cover", {n: covering_sum(gauge, n) for n in n_grid}, args,
                             extra={"gauge": gauge.describe()})
    if kind == "boxdim":
        return _write_series("boxdim", {n: box_dimension_estimate(n) for n in n_grid}, args, extra={})

    from .experiments import (
        DEFAULT_EPSILON,
        DEFAULT_SEEDS,
        MIN_TREND_POINTS,
        CenteredChainLogMass,
        Rademacher,
        density_trajectory,
        deviation_threshold,
        hoeffding_check,
        lower_bound_trajectory,
        upper_bound_telescoping,
        zero_count_deviation_check,
    )
    from .measures import BlockAssignment

    if kind in ("density", "lower"):
        _require(len(n_grid) >= MIN_TREND_POINTS,
                 f"experiment {kind!r} fits a trend: --n-grid needs at least "
                 f"{MIN_TREND_POINTS} points, got {len(n_grid)}")
    seeds = (list(range(args.seed, args.seed + args.seeds))
             if args.seed is not None else list(DEFAULT_SEEDS))

    if kind == "density":
        measure = _checked(BlockAssignment, delta=args.delta)
        report = density_trajectory(measure, _gauge(args), n_grid, seeds)
    elif kind == "lower":
        _checked(BlockAssignment, delta=args.delta)
        report = lower_bound_trajectory(args.delta, args.c, n_grid, seeds)
    elif kind == "telescope":
        g, label = _telescope_g(args.g, args.ell_max)
        report = upper_bound_telescoping(g, args.ell_max, args.seed, g_label=label)
    elif kind == "hoeffding":
        dist = (Rademacher() if args.distribution == "rademacher"
                else CenteredChainLogMass(args.k, BlockAssignment(0.0).p))
        if args.t_grid:
            t_grid = _parse_floats(args.t_grid)
        elif args.distribution == "logmass":
            # sub-linear deviation event S_n >= n^(1-epsilon)
            epsilon = DEFAULT_EPSILON if args.epsilon is None else args.epsilon
            t_grid = [_checked(deviation_threshold, args.n, epsilon)]
        else:
            t_grid = [0.1, 0.3, 0.5]
        report = hoeffding_check(dist, t_grid, args.n, args.trials, args.seed)
    else:  # ldev2
        t_grid = _parse_floats(args.t_grid) if args.t_grid else None
        kwargs = {"trials": args.trials, "seed": args.seed}
        if t_grid:
            kwargs["t_grid"] = t_grid
        if args.n_grid:
            kwargs["n_grid"] = n_grid
        report = zero_count_deviation_check(**kwargs)

    _write(args, report.to_json_dict(), report.summary_line() + "\n", report.to_csv_rows())
    if args.out:
        print(report.summary_line())
    return 0


def _telescope_g(spec: str, ell_max: int):
    """Parse the g spec and check g(j) for j = 1..ell_max, the scales the run uses."""
    if spec == "t":
        g, label = (lambda t: t), "t"
    elif spec == "t^2":
        g, label = (lambda t: t * t), "t^2"
    elif spec.startswith("t^"):
        try:
            e = float(spec[2:])
        except ValueError:
            raise UsageError(f"bad g spec {spec!r}") from None
        _require(math.isfinite(e), f"bad g spec {spec!r}: exponent must be finite")
        g, label = (lambda t: t**e), spec
    else:
        raise UsageError(f"bad g spec {spec!r}; use t, t^2, or t^<exponent>")
    for j in range(1, ell_max + 1):
        try:
            value = g(float(j))
        except OverflowError:
            raise UsageError(f"bad g spec {spec!r}: g({j}) overflows") from None
        _require(math.isfinite(value) and value > 0 and math.isfinite(1.0 / value),
                 f"bad g spec {spec!r}: g({j}) = {value!r} must be positive, "
                 "finite and have a finite reciprocal")
    return g, label


def _write_series(kind: str, values: dict, args, extra: dict) -> int:
    from .analytics import config_hash

    config = {"experiment": kind, "n_grid": sorted(values), **extra}
    h = config_hash(config)
    payload = {"config": config, "config_hash": h,
               "values": {str(n): values[n] for n in sorted(values)}}
    text = f"{kind}: " + ", ".join(f"n={n}: {values[n]:.6f}" for n in sorted(values)) + "\n"
    _write(args, payload, text, [(kind, n, kind, values[n], 0, h) for n in sorted(values)])
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="mgms",
        description="Rigorous numerics and experiments for the multiplicative golden mean shift.",
    )
    ap.add_argument("--version", action="version", version=f"mgms {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    # only experiment reports have a CSV schema; argparse rejects the rest before any work
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "json"), default="plain")
    common.add_argument("--out", default=None, help="write the report to this path")
    tabular = argparse.ArgumentParser(add_help=False)
    tabular.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    tabular.add_argument("--out", default=None, help="write the report to this path")

    d = sub.add_parser("dims", parents=[common], help="certified p, s, dim_M enclosures")
    d.add_argument("--tol", type=float, default=1e-6)
    d.set_defaults(func=cmd_dims)

    t = sub.add_parser("tau", parents=[common], help="certify the series constant tau > 0")
    t.set_defaults(func=cmd_tau)

    m = sub.add_parser("measure", parents=[common], help="log2 cylinder mass with chain breakdown")
    grp = m.add_mutually_exclusive_group(required=True)
    grp.add_argument("--mu", type=float, default=None, metavar="R",
                     help="golden Markov measure with parameter R")
    grp.add_argument("--pmu", action="store_true", help="chain product measure at p")
    grp.add_argument("--pdelta", type=float, default=None, metavar="DELTA",
                     help="block-perturbed product measure")
    m.add_argument("word", help="0/1 word")
    m.set_defaults(func=cmd_measure)

    e = sub.add_parser("experiment", parents=[tabular], help="run a persisted experiment")
    e.add_argument("kind", choices=EXPERIMENT_KINDS)
    e.add_argument("--seed", type=int, default=None, help="base seed (required when stochastic)")
    e.add_argument("--seeds", type=int, default=100, help="number of seeds/trajectories")
    e.add_argument("--trials", type=int, default=100_000)
    e.add_argument("--delta", type=float, default=0.05)
    e.add_argument("--c", type=float, default=0.002)
    e.add_argument("--theta", type=float, default=1.0)
    e.add_argument("--gamma", type=float, default=0.5)
    e.add_argument("--gauge", choices=("pure", "phi", "psi", "phi_gamma"), default="psi")
    e.add_argument("--n-grid", default=None, help="comma-separated prefix lengths")
    e.add_argument("--n", type=int, default=100, help="summand count (hoeffding)")
    e.add_argument("--distribution", choices=("rademacher", "logmass"), default="rademacher")
    e.add_argument("--epsilon", type=float, default=None,
                   help="deviation-event exponent: default t = n^(-epsilon)")
    e.add_argument("--k", type=int, default=3, help="chain length (hoeffding logmass)")
    e.add_argument("--t-grid", default=None, help="comma-separated thresholds")
    e.add_argument("--g", default="t", help="telescope g spec: t, t^2, t^<e>")
    e.add_argument("--ell-max", type=int, default=16)
    e.add_argument("--exponent", choices=("s", "dimm"), default="s",
                   help="dimension exponent for cover gauges")
    e.set_defaults(func=cmd_experiment)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    from .analytics import CertificationError  # every subcommand loads analytics

    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
