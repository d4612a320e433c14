"""Command-line front end: constants, certification, measures, experiments.

Subcommands
    dims        certified enclosures for p, s, and the Minkowski dimension
    tau         positivity certification of the series constant tau
    measure     log2 cylinder mass with a per-chain breakdown
    experiment  density/lower/telescope/hoeffding/ldev2/cover/boxdim runs

Exit codes: 0 success, 1 certification failure, 2 usage error.  Every
usage error, a bad value or one argparse rejects (an unknown flag or
choice, a missing argument, an --out path that cannot be written), is
reported in one `usage error:` line on stderr and exits 2: nothing on
stdout, no --out file.

Every report goes through one writer, `_write`: --format plain or json
everywhere, and csv for `experiment` alone, whose reports have the flat
CSV schema (`--format csv` on dims, tau or measure is a usage error).
Each handler passes its plain text and zero-argument builders of the
JSON body and the CSV rows, and `_write` runs only the one --format asks
for: plain output builds neither, so it computes no config hash and
loads no hashlib, which --format json and csv do.
`experiment cover` and `density` take all four --gauge families from
one table, `_gauge`.  Stochastic experiments require --seed; reports
embed the full config and library version, and rerunning a config
reproduces the report body byte for byte.

Each handler imports the modules it runs, so a cold process pays only for
those: `dims`, `tau`, `measure`, `experiment boxdim` and `cover` load
neither numpy nor mpmath (the certified logarithms are integer code), and,
in plain output, neither dataclasses (with the inspect, ast and dis it
pulls in) nor json: their records are tuples (`typing.NamedTuple`) and
only --format json and csv import json.  So does `telescope` up to
--ell-max 17 (the default is 16), which imports only `mgms.telescoping`:
the scalar sampler draws its one word; past that it loads numpy for the
batch sampler, but not the experiments module.  `density`, `hoeffding`
and `lower` load numpy and dataclasses but not mpmath (an s-gauge takes
the float s = -log2 p, and `lower`'s tau bound is certified without it);
`ldev2` loads both, for the Student-t quantile; `--version` loads no
other mgms module, and no json.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING, Callable, Optional

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


def _write(args, text: str, payload: Callable[[], dict],
           rows: Optional[Callable[[], list[tuple]]] = None) -> None:
    """Write one report in --format, to --out or to stdout.

    `text` is the plain report.  `payload` and `rows` build the other
    formats and run only when one is asked for: `payload()` is the JSON
    body, which gains the library and schema versions, and its "config"
    heads the CSV; `rows()` are the CSV rows
    `experiment,n,statistic,value,seed_count,config_hash`.  Only
    `experiment` admits --format csv.  Plain output calls neither, so it
    computes no config hash and never loads json or hashlib.
    """
    from .analytics import SCHEMA_VERSION

    if args.format == "json":
        import json

        body = {"version": __version__, "schema_version": SCHEMA_VERSION, **payload()}
        text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        import json

        config = json.dumps(payload()["config"], sort_keys=True, separators=(",", ":"), default=str)
        lines = [f"# mgms {__version__} schema_version={SCHEMA_VERSION}", "# config: " + config,
                 "experiment,n,statistic,value,seed_count,config_hash"]
        lines += [f"{exp},{n},{stat},{value!r},{seeds},{h}" for exp, n, stat, value, seeds, h in rows()]
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
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
    lines = [
        f"mgms {__version__} -- certified dimension constants",
        _interval_line("p      (root of p^3 = (1-p)^2)", p),
        _interval_line("s      (Hausdorff dimension, -log2 p)", s),
        _interval_line(f"dim_M  (Minkowski dimension, tail < {args.tol:g})", dm),
        "",
    ]
    _write(args, "\n".join(lines), lambda: {
        "config": {"command": "dims", "tol": args.tol},
        "p": _interval_dict(p),
        "s": _interval_dict(s),
        "dim_minkowski": {**_interval_dict(dm), "partial": dm_val, "tail_bound": dm_tail},
    })
    return 0


def cmd_tau(args) -> int:
    from .analytics import tau_certify

    cert = tau_certify()  # raises CertificationError on failure
    lower = float(cert.margin)
    lines = [
        f"mgms {__version__} -- series constant certification",
        _interval_line("partial sum (k <= 12)", cert.partial_12),
        f"tail bound (k >= 13)  = {float(cert.tail_bound.hi):.12f}  "
        f"(exact {cert.tail_bound.hi.numerator}/{cert.tail_bound.hi.denominator})",
        f"certified lower bound = {lower:.12f}",
        f"tau > 0 CERTIFIED (margin {lower:.6f})",
        "",
    ]
    _write(args, "\n".join(lines), lambda: {
        "config": {"command": "tau"},
        "partial_12": _interval_dict(cert.partial_12),
        "tail_bound": _interval_dict(cert.tail_bound),
        "certified_lower_bound": lower,
        "verdict": cert.sign,
    })
    return 0


# -- measure ---------------------------------------------------------------------


def _log2_str(value: float, terms: int) -> str:
    """A log2 mass summed in float from `terms` prices <= 0, to the decimals (at most 12) its
    rounding supports: with each price within an ulp, it lies within gamma_k |s| of the mass s,
    k = terms + 1 (Higham 2002), so d decimals hold while k u / (1 - 2 k u) |value| <= 10^-d / 2."""
    k = terms + 1
    a, b = abs(value).as_integer_ratio()
    d = next((d for d in range(12, 0, -1) if 2 * k * a * 10**d <= ((1 << 53) - 2 * k) * b), 0)
    return f"{value:.{d}f}"


def cmd_measure(args) -> int:
    word_str = args.word
    if not word_str or any(c not in "01" for c in word_str):
        raise UsageError(f"word must be a nonempty 0/1 string, got {word_str!r}")
    from .core import BinaryWord
    from .measures import (BlockAssignment, MarkovParams, chain_breakdown, markov_cylinder_logprob,
                           pdelta_logprob)

    u = BinaryWord.from_string(word_str)
    if args.mu is not None:
        params = _checked(MarkovParams, args.mu)
        lp = markov_cylinder_logprob(params, u)
        breakdown = [{"i": 1, "restriction": word_str, "parameter": params.r,
                      "log2_mass": None if lp.is_zero else lp.value}]
        label = f"golden Markov measure, r = {params.r}"
    else:
        assign = _checked(BlockAssignment, delta=args.pdelta if args.pdelta is not None else 0.0)
        lp = pdelta_logprob(assign, u)
        breakdown = [{"i": i, "restriction": "".join(map(str, symbols)), "block": b, "parameter": r,
                      "log2_mass": None if mass == -math.inf else mass}
                     for i, b, r, symbols, mass in chain_breakdown(assign, u)]
        label = ("chain product measure P_mu" if args.pdelta in (None, 0.0)
                 else f"block-perturbed measure, delta = {args.pdelta}")
    lines = [f"{label}; word {word_str}"]
    if lp.is_zero:
        lines.append("log2 P[u] = ZERO (word not admissible)")
    else:
        lines.append(f"log2 P[u] = {_log2_str(lp.value, len(word_str))}   (P[u] = {lp.to_probability():.6e})")
    for c in breakdown:
        mass = "ZERO" if c["log2_mass"] is None else _log2_str(c["log2_mass"], len(c["restriction"]))
        blk = f" block {c['block']}" if "block" in c else ""
        lines.append(f"  chain J({c['i']}): '{c['restriction']}'{blk}"
                     f" parameter {c['parameter']:.10f}  contribution {mass}")
    lines.append("")
    _write(args, "\n".join(lines), lambda: {
        "config": {"command": "measure", "word": word_str,
                   "mu": args.mu, "pmu": args.pmu, "pdelta": args.pdelta},
        "measure": label,
        "word": word_str,
        "log2_probability": None if lp.is_zero else lp.value,
        "probability_zero": lp.is_zero,
        "chains": breakdown,
    })
    return 0


# -- experiments -------------------------------------------------------------------


# smallest prefix length each experiment accepts on its grid
GRID_MIN = {"density": 4, "lower": 4, "ldev2": 1, "cover": 4, "boxdim": 2}


def _parse_list(text: str, convert, what: str) -> list:
    """The comma-separated entries of text through convert; an empty entry is a usage error."""
    entries = text.split(",")
    _require(all(entries), f"empty entry in {what} {text!r}")
    try:
        return [convert(v) for v in entries]
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r}: {exc}") from None


def _parse_grid(text: str, least: int) -> list[int]:
    grid = _parse_list(text, int, "grid")
    _require(len(set(grid)) == len(grid), f"duplicate points in grid {text!r}")
    _require(min(grid) >= least, f"grid {text!r} must have every n >= {least}")
    return grid


def _parse_floats(text: str) -> list[float]:
    values = _parse_list(text, float, "threshold list")
    _require(all(math.isfinite(v) for v in values), f"thresholds must be finite, got {text!r}")
    _require(len(set(values)) == len(values), f"duplicate thresholds in {text!r}")
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
    n_grid = (list(DEFAULT_N_GRID) if args.n_grid is None
              else _parse_grid(args.n_grid, GRID_MIN.get(kind, 1)))
    # the two counting formulas: no sampling, so neither numpy nor the experiments module
    if kind == "cover":
        gauge = _gauge(args, dim_minkowski(1e-9).value if args.exponent == "dimm" else None)
        return _write_series("cover", {n: _checked(covering_sum, gauge, n) for n in n_grid}, args,
                             extra={"gauge": gauge.describe()})
    if kind == "boxdim":
        return _write_series("boxdim", {n: box_dimension_estimate(n) for n in n_grid}, args, extra={})
    # one sampled word: the scalar sampler up to 2^17 symbols, numpy only past that
    if kind == "telescope":
        from .telescoping import upper_bound_telescoping

        exponent = _telescope_g(args.g, args.ell_max)
        return _write_report(args, _checked(upper_bound_telescoping, exponent, args.ell_max, args.seed))

    from .experiments import (
        DEFAULT_EPSILON,
        DEFAULT_SEEDS,
        CenteredChainLogMass,
        Rademacher,
        density_trajectory,
        deviation_threshold,
        hoeffding_check,
        lower_bound_trajectory,
        zero_count_deviation_check,
    )
    from .measures import BlockAssignment

    seeds = (list(range(args.seed, args.seed + args.seeds))
             if args.seed is not None else list(DEFAULT_SEEDS))

    if kind == "density":
        measure = _checked(BlockAssignment, delta=args.delta)
        report = _checked(density_trajectory, measure, _gauge(args), n_grid, seeds)
    elif kind == "lower":
        report = _checked(lower_bound_trajectory, args.delta, args.c, n_grid, seeds)
    elif kind == "hoeffding":
        dist = (Rademacher() if args.distribution == "rademacher"
                else CenteredChainLogMass(args.k, BlockAssignment(0.0).p))
        if args.t_grid is not None:
            t_grid = _parse_floats(args.t_grid)
        elif args.distribution == "logmass":
            # sub-linear deviation event S_n >= n^(1-epsilon)
            epsilon = DEFAULT_EPSILON if args.epsilon is None else args.epsilon
            t_grid = [_checked(deviation_threshold, args.n, epsilon)]
        else:
            t_grid = [0.1, 0.3, 0.5]
        report = hoeffding_check(dist, t_grid, args.n, args.trials, args.seed)
    else:  # ldev2
        kwargs = {"trials": args.trials, "seed": args.seed}
        if args.t_grid is not None:
            kwargs["t_grid"] = _parse_floats(args.t_grid)
        if args.n_grid is not None:
            kwargs["n_grid"] = n_grid
        report = zero_count_deviation_check(**kwargs)
    return _write_report(args, report)


def _write_report(args, report) -> int:
    """Write an experiment report; with --out, its summary line goes to stdout too."""
    summary = report.summary_line()
    _write(args, summary + "\n", report.to_json_dict, report.to_csv_rows)
    if args.out:
        print(summary)
    return 0


def _telescope_g(spec: str, ell_max: int) -> float:
    """The exponent e of the g spec t or t^<e>, with g(j) = j^e checked for
    j = 1..ell_max, the scales the run uses."""
    _require(spec == "t" or spec.startswith("t^"), f"bad g spec {spec!r}; use t, t^2, or t^<exponent>")
    try:
        e = 1.0 if spec == "t" else float(spec[2:])
    except ValueError:
        raise UsageError(f"bad g spec {spec!r}") from None
    _require(math.isfinite(e), f"bad g spec {spec!r}: exponent must be finite")
    for j in range(1, ell_max + 1):
        try:
            value = float(j) ** e
        except OverflowError:
            raise UsageError(f"bad g spec {spec!r}: g({j}) overflows") from None
        _require(math.isfinite(value) and value > 0 and math.isfinite(1.0 / value),
                 f"bad g spec {spec!r}: g({j}) = {value!r} must be positive, "
                 "finite and have a finite reciprocal")
    return e


def _write_series(kind: str, values: dict, args, extra: dict) -> int:
    from .analytics import config_hash

    grid = sorted(values)
    config = {"experiment": kind, "n_grid": grid, **extra}

    def payload() -> dict:
        return {"config": config, "config_hash": config_hash(config),
                "values": {str(n): values[n] for n in grid}}

    def rows() -> list[tuple]:
        h = config_hash(config)
        return [(kind, n, kind, values[n], 0, h) for n in grid]

    text = f"{kind}: " + ", ".join(f"n={n}: {values[n]:.6f}" for n in grid) + "\n"
    _write(args, text, payload, rows)
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
    e.add_argument("--g", default="t", help="telescope gauge g(t) = t^e: t or t^<e>")
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
    except MemoryError as exc:  # an input too large for this machine, such as a 2^40 prefix
        print("usage error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
