#!/usr/bin/env python3
"""Regenerate perfbench/references.json from the program and from mpmath.

    python3 perfbench/record.py

Program outputs (trajectory series, exceedance counts, CLI stdout, enclosure
widths) are recorded from the current tree, so a later change that alters
them fails the benchmark's checks; re-record only for a change that is
meant to alter an output, and say so. The certified constants are checked
against references computed here with mpmath at 60 digits, independently of
mgms: the root of p^3 = (1-p)^2, s = -log2 p, dim_M summed well past any
truncation, and the tau partial sums from the closed form of F_k.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import mpmath
from mpmath import mp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads as W  # noqa: E402
from workloads import Op  # noqa: E402

DIGITS = 60


def _fmt(x) -> str:
    return mpmath.nstr(x, DIGITS + 5, strip_zeros=False)


def mpmath_references() -> dict:
    mp.dps = DIGITS + 20
    p = mp.findroot(lambda x: x**3 - (1 - x) ** 2, mp.mpf("0.57"))
    fib = [0, 1, 2]
    while len(fib) < 400:
        fib.append(fib[-1] + fib[-2])
    # terms 2^-(k+1) log2 F_{k+1} <= k 2^-(k+1): k < 380 leaves a tail far below 1e-80
    dim_m = mp.fsum(mp.log(fib[k + 1], 2) / mp.mpf(2) ** (k + 1) for k in range(1, 380))

    def hf_prime(k):
        def hf(x):  # natural-log entropy times F_{k-1} from its closed form
            F = ((x - 1) ** (k + 1) - (k + 1) * x + (2 * k + 1)) / (x - 2) ** 2
            return (-x * mp.log(x) - (1 - x) * mp.log(1 - x)) * F
        return mp.diff(hf, p)

    tau12 = mp.fsum(k * hf_prime(k) / mp.mpf(2) ** (k + 1) for k in range(1, 13))
    tau_g = mp.fsum(mp.mpf(k) ** mp.mpf(1.5) * hf_prime(k) / mp.mpf(2) ** (k + 1) for k in range(1, 21))
    return {"p": _fmt(p), "s": _fmt(-mp.log(p, 2)), "dim_minkowski": _fmt(dim_m),
            "tau_partial_12": _fmt(tau12), "tau_gamma_partial": _fmt(tau_g)}


def cli_stdout(argv: list[str]) -> str:
    import mgms.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mgms.cli.main(argv)
    if rc != 0:
        raise SystemExit(f"mgms {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def main() -> int:
    refs: dict = {}

    traj = W.Trajectory({})
    refs["trajectory"] = {
        kind: {str(seed): list(traj.run(Op(kind, seed)).series[0]) for seed in range(W.TRAJ_POOL)}
        for kind in W.Trajectory.kinds
    }

    dev = W.Deviation({})
    refs["deviation"] = {}
    for kind in W.Deviation.kinds:
        refs["deviation"][kind] = {}
        for seed in range(W.DEV_POOL):
            report = dev.run(Op(kind, seed))
            if not report.all_ok:
                raise SystemExit(f"{kind} seed {seed}: bound exceeded; choose another pool")
            refs["deviation"][kind][str(seed)] = [round(r.empirical * r.trials) for r in report.rows]

    cert = W.Certify({})
    widths = {}
    tau = gamma = None
    for kind in W.Certify.kinds:
        W.clear_caches()
        result = cert.run(Op(kind))
        if kind == "tau_certify":
            tau, result = result, result.partial_12
        elif kind == "tau_gamma":
            gamma, result = result, result.value
        widths[kind] = float(result.width)
    refs["certify"] = {
        "values": mpmath_references(),
        "width": widths,
        "tau_tail": "159/2048",
        "tau_gamma_tail": str(gamma.tail_bound),
        "tau_gamma_sign": gamma.sign,
    }
    if tau.tail_bound.hi != W.Fraction(159, 2048):
        raise SystemExit(f"tau tail is {tau.tail_bound.hi}, not 159/2048")

    from mgms.measures import BlockAssignment, sample_point

    words = [str(sample_point(BlockAssignment(0.05), 24, seed).word) for seed in range(W.CLI_POOL)]
    cli = W.CliCold({"cli_cold": {"words": words}})
    stdout = {kind: cli_stdout(cli.argv(Op(kind))) for kind in ("dims", "tau", "boxdim")}
    for kind in ("measure", "telescope"):
        stdout[kind] = [cli_stdout(cli.argv(Op(kind, i))) for i in range(W.CLI_POOL)]
    refs["cli_cold"] = {"words": words, "stdout": stdout}

    with open(W.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {W.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
