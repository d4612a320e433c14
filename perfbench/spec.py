"""What the benchmark measures: workloads, metrics, bounds and the layer map.

This module is the single source of `BENCHMARK.json`
(`python3 perfbench/run.py --write-benchmark-json` regenerates it). It holds
data only and imports nothing heavy, so the entry point can read it before
`mgms` is importable.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

# Times are scaled to a reference machine speed: raw seconds x CAL_REF_S /
# (time of a calibration loop measured around them). Each workload uses the
# loop that cancelled the most run-to-run drift on it in ten-run trials:
# uint64 hashing in numpy for trajectory, big-integer gcd and products for
# certify, Python bytecode for cli_cold and for the set-up and import probes
# of every workload. No loop tracked deviation better than raw time, so it
# is not scaled. CAL_REF_S is each loop's time on an unloaded core of the
# machine the bounds were set on, so scaled and raw seconds agree there.
CALIBRATION = {"trajectory": "numpy", "deviation": None, "certify": "bigint", "cli_cold": "interpreter"}
CAL_REF_S = {"numpy": 0.0065, "bigint": 0.034, "interpreter": 0.0064}

# Every workload is a closed loop: one benchmark process, one op in flight.
WORKLOADS = [
    ("trajectory",
     "long 2^20 prefixes, one trial per call: the only workload where the log-mass "
     "grid and the identity checks in experiments carry most of the time"),
    ("deviation",
     "many trials on short prefixes in 4096-row chunks: bound by the counter RNG and "
     "never calls the log-mass kernel, so it is the control for kernel changes"),
    ("certify",
     "exact Fraction/mpmath certification with every cache cleared, no numpy: the "
     "target of bounded-precision intervals and the control for sampler changes"),
    ("cli_cold",
     "a fresh python -m mgms.cli process per op: import dominates, so only this "
     "workload sees the cold per-subcommand path"),
]

# (name, unit, better, bound). A round is one pass over the workload's op list.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),       # launch -> import mgms -> warm-up op; median of 3 fresh set-ups
    ("wall_s", "s", "lower", 0.25),        # median wall time of one round, tracing off
    ("op_p50_s", "s", "lower", 0.25),      # median over op kinds of each kind's median latency
    ("op_tail_s", "s", "lower", 0.25),     # per-kind tail (10 ops beyond it, else the median), slowest kind
    ("work_per_s", "1/s", "higher", 0.25), # symbols/s, uniform draws/s, or ops/s; see WORK_UNIT
    ("peak_rss_mb", "MB", "lower", 0.1),   # ru_maxrss of the benchmark process; of the op processes on cli_cold
]

WORK_UNIT = {
    "trajectory": "symbols_per_s",  # seeds x n_max sampled and evaluated
    "deviation": "draws_per_s",     # uniforms consumed, computed from the input sizes
    "certify": "ops_per_s",
    "cli_cold": "ops_per_s",
}

CLI_SUBCOMMANDS = ("dims", "tau", "measure", "telescope", "boxdim")
LAYERS = ("rng", "measures", "experiments", "analytics", "intervals", "polynomials", "core", "cli")

# Per-layer metrics, all per round (median over the traced rounds) unless the
# name says otherwise, with the end-to-end metrics each one should move. A
# metric of a layer the workload does not exercise reads 0.
PER_LAYER = [
    ("rng.uniform_grid.calls", "count", "lower", "deviation draws_per_s, wall_s; trajectory symbols_per_s"),
    ("rng.uniform_grid.busy_s", "s", "lower", "deviation draws_per_s, wall_s (~70%); trajectory symbols_per_s (~23%)"),
    ("rng.draws", "count", "lower", "deviation draws_per_s; no change on certify, cli_cold"),
    ("rng.ns_per_draw", "ns", "lower", "deviation draws_per_s; trajectory symbols_per_s"),
    ("measures.sample_bits_batch.calls", "count", "lower", "deviation draws_per_s; trajectory symbols_per_s"),
    ("measures.sample_bits_batch.self_s", "s", "lower", "deviation draws_per_s; trajectory symbols_per_s"),
    ("measures.symbols_sampled", "count", "lower", "deviation draws_per_s; trajectory symbols_per_s"),
    ("measures.sample_bits_batch.out_bytes", "B", "lower", "peak_rss_mb on deviation and trajectory (computed from array sizes)"),
    ("measures.logprob_prefix_grid.calls", "count", "lower", "trajectory op_p50_s, symbols_per_s"),
    ("measures.logprob_prefix_grid.busy_s", "s", "lower", "trajectory op_p50_s, symbols_per_s (~45%); no change on deviation"),
    ("measures.symbols_evaluated", "count", "lower", "trajectory symbols_per_s"),
    ("measures.zero_count_from_bits.calls", "count", "lower", "trajectory wall_s; deviation wall_s"),
    ("measures.zero_count_from_bits.busy_s", "s", "lower", "trajectory wall_s; deviation wall_s"),
    ("experiments.lower_bound_trajectory.self_s", "s", "lower", "trajectory wall_s"),
    ("experiments.density_trajectory.self_s", "s", "lower", "trajectory wall_s (partition check ~17%, Theil-Sen)"),
    ("experiments.hoeffding_check.self_s", "s", "lower", "deviation wall_s (exceedance counting)"),
    ("experiments.zero_count_deviation_check.self_s", "s", "lower", "deviation wall_s (exceedance counting, fit)"),
    ("experiments.scipy_stats.busy_s", "s", "lower", "trajectory and deviation wall_s (theilslopes, linregress, t.ppf)"),
    ("analytics.solve_p.busy_s", "s", "lower", "certify wall_s; cli_cold dims"),
    ("analytics.tau_certify.busy_s", "s", "lower", "certify wall_s; cli_cold tau"),
    ("analytics.dim_minkowski_enclosure.busy_s", "s", "lower", "certify wall_s; cli_cold dims"),
    ("analytics.tau_gamma.busy_s", "s", "lower", "certify wall_s"),
    ("analytics.hf_derivative_at.calls", "count", "lower", "certify wall_s"),
    ("analytics.hf_derivative_at.busy_s", "s", "lower", "certify wall_s, op_tail_s"),
    ("analytics.derivative_series_at_p.K40_s", "s", "lower", "certify wall_s"),
    ("analytics.derivative_series_at_p.K80_s", "s", "lower", "certify wall_s"),
    ("analytics.derivative_series_at_p.K120_s", "s", "lower", "certify wall_s, op_tail_s (the K=120 op is the tail)"),
    ("analytics.derivative_series_at_p.K120_width_over_tail", "ratio", "lower",
     "certify: bounded precision must not raise it (width / 2.55(K+3)2^-(K+1))"),
    ("intervals.calls", "count", "lower", "certify wall_s"),
    ("intervals.busy_s", "s", "lower", "certify wall_s"),
    ("intervals.endpoint_bits_max", "bits", "lower", "certify wall_s (largest endpoint numerator/denominator)"),
    ("polynomials.entropy_poly.calls", "count", "lower", "certify wall_s"),
    ("polynomials.entropy_poly.busy_s", "s", "lower", "certify wall_s"),
    ("polynomials.evaluate.busy_s", "s", "lower", "certify wall_s (evaluate and evaluate_derivative)"),
    ("core.log2_count_cylinders.busy_s", "s", "lower", "cli_cold boxdim; deviation setup_s (minor)"),
    ("core.chain_length_counts.calls", "count", "lower", "cli_cold boxdim; deviation setup_s (minor)"),
    ("cli.import_s", "s", "lower", "cli_cold op_p50_s, op_tail_s; setup_s on every workload"),
    ("cli.modules_loaded", "count", "lower", "cli_cold op_p50_s; setup_s on every workload"),
    ("cli.scipy_modules_loaded", "count", "lower", "cli_cold op_p50_s; setup_s on every workload"),
    *[(f"cli.{sub}.work_s", "s", "lower", f"cli_cold op_p50_s ({sub} work after a warm import)")
      for sub in CLI_SUBCOMMANDS],
    *[(f"{layer}.self_s", "s", "lower", f"self time of the {layer} layer: wall_s where it dominates")
      for layer in LAYERS if layer != "cli"],
    ("trace.unattributed_share", "ratio", "lower", "share of traced op time inside no layer span"),
    ("trace.overhead_ratio", "ratio", "lower", "traced wall_s / untraced wall_s"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
