"""Rigorous numerics for the multiplicative golden mean shift.

Binary sequences with x_k * x_{2k} = 0 decompose along the dyadic chains
J(i) = {i, 2i, 4i, ...} into independent copies of the golden mean shift.
This package implements the computable side of that picture: exact word
combinatorics and counting, log-domain Markov/product measures with
reproducible samplers, certified dimension constants (Hausdorff exponent
s = -log2 p with p^3 = (1-p)^2, Minkowski dimension as a Fibonacci
series), the entropy-polynomial calculus with a certified positive series
constant, and Monte Carlo experiments that trend-test the density
behaviour behind the gauge dichotomy (infinite Hausdorff measure for
mildly corrected gauges, zero for stronger corrections).

The names below resolve on first access (PEP 562), so `import mgms` loads no
submodule and `from mgms import X` loads only the submodule that defines X.
numpy loads with `rng`, `experiments`, the first sampler or batch kernel
of `measures`, or the first `core` word operation other than
`BinaryWord.from_string` and `str`; mpmath loads with the first
transcendental interval operation, which the float constants `p_float`
and `s_float` never run.
"""

__version__ = "0.1.0"

from importlib import import_module

_EXPORTS = {
    "analytics": (
        "A_closed", "A_series", "CertificationError", "Gauge", "GaugeFamily", "binary_entropy",
        "box_dimension_estimate", "covering_sum", "derivative_series_at_p", "dim_minkowski",
        "entropy_nat", "expected_zero_count_chain", "expected_zero_count_prefix", "gauge_log2",
        "hausdorff_dim", "hf_derivative_at", "partition_entropy", "p_float", "solve_p",
        "tau_certify", "tau_gamma",
    ),
    "core": (
        "BinaryWord", "chain_length", "chain_partition", "count_cylinders", "count_golden_words",
        "fibonacci", "is_golden_word", "is_multiplicative_prefix", "odd_indices_in",
        "restrict_to_chain",
    ),
    "experiments": (
        "DeviationReport", "TrajectoryReport", "Verdict", "density_trajectory", "hoeffding_check",
        "lower_bound_trajectory", "upper_bound_telescoping", "zero_count_deviation_check",
    ),
    "intervals": ("CertifiedInterval",),
    "measures": (
        "BlockAssignment", "LogProb", "MarkovParams", "SampledPoint", "markov_cylinder_logprob",
        "pdelta_logprob", "pmu_identity_gap", "pmu_logprob", "sample_chain", "sample_point",
    ),
    "polynomials": ("EntropyPolynomial", "entropy_poly"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "rng")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
