"""Rigorous numerics for the multiplicative golden mean shift.

Binary sequences with x_k * x_{2k} = 0 decompose along the dyadic chains
J(i) = {i, 2i, 4i, ...} into independent copies of the golden mean shift.
This package implements the computable side of that picture: exact word
operations and cylinder counts, log-domain Markov/product measures with
reproducible samplers, certified dimension constants (Hausdorff exponent
s = -log2 p with p^3 = (1-p)^2, Minkowski dimension as a Fibonacci
series), the entropy-polynomial calculus with a certified positive series
constant, and Monte Carlo experiments that trend-test the density
behaviour behind the gauge dichotomy (infinite Hausdorff measure for
mildly corrected gauges, zero for stronger corrections).

The names below resolve on first access (PEP 562), so `import mgms` loads no
submodule and `from mgms import X` loads only the submodule that defines X.
numpy loads with `experiments`, the batch sampler and kernels of
`measures` (which `telescoping` calls only past 2^17 symbols), the first
vectorized fold of `rng`, or `core`'s array bridge `BinaryWord.from_array`
and `BinaryWord.array`; `measures.sample_point` and the scalar folds of
`rng` run on Python ints.  mpmath loads only with the exps of
`tau_gamma`'s weights and with the Student-t quantile of the `ldev2` fit,
since every certified logarithm is integer code.
"""

__version__ = "0.1.0"

from importlib import import_module

_EXPORTS = {
    "analytics": (
        "CertificationError", "Gauge", "GaugeFamily", "binary_entropy", "box_dimension_estimate",
        "covering_sum", "derivative_series_at_p", "dim_minkowski", "expected_zero_count_chain",
        "expected_zero_count_prefix", "gauge_log2", "hausdorff_dim", "partition_entropy", "p_float",
        "solve_p", "tau_certify", "tau_gamma",
    ),
    "core": ("BinaryWord", "fibonacci"),
    "experiments": (
        "DeviationReport", "TrajectoryReport", "Verdict", "density_trajectory", "hoeffding_check",
        "lower_bound_trajectory", "zero_count_deviation_check",
    ),
    "intervals": ("CertifiedInterval",),
    "measures": (
        "BlockAssignment", "LogProb", "MarkovParams", "SampledPoint", "markov_cylinder_logprob",
        "pdelta_logprob", "sample_point",
    ),
    "polynomials": ("EntropyPolynomial", "entropy_poly"),
    "telescoping": ("upper_bound_telescoping",),
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
