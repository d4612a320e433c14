"""The package namespace and what each cold entry point imports."""

import hashlib
import importlib

import pytest

import mgms
from conftest import loaded_modules, run_fresh

# every name `mgms` exported when its __init__ imported all submodules eagerly,
# with the module it came from then
EXPORTED = {
    "analytics": (
        "A_closed", "A_series", "CertificationError", "Gauge", "GaugeFamily", "binary_entropy",
        "derivative_series_at_p", "dim_minkowski", "entropy_nat", "expected_zero_count_chain",
        "expected_zero_count_prefix", "gauge_log2", "hausdorff_dim", "hf_derivative_at",
        "partition_entropy", "p_float", "solve_p", "tau_certify", "tau_gamma",
    ),
    "core": (
        "BinaryWord", "chain_length", "chain_partition", "count_cylinders", "count_golden_words",
        "fibonacci", "is_golden_word", "is_multiplicative_prefix", "odd_indices_in",
        "restrict_to_chain",
    ),
    "experiments": (
        "DeviationReport", "TrajectoryReport", "Verdict", "box_dimension_estimate", "covering_sum",
        "density_trajectory", "hoeffding_check", "lower_bound_trajectory",
        "upper_bound_telescoping", "zero_count_deviation_check",
    ),
    "intervals": ("CertifiedInterval",),
    "measures": (
        "BlockAssignment", "LogProb", "MarkovParams", "SampledPoint", "markov_cylinder_logprob",
        "pdelta_logprob", "pmu_identity_gap", "pmu_logprob", "sample_chain", "sample_point",
    ),
    "polynomials": ("EntropyPolynomial", "entropy_poly"),
}
CASES = [(module, name) for module, names in EXPORTED.items() for name in names]


class TestNamespace:
    @pytest.mark.parametrize("module, name", CASES)
    def test_name_is_the_submodule_object(self, module, name):
        namespace = {}
        exec(f"from mgms import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"mgms.{module}"), name)

    def test_all_lists_every_name(self):
        assert sorted(mgms.__all__) == sorted(name for _, name in CASES)
        assert set(mgms.__all__) <= set(dir(mgms))

    def test_submodules_resolve_as_attributes(self):
        for module in (*EXPORTED, "rng"):
            assert getattr(mgms, module) is importlib.import_module(f"mgms.{module}")

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            mgms.no_such_name
        assert not hasattr(mgms, "cli_main")
        with pytest.raises(ImportError):
            exec("from mgms import no_such_name", {})


# every scalar word operation and both enumerators, on Python ints and strings
WORD_OPS = """
import sys
from mgms.core import (BinaryWord, assemble_from_chains, is_golden_word, is_multiplicative_prefix,
                       iter_golden_words, iter_multiplicative_prefixes, restrict_to_chain)
u = BinaryWord.from_bits([0, 1, 0, 0, 1, 0])
assert [u[k] for k in range(1, 7)] == list(u) == [0, 1, 0, 0, 1, 0]
assert str(u.prefix(4)) == "0100" and is_golden_word(u) and is_multiplicative_prefix(u)
chains = {i: restrict_to_chain(u, i) for i in (1, 3, 5)}
assert assemble_from_chains(6, chains) == u
assert len(list(iter_golden_words(6))) == 21 and len(list(iter_multiplicative_prefixes(6))) == 30
assert "numpy" not in sys.modules
"""

# test id: (argv of a fresh process, modules it must not load, modules it must load)
IMPORT_BUDGET = {
    "word ops": (["-c", WORD_OPS], ["numpy"], ["mgms.core"]),
    "dims": (["-m", "mgms.cli", "dims"], ["numpy"], ["mgms.analytics", "mpmath"]),
    "tau": (["-m", "mgms.cli", "tau"], ["numpy"], ["mgms.analytics", "mpmath"]),
    "experiment boxdim": (["-m", "mgms.cli", "experiment", "boxdim", "--n-grid", "16,1024,65536"],
                          ["numpy", "mpmath"], ["mgms.analytics"]),
    # either exponent is a float: s = -log2 p_float(), dim_M a Fibonacci sum
    "experiment cover": (["-m", "mgms.cli", "experiment", "cover", "--exponent", "dimm",
                          "--n-grid", "1024,16384"], ["numpy", "mpmath"], ["mgms.analytics"]),
    "experiment cover s": (["-m", "mgms.cli", "experiment", "cover", "--n-grid", "1024,16384"],
                           ["numpy", "mpmath"], ["mgms.analytics"]),
    # the scalar chain walk reads the word as a string
    "measure --pdelta": (["-m", "mgms.cli", "measure", "--pdelta", "0.05", "0100100010"],
                         ["numpy", "mpmath"], ["mgms.measures"]),
    "measure --pmu": (["-m", "mgms.cli", "measure", "--pmu", "0100100010"],
                      ["numpy", "mpmath"], ["mgms.measures"]),
    "measure --mu": (["-m", "mgms.cli", "measure", "--mu", "0.3", "0100100010"],
                     ["numpy", "mpmath"], ["mgms.measures"]),
    "experiment telescope": (["-m", "mgms.cli", "experiment", "telescope", "--seed", "1", "--ell-max", "8"],
                             ["mpmath"], ["mgms.experiments", "numpy"]),
}


@pytest.mark.parametrize("argv, absent, present", IMPORT_BUDGET.values(), ids=IMPORT_BUDGET)
def test_subcommand_imports_only_what_it_runs(argv, absent, present):
    loaded = loaded_modules(argv)
    for module in present:
        assert module in loaded
    for module in absent:
        assert not [m for m in loaded if m == module or m.startswith(module + ".")]


@pytest.mark.parametrize("argv", [["-m", "mgms.cli", "--version"], ["-c", "import mgms"]])
def test_entry_points_load_no_submodule(argv):
    loaded = loaded_modules(argv)
    assert "mgms" in loaded
    assert [m for m in loaded if m.startswith("mgms.")] == []


# sha256 of the endpoints of tau_gamma(0.5, 20).value as "lo_num/lo_den\nhi_num/hi_den\n",
# the digest test_analytics.test_enclosure_endpoints_are_frozen freezes
TAU_GAMMA_DIGEST = "88106a0f96a823b264d4ef6581b91350baa17ea125da190f687a2ba08148aefd"


def test_tau_gamma_as_first_interval_op_is_frozen():
    # mpmath loads inside tau_gamma here; the weights must still get 120 bits
    code = ("from mgms.analytics import tau_gamma\n"
            "v = tau_gamma(0.5, 20).value\n"
            "print(f'{v.lo.numerator}/{v.lo.denominator}\\n{v.hi.numerator}/{v.hi.denominator}')\n")
    out = run_fresh(["-c", code]).stdout
    assert hashlib.sha256(out.encode()).hexdigest() == TAU_GAMMA_DIGEST


def test_cleared_caches_restore_the_precision():
    # the certify benchmark clears every mgms lru_cache, _iv included, before each op
    from mpmath import iv

    from mgms import intervals
    from mgms.analytics import tau_gamma

    intervals._iv.cache_clear()
    iv.prec = 53
    try:
        v = tau_gamma(0.5, 20).value
        assert iv.prec == 120
    finally:
        iv.prec = 120
    text = f"{v.lo.numerator}/{v.lo.denominator}\n{v.hi.numerator}/{v.hi.denominator}\n"
    assert hashlib.sha256(text.encode()).hexdigest() == TAU_GAMMA_DIGEST
