"""The package namespace and what each cold entry point imports."""

import ast
import functools
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import math
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import mgms
from conftest import loaded_modules, run_fresh

# every name `mgms` exported when its __init__ imported all submodules eagerly,
# with the module it came from then, less the since-deleted `chain_length` and `sample_chain`
EXPORTED = {
    "analytics": (
        "CertificationError", "Gauge", "GaugeFamily", "binary_entropy", "derivative_series_at_p",
        "dim_minkowski", "expected_zero_count_chain", "expected_zero_count_prefix", "gauge_log2",
        "hausdorff_dim", "partition_entropy", "p_float", "solve_p", "tau_certify", "tau_gamma",
    ),
    "core": ("BinaryWord", "fibonacci"),
    "experiments": (
        "DeviationReport", "TrajectoryReport", "Verdict", "box_dimension_estimate", "covering_sum",
        "density_trajectory", "hoeffding_check", "lower_bound_trajectory",
        "upper_bound_telescoping", "zero_count_deviation_check",
    ),
    "intervals": ("CertifiedInterval",),
    "measures": (
        "BlockAssignment", "LogProb", "MarkovParams", "SampledPoint", "markov_cylinder_logprob",
        "pdelta_logprob", "sample_point",
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


# every scalar word operation and the cylinder count, on Python ints and strings
WORD_OPS = """
import sys
from mgms.core import BinaryWord, block_of, chain_length_counts, fibonacci, log2_count_cylinders
u = BinaryWord.from_bits([0, 1, 0, 0, 1, 0])
assert [u[k] for k in range(1, 7)] == list(u) == [0, 1, 0, 0, 1, 0]
assert str(u.prefix(4)) == "0100" and u.count_ones() == 2 and u.count_zeros() == 4
assert [block_of(i) for i in (1, 3, 5)] == [0, 1, 2]
assert chain_length_counts(6) == {1: 1, 2: 1, 3: 1} and fibonacci(7) == 21
assert round(2 ** log2_count_cylinders(6)) == 30
assert "numpy" not in sys.modules
"""

# plain output builds no JSON or CSV, so it computes no config hash: the absent-check
# matches by dotted prefix, which does not cover the underscore name
NO_HASH = ["hashlib", "_hashlib"]
# the records of the numpy-free paths are tuples, and plain output writes no JSON: no
# dataclasses, with the inspect, ast and dis it loads, and no json
NO_RECORD_MACHINERY = ["dataclasses", "inspect", "json"]

# test id: (argv of a fresh process, modules it must not load, modules it must load)
IMPORT_BUDGET = {
    "word ops": (["-c", WORD_OPS], ["numpy", *NO_RECORD_MACHINERY], ["mgms.core"]),
    # the certified logarithms are integer code: neither the constants nor lower's tau bound load mpmath
    "dims": (["-m", "mgms.cli", "dims"], ["numpy", "mpmath", *NO_RECORD_MACHINERY], ["mgms.analytics"]),
    "tau": (["-m", "mgms.cli", "tau"], ["numpy", "mpmath", *NO_RECORD_MACHINERY], ["mgms.analytics"]),
    "experiment lower": (["-m", "mgms.cli", "experiment", "lower", "--seed", "1", "--seeds", "2",
                          "--n-grid", "16,64,256"], ["mpmath", *NO_HASH], ["mgms.analytics", "numpy"]),
    "experiment boxdim": (["-m", "mgms.cli", "experiment", "boxdim", "--n-grid", "16,1024,65536"],
                          ["numpy", "mpmath", *NO_HASH, *NO_RECORD_MACHINERY], ["mgms.analytics"]),
    "experiment boxdim json": (["-m", "mgms.cli", "experiment", "boxdim", "--n-grid", "16,1024",
                                "--format", "json"], ["numpy", "mpmath"], ["mgms.analytics", "hashlib", "json"]),
    # either exponent is a float: s = -log2 p_float(), dim_M a Fibonacci sum
    "experiment cover": (["-m", "mgms.cli", "experiment", "cover", "--exponent", "dimm",
                          "--n-grid", "1024,16384"], ["numpy", "mpmath", *NO_HASH, *NO_RECORD_MACHINERY],
                         ["mgms.analytics"]),
    "experiment cover s": (["-m", "mgms.cli", "experiment", "cover", "--n-grid", "1024,16384"],
                           ["numpy", "mpmath", *NO_HASH, *NO_RECORD_MACHINERY], ["mgms.analytics"]),
    # the scalar chain walk reads the word as a string
    "measure --pdelta": (["-m", "mgms.cli", "measure", "--pdelta", "0.05", "0100100010"],
                         ["numpy", "mpmath", *NO_RECORD_MACHINERY], ["mgms.measures"]),
    "measure --pmu": (["-m", "mgms.cli", "measure", "--pmu", "0100100010"],
                      ["numpy", "mpmath", *NO_RECORD_MACHINERY], ["mgms.measures"]),
    "measure --mu": (["-m", "mgms.cli", "measure", "--mu", "0.3", "0100100010"],
                     ["numpy", "mpmath", *NO_RECORD_MACHINERY], ["mgms.measures"]),
    # up to 2^17 symbols the scalar sampler draws the word: no numpy, no experiments module
    "experiment telescope": (["-m", "mgms.cli", "experiment", "telescope", "--seed", "1", "--ell-max", "8"],
                             ["numpy", "mpmath", "mgms.experiments", *NO_HASH, *NO_RECORD_MACHINERY],
                             ["mgms.telescoping"]),
    "experiment telescope ell 18": (["-m", "mgms.cli", "experiment", "telescope", "--seed", "1",
                                     "--ell-max", "18"], ["mpmath", "mgms.experiments", *NO_HASH],
                                    ["mgms.telescoping", "numpy"]),
    "experiment telescope csv": (["-m", "mgms.cli", "experiment", "telescope", "--seed", "1",
                                  "--ell-max", "8", "--format", "csv"],
                                 ["numpy", "mpmath"], ["mgms.telescoping", "hashlib"]),
    "experiment density": (["-m", "mgms.cli", "experiment", "density", "--seed", "1", "--seeds", "2",
                            "--n-grid", "16,64,256"], ["mpmath", *NO_HASH], ["mgms.experiments", "numpy"]),
    "experiment hoeffding": (["-m", "mgms.cli", "experiment", "hoeffding", "--seed", "1", "--trials", "200",
                              "--n", "20"], ["mpmath", *NO_HASH], ["mgms.experiments", "numpy"]),
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
    assert "json" not in loaded


# -- the records: tuples that read, compare and hash as the frozen dataclasses they were ----

def _records():
    from mgms.analytics import Gauge, GaugeFamily, TauCertificate, p_float
    from mgms.core import BinaryWord
    from mgms.intervals import CertifiedInterval
    from mgms.measures import BlockAssignment, LogProb, MarkovParams, SampledPoint, sample_point
    from mgms.polynomials import EntropyPolynomial, entropy_poly

    p = p_float()
    point = CertifiedInterval.point(Fraction(159, 2048))
    descriptor = (("delta", 0.05), ("measure", "P_delta"), ("p", p))
    # id: (record, an equal one built another way, an unequal one, its field values, a field,
    #      its repr and hash as the dataclass gave them (None where a str, an enum or None in it
    #      makes the hash vary from process to process), bad builds with their ValueError texts)
    return {
        "BinaryWord": (BinaryWord("010010"), BinaryWord.from_bits([0, 1, 0, 0, 1, 0]), BinaryWord("01001"),
                       ("010010",), "symbols", "BinaryWord('010010')", None,
                       [(lambda: BinaryWord("012"), "not a 0/1 string: '012'")]),
        "CertifiedInterval": (
            CertifiedInterval(Fraction(1, 3), 0.5), CertifiedInterval(lo=Fraction(1, 3), hi=Fraction(1, 2)),
            CertifiedInterval.point(Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 2)), "lo",
            "CertifiedInterval(lo=Fraction(1, 3), hi=Fraction(1, 2))", -2843216766309380078,
            [(lambda: CertifiedInterval(1, 0), "empty interval: lo=1 > hi=0")]),
        "TauCertificate": (
            TauCertificate(CertifiedInterval(1, 2), point, Fraction(7, 9), "POSITIVE"),
            TauCertificate(partial_12=CertifiedInterval(1, 2), tail_bound=point, margin=Fraction(7, 9),
                           sign="POSITIVE"),
            TauCertificate(CertifiedInterval(1, 2), point, Fraction(7, 8), "POSITIVE"),
            (CertifiedInterval(1, 2), point, Fraction(7, 9), "POSITIVE"), "margin",
            "TauCertificate(partial_12=CertifiedInterval(lo=Fraction(1, 1), hi=Fraction(2, 1)), "
            "tail_bound=CertifiedInterval(lo=Fraction(159, 2048), hi=Fraction(159, 2048)), "
            "margin=Fraction(7, 9), sign='POSITIVE')", None, []),
        "Gauge": (Gauge.phi_gamma(0.002, 0.5, 0.75), Gauge(GaugeFamily.PHI_GAMMA, 0.75, c=0.002, gamma=0.5),
                  Gauge.phi(0.002, 0.75), (GaugeFamily.PHI_GAMMA, 0.75, 0.002, None, 0.5), "s",
                  "Gauge(family=<GaugeFamily.PHI_GAMMA: 'phi_gamma'>, s=0.75, c=0.002, theta=None, gamma=0.5)",
                  None, [(lambda: Gauge.phi(-1.0), "coefficient must be positive, got -1.0"),
                         (lambda: Gauge.phi_gamma(0.1, 0.0), "need c > 0 and gamma > 0")]),
        "EntropyPolynomial": (entropy_poly(3), EntropyPolynomial(3, (2, 2, -1, 1)), entropy_poly(2),
                              (3, (2, 2, -1, 1)), "coeffs", "EntropyPolynomial(index=3, coeffs=(2, 2, -1, 1))",
                              -7082048156770163579, [(lambda: entropy_poly(-1), "index must be >= 0, got -1")]),
        "LogProb": (LogProb(-1.5), LogProb(value=-1.5), LogProb(-math.inf), (-1.5,), "value",
                    "LogProb(value=-1.5)", -5159742379068131841,
                    [(lambda: LogProb(0.5), "log2 probability must be <= 0, got 0.5"),
                     (lambda: LogProb(math.nan), "log2 probability must be <= 0, got nan")]),
        "MarkovParams": (MarkovParams(0.25), MarkovParams(r=0.25), MarkovParams(0.5), (0.25,), "r",
                         "MarkovParams(r=0.25)", 2443369451713584472,
                         [(lambda: MarkovParams(1.0), "parameter must lie in (0,1), got 1.0")]),
        "BlockAssignment": (
            BlockAssignment(0.05), BlockAssignment(delta=0.05, p=p), BlockAssignment(), (0.05, p), "p",
            "BlockAssignment(delta=0.05, p=0.5698402909980532)", 4510324737823726440,
            [(lambda: BlockAssignment(-0.1), "delta must be >= 0, got -0.1"),
             (lambda: BlockAssignment(0.0, 1.5), "p must lie in (0,1), got 1.5"),
             (lambda: BlockAssignment(0.6), "p + delta must stay below 1, got 1.1698402909980532")]),
        "SampledPoint": (
            sample_point(BlockAssignment(0.05), 10, 3), SampledPoint(BinaryWord("0100100000"), 3, descriptor),
            SampledPoint(BinaryWord("0100100000"), 4, descriptor), (BinaryWord("0100100000"), 3, descriptor),
            "word", "SampledPoint(word=BinaryWord('0100100000'), seed=3, descriptor=(('delta', 0.05), "
            "('measure', 'P_delta'), ('p', 0.5698402909980532)))", None, []),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_record_reads_compares_and_hashes_as_before(name):
    record, equal, unequal, values, field, text, digest, bad = _records()[name]
    assert type(record).__name__ == name and repr(record) == text
    assert record == equal and record != unequal
    assert hash(record) == hash(equal) == hash(values)  # a frozen dataclass hashed its field tuple
    if digest is not None:
        assert hash(record) == digest
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(unequal, field))
    for build, message in bad:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_binary_word_caches_its_array():
    from mgms.core import BinaryWord

    word = BinaryWord("0110")
    assert word.array is word.array and word.array.tolist() == [0, 1, 1, 0]


# sha256 of the endpoints of tau_gamma(0.5, 20).value as "lo_num/lo_den\nhi_num/hi_den\n",
# the digest test_analytics.test_enclosure_endpoints_are_frozen freezes
TAU_GAMMA_DIGEST = "c3e76bf5ad231bbdcf18f9e88879f848b02b49e346fc41730130ec4b7d24b5e0"


def test_tau_gamma_as_first_interval_op_is_frozen():
    # mpmath loads inside tau_gamma here; the weights must still get 120 bits
    code = ("from mgms.analytics import tau_gamma\n"
            "v = tau_gamma(0.5, 20).value\n"
            "print(f'{v.lo.numerator}/{v.lo.denominator}\\n{v.hi.numerator}/{v.hi.denominator}')\n")
    out = run_fresh(["-c", code]).stdout
    assert hashlib.sha256(out.encode()).hexdigest() == TAU_GAMMA_DIGEST


def test_certified_output_ignores_the_global_interval_precision(perfbench):
    # mgms passes its 120 bits to mpmath's exp and never reads or writes iv.prec:
    # with iv.prec at 53 before a cold call (every mgms cache cleared, as the certify benchmark
    # clears them) and again before a warm one, the endpoints keep their frozen digests
    from mpmath import iv

    from mgms.analytics import dim_minkowski_enclosure, hausdorff_dim, tau_gamma

    clear_caches = perfbench[2].clear_caches
    frozen = ((hausdorff_dim, "da2bd1fe98eced1319a852c529342c3bbe6b0dbc24c6916ef073995a038659a7"),
              (lambda: dim_minkowski_enclosure(1e-6), "b1b8df68ab755585728bd0db44dcfebf95d354eea73ca2403a713923a6cbcbfb"),
              (lambda: tau_gamma(0.5, 20).value, TAU_GAMMA_DIGEST))
    saved = iv.prec
    try:
        for call, digest in frozen:
            clear_caches()
            for _ in ("cold", "warm"):
                iv.prec = 53
                v = call()
                text = f"{v.lo.numerator}/{v.lo.denominator}\n{v.hi.numerator}/{v.hi.denominator}\n"
                assert hashlib.sha256(text.encode()).hexdigest() == digest
                assert iv.prec == 53
    finally:
        iv.prec = saved


# mpmath's correctly rounded arithmetic, which `intervals._round` replaces, and its log, which
# `intervals._ln` replaces: the package may call mpmath only for `mpf_exp` and to build or read
# its arguments
MPMATH_REPLACED = {"mpf_div", "mpf_mul", "mpf_add", "mpf_sub", "from_rational", "mpf_log", "from_int"}


def test_mpmath_only_takes_exps():
    used = []
    for path in sorted(Path(mgms.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            if name in MPMATH_REPLACED or name.startswith("mpi_"):
                used.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert used == []


# -- what the benchmark and the CLI reach ----------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's spec, tracing and workloads modules, imported as perfbench/run.py imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return tuple(importlib.import_module(name) for name in ("spec", "tracing", "workloads"))


def test_benchmark_finds_what_it_imports_and_patches(perfbench):
    # workloads imports sample_point and pdelta_logprob; the tracer wraps every layer,
    # EntropyPolynomial.evaluate by name and experiments.stats: a name removed from
    # the package fails here instead of failing every benchmark run
    spec, tracing, _ = perfbench
    evaluate = mgms.polynomials.EntropyPolynomial.__dict__["evaluate"]
    undo = tracing.install(tracing.Tracer(), spec.LAYERS)
    undo()
    assert mgms.polynomials.EntropyPolynomial.__dict__["evaluate"] is evaluate


# Functions in src/mgms that no CLI run and no benchmark round reaches, each kept for a reason.
_VALUE_TYPE = "a method of a value type, kept whole"
UNREACHED = {
    "__init__.__getattr__": "PEP 562 hook: runs on `from mgms import name`, which no run does",
    "__init__.__dir__": "PEP 562 hook: runs on dir(mgms)",
    "polynomials.EntropyPolynomial.evaluate": "perfbench/tracing.py patches it by name; a test oracle",
    "polynomials.EntropyPolynomial.evaluate_derivative": "perfbench/tracing.py patches it by name",
    "polynomials._horner": "behind the two evaluators",
    "intervals.iv_polyval": "behind the two evaluators on an interval",
    **{f"core.BinaryWord.{name}": _VALUE_TYPE for name in (
        "__getitem__", "__iter__", "__repr__", "count_ones", "count_zeros", "empty", "from_array",
        "from_bits")},
    "core.BinaryWord.__getnewargs__": "copy and pickle call it, which no run does",
    **{f"intervals.CertifiedInterval.{name}": _VALUE_TYPE for name in (
        "__add__", "__mul__", "__rsub__", "__str__", "__sub__", "_coerce", "contains", "is_negative")},
}

# every subcommand, plain, JSON and CSV, every gauge family, with and without --t-grid
PROBE_ARGV = [
    "dims", "dims --format json", "dims --tol 1e-30 --format json", "tau", "tau --format json",
    "measure --pdelta 0.05 0100100010", "measure --mu 0.3 0100100010 --format json",
    "measure --pmu 0100100010", "measure --pmu 0110",
    "experiment boxdim --n-grid 16,1024", "experiment boxdim --n-grid 16,1024 --format csv",
    "experiment cover --gauge phi_gamma --n-grid 16,1024", "experiment cover --gauge phi --n-grid 16,64",
    "experiment cover --exponent dimm --gauge pure --n-grid 16,1024 --format json",
    "experiment density --seed 1 --seeds 2 --n-grid 16,64,256",
    "experiment density --seed 1 --seeds 2 --n-grid 16,64,256 --delta 0",  # P_mu: one parameter
    "experiment density --seed 1 --seeds 2 --n-grid 16,64,256 --gauge pure --format json",
    "experiment lower --seed 1 --seeds 2 --n-grid 16,64,256 --format csv",
    "experiment telescope --seed 1 --ell-max 8",
    "experiment telescope --seed 1 --ell-max 18",  # past the scalar sampler: the batch sampler
    "experiment telescope --seed 1 --ell-max 8 --format csv",
    "experiment telescope --seed 1 --g t^1.5 --ell-max 8 --format json",
    "experiment hoeffding --seed 1 --trials 200 --n 20",
    "experiment hoeffding --seed 1 --distribution logmass --k 3 --n 20 --trials 200",
    "experiment hoeffding --seed 1 --t-grid 0.1,0.3 --trials 200 --n 20 --format csv",
    "experiment ldev2 --seed 1 --trials 500 --n-grid 32,64 --t-grid 0.1,0.2 --format json",
    "experiment ldev2 --seed 1 --trials 500 --n-grid 32,64",
    "--version", "experiment boxdim --n-grid 1", "experiment frobnicate",
]


def _code_of(member) -> list[types.CodeType]:
    """The code objects behind one namespace entry: a function, one behind a cache or other
    wrapper, a static or class method, a cached property or a property's accessors."""
    if isinstance(member, property):
        return [f.__code__ for f in (member.fget, member.fset, member.fdel) if f is not None]
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    elif isinstance(member, functools.cached_property):
        member = member.func
    member = inspect.unwrap(member)
    return [member.__code__] if isinstance(member, types.FunctionType) else []


def _package_functions() -> dict[tuple, str]:
    """(file, first line, name) of every def in src/mgms, to its module-qualified name.

    Read from the code objects of the imported modules, not from the files, so an edit
    to a file while the suite runs cannot shift the lines: module functions and class
    members from each namespace, nested defs from the constants of their parent's code.
    """
    found = {}

    def walk(code, name):
        found[(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                walk(const, f"{name}.{const.co_name}")

    submodules = [importlib.import_module(f"mgms.{m.name}") for m in pkgutil.iter_modules(mgms.__path__)]
    for module in (mgms, *submodules):
        filename = os.path.realpath(module.__file__)
        stem = Path(filename).stem
        namespaces, seen = [("", vars(module))], set()
        while namespaces:
            prefix, namespace = namespaces.pop()
            for member in list(namespace.values()):
                if isinstance(member, type) and member.__module__ == module.__name__ and member not in seen:
                    seen.add(member)
                    namespaces.append((f"{prefix}{member.__name__}.", vars(member)))
                for code in _code_of(member):
                    if os.path.realpath(code.co_filename) == filename and not code.co_name.startswith("<"):
                        walk(code, f"{stem}.{prefix}{code.co_name}")
    return found


def test_every_function_is_reached(perfbench, tmp_path, capsys, monkeypatch):
    _, _, workloads = perfbench
    import mgms.cli

    workloads.clear_caches()  # a cached function runs only on a miss
    monkeypatch.setattr(mgms.rng, "_U", None)  # so the vector folds bind numpy's constants again
    reached = {}
    sys.setprofile(lambda frame, event, arg: reached.setdefault(id(frame.f_code), frame.f_code)
                   if event == "call" else None)
    try:
        for argv in PROBE_ARGV:
            mgms.cli.main(argv.split())
        mgms.cli.main(["dims", "--out", str(tmp_path / "dims.txt")])
        refs = workloads.load_references()
        for name in ("trajectory", "deviation", "certify"):
            wl = workloads.make(name, refs)
            for op in wl.round(random.Random(1)):
                wl.prepare(op)
                assert wl.check(op, wl.run(op), True)[0] == []
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    keys = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in reached.values()}
    unreached = {name for key, name in _package_functions().items() if key not in keys}
    assert unreached == set(UNREACHED)


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


# the log-frequencies of this fit are constant, so its r and the band of c3 are NaN
CONSTANT_FIT_ARGV = "experiment ldev2 --seed 1 --trials 3 --n-grid 2,3,4,5,6 --t-grid 0.1,0.2 --format json"


@pytest.mark.parametrize("argv", [a for a in PROBE_ARGV if "--format json" in a] + [CONSTANT_FIT_ARGV])
def test_json_output_is_strict(argv, capsys):
    # json.dumps writes a NaN or an infinity as a bare token that strict parsers refuse
    import mgms.cli

    assert mgms.cli.main(argv.split()) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_not_json)
    if argv == CONSTANT_FIT_ARGV:
        assert payload["fit"]["r_value"] is None and payload["fit"]["c3_ci"] == [None, None]
