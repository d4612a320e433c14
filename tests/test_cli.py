"""CLI contract: output shapes, exit codes, determinism of report bodies."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgms
from conftest import loaded_modules
from mgms.analytics import CertificationError, Gauge, covering_sum
from mgms.cli import main


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDims:
    def test_plain_output(self, capsys):
        code, out = run(capsys, "dims")
        assert code == 0
        assert "0.569840" in out and "0.811370" in out and "0.824293" in out
        assert "/" in out  # exact rational endpoints are printed

    def test_json_carries_rational_strings(self, capsys):
        code, out = run(capsys, "dims", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        for key in ("p", "s", "dim_minkowski"):
            assert "/" in payload[key]["lo"] and "/" in payload[key]["hi"]
        assert abs(payload["p"]["mid"] - 0.56984) < 1e-5
        assert payload["dim_minkowski"]["tail_bound"] < 1e-6

    def test_wider_tolerance_still_contains(self, capsys):
        _, sharp = run(capsys, "dims", "--format", "json", "--tol", "1e-6")
        _, wide = run(capsys, "dims", "--format", "json", "--tol", "1e-2")
        a, b = json.loads(sharp)["dim_minkowski"], json.loads(wide)["dim_minkowski"]
        assert b["width"] > a["width"]
        assert b["lo_float"] <= a["lo_float"] and a["hi_float"] <= b["hi_float"]

    def test_bad_tol_is_usage_error(self, capsys):
        code, _ = run(capsys, "dims", "--tol", "-1")
        assert code == 2


class TestTau:
    def test_plain_certification(self, capsys):
        code, out = run(capsys, "tau")
        assert code == 0
        assert "0.18746" in out
        assert "159/2048" in out
        assert "tau > 0 CERTIFIED" in out

    def test_json_payload(self, capsys):
        code, out = run(capsys, "tau", "--format", "json")
        payload = json.loads(out)
        assert payload["verdict"] == "POSITIVE"
        assert abs(payload["partial_12"]["mid"] - 0.187469) < 1e-5
        assert payload["tail_bound"]["hi_float"] <= 0.1
        assert payload["certified_lower_bound"] > 0.08

    def test_certification_failure_exit_code(self, monkeypatch, capsys):
        import mgms.analytics as analytics  # cmd_tau looks tau_certify up here at call time

        def boom():
            raise CertificationError("forced")

        monkeypatch.setattr(analytics, "tau_certify", boom)
        code, _ = run(capsys, "tau")
        assert code == 1


class TestMeasure:
    def test_markov_example(self, capsys):
        code, out = run(capsys, "measure", "--mu", "0.5", "01")
        assert code == 0
        assert "-2.000000" in out

    def test_inadmissible_is_zero(self, capsys):
        code, out = run(capsys, "measure", "--pmu", "11")
        assert code == 0
        assert "ZERO" in out

    def test_pdelta_breakdown_blocks(self, capsys):
        code, out = run(capsys, "measure", "--pdelta", "0.05", "000")
        assert code == 0
        assert "J(1)" in out and "J(3)" in out
        assert "block 0" in out and "block 1" in out

    def test_json_chain_rows(self, capsys):
        code, out = run(capsys, "measure", "--pdelta", "0.05", "000", "--format", "json")
        payload = json.loads(out)
        chains = {c["i"]: c for c in payload["chains"]}
        assert chains[1]["block"] == 0 and chains[3]["block"] == 1
        assert chains[1]["restriction"] == "00" and chains[3]["restriction"] == "0"
        assert payload["log2_probability"] == pytest.approx(
            2 * math.log2(chains[1]["parameter"]) + math.log2(chains[3]["parameter"])
        )

    def test_malformed_word(self, capsys):
        code, _ = run(capsys, "measure", "--pmu", "01a")
        assert code == 2

    # sha256 of the `measure --pdelta 0.05 <word> --format json` stdout, as
    # computed when the total and the chain breakdown were two walks
    FROZEN = [
        ("0100100010", "1ef09d2851b4146e4552c4a687adae62a1c2fceebd962794214d0d9a797f6b2a"),
        ("0101", "756f5035ce844c371f84acb51fe3d30c776fb3f6baab9d41407ad3e32efdaa6b"),
        ("0100100010001001001010000010",
         "a5f0fe601b6b065293894822a19c873524ce4c34ac2ccf879fa4fee993392c54"),
    ]

    @pytest.mark.parametrize("word, digest", FROZEN)
    def test_pdelta_json_is_frozen(self, capsys, word, digest):
        code, out = run(capsys, "measure", "--pdelta", "0.05", word, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExperimentCommand:
    def test_stochastic_requires_seed(self, capsys):
        code, _ = run(capsys, "experiment", "density")
        assert code == 2

    def test_unknown_kind_is_usage_error(self, capsys):
        code = main(["experiment", "frobnicate"])
        assert code == 2

    def test_boxdim_series(self, capsys):
        code, out = run(capsys, "experiment", "boxdim", "--n-grid", "8,65536")
        assert code == 0
        assert "0.8231" in out and "0.8242" in out

    def test_cover_with_minkowski_exponent(self, capsys):
        code, out = run(
            capsys, "experiment", "cover", "--gauge", "pure", "--exponent", "dimm",
            "--n-grid", "1024,16384", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["values"]["16384"]) < 1.0

    # every gauge flag with non-default --c, --theta and --gamma; phi_gamma used to compute phi
    @pytest.mark.parametrize("flag, gauge", [
        ("pure", lambda: Gauge.pure()),
        ("phi", lambda: Gauge.phi(0.01)),
        ("psi", lambda: Gauge.psi_theta(2.0)),
        ("phi_gamma", lambda: Gauge.phi_gamma(0.01, 0.25)),
    ], ids=["pure", "phi", "psi", "phi_gamma"])
    def test_cover_computes_the_gauge_it_names(self, capsys, flag, gauge):
        code, out = run(capsys, "experiment", "cover", "--gauge", flag, "--c", "0.01",
                        "--theta", "2", "--gamma", "0.25", "--n-grid", "16,1024", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["config"]["gauge"] == gauge().describe()  # the family among them
        assert payload["values"] == {str(n): covering_sum(gauge(), n) for n in (16, 1024)}

    def test_lower_small_run_summary(self, capsys):
        code, out = run(
            capsys, "experiment", "lower", "--seed", "0", "--seeds", "8",
            "--n-grid", "16,64,256",
        )
        assert code == 0
        assert "verdict" in out and "Theil-Sen" in out

    def test_summary_names_the_points_the_verdict_used(self, capsys):
        # all three grid points lie below the 4096 floor, so the verdict used the whole grid
        argv = ("experiment", "lower", "--seed", "-1", "--seeds", "2", "--n-grid", "16,64,256")
        code, out = run(capsys, *argv)
        assert code == 0
        assert "whole grid n >= 16: < 3 points beyond 4096" in out and "n > 4096" not in out
        code, out = run(capsys, "experiment", "lower", "--seed", "-1", "--seeds", "2",
                        "--n-grid", "16,8192,16384,32768")
        assert code == 0 and "n > 4096," in out and "whole grid" not in out

    # sha256 of the `--format json` stdout, as computed when the trend band
    # came from scipy.stats.theilslopes and the log-masses from block one counts
    TREND_FROZEN = [
        ("lower --seed 0 --seeds 6 --n-grid 16,256,1024,4096,16384",
         "eb098ff763d3d1202148f44f3b2fa67c62d60a00954b8c64c7b170ec5eb8447d"),
        ("density --seed 3 --seeds 5 --n-grid 16,64,256,1024,4096,8192",
         "671046a4521c55ac39a032f2e2bb26c751b9333119df4932570b6f1d82d97ba2"),
    ]

    @pytest.mark.parametrize("argv, digest", TREND_FROZEN)
    def test_trend_json_is_frozen(self, capsys, argv, digest):
        code, out = run(capsys, "experiment", *argv.split(), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the `--format json` stdout, as computed when each deviation
    # check ran its own trial loop; 10000 trials span three trial chunks
    DEVIATION_FROZEN = [
        ("hoeffding --seed 2 --trials 10000",
         "ff1a7441eac2cb948066470f21d19ea48dd9594f71baddd32c318a35fb005879"),
        ("hoeffding --seed 1 --distribution logmass --k 5 --n 200 --trials 10000",
         "dbf80904726a2b3bdc3657434eb2e80fe935eace7451ec3a0c1888c8f53a3986"),
        ("ldev2 --seed 3 --trials 10000 --n-grid 32,64,128",
         "14d5e945a9aed50993c4333f47b58d16475c75f564590bf126de8de3395a1afa"),
    ]

    @pytest.mark.parametrize("argv, digest", DEVIATION_FROZEN)
    def test_deviation_json_is_frozen(self, capsys, argv, digest):
        code, out = run(capsys, "experiment", *argv.split(), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_telescope_flags(self, capsys):
        code, out = run(
            capsys, "experiment", "telescope", "--seed", "1", "--g", "t^2", "--ell-max", "10"
        )
        assert code == 0
        assert "sum 1/g BOUNDED" in out

    def test_hoeffding_json(self, capsys):
        code, out = run(
            capsys, "experiment", "hoeffding", "--seed", "2", "--trials", "2000",
            "--t-grid", "0.0,0.5", "--n", "100", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["all_ok"] is True

    def test_report_bodies_are_byte_identical(self, tmp_path, capsys):
        args = [
            "experiment", "ldev2", "--seed", "3", "--trials", "2000",
            "--t-grid", "0.1,0.2", "--n-grid", "32,64", "--format", "json",
        ]
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_csv_schema(self, tmp_path, capsys):
        out_file = tmp_path / "r.csv"
        code = main([
            "experiment", "lower", "--seed", "0", "--seeds", "4",
            "--n-grid", "16,64,256", "--format", "csv", "--out", str(out_file),
        ])
        capsys.readouterr()
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("# mgms ")
        assert lines[1].startswith("# config: ")
        assert lines[2] == "experiment,n,statistic,value,seed_count,config_hash"
        assert all(len(l.split(",")) == 6 for l in lines[3:])

    def test_json_round_trip_reproduces_verdict(self, tmp_path, capsys):
        out_file = tmp_path / "r.json"
        assert main([
            "experiment", "lower", "--seed", "0", "--seeds", "12",
            "--n-grid", "16,64,256,1024", "--format", "json", "--out", str(out_file),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out_file.read_text())
        from mgms.experiments import _trend_verdict

        verdict, slope, _, _ = _trend_verdict(
            payload["n_grid"], payload["summary"]["median"], payload["verdict_floor"]
        )
        if not payload["inconclusive_reason"]:
            assert payload["verdict"] == verdict
        assert payload["slope"] == pytest.approx(slope)
        assert payload["schema_version"] == 1


@pytest.mark.parametrize("argv", [
    "measure --mu 1.5 0101",
    "measure --pdelta 0.5 0101",
    "experiment telescope --seed 1 --ell-max 1",
    "experiment hoeffding --seed 1 --trials 0",
    "experiment ldev2 --seed 1 --trials 0",
    "experiment cover --n-grid 2",
    "experiment boxdim --n-grid 1",
    "experiment density --seed 1 --n-grid 2,4",
    # a trend needs MIN_TREND_POINTS = 3 grid points: one point gave a NaN band,
    # two a band collapsed onto the slope
    "experiment lower --seed 0 --seeds 2 --n-grid 16",
    "experiment density --seed 0 --seeds 2 --n-grid 16,64",
    "dims --tol nan",
    "dims --tol inf",
    "experiment lower --seed 1 --seeds 0",
    "experiment hoeffding --seed 1 --n 0",
    "experiment boxdim --n-grid 16,16,1024",
    # an empty entry was dropped, and the run went on as if given 16,64
    "experiment boxdim --n-grid 16,,64",
    "experiment boxdim --n-grid 16,64,",
    "experiment lower --seed 1 --delta 0.5",
    "experiment hoeffding --seed 1 --t-grid nan",
    "experiment telescope --seed 1 --g t^nan",
    "experiment telescope --seed 1 --ell-max 4 --g t^1000",
    "experiment telescope --seed 1 --ell-max 4 --g t^-1000",
    # a gauge that overflows on the grid, or divides by an underflowed power
    "experiment cover --gauge psi --theta 2000 --n-grid 16,1024",
    "experiment cover --gauge psi --theta=-2000 --n-grid 16,1024",
    "experiment cover --gauge phi_gamma --gamma 1e300 --n-grid 16,1024",
    "experiment density --seed 1 --seeds 1 --gauge psi --theta 1e300 --n-grid 16,32,64",
    "experiment lower --seed 0 --seeds 2 --c 1e307 --n-grid 16,64,256",
    "experiment telescope --seed 1 --ell-max 2 --g t^-1023.5",
    # a repeated threshold was counted twice: 0.92 for P(S_7 >= 0) = 0.5
    "experiment hoeffding --seed 5 --trials 100 --t-grid 0.0,0.0 --n 7",
])
def test_bad_input_is_one_line_usage_error(capsys, argv):
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("usage error: ") and err.count("\n") == 1


# inputs argparse itself rejects: a value outside the choices, a missing argument
@pytest.mark.parametrize("argv", [
    "experiment cover --gauge foo",
    "experiment frobnicate",
    "dims --format csv",
    "measure --pmu",
    "measure 0101",
    "",
])
def test_parser_error_is_one_line_usage_error(capsys, argv):
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", ["dims", "experiment boxdim --n-grid 16"])
def test_unwritable_out_is_one_line_usage_error(tmp_path, capsys, argv):
    for target in (tmp_path, tmp_path / "missing" / "report"):
        assert main(argv.split() + ["--out", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: cannot write --out {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_is_one_line_usage_error():
    # a 2^40-symbol telescope needs terabytes; under a 2 GiB address-space limit on
    # the child alone, the failed allocation is a usage error, not a traceback
    resource = pytest.importorskip("resource")
    limit = 2 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(mgms.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "mgms.cli", "experiment", "telescope", "--seed", "1", "--ell-max", "40"]
    run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120,
                         preexec_fn=cap_address_space)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("usage error: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("argv", ["--help", "--version", "experiment --help"])
def test_help_and_version_exit_zero(capsys, argv):
    assert main(argv.split()) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", ["dims", "tau", "measure --pmu 0101"])
def test_csv_is_a_usage_error_outside_experiment(tmp_path, capsys, argv):
    out_file = tmp_path / "report"
    assert main(argv.split() + ["--format", "csv"]) == 2
    assert main(argv.split() + ["--format", "csv", "--out", str(out_file)]) == 2
    assert capsys.readouterr().out == ""
    assert not out_file.exists()


# Each cold path, with a module the run must load: the scipy check is only
# evidence if the process really ran that path.
COLD_PATHS = [
    (["-c", "import mgms, mgms.cli"], "mgms.cli"),
    (["-m", "mgms.cli", "dims"], "mgms.analytics"),
    # a cache probe on the statistics namespace, as a sweep that clears caches makes
    (["-c", "import mgms.experiments as e; assert getattr(e.stats, 'cache_clear', None) is None"],
     "mgms.experiments"),
    # the Theil-Sen trend band, and the ldev2 line fit with its t quantile
    (["-m", "mgms.cli", "experiment", "lower", "--seed", "0", "--seeds", "3", "--n-grid", "16,64,256,1024"],
     "mgms.experiments"),
    (["-m", "mgms.cli", "experiment", "density", "--seed", "0", "--seeds", "3", "--n-grid", "16,64,256,1024"],
     "mgms.experiments"),
    (["-m", "mgms.cli", "experiment", "ldev2", "--seed", "0", "--trials", "2000",
      "--t-grid", "0.02,0.05,0.1", "--n-grid", "32,64"], "mgms.experiments"),
]


@pytest.mark.parametrize("argv, must_load",
                         [pytest.param(*case, id=f"argv{i}") for i, case in enumerate(COLD_PATHS)])
def test_cold_path_does_not_import_scipy(argv, must_load):
    loaded = loaded_modules(argv)
    assert must_load in loaded
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0 and "mgms" in out


# -- the exit-code contract over every subcommand and flag ---------------------------
# Each base runs a small, valid configuration; each case replaces one flag (or the
# positional word) by one value, or repeats it, and the run must still keep the
# contract: exit 0, or exit 2 with one `usage error:` line, nothing on stdout and
# no --out file.  Exit 1 is reserved for a CertificationError, which no input
# here can cause.

CONTRACT_BASES = {
    "dims": ("dims", {"--tol": "1e-6", "--format": "plain", "--out": None}),
    "tau": ("tau", {"--format": "plain", "--out": None}),
    "measure --mu": ("measure", {"--mu": "0.3", "word": "0100", "--format": "plain", "--out": None}),
    "measure --pdelta": ("measure", {"--pdelta": "0.05", "word": "0100"}),
    "measure --pmu": ("measure --pmu", {"word": "0100"}),
    "density": ("experiment density",
                {"--seed": "0", "--seeds": "2", "--n-grid": "16,32,64", "--delta": "0.05", "--c": "0.002",
                 "--theta": "1", "--gamma": "0.5", "--gauge": "psi", "--format": "plain", "--out": None}),
    "lower": ("experiment lower",
              {"--seed": "0", "--seeds": "2", "--n-grid": "16,32,64", "--delta": "0.05", "--c": "0.002"}),
    "telescope": ("experiment telescope", {"--seed": "0", "--ell-max": "4", "--g": "t"}),
    "hoeffding": ("experiment hoeffding",
                  {"--seed": "0", "--trials": "200", "--n": "20", "--t-grid": "0.1,0.3",
                   "--distribution": "rademacher"}),
    "hoeffding logmass": ("experiment hoeffding --distribution logmass",
                          {"--seed": "0", "--trials": "200", "--n": "20", "--k": "3", "--epsilon": "0.1"}),
    "ldev2": ("experiment ldev2",
              {"--seed": "0", "--trials": "200", "--n-grid": "32,64", "--t-grid": "0.1,0.2"}),
    "cover": ("experiment cover",
              {"--n-grid": "16,64", "--gauge": "psi", "--theta": "1", "--exponent": "s",
               "--format": "csv", "--out": None}),
    "cover phi_gamma": ("experiment cover --gauge phi_gamma",
                        {"--n-grid": "16,64", "--c": "0.002", "--gamma": "0.5"}),
    "boxdim": ("experiment boxdim", {"--n-grid": "16,64", "--format": "json"}),
}
CONTRACT_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "", "repeat")
OUT_VALUES = ("dir", "missing/report")


def _contract_argv(base: str, flags: dict, flag: str, value: str) -> list[str]:
    argv = base.split()
    for other, default in flags.items():
        if other not in (flag, "word") and default is not None:
            argv.append(f"{other}={default}")
    word = flags.get("word")
    if flag == "word":
        word = word * 2 if value == "repeat" else value
    elif value != "repeat":
        argv.append(f"{flag}={value}")
    elif flags[flag] and "," in flags[flag]:  # a list flag: its first entry twice
        argv.append(f"{flag}={flags[flag].split(',')[0]},{flags[flag]}")
    else:  # a scalar flag given twice
        argv += [f"{flag}={flags[flag] or 'report'}"] * 2
    return argv + (["--", word] if word is not None else [])


CONTRACT_CASES = [
    pytest.param(base, flags, flag, value, id=f"{name} {flag}={value}")
    for name, (base, flags) in CONTRACT_BASES.items()
    for flag in flags
    for value in CONTRACT_VALUES + (OUT_VALUES if flag == "--out" else ())
]


@pytest.mark.parametrize("base, flags, flag, value", CONTRACT_CASES)
def test_exit_code_contract(tmp_path, monkeypatch, capsys, base, flags, flag, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    code = main(_contract_argv(base, flags, flag, value))
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert code in (0, 2), (code, err)
    if code == 2:
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before
    else:
        assert out or sorted(tmp_path.rglob("*")) != before
