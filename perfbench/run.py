#!/usr/bin/env python3
"""mgms benchmark: closed-loop workloads, end-to-end metrics, per-layer spans.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, one benchmark process each
    python3 perfbench/run.py --write-benchmark-json

Run from the root of a source tree; the package is imported from ./src. One
run issues ops for --seconds seconds, finishing the round it is in, and
checks every output. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs half the time untraced and half with spans installed and
reports the per-layer metrics. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; details,
provenance and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# Before numpy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402

SETUP_PROBES = 3
CLI_PROBES = 3
IMPORT_PROBE = (
    "import sys, time\n"
    "before = set(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import mgms\n"
    "t = time.perf_counter() - t\n"
    "new = [m for m in sys.modules if m not in before]\n"
    "print(t, len(new), sum(1 for m in new if m == 'scipy' or m.startswith('scipy.')))\n"
)


def _calibration_loop(kind: str):
    """A fixed loop resembling one kind of work, as a zero-argument callable."""
    if kind == "interpreter":
        def loop():
            acc = 0
            for j in range(100_000):
                acc += j * j
    elif kind == "bigint":
        a, b = 3**6000 + 7, 5**4000 + 11

        def loop():
            acc = 0
            for j in range(150):
                acc ^= math.gcd(a * (j + 1), b) + (a * b >> j)
    else:
        import numpy as np

        x = np.arange(1 << 19, dtype=np.uint64)  # allocated once: the loop times no page faults

        def loop():
            z = x * np.uint64(0x9E3779B97F4A7C15)
            z ^= z >> np.uint64(31)
            z *= np.uint64(0xBF58476D1CE4E5B9)
            (z >> np.uint64(11)).astype(np.float64)
    return loop


class Clock:
    """Wall time scaled to a reference machine speed.

    The cores this runs on may be shared, and their speed can drift by tens
    of percent within a minute. A fixed calibration loop of the given kind
    (see spec.CALIBRATION) is timed between consecutive measurements, and
    each measurement is multiplied by the loop's reference time over the
    mean of the loop times on either side of it. Machine drift cancels; a
    change in mgms shows in full. With no kind, times are raw.
    """

    def __init__(self, kind: str | None):
        self._loop = _calibration_loop(kind) if kind else None
        self._ref = spec.CAL_REF_S.get(kind)
        self._cal = None

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        self._loop()
        return time.perf_counter() - t0

    def time(self, fn):
        """Run fn; return its result, raw seconds, and the factor that scales them."""
        if self._loop is None:
            t0 = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - t0, 1.0
        before = self._calibrate() if self._cal is None else self._cal
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        self._cal = self._calibrate()
        return result, raw, 2.0 * self._ref / (before + self._cal)


class Run:
    """Op records and failures of one workload run."""

    def __init__(self, workload):
        self.wl = workload
        self.clock = Clock(spec.CALIBRATION[workload.name])
        self.probe_clock = Clock("interpreter")  # set-up and import probes are interpreter-bound
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.next_id = 0

    def note(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for p in problems[:3]:
                print(f"FAIL {p}", file=sys.stderr)

    def op(self, op, phase: str, rnd: int, deep: bool, tracer=None) -> dict:
        """Issue one op, time it, check its output."""
        op_id, self.next_id = self.next_id, self.next_id + 1
        self.wl.prepare(op)

        def call():
            if tracer is not None:
                tracer.begin_op(op_id, op.kind)
            try:
                return self.wl.run(op), None
            except Exception:  # an op that raises is a failed op, and the run goes on
                return None, traceback.format_exc(limit=3)
            finally:
                if tracer is not None:
                    tracer.end_op()

        (result, error), raw, scale = self.clock.time(call)
        extras = {}
        if error is not None:
            problems = [f"{op.kind} {op.arg}: raised {error}"]
        else:
            try:
                problems, extras = self.wl.check(op, result, deep)
            except Exception:
                problems = [f"{op.kind} {op.arg}: check raised {traceback.format_exc(limit=3)}"]
        self.note(problems)
        rec = {"id": op_id, "phase": phase, "round": rnd, "kind": op.kind, "arg": op.arg,
               "latency_s": raw * scale, "raw_s": raw, "scale": scale, "work": op.work,
               "ok": not problems, "extras": extras}
        self.records.append(rec)
        return rec

    def loop(self, rng: random.Random, seconds: float, phase: str, tracer=None) -> list[dict]:
        """Whole rounds, one op in flight, until `seconds` have passed."""
        from workloads import ORACLE_OPS

        out, rnd, end = [], 0, time.perf_counter() + seconds
        while True:
            for op in self.wl.round(rng):
                out.append(self.op(op, phase, rnd, deep=len(out) < ORACLE_OPS, tracer=tracer))
            rnd += 1
            if time.perf_counter() >= end:
                return out


# -- metrics -------------------------------------------------------------------


def _rounds(records: list[dict]) -> list[list[dict]]:
    by_round = defaultdict(list)
    for r in records:
        by_round[r["round"]].append(r)
    return [by_round[k] for k in sorted(by_round)]


def _tail(records: list[dict]) -> tuple[float, str]:
    """Per op kind, the latency with ten ops of that kind beyond it; the
    slowest kind's value is the tail. A kind with ten ops or fewer has no
    such percentile, and its median stands in.

    Pooled over kinds whose costs differ a thousandfold (certify), the
    percentile with ten ops beyond it moves across kinds as the op count
    changes, so a faster program could read a slower tail; per kind it cannot.
    """
    best = None
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r["kind"]].append(r["latency_s"])
    for kind, lat in by_kind.items():
        lat.sort()
        n = len(lat)
        if n > 10:
            value, where = lat[n - 11], f"p{100.0 * (n - 10) / n:.1f}"
        else:
            value, where = statistics.median(lat), "median (too few for a tail)"
        if best is None or value > best[0]:
            best = (value, f"{where} of {n} '{kind}' ops, the slowest kind")
    return best


def end_to_end(run: Run, timed: list[dict], setup: list[float]) -> tuple[dict, dict]:
    import resource

    rounds = _rounds(timed)
    lat = [r["latency_s"] for r in timed]
    busy = sum(lat)
    tail, tail_note = _tail(timed)
    # The median op of a typical round. Pooled over all ops, the median of an
    # even number of kinds falls between two groups and reads their extremes.
    by_kind = defaultdict(list)
    for r in timed:
        by_kind[r["kind"]].append(r["latency_s"])
    kind_medians = {k: statistics.median(v) for k, v in by_kind.items()}
    if run.wl.name == "cli_cold":
        rss_kb = max(r["extras"].get("peak_rss_kb", 0) for r in timed)
        rss_note = f"largest of {len(timed)} op processes"
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_note = "benchmark process"
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r["latency_s"] for r in rnd) for rnd in rounds),
        "op_p50_s": statistics.median(kind_medians.values()),
        "op_tail_s": tail,
        "work_per_s": sum(r["work"] for r in timed) / busy,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh set-ups (interpreter, import mgms, one warm-up op)",
        "wall_s": f"median of {len(rounds)} rounds of {len(run.wl.kinds)} ops",
        "op_p50_s": f"median over {len(kind_medians)} op kinds of each kind's median ({len(lat)} ops)",
        "op_tail_s": tail_note,
        "work_per_s": f"{spec.WORK_UNIT[run.wl.name]}: {sum(r['work'] for r in timed)} over {busy:.3f} s of ops",
        "peak_rss_mb": f"ru_maxrss, {rss_note}",
    }
    return values, notes


def per_layer(run: Run, plain: list[dict], traced: list[dict], tracer, cli: dict) -> tuple[dict, dict]:
    from tracing import per_op_metrics

    per_op = per_op_metrics(tracer, {r["id"]: r["kind"] for r in traced})
    per_round = []
    for rnd in _rounds(traced):
        acc = defaultdict(float)
        for r in rnd:
            for key, value in per_op.get(r["id"], {}).items():
                acc[key] += value * r["scale"] if key.endswith("_s") else value
            for key, value in r["extras"].items():
                acc[key] = max(acc[key], value)
        acc["rng.ns_per_draw"] = 1e9 * acc["rng.uniform_grid.busy_s"] / acc["rng.draws"] if acc["rng.draws"] else 0.0
        acc["trace.unattributed_share"] = acc["trace.unattributed_s"] / acc["trace.wall_s"] if acc["trace.wall_s"] else 0.0
        per_round.append(acc)
    values = {name: statistics.median(acc.get(name, 0.0) for acc in per_round)
              for name, *_ in spec.PER_LAYER if not name.startswith(("cli.", "trace.overhead"))}
    values.update(cli)
    plain_wall = statistics.median(sum(r["latency_s"] for r in rnd) for rnd in _rounds(plain))
    traced_wall = statistics.median(sum(r["latency_s"] for r in rnd) for rnd in _rounds(traced))
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    notes = {"trace.overhead_ratio": f"median traced round {traced_wall:.4f} s / untraced {plain_wall:.4f} s",
             "_rounds": f"per round: median over {len(per_round)} traced rounds"}
    return values, notes


# -- probes in fresh processes ------------------------------------------------------


def _env() -> dict:
    from workloads import child_env

    return child_env()


def setup_probes(run: Run, args) -> list[float]:
    """Time fresh processes from launch until their warm-up op has returned."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        def launch():
            # The clock calibrates once this returns: only after the child has exited.
            t0 = time.perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  env=_env(), text=True) as proc:
                line = proc.stdout.readline()
                ready = time.perf_counter() - t0
                rest, err = proc.communicate()
            return proc.returncode, line + rest + err, ready

        (rc, out, ready), _, scale = run.probe_clock.time(launch)
        ok = rc == 0 and out.startswith("ready\n")
        run.note([] if ok else [f"setup probe failed ({rc}): {out[-300:]}"])
        times.append(ready * scale)  # a failed set-up still took this long
    return times


def warmup_op(wl, rng: random.Random):
    """The op of the workload's first kind from one round, so set-up does the same work on every seed."""
    return min(wl.round(rng), key=lambda op: wl.kinds.index(op.kind))


def setup_probe(args) -> int:
    """The child side of setup_probes: import, one warm-up op, say ready."""
    import workloads

    wl = workloads.make(args.workload, workloads.load_references())
    op = warmup_op(wl, random.Random(f"{args.workload}:{args.seed}"))
    problems, _ = wl.check(op, wl.run(op), deep=False)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


def cli_probes(run: Run) -> dict:
    """cli.import_s and module counts from fresh imports; cli.<sub>.work_s in-process."""
    import contextlib
    import io

    import mgms.cli
    import workloads

    values: dict = {}
    imports = []
    for _ in range(CLI_PROBES):
        proc, raw, scale = run.probe_clock.time(lambda: subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=_env()))
        run.note([] if proc.returncode == 0 else [f"import probe failed: {proc.stderr[-300:]}"])
        if proc.returncode == 0:
            t, mods, scipy_mods = proc.stdout.split()
            raw = float(t)
            values["cli.modules_loaded"] = int(mods)
            values["cli.scipy_modules_loaded"] = int(scipy_mods)
        imports.append(raw * scale)  # a failed import: the whole process time
    values.setdefault("cli.modules_loaded", 0)
    values.setdefault("cli.scipy_modules_loaded", 0)
    values["cli.import_s"] = statistics.median(imports)

    cli = workloads.CliCold(workloads.load_references())
    for sub in spec.CLI_SUBCOMMANDS:
        op = workloads.Op(sub, 0 if sub in ("measure", "telescope") else None)
        times = []
        for _ in range(CLI_PROBES):
            workloads.clear_caches()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc, raw, scale = run.probe_clock.time(lambda: mgms.cli.main(cli.argv(op)))
            times.append(raw * scale)
            ok = rc == 0 and buf.getvalue() == cli.expected(op)
            run.note([] if ok else [f"in-process mgms {' '.join(cli.argv(op))}: rc {rc} or stdout differs"])
        values[f"cli.{sub}.work_s"] = statistics.median(times)
    return values


# -- provenance and output -----------------------------------------------------------


def _git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    import mpmath
    import numpy
    import scipy

    return {"git_rev": _git_rev(), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__, "nproc": os.cpu_count(),
            "cpu": _cpu_model()}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def emit(args, run: Run, metrics: dict, units: dict, notes: dict, detail: dict) -> None:
    prov = provenance()
    print(f"# mgms benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in prov.items()))
    if "_rounds" in notes:
        print(f"# {notes['_rounds']}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<56} = {_fmt(value):>12} {units[name]:<6} {note}")
    ratio = run.failed / run.attempted
    print(f"{'fail_ratio':<56} = {_fmt(ratio):>12} {'ratio':<6} {run.failed} of {run.attempted} ops")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "provenance": prov, "metrics": metrics, "notes": notes,
                   "fail_ratio": ratio, "problems": run.problems, **detail}, fh, default=str)
    print(f"# details: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_one(args) -> int:
    import workloads

    wl = workloads.make(args.workload, workloads.load_references())
    run = Run(wl)
    rng = random.Random(f"{args.workload}:{args.seed}")
    setup = [] if args.trace else setup_probes(run, args)
    warm = warmup_op(wl, rng)  # the same op the setup probes warm up with
    run.op(warm, "warmup", -1, deep=True)
    detail: dict = {}
    if not args.trace:
        timed = run.loop(rng, args.seconds, "timed")
        metrics, notes = end_to_end(run, timed, setup)
        units = {n: u for n, u, *_ in spec.END_TO_END}
    else:
        import tracing

        plain = run.loop(rng, args.seconds / 2, "untraced")
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, spec.LAYERS)
        try:
            traced = run.loop(rng, args.seconds / 2, "traced", tracer)
        finally:
            undo()
        metrics, notes = per_layer(run, plain, traced, tracer, cli_probes(run))
        metrics = {n: metrics[n] for n, *_ in spec.PER_LAYER}
        units = {n: u for n, u, *_ in spec.PER_LAYER}
        detail["layer_map"] = {n: moves for n, _, _, moves in spec.PER_LAYER}
        detail["spans"] = tracer.spans
    detail["ops"] = run.records
    emit(args, run, metrics, units, notes, detail)
    return 0


def run_all(args) -> int:
    """Every workload, each in its own benchmark process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, _ in spec.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS], default=None,
                    help="one workload (default: all of them, one process each)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json at the root from perfbench/spec.py and exit")
    args = ap.parse_args(argv)
    if args.write_benchmark_json:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mgms" / "__init__.py").is_file():
        print(f"error: no mgms sources under {ROOT / 'src'}; run from a full source tree", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
