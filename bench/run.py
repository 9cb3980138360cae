"""Benchmark of the jacobi-invariants pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` next to this directory and from nowhere else.  A closed loop
with one client runs the workload's problems one after another in this
process, through the public pipeline the CLI uses (``cli.load_problem``
-> ``cli.run_checks`` / ``cli.run_pipeline`` / ``cli.run_fixture`` ->
``cli.dumps``), and checks every output.

``--trace 0`` measures the end-to-end metrics untraced, in calibrated
CPU seconds (see ``Calibration``); the raw CPU and wall figures of the
same run go to the ``info`` line.  ``--trace 1``
runs a fixed set of the workload's problems in passes, alternating an
untraced pass with a pass under the wrappers of ``tracing.py``, and reports
per-layer self times and work counters; the counters must repeat exactly
from pass to pass.  Lines before the last describe the run; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy

import workloads
from tracing import DETERMINISTIC, PER_LAYER, Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = (
    ("problems_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Percentile reported as latency_tail_s, fixed per workload so that its
# meaning does not change with speed; a run completes at least enough
# problems to leave 10 samples beyond it.
TAIL_PERCENTILE = {"catalog_oracle": 75, "long_window": 75, "symbolic_check": 99}
# problems in one pass of the traced run
TRACE_PASS = {"catalog_oracle": 6, "long_window": 6, "symbolic_check": 150}
# problems in one round of a workload's mix (six fixtures, a free and a
# forced oscillator); an untraced run ends on a whole round, so that every
# run has the same mix
ROUND = {"catalog_oracle": len(workloads.CATALOG_IDS), "long_window": 2, "symbolic_check": 1}
SETUP_REPEATS = 7
# a run stops starting new work after this long, to end inside 180 s
RUN_LIMIT_S = 140.0

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from jacobi_invariants import cli; "
              "[cli.catalog.get(i) for i in cli.catalog.ids()]")
# The reference for setup_s: a fresh interpreter importing numpy, most of
# the program's own start-up, whose cost on this host drifts with the
# same things (page faults, loading shared objects, numpy's thread pool)
# that the calibration kernel does not see.  setup_s is in seconds on a
# host where the reference takes SETUP_REFERENCE_S of CPU time.
SETUP_REFERENCE_CODE = "import numpy"
SETUP_REFERENCE_S = 0.25


def import_program():
    """The package under ``src/`` of this checkout, or exit 2 without it."""
    init = SRC / "jacobi_invariants" / "__init__.py"
    if not init.is_file():
        print(f"error: {init.relative_to(ROOT)} not found; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import jacobi_invariants
    from jacobi_invariants import cli

    if Path(jacobi_invariants.__file__).resolve() != init.resolve():
        print(f"error: imported {jacobi_invariants.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)
    return cli


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------- one problem

def run_case(cli, workload: str, case: workloads.Case):
    """The program's work for one problem as the CLI does it, report text
    included; returns (exit code, report, trajectory or None)."""
    traj = None
    if workload == "catalog_oracle":
        report, code = cli.run_fixture(case.fixture)
    else:
        try:
            problem, exprs = cli.load_problem(case.data)
            if workload == "long_window":
                report, code, traj = cli.run_pipeline(problem, exprs, case.data)
            else:
                report, _ = cli.run_checks(problem, exprs)
                report = {"schema": cli.SCHEMA_VERSION, "problem": case.data, **report}
                code = cli.EXIT_PASS if report["pass"] else cli.EXIT_FAIL
        except (cli.InputError, cli.ex.IllPosedDomainError) as err:
            return cli.EXIT_INPUT, {"error": str(err)}, None
    cli.dumps(report)
    return code, report, traj


def check_case(workload: str, case: workloads.Case, code: int, report: dict, traj):
    """Errors in one output, the worst gated relative drift, and whether
    the first-integral condition refused the problem."""
    errors = []
    expect = case.expect
    if code != expect["exit"]:
        errors.append(f"exit {code}, expected {expect['exit']}: {report.get('error', '')}")
        return errors, None, False
    if "tag" in expect and report["classification"]["tag"] != expect["tag"]:
        errors.append(f"regime {report['classification']['tag']}, expected {expect['tag']}")
    refused = False
    for hyp in report["hypotheses"]:
        if hyp["name"] == "first_integral_condition":
            refused = not hyp["passed"]
            if refused != expect.get("refusal", False):
                errors.append(f"first_integral_condition passed={hyp['passed']}")
        elif not hyp["passed"]:
            errors.append(f"hypothesis {hyp['name']} failed: {hyp['residual']}")
    if workload == "symbolic_check":
        return errors, None, refused
    drifts = [inv["drift"]["rel_drift"] for inv in report["invariants"]]
    gates = [inv["gate"] for inv in report["invariants"]]
    if "oracle" in report:
        drifts.append(report["oracle"]["drift"]["rel_drift"])
        gates.append(report["oracle"]["gate"])
    if not (report["pass"] and all(gates)):
        errors.append(f"gates {gates}")
    if workload == "long_window":
        if report["termination"]["status"] != "Completed":
            errors.append(f"termination {report['termination']}")
        x_end, v_end = (float(v) for v in traj.ys[-1][:2])
        x_ref, v_ref = workloads.closed_form_state(case.data, expect["force"], traj.t_last)
        scale = 1.0 + abs(x_ref) + abs(v_ref)
        if max(abs(x_end - x_ref), abs(v_end - v_ref)) > workloads.CLOSED_FORM_TOL * scale:
            errors.append(f"final state ({x_end}, {v_end}) vs closed form ({x_ref}, {v_ref})")
    return errors, max(drifts), refused


class Outcomes:
    """Attempts, failures, drifts and refusals over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refusals = 0
        self.max_rel_drift = 0.0
        self.errors: list[str] = []

    def run(self, cli, workload: str, index: int, case: workloads.Case,
            tracer=None) -> tuple[float, float]:
        """Run and check one case; returns its latency as (CPU, wall) seconds."""
        self.attempted += 1
        cpu, start = process_time(), perf_counter()
        try:
            if tracer is not None:
                tracer.problem = index
                rec = tracer.open("bench.problem")
                try:
                    code, report, traj = run_case(cli, workload, case)
                finally:
                    tracer.close(rec)
            else:
                code, report, traj = run_case(cli, workload, case)
        except Exception:  # every exception is a failed problem; keep going
            latency = process_time() - cpu, perf_counter() - start
            self._fail(index, traceback.format_exc(limit=3))
            return latency
        latency = process_time() - cpu, perf_counter() - start
        errors, drift, refused = check_case(workload, case, code, report, traj)
        if errors:
            self._fail(index, "; ".join(errors))
        self.refusals += refused
        if drift is not None:
            self.max_rel_drift = max(self.max_rel_drift, drift)
        return latency

    def _fail(self, index: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"problem {index}: {message.strip()}")


# ------------------------------------------------------------- calibration

def _kernel_step(x: float, y: float) -> float:
    return x * y + math.sin(x) - 0.5 * y


def calibration_kernel() -> float:
    """Fixed work of the program's two kinds: interpreted float arithmetic
    with calls and dict lookups, then numpy on a dense-output-sized grid."""
    acc, table = 0.0, {"a": 1.0, "b": 2.0}
    for i in range(40_000):
        acc = _kernel_step(acc * 1e-3, table["a" if i & 1 else "b"]) + math.exp(-i * 1e-4)
    grid = numpy.linspace(0.0, 1.0, 2048)
    for i in range(800):
        y = numpy.sin(grid * (1.0 + i * 1e-6)) * grid + numpy.exp(-grid)
        acc += float(numpy.dot(y, grid))
    return acc


class Calibration:
    """The host's speed over a run, from the CPU time of calibration_kernel.

    Other tenants share this host's cores and caches, and the CPU time of
    the same work drifts with their load by a fifth or more over minutes;
    the program is single-threaded, so wall time drifts as much and also
    counts the time the host runs someone else.  The kernel runs between
    problems, after every CALIBRATE_EVERY_S of measured CPU time, so it
    samples the host in the same stretches as the program.  Problem times
    are multiplied by ``scale``: CPU seconds on a host on which the kernel
    takes REFERENCE_S.  A change to the program leaves the kernel alone.
    """

    REFERENCE_S = 0.05
    CALIBRATE_EVERY_S = 0.5

    def __init__(self):
        calibration_kernel()  # warm-up, untimed
        self.times: list[float] = []
        self._since = 0.0

    def run(self) -> None:
        start = process_time()
        calibration_kernel()
        self.times.append(process_time() - start)
        self._since = 0.0

    def spent(self, cpu_s: float) -> None:
        """Count measured CPU time; calibrate when enough has passed."""
        self._since += cpu_s
        if self._since >= self.CALIBRATE_EVERY_S:
            self.run()

    def scale(self) -> float:
        """REFERENCE_S over the mean kernel time."""
        return self.REFERENCE_S / statistics.fmean(self.times)


# ------------------------------------------------------------ untraced run

def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    idx = max(0, math.ceil(percentile / 100.0 * len(sorted_values)) - 1)
    return sorted_values[idx]


def _run_child(cmd: list[str]) -> tuple[float, float]:
    """CPU and wall seconds of one child process run to its end."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu, start = usage.ru_utime + usage.ru_stime, perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60)
    wall = perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime - cpu, wall


def measure_setup(repeats: int) -> tuple[float, float, float, float]:
    """Setup as (reference-scaled CPU, CPU, wall, reference CPU) seconds:
    medians over fresh interpreters importing the CLI and building the
    catalog, as every CLI call does, each followed by one run of the
    reference; one untimed run of both first."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    ref_cmd = [sys.executable, "-I", "-c", SETUP_REFERENCE_CODE]
    cpu_times, wall_times, ref_times = [], [], []
    for i in range(repeats + 1):
        cpu, wall = _run_child(cmd)
        ref, _ = _run_child(ref_cmd)
        if i:
            cpu_times.append(cpu)
            wall_times.append(wall)
            ref_times.append(ref)
    cpu_s, ref_s = statistics.median(cpu_times), statistics.median(ref_times)
    return (cpu_s / ref_s * SETUP_REFERENCE_S, cpu_s,
            statistics.median(wall_times), ref_s)


def untraced_run(cli, args) -> tuple[Outcomes, dict, dict]:
    setup_s, setup_cpu_s, setup_wall_s, setup_ref_s = measure_setup(SETUP_REPEATS)
    calibration = Calibration()
    cli.catalog.get(workloads.CATALOG_IDS[0])  # the build is in setup_s
    pct = TAIL_PERCENTILE[args.workload]
    min_n = math.ceil(10.0 / (1.0 - pct / 100.0))
    outcomes = Outcomes()
    latencies, walls = [], []
    calibration.run()
    start = perf_counter()
    for index, case in enumerate(workloads.CASES[args.workload](args.seed)):
        elapsed = perf_counter() - start
        if index % ROUND[args.workload] == 0 and (
                (elapsed >= args.seconds and index >= min_n) or elapsed >= RUN_LIMIT_S):
            break
        cpu, wall = outcomes.run(cli, args.workload, index, case)
        calibration.spent(cpu)
        latencies.append(cpu)
        walls.append(wall)
    latencies.sort()
    walls.sort()
    n = len(latencies)
    scale = calibration.scale()
    tail = nearest_rank(latencies, pct)
    metrics = {
        "problems_per_s": n / (sum(latencies) * scale),
        "latency_p50_s": nearest_rank(latencies, 50) * scale,
        "latency_tail_s": tail * scale,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "problems": n,
        "tail_percentile": pct,
        "samples_beyond_tail": sum(1 for v in latencies if v > tail),
        "failed_frac": outcomes.failed / max(outcomes.attempted, 1),
        "max_rel_drift": (outcomes.max_rel_drift
                          if args.workload != "symbolic_check" else None),
        "refusals": outcomes.refusals,
        "wall_s": perf_counter() - start,
        "calibration_runs": len(calibration.times),
        "calibration_mean_s": statistics.fmean(calibration.times),
        "calibration_scale": scale,
        "cpu_problems_per_s": n / sum(latencies),
        "cpu_setup_s": setup_cpu_s,
        "wall_problems_per_s": n / sum(walls),
        "wall_latency_p50_s": nearest_rank(walls, 50),
        "wall_latency_tail_s": nearest_rank(walls, pct),
        "wall_setup_s": setup_wall_s,
        "setup_reference_cpu_s": setup_ref_s,
    }
    return outcomes, metrics, info


# -------------------------------------------------------------- traced run

def _traced_setup(cli) -> tuple[float, list]:
    """Self time of the cold catalog build, traced in this fresh process."""
    tracer = Tracer()
    tracer.install()
    try:
        for fid in workloads.CATALOG_IDS:
            cli.catalog.get(fid)
    finally:
        tracer.uninstall()
    return self_times(tracer.spans)["catalog.get"], tracer.spans


def traced_run(cli, args) -> tuple[Outcomes, dict, dict]:
    get_s, setup_spans = _traced_setup(cli)
    cases = list(itertools.islice(workloads.CASES[args.workload](args.seed),
                                  TRACE_PASS[args.workload]))
    outcomes = Outcomes()
    tracer = Tracer()
    untraced, traced, passes = [], [], []
    unrestored: list[str] = []
    first_spans = None
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for index, case in enumerate(cases):
            outcomes.run(cli, args.workload, index, case)
        untraced.append(perf_counter() - t0)

        tracer.reset()
        refusals = outcomes.refusals
        outcomes.max_rel_drift = 0.0
        tracer.install()
        try:
            t0 = perf_counter()
            for index, case in enumerate(cases):
                outcomes.run(cli, args.workload, index, case, tracer)
            traced.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
        unrestored += tracer.check_restored()
        tracer.counts["check.refusals"] = outcomes.refusals - refusals
        tracer.counts["verify.max_rel_drift"] = outcomes.max_rel_drift
        passes.append(tracer.derive())
        if first_spans is None:
            first_spans = tracer.spans

        elapsed = perf_counter() - start
        if elapsed >= args.seconds or elapsed * (1 + 1 / len(traced)) >= RUN_LIMIT_S:
            break

    mismatched = sorted({name for name in DETERMINISTIC + ("series_by_grid",)
                         for m in passes[1:] if m[name] != passes[0][name]})
    metrics = {}
    for name, _ in PER_LAYER:
        if name.startswith("trace.") or name == "catalog.get_s":
            continue
        metrics[name] = (passes[0][name] if name in DETERMINISTIC
                         else statistics.median(m[name] for m in passes))
    metrics["catalog.get_s"] = get_s
    metrics["trace.spans"] = passes[0]["trace.spans"]
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace.traced_pass_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_pass_s"] - metrics["trace.untraced_pass_s"]

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({
        "fields": ["id", "name", "start", "end", "parent", "problem", "child_s", "leaf_s"],
        "setup": setup_spans,
        "first_traced_pass": first_spans,
    }))
    info = {
        "pass_problems": len(cases),
        "passes": len(passes),
        "series_by_grid": passes[0]["series_by_grid"],
        "counters_mismatched": mismatched,
        "unrestored_bindings": sorted(set(unrestored)),
        "overhead_frac": metrics["trace.overhead_s"] / metrics["trace.untraced_pass_s"],
        "layer_share": _layer_shares(metrics),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "baseline": _against_baseline(args.workload, metrics, passes[0]["series_by_grid"]),
    }
    return outcomes, metrics, info


def _layer_shares(metrics: dict) -> dict:
    layers = ("cli", "expr", "problem", "invariants", "integrate", "verify")
    total = sum(metrics[f"{layer}.self_s"] for layer in layers)
    return {layer: round(metrics[f"{layer}.self_s"] / total, 4) if total else 0.0
            for layer in layers}


def _against_baseline(workload: str, metrics: dict, series_by_grid: dict):
    """Counters that differ from the ones recorded in baseline_counts.json."""
    baseline = json.loads((BENCH / "baseline_counts.json").read_text()).get(workload)
    if baseline is None:
        return None
    now = {name: metrics[name] for name in baseline if name != "series_by_grid"}
    now["series_by_grid"] = {str(k): v for k, v in series_by_grid.items()}
    return {name: {"baseline": want, "now": now[name]}
            for name, want in baseline.items() if now[name] != want}


# -------------------------------------------------------------------- main

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    print("env " + json.dumps(environment(args)), flush=True)
    if args.trace:
        outcomes, values, info = traced_run(cli, args)
        units = dict(PER_LAYER)
        correct = (outcomes.failed == 0 and not info["counters_mismatched"]
                   and not info["unrestored_bindings"])
    else:
        outcomes, values, info = untraced_run(cli, args)
        units = dict(END_TO_END)
        correct = outcomes.failed == 0
    print("info " + json.dumps(info), flush=True)
    for message in outcomes.errors:
        print("error " + message, flush=True)
    result = {
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
