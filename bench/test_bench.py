"""Self-tests of the benchmark.  Run from the repository root with

    python -m pytest bench
"""

from __future__ import annotations

import importlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jacobi_invariants import cli  # noqa: E402

# the package re-exports the function integrate under the module's name
integrate = importlib.import_module("jacobi_invariants.integrate")

SEEDED = ("long_window", "symbolic_check")
HELD_OUT_SEED = 9001


def _cases(workload: str, seed: int, n: int):
    return list(itertools.islice(workloads.CASES[workload](seed), n))


def _bench(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("workload", SEEDED)
def test_seed_fixes_the_problems(workload):
    first = [c.data for c in _cases(workload, 7, 300)]
    assert first == [c.data for c in _cases(workload, 7, 300)]
    assert first != [c.data for c in _cases(workload, 8, 300)]


def test_symbolic_problems_rarely_repeat():
    coefficients = [(c.data["phi"], c.data["B"]) for c in _cases("symbolic_check", 7, 600)]
    assert len(set(coefficients)) >= 0.95 * len(coefficients)


@pytest.mark.parametrize("workload", SEEDED)
def test_every_generated_problem_loads(workload):
    for case in _cases(workload, 3, 300):
        problem, exprs = cli.load_problem(case.data)
        assert {"phi", "B"} <= set(exprs)
        assert problem.t_end > problem.t0


@pytest.mark.parametrize("workload,n", [("catalog_oracle", 6), ("long_window", 3),
                                        ("symbolic_check", 300)])
def test_held_out_seed_runs_clean(workload, n):
    outcomes = run.Outcomes()
    for index, case in enumerate(_cases(workload, HELD_OUT_SEED, n)):
        outcomes.run(cli, workload, index, case)
    assert (outcomes.attempted, outcomes.failed) == (n, 0), outcomes.errors


def test_checks_catch_a_wrong_closed_form():
    case = _cases("long_window", HELD_OUT_SEED, 1)[0]
    problem, exprs = cli.load_problem(case.data)
    report, code, traj = cli.run_pipeline(problem, exprs, case.data)
    assert run.check_case("long_window", case, code, report, traj)[0] == []
    shifted = workloads.Case({**case.data, "x0": case.data["x0"] + 1e-3}, expect=case.expect)
    assert run.check_case("long_window", shifted, code, report, traj)[0]


def test_tracer_restores_every_binding():
    originals = (cli.integrate, integrate.integrate, integrate.Trajectory.state,
                 cli.ex.simplify, cli.run_checks)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.integrate is integrate.integrate
        assert cli.integrate is not originals[0]
        cli.run_fixture("PG4", oracle=False)
    finally:
        tracer.uninstall()
    assert tracer.check_restored() == []
    assert (cli.integrate, integrate.integrate, integrate.Trajectory.state,
            cli.ex.simplify, cli.run_checks) == originals
    assert tracer.derive()["integrate.calls"] == 3


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.CASES)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)


def test_untraced_run_prints_environment_and_every_metric():
    code, lines = _bench("--workload", "symbolic_check", "--seed", str(HELD_OUT_SEED),
                         "--seconds", "1", "--trace", "0")
    assert code == 0
    env = json.loads(lines[0].removeprefix("env "))
    assert env["seed"] == HELD_OUT_SEED and env["nproc"] >= 1
    assert env["python"] and env["numpy"] and "commit" in env
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1000
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_catalog_counters_repeat_and_match_the_baseline():
    counters = []
    for _ in range(2):
        code, lines = _bench("--workload", "catalog_oracle", "--seed", "1",
                             "--seconds", "1", "--trace", "1")
        assert code == 0
        info = json.loads(lines[1].removeprefix("info "))
        result = json.loads(lines[-1])
        assert result["correct"], info
        assert info["baseline"] == {}, info["baseline"]
        assert info["series_by_grid"] == {"1024": 24, "4096": 6}
        counters.append({name: result["metrics"][name]["value"]
                         for name in tracing.DETERMINISTIC})
    assert counters[0] == counters[1]
    assert counters[0]["integrate.calls"] == 42
    assert counters[0]["integrate.sampled_points"] == 172032


def test_fails_without_the_program():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "long_window",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
