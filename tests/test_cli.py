import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from jacobi_invariants import catalog, cli
from jacobi_invariants import expr as ex
from jacobi_invariants import invariants as invariants_module
from jacobi_invariants import problem as problem_module
from jacobi_invariants.cli import dumps, load_problem, main

# the package re-exports the function integrate under the module's name
integrate_module = importlib.import_module("jacobi_invariants.integrate")

PG18_FILE = {
    "phi": "-ln(x)",
    "B": "-4*x^2",
    "delta2": "2*x^2",
    "params": {},
    "t0": 0.0, "t_end": 0.4, "x0": 1.0, "v0": 0.0,
    "domain": [0.0, 0.4, 0.4, 3.0],
}

PG4_FILE = {
    "phi": "0",
    "B": "-(6*x^2+t)",
    "eta": "-2*x^3*t",
    "delta2": "t*x",
    "params": {},
    "t0": 0.0, "t_end": 0.7, "x0": 1.0, "v0": 0.0,
}

JAC_FILE = {
    "phi": "t+x",
    "B": "rho*exp(-(t+x)/2)",
    "rho1": "rho",
    "rho2": "0",
    "delta1": "2*rho*exp((t+x)/2)",
    "delta2": "0",
    "params": {"rho": 1.0},
    "t0": 0.0, "t_end": 4.0, "x0": 2.772588722239781, "v0": -1.0,
}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_pg4(tmp_path, capsys):
    code, out, _ = run_main(["check", write(tmp_path, "pg4.json", PG4_FILE)], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["classification"]["tag"] == "TimeIndependentPhi"
    assert report["pass"] is True
    names = {h["name"] for h in report["hypotheses"]}
    assert "accumulator_hypothesis" in names


def test_check_inconsistent_delta2_fails(tmp_path, capsys):
    bad = dict(PG18_FILE, delta2="2*x^2 + x")
    code, out, _ = run_main(["check", write(tmp_path, "bad.json", bad)], capsys)
    report = json.loads(out)
    assert code == 1
    assert report["pass"] is False
    failing = [h for h in report["hypotheses"] if not h["passed"]]
    assert failing and any(h["residual"] not in ("", "0") for h in failing)


def test_check_jac_first_integral_condition(tmp_path, capsys):
    code, out, _ = run_main(["check", write(tmp_path, "jac.json", JAC_FILE)], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["classification"]["tag"] == "General"
    cond = [h for h in report["hypotheses"] if h["name"] == "first_integral_condition"]
    assert cond and cond[0]["passed"]
    assert "closed_form_exponent" in cond[0]


def test_check_bad_json_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run_main(["check", str(path)], capsys)
    assert code == 2
    assert "error" in err


def test_check_missing_key_exit_2(tmp_path, capsys):
    code, _, err = run_main(
        ["check", write(tmp_path, "m.json", {"phi": "0", "B": "0"})], capsys)
    assert code == 2
    assert "t0" in err


def test_check_parse_error_exit_2(tmp_path, capsys):
    for B in ("4*x^^2", "-" * 5000 + "x", "+".join(["x"] * 3000)):
        bad = dict(PG18_FILE, B=B)
        code, _, err = run_main(["check", write(tmp_path, "p.json", bad)], capsys)
        assert code == 2
        assert "cannot parse 'B'" in err


@pytest.mark.parametrize("command, change", [
    ("run", {"t_end": "inf"}),
    ("check", {"x0": "nan"}),
    ("check", {"params": {"k": "-inf"}}),
    ("check", {"domain": [0.0, 0.4, 0.4, "inf"]}),
])
def test_non_finite_numbers_exit_2(tmp_path, capsys, command, change):
    code, out, err = run_main(
        [command, write(tmp_path, "p.json", dict(PG18_FILE, **change))], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "must be finite" in err


# B = x with delta2 = 1 - x^2/2 + (x-1/2)^2/2 violates the Lagrangian
# condition by 1/2 - x: check exits 1 on the default domain, but every
# sample point of the flat domain x = 1/2 misses the violation, and so
# does every one of a box 1e-13 wide, below the zero test's bound
LINE_FILE = {"phi": "0", "B": "x", "delta2": "1 - x^2/2 + (x-1/2)^2/2",
             "t0": 0, "t_end": 1, "x0": 0.5, "v0": 0}


@pytest.mark.parametrize("command, change, message", [
    ("check", {"domain": [0, 1, 0.5, 0.5]}, "must have tmin < tmax and xmin < xmax"),
    ("check", {"domain": [0, 1, 2, 1]}, "must have tmin < tmax and xmin < xmax"),
    ("run", {"domain": [1, 1, 0, 1]}, "must have tmin < tmax and xmin < xmax"),
    ("check", {"x0": True}, "'x0' must be a number"),
    ("run", {"t_end": True}, "'t_end' must be a number"),
    ("check", {"params": {"k": False}}, "'params' values must be numbers"),
    ("check", {"domain": [0, True, 0, 1]}, "'domain' must be [tmin, tmax, xmin, xmax]"),
    ("check", {"domain": [0, 1, 0.5, 0.5000000000001]}, "is too thin for the zero test"),
    ("run", {"domain": [0, 1e-7, 0, 1]}, "is too thin for the zero test"),
    ("check", {"domain": [0, 1, 0.6, 1]}, "must contain the initial point (t0, x0) = (0.0, 0.5)"),
    ("run", {"domain": [0.5, 1, 0, 1]}, "must contain the initial point (t0, x0) = (0.0, 0.5)"),
], ids=["line", "reversed", "instant", "x0", "t_end", "param", "domain",
        "thin_x", "thin_t", "outside_x", "outside_t"])
def test_degenerate_domain_and_booleans_exit_2(tmp_path, capsys, command, change, message):
    code, out, err = run_main(
        [command, write(tmp_path, "p.json", dict(LINE_FILE, **change))], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["check", "run"])
def test_non_utf8_problem_file_exit_2(tmp_path, capsys, command):
    path = tmp_path / "p.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_main([command, str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ") and "Traceback" not in err


@pytest.mark.parametrize("change, reason", [
    ({"B": "x/2^2000"}, "constant beyond float range"),
    ({"B": "sin(x*x*x)", "x0": 1e120}, "sin of infinite value"),
    ({"B": "x+x", "x0": 1e308}, "overflow in sum"),
])
def test_values_beyond_float_range_exit_2(tmp_path, capsys, change, reason):
    code, out, err = run_main(
        ["check", write(tmp_path, "p.json", dict(PG18_FILE, **change))], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and reason in err and "Traceback" not in err


def test_run_checks_zero_checks_each_hypothesis_once(monkeypatch):
    # Autonomous: phi_t, B_t, Lagrangian constraint, factorization,
    # square-factor ODE; TimeIndependentPhi: phi_t, B_t,
    # two Lagrangian checks, accumulator; General: phi_t, rho1 != 0, two
    # time-free checks, forcing decomposition, rho compatibility, D != 0
    original = ex.zero_check
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (problem_module, invariants_module):
        monkeypatch.setattr(module, "zero_check", counting)
    for fid, want in (("PG18", 5), ("PG4", 5), ("JAC_EXACT", 7)):
        problem, exprs = load_problem(catalog.get(fid).data)
        calls.clear()
        report, _ = cli.run_checks(problem, exprs)
        assert report["pass"] and len(calls) == want, (fid, len(calls))


def test_run_checks_builds_the_oracle_family_only_on_request(monkeypatch):
    # the Autonomous family reuses the checked factorization; the General
    # one needs _general_aux, which stays off the check path
    calls = []
    for module, name in ((invariants_module, "_autonomous_aux"),
                         (invariants_module, "_general_aux")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, f=original, n=name: calls.append(n) or f(*args))
    for fid, oracle, want in (("PG18", True, ["_autonomous_aux"]),
                              ("JAC_EXACT", False, []),
                              ("JAC_EXACT", True, ["_general_aux"])):
        problem, exprs = load_problem(catalog.get(fid).data)
        calls.clear()
        _, built = cli.run_checks(problem, exprs, oracle=oracle)
        assert calls == want, (fid, oracle)
        assert (built.family is not None) == oracle


# (accepted steps, right-hand-side calls) of the four integrations of
# run_fixture at its defaults: tol, tol / REFINE, then the oracle's pair at
# 1e-8 and 1e-8 / REFINE, which carries the oracle's channels; all
# Completed.  A catalog pass makes 1,423 accepted steps and 8,586 calls, so
# none is rejected.
STEP_SEQUENCES = {
    "PG18": ((35, 212), (59, 356), (16, 98), (25, 152)),
    "PG21": ((76, 458), (132, 794), (31, 188), (53, 320)),
    "PG22": ((33, 200), (55, 332), (17, 104), (28, 170)),
    "PG4": ((84, 506), (145, 872), (37, 224), (63, 380)),
    "PG20": ((86, 518), (150, 902), (35, 212), (60, 362)),
    "JAC_EXACT": ((53, 320), (89, 536), (24, 146), (37, 224)),
}


def test_fixture_step_sequences_are_pinned(monkeypatch):
    # counts every call of the function problem.rhs returns, as a tracer
    # wrapping rhs does; one call for k1, one in the starting-step
    # heuristic and six per attempted step
    calls = []
    original_rhs, original_integrate = integrate_module.rhs, integrate_module.integrate

    def counting_rhs(p, integrands=()):
        f = original_rhs(p, integrands)
        return lambda *point: calls.append(None) or f(*point)

    seen = []

    def recording(p, integrands=(), tol=(1e-10, 1e-10)):
        before = len(calls)
        traj = original_integrate(p, integrands, tol)
        seen.append((tol, len(traj.conts), traj.termination.status, len(calls) - before))
        return traj

    monkeypatch.setattr(integrate_module, "rhs", counting_rhs)
    monkeypatch.setattr(cli, "integrate", recording)
    tols = (1e-10, 1e-10 / integrate_module.REFINE, 1e-8, 1e-8 / integrate_module.REFINE)
    for fid, want in STEP_SEQUENCES.items():
        seen.clear()
        _, code = cli.run_fixture(fid)
        assert code == 0
        assert seen == [((tol, tol), steps, integrate_module.COMPLETED, n)
                        for tol, (steps, n) in zip(tols, want)], fid


def test_run_oracle_without_lagrangian_exits_2_before_integrating(tmp_path, capsys,
                                                                  monkeypatch):
    data = {"phi": "t+x", "B": "rho*exp(-(t+x)/2)", "rho1": "rho",
            "params": {"rho": 1}, "t0": 0, "t_end": 4, "x0": 1, "v0": 0}
    calls = []
    monkeypatch.setattr(cli, "integrate", lambda *args: calls.append(args))
    code, out, err = run_main(["run", write(tmp_path, "g.json", data), "--oracle"], capsys)
    assert (code, out, calls) == (2, "", [])
    assert err == ("error: --oracle needs Lagrangian data "
                   "(delta1/delta2, or eta and delta2)\n")


def test_run_pg18(tmp_path, capsys):
    code, out, _ = run_main(
        ["run", write(tmp_path, "pg18.json", PG18_FILE), "--tol", "1e-10"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["pass"] is True
    assert report["termination"]["status"] == "Completed"
    assert all(inv["gate"] for inv in report["invariants"])
    assert all(inv["drift"]["rel_drift"] < 1e-6 for inv in report["invariants"])


def test_run_pg4_with_oracle(tmp_path, capsys):
    code, out, _ = run_main(
        ["run", write(tmp_path, "pg4.json", PG4_FILE), "--oracle"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["oracle"]["max_discrepancy"] < 1e-5
    assert report["oracle"]["gate"] is True


def test_run_jac(tmp_path, capsys):
    code, out, _ = run_main(["run", write(tmp_path, "jac.json", JAC_FILE)], capsys)
    report = json.loads(out)
    assert code == 0
    inv = report["invariants"][0]
    assert inv["kind"] == "FirstIntegral"
    assert inv["drift"]["rel_drift"] < 1e-8


def test_run_csv_output(tmp_path, capsys):
    code, out, _ = run_main(
        ["run", write(tmp_path, "pg18.json", PG18_FILE), "--out", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("t,x,v")
    assert len(lines) > 10


def test_run_abort_before_ten_percent_exit_3(tmp_path, capsys):
    # valid autonomous data, but the trajectory crosses x = 0 (where
    # sqrt(x) leaves its domain) around t = 0.04, well before 10% of the
    # window
    data = {
        "phi": "0", "B": "-sqrt(x)", "delta2": "2/3*x^(3/2)",
        "params": {}, "t0": 0.0, "t_end": 1.0, "x0": 0.04, "v0": -1.0,
        "domain": [0.0, 1.0, 0.0, 1.2],
    }
    code, out, _ = run_main(["run", write(tmp_path, "a.json", data)], capsys)
    assert code == 3
    report = json.loads(out)
    assert report["termination"]["status"] == "DomainAbort"
    assert report["termination"]["t"] < 0.1


def test_run_invariant_undefined_at_t0_exit_2(tmp_path, capsys):
    # psi = t*x + 2*ln(x) is undefined at x0 = -1, so the accumulator
    # constant has no value at the start of its trajectory
    data = {"phi": "0", "B": "t + 2/x", "eta": "t^2*x/2", "delta2": "-2*ln(x)",
            "t0": 0, "t_end": 0.5, "x0": -1, "v0": 0}
    code, out, err = run_main(["run", write(tmp_path, "u.json", data)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "undefined on the trajectory start" in err


def test_run_oracle_undefined_on_the_trajectory_exit_2(tmp_path, capsys):
    # over a window of 1500 the oracle's exp(t + x) leaves float range at
    # t = 709.89, inside the series it samples
    data = {**catalog.get("JAC_EXACT").data, "t_end": 1500}
    code, out, err = run_main(["run", write(tmp_path, "o.json", data), "--oracle"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: oracle undefined on the trajectory: overflow in exp")


@pytest.mark.parametrize("flags", [[], ["--oracle"]], ids=["plain", "oracle"])
def test_run_on_an_overflowing_problem_prints_no_numpy_warning(tmp_path, flags):
    # the run of the 1500-long window above, in a child that turns numpy's
    # RuntimeWarnings into errors: the dense rows are built under
    # errstate, so inf and nan in a trajectory pass silently, as they do
    # in Python float arithmetic
    data = {**catalog.get("JAC_EXACT").data, "t_end": 1500}
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "jacobi_invariants.cli",
           "run", write(tmp_path, "o.json", data), *flags]
    proc = subprocess.run(cmd, capture_output=True, check=False)
    assert proc.returncode == (2 if flags else 1)
    assert b"Warning" not in proc.stderr and b"Traceback" not in proc.stderr


def test_run_domain_abort_detail_has_plain_floats(tmp_path, capsys):
    # x = 1.5 - 3t + t^2/2 reaches 0 at t = 0.55, where the channel's
    # x^(-1/2) leaves its domain: an abort in the first tenth of the window
    data = {"phi": "0", "B": "-1", "delta2": "x", "domain": [0, 10, 0.5, 3],
            "t0": 0, "t_end": 10, "x0": 1.5, "v0": -3}
    code, out, _ = run_main(["run", write(tmp_path, "d.json", data)], capsys)
    assert code == 3
    detail = json.loads(out)["termination"]["detail"]
    assert "np.float64" not in out
    point = re.fullmatch(r".* at \(t=(\S+), x=(\S+)\)", detail)
    assert point and 0.55 < float(point[1]) < 0.56 and abs(float(point[2])) < 1e-6


@pytest.mark.parametrize("name", ["free_oscillator_long", "forced_oscillator_long"])
def test_run_oracle_gate_passes_over_long_windows(capsys, name):
    # about 4 periods of a free oscillator and 15 of a forced one; a
    # Simpson quadrature of the work integral on a fixed grid observed
    # order 0.14 and 0.03 here, and failed the gate
    path = pathlib.Path(__file__).parent / "data" / f"{name}.json"
    code, out, _ = run_main(["run", str(path), "--oracle"], capsys)
    report = json.loads(out)
    assert code == 0 and report["oracle"]["gate"] is True
    assert report["oracle"]["max_discrepancy"] < 1e-5


def test_run_pipeline_compiles_each_generated_function_once(monkeypatch):
    # the main pair shares one right-hand side and the oracle's pair
    # another; the coarse and fine series of a spec share one evaluator,
    # which the oracle's comparison reuses for the closed form
    defined = []
    original = ex._define
    monkeypatch.setattr(ex, "_define", lambda name, args, body, namespace: defined.append(
        (name, args, tuple(body))) or original(name, args, body, namespace))
    fx = catalog.get("PG18")
    problem, exprs = load_problem(fx.data)
    _, code, _ = cli.run_pipeline(problem, exprs, fx.data, oracle=True,
                                  threshold=fx.drift_threshold)
    assert code == 0
    # two right-hand sides; three specs, the oracle and its gate
    assert sorted(name for name, _, _ in defined) == ["fused"] * 2 + ["series"] * 5
    assert len(set(defined)) == len(defined)


GOLDEN_CATALOG = pathlib.Path(__file__).parent / "data" / "catalog_all.json"


def test_catalog_run_all_matches_golden_report(capsys):
    # the committed report pins every number of every fixture at the
    # defaults; a change that moves any digit must regenerate it knowingly
    code, out, _ = run_main(["catalog", "run", "--all"], capsys)
    assert code == 0
    assert out.encode() == GOLDEN_CATALOG.read_bytes()


@pytest.mark.parametrize("coretype", ["Haswell", "Nehalem"])
def test_catalog_report_does_not_depend_on_the_blas_kernel(coretype):
    # OpenBLAS picks its CPU kernel when it loads, and its kernels round
    # dot products differently; the variable forces an older kernel in the
    # child only, and a numpy built without OpenBLAS ignores it
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype}
    cmd = [sys.executable, "-m", "jacobi_invariants.cli", "catalog", "run", "--all"]
    proc = subprocess.run(cmd, capture_output=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    assert proc.stdout == GOLDEN_CATALOG.read_bytes()


GOLDEN_CHECKS = pathlib.Path(__file__).parent / "data" / "check_reports.json"


@pytest.mark.parametrize("case", json.loads(GOLDEN_CHECKS.read_text()),
                         ids=lambda case: case["name"])
def test_check_matches_golden_report(tmp_path, capsys, case):
    # failing hypotheses of every regime, each with the HypothesisError
    # entry its constructor adds, and a passing problem of each regime
    code, out, _ = run_main(["check", write(tmp_path, "p.json", case["problem"])], capsys)
    assert (code, out) == (case["exit"], case["stdout"])


def test_domain_error_prints_a_capped_node(tmp_path, capsys):
    # the constant 2^2000 has 603 digits; the message keeps 80 characters
    data = {"phi": "0", "B": "x/2^2000", "delta2": "0",
            "t0": 0, "t_end": 1, "x0": 0.5, "v0": 0}
    code, out, err = run_main(["check", write(tmp_path, "big.json", data)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: coefficients undefined at the initial point: "
                          "constant beyond float range in 1148130695")
    node = err.split(" in ", 1)[1].rsplit(" at ", 1)[0]
    assert len(node) == 80 and node.endswith("…")
    assert err.endswith(" at (t=0.0, x=0.5)\n")


@pytest.mark.parametrize("argv", [
    ["run", "{file}", "--grid", "1"],
    ["run", "{file}", "--tol", "nan"],
    ["run", "{file}", "--tol", "1"],
    ["run", "{file}", "--tol", "1e-13"],   # the tol/16 refinement run is below 1e-14
    ["run", "{file}", "--threshold", "0"],
    ["catalog", "run", "PG18", "--grid", "1"],
    ["catalog", "run", "PG18", "--tol", "1e-13"],
])
def test_bad_numeric_options_exit_2(tmp_path, capsys, argv):
    path = write(tmp_path, "pg18.json", PG18_FILE)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(file=path) for arg in argv])
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def test_catalog_list(capsys):
    code, out, _ = run_main(["catalog", "list"], capsys)
    assert code == 0
    assert json.loads(out)["fixtures"] == [
        "PG18", "PG21", "PG22", "PG4", "PG20", "JAC_EXACT"]


def test_catalog_run_pg20(capsys):
    code, out, _ = run_main(["catalog", "run", "PG20"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["fixture"] == "PG20"
    assert report["pass"] is True


@pytest.mark.parametrize("fid", catalog.ids())
def test_run_on_a_fixture_file_reports_what_catalog_run_does(tmp_path, capsys, fid):
    # a fixture is a problem file: run at its drift threshold prints the
    # catalog report less its first key
    fx = catalog.get(fid)
    path = write(tmp_path, f"{fid}.json", fx.data)
    code, out, _ = run_main(
        ["run", path, "--oracle", "--threshold", repr(fx.drift_threshold)], capsys)
    cat_code, cat_out, _ = run_main(["catalog", "run", fid], capsys)
    fixture_line = f'  "fixture": "{fid}",\n'
    assert cat_out.count(fixture_line) == 1
    assert (code, out) == (cat_code, cat_out.replace(fixture_line, "", 1))


def test_catalog_run_unknown_exit_2(capsys):
    code, _, err = run_main(["catalog", "run", "PG99"], capsys)
    assert code == 2


def test_catalog_run_all_byte_identical():
    cmd = [sys.executable, "-m", "jacobi_invariants.cli",
           "catalog", "run", "--all", "--grid", "256"]
    r1 = subprocess.run(cmd, capture_output=True, check=False)
    r2 = subprocess.run(cmd, capture_output=True, check=False)
    assert r1.returncode == 0, r1.stderr.decode()
    assert r1.stdout == r2.stdout
    reports = json.loads(r1.stdout)
    assert [r["fixture"] for r in reports] == list(
        ("PG18", "PG21", "PG22", "PG4", "PG20", "JAC_EXACT"))


def test_run_fixture_integrates_one_pair_per_tolerance(monkeypatch):
    # every invariant is evaluated on one coarse/fine pair; the oracle's
    # constancy gate adds its own pair at 1e-8
    original = integrate_module.integrate
    tols = []

    def counting(p, integrands, tol):
        tols.append(tol[0])
        return original(p, integrands, tol)

    for module in (cli, integrate_module):
        monkeypatch.setattr(module, "integrate", counting)
    for fid in catalog.ids():
        for oracle, want in ((True, [1e-10, 1e-10 / 16, 1e-8, 1e-8 / 16]),
                             (False, [1e-10, 1e-10 / 16])):
            tols.clear()
            _, code = cli.run_fixture(fid, grid=64, oracle=oracle)
            assert code == 0
            assert tols == want, (fid, oracle)


def test_oracle_gate_samples_at_least_the_default_grid():
    # the order of PG21's oracle series, estimated from 2 to 4 points,
    # reads 1.3-3.4
    for grid in (2, 3, 4):
        report, code = cli.run_fixture("PG21", grid=grid)
        assert code == 0 and report["oracle"]["gate"] is True, grid


def test_dumps_float_format():
    text = dumps({"a": 0.5, "n": 3, "flag": True, "s": "x", "list": [1.0]})
    assert '"a": 5.000000000000e-01' in text
    assert '"n": 3' in text
    assert '"flag": true' in text
    assert json.loads(text)["list"] == [1.0]


def test_load_problem_rejects_bad_domain():
    from jacobi_invariants.cli import InputError

    data = dict(PG18_FILE, domain=[1, 2])
    with pytest.raises(InputError):
        load_problem(data)
