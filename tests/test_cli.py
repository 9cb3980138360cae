import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

from jacobi_invariants import catalog, cli
from jacobi_invariants import expr as ex
from jacobi_invariants import invariants as invariants_module
from jacobi_invariants import problem as problem_module
from jacobi_invariants.cli import dumps, load_problem, main
from jacobi_invariants.verify import integrated_oracle, oracle_vs_closed

from helpers import run_bounded

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


def _long_chain_file():
    # B's normal form is a sum of 4,802 terms, past what the compiler
    # takes as one chain of + (about 3,000 operands)
    xs = "+".join(["x"] + [f"x^{i}" for i in range(2, 50)])
    ts = "+".join(["1", "t"] + [f"t^{i}" for i in range(2, 49)])
    dx = "+".join(["1"] + [f"{i}*x^{i - 1}" for i in range(2, 50)])
    return {"phi": "0", "eta": "0", "delta2": f"({xs})*({ts})*(a + b)",
            "B": f"-({dx})*({ts})*(a + b)", "params": {"a": 0.01, "b": 0.02},
            "t0": 0, "t_end": 0.1, "x0": 0.1, "v0": 0, "domain": [0, 0.1, 0.05, 0.2]}


def _shared_factors_file(m):
    # delta2 = (a+x)*(b+x)*.. over m parameters, B its x-derivative's
    # negative as a sum of m products: the dressed channel integrand's DAG
    # has 3,987 distinct nodes at m = 9, its tree 2.48 million
    names = "abcdefghijkl"[:m]
    factors = [f"({n}+x)" for n in names]
    B = "+".join("*".join(factors[:i] + factors[i + 1:]) for i in range(m))
    return {"phi": "0", "B": f"-({B})", "delta2": "*".join(factors),
            "params": {n: 1.0 + 0.1 * i for i, n in enumerate(names)},
            "t0": 0, "t_end": 0.05, "x0": 0.5, "v0": 0, "domain": [0, 0.05, 0.1, 1.0]}


@pytest.mark.parametrize("data", [_long_chain_file(), _shared_factors_file(9)],
                         ids=["long_chain", "shared_subtrees"])
def test_normal_forms_too_large_to_write_exit_2(tmp_path, data):
    # the checks pass; the run refuses to compile or print the normal form
    # instead of crashing the compiler or running out of memory
    path = write(tmp_path, "p.json", data)
    (check, _, _), *runs = run_bounded(["check", path], ["run", path], ["run", "--oracle", path])
    assert check == 0
    for code, out, err in runs:
        assert (code, out) == (2, "")
        assert err.startswith("error: expression too large") and "Traceback" not in err


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


def _problem_text(**change) -> str:
    return json.dumps(dict(PG18_FILE, **change))


NINES = "9" * 3000

# problem files that must be refused as input errors, with a fragment of
# the message: one row per hostile input
HOSTILE_FILES = {
    "phi_null": (_problem_text(phi=None), "'phi' must be an expression string"),
    "B_null": (_problem_text(B=None), "'B' must be an expression string"),
    "t0_beyond_floats": (_problem_text(t0=10 ** 400), "'t0' must be finite"),
    "param_beyond_floats": (_problem_text(params={"k": -10 ** 400}), "'k' must be finite"),
    "domain_beyond_floats": (_problem_text(domain=[0.0, 0.4, 0.4, 10 ** 400]),
                             "'domain' must be finite"),
    "digits_past_the_int_limit": (_problem_text(t0=0).replace('"t0": 0', '"t0": 1' + "0" * 5000),
                                  "is not valid JSON"),
    "nested_past_the_recursion_limit": ("[" * 200000, "is not valid JSON"),
    # products of literals that fold past Python's 4300-digit int-to-string
    # limit; the error names the constant by its leading digits
    "product_past_the_int_limit": (
        _problem_text(B=f"{NINES}*{NINES}*x", delta2=f"-{NINES}*{NINES}*x^2/2"),
        "constant beyond float range"),
    "quotient_past_the_int_limit": (
        _problem_text(B=f"({NINES}*{NINES})/({NINES}*{NINES}+1)*x"),
        "constant beyond float range"),
    "B_unbound": (_problem_text(B="k*x"), "parameter 'k' is not bound"),
    "phi_unbound": (_problem_text(phi="k*x"), "parameter 'k' is not bound"),
    "delta2_unbound": (_problem_text(delta2="k - x^2/2"), "parameter 'k' is not bound"),
    "window_wider_than_floats": (
        _problem_text(phi="0", B="x", delta2="2 - x^2/2", t0=-1e308, t_end=1e308, x0=0.5,
                      domain=[-1e308, 1e308, -1.9, 1.9]),
        "must have widths within float range"),
    # the default domain's x side is 2*(2|x0| + 1) wide; a linear B keeps
    # the coefficients finite at x0
    "default_domain_wider_than_floats": (
        _problem_text(phi="0", B="x", delta2="2 - x^2/2", t_end=1.0, x0=1e308, domain=None),
        "must have widths within float range"),
    # windows whose step floor 1e-12*(t_end - t0) is subnormal; integrated,
    # the first would divide by zero in the initial step and the second
    # sample past t_end
    "window_too_narrow_to_step": (
        _problem_text(phi="0", B="-x", delta2="x^2/2", t0=0, t_end=5e-324, x0=0.5, v0=1e300,
                      domain=None),
        "is too narrow to integrate"),
    "window_too_narrow_to_sample": (
        _problem_text(phi="0", B="-x", delta2="x^2/2", t0=0, t_end=1e-320, x0=0.5, v0=0.1,
                      domain=None),
        "is too narrow to integrate"),
}


@pytest.mark.parametrize("command", [["check"], ["run"], ["run", "--oracle"]],
                         ids=["check", "run", "run_oracle"])
@pytest.mark.parametrize("name", HOSTILE_FILES)
def test_hostile_problem_files_exit_2(tmp_path, capsys, name, command):
    text, message = HOSTILE_FILES[name]
    path = tmp_path / "p.json"
    path.write_text(text)
    code, out, err = run_main([*command, str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and "Traceback" not in err


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


def test_a_constant_beyond_float_range_is_checked_and_aborts_the_run(tmp_path, capsys):
    # simplify sorts the terms of delta2 by a key that orders 10^400
    # without a float; the run cannot evaluate the constant, at t0
    path = write(tmp_path, "p.json", dict(LINE_FILE, delta2="10^400 - x^2/2 + t"))
    code, out, err = run_main(["check", path], capsys)
    assert (code, err) == (0, "") and json.loads(out)["pass"]
    code, out, _ = run_main(["run", path], capsys)
    termination = json.loads(out)["termination"]
    assert code == 3 and termination["status"] == "DomainAbort" and termination["t"] == 0.0
    assert termination["detail"].startswith("constant beyond float range")


@pytest.mark.parametrize("data", [
    {"phi": "0", "B": "-(10^300)*x", "delta2": "10^300*x^2/2",
     "t0": 0, "t_end": 1, "x0": 1, "v0": 0},
    {**catalog.get("JAC_EXACT").data, "params": {"rho": 1e150}},
], ids=["linear", "JAC_EXACT"])
def test_run_with_a_right_hand_side_beyond_1e300_aborts(tmp_path, capsys, data):
    # the derivative at t0 makes the starting-step heuristic's trial step
    # 0.01*d0/inf = 0, which is floored at the loop's smallest step
    code, out, _ = run_main(["run", write(tmp_path, "p.json", data)], capsys)
    assert code == 3 and json.loads(out)["termination"]["status"] == "DomainAbort"


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

    # problem.vanishes makes every zero test of a run
    monkeypatch.setattr(problem_module, "zero_check", counting)
    for fid, want in (("PG18", 5), ("PG4", 5), ("JAC_EXACT", 7)):
        problem, exprs = load_problem(catalog.get(fid).data)
        calls.clear()
        report, _ = cli.run_checks(problem, exprs)
        assert report["pass"] and len(calls) == want, (fid, len(calls))


def test_run_checks_builds_the_oracle_family_only_on_request(monkeypatch):
    # the Autonomous family reuses the checked factorization; the General
    # one needs general_aux, which stays off the check path
    calls = []
    for name in ("autonomous_aux", "general_aux"):
        original = getattr(invariants_module, name)
        monkeypatch.setattr(invariants_module, name,
                            lambda *args, f=original, n=name: calls.append(n) or f(*args))
    for fid, oracle, want in (("PG18", True, ["autonomous_aux"]),
                              ("JAC_EXACT", False, []),
                              ("JAC_EXACT", True, ["general_aux"])):
        problem, exprs = load_problem(catalog.get(fid).data)
        calls.clear()
        _, built = cli.run_checks(problem, exprs, oracle=oracle)
        assert calls == want, (fid, oracle)
        assert (built.family is not None) == oracle


# (accepted steps, right-hand-side calls) of the two integrations of
# run_fixture at its defaults, tol and tol / REFINE, which carry the
# oracle's channels as quadratures after the invariants'; both Completed.
# A catalog pass makes 181 accepted steps and 2,739 calls, 2 + 15 per
# accepted step in each run, so none is rejected.  The steps are those of
# a run without the oracle.
STEP_SEQUENCES = {
    "PG18": ((7, 107), (11, 167)),
    "PG21": ((14, 212), (23, 347)),
    "PG22": ((7, 107), (11, 167)),
    "PG4": ((15, 227), (24, 362)),
    "PG20": ((15, 227), (26, 392)),
    "JAC_EXACT": ((11, 167), (17, 257)),
}


def test_fixture_step_sequences_are_pinned(monkeypatch):
    # counts every call of the function problem.rhs returns, as a tracer
    # wrapping rhs does; one call for k1, one in the starting-step
    # heuristic, twelve per attempted step and three more per accepted one
    calls = []
    original_rhs, original_integrate = integrate_module.rhs, integrate_module.integrate

    def counting_rhs(p, integrands=()):
        f = original_rhs(p, integrands)
        return lambda *point: calls.append(None) or f(*point)

    seen = []

    def recording(p, integrands=(), tol=(1e-10, 1e-10), quadratures=()):
        before = len(calls)
        traj = original_integrate(p, integrands, tol, quadratures)
        seen.append((tol, len(traj.conts), traj.termination.status, len(calls) - before))
        return traj

    monkeypatch.setattr(integrate_module, "rhs", counting_rhs)
    monkeypatch.setattr(cli, "integrate", recording)
    tols = (1e-10, 1e-10 / integrate_module.REFINE)
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
    # one row per accepted sample of the coarse run, from (t0, x0, v0) to
    # t_end, with every column of the header
    header, *rows = out.strip().split("\n")
    assert header.startswith("t,x,v")
    table = [[float(c) for c in row.split(",")] for row in rows]
    assert len(table) == STEP_SEQUENCES["PG18"][0][0] + 1
    assert {len(row) for row in table} == {header.count(",") + 1}
    assert table[0][:3] == [0.0, 1.0, 0.0] and table[-1][0] == 0.4
    assert all(a[0] < b[0] for a, b in zip(table, table[1:]))


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
    # the one pair shares one right-hand side and one integration loop; the
    # coarse and fine series of a spec share one evaluator, which the
    # oracle's comparison reuses for the closed form and the oracle
    defined = []
    original = ex._define
    monkeypatch.setattr(ex, "_define", lambda name, args, body, namespace: defined.append(
        (name, args, tuple(body))) or original(name, args, body, namespace))
    ex._code.cache_clear()
    fx = catalog.get("PG18")
    problem, exprs = load_problem(fx.data)
    _, code, _ = cli.run_pipeline(problem, exprs, fx.data, oracle=True,
                                  threshold=fx.drift_threshold)
    assert code == 0
    # one compile_fn callable (the aux function's radicand); one right-hand
    # side; three specs and the oracle
    assert sorted(name for name, _, _ in defined) == ["fast", "fused"] + ["series"] * 4
    assert len(set(defined)) == len(defined)
    # and the loop, which integrate defines for both runs of the pair
    assert ex._code.cache_info().misses == len(defined) + 1


def test_a_second_run_finds_every_generated_function_in_the_cache(monkeypatch):
    # _code is keyed on the function's name, arguments and body, so a
    # second run of PG18 builds no source text: each of its definitions,
    # the loop's two included, is a hit
    fx = catalog.get("PG18")

    def run():
        problem, exprs = load_problem(fx.data)
        return cli.run_pipeline(problem, exprs, fx.data, oracle=True,
                                threshold=fx.drift_threshold)[:2]

    first = run()
    defined = []
    original = ex._define
    for module in (ex, integrate_module):
        monkeypatch.setattr(module, "_define",
                            lambda *args: defined.append(args[0]) or original(*args))
    before = ex._code.cache_info()
    assert run() == first
    after = ex._code.cache_info()
    assert sorted(defined) == ["fast", "fused", "loop", "loop"] + ["series"] * 4
    assert (after.hits - before.hits, after.misses - before.misses) == (len(defined), 0)


def test_the_six_fixtures_share_three_integration_loops(monkeypatch):
    # the loop's source depends on the shape alone (the components, the
    # ones the right-hand side reads, the ones under step control), so the
    # six fixtures' runs, with the oracle's channels, define three distinct
    # loop bodies between them
    loops = set()
    original = integrate_module._define
    monkeypatch.setattr(integrate_module, "_define", lambda name, args, body, namespace: (
        loops.add(tuple(body)) or original(name, args, body, namespace)))
    for fixture_id in catalog.ids():
        assert cli.run_fixture(fixture_id)[1] == 0
    assert len(loops) == 3


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


# a free oscillator of the long-window benchmark (seed 1) whose dressed
# constants read observed orders 3.16 and 3.59 with the fine run at tol/16
ORDER_AT_THE_GATE = {
    "phi": "0", "B": "k2*x", "delta2": "c - k2*x^2/2",
    "params": {"k2": 1.3531, "c": 1.507315},
    "t0": 0.0, "t_end": 22.614415502247308, "x0": -1.2796, "v0": 0.3802,
    "domain": [0.0, 22.614415502247308, -1.4911370101053492, 1.4911370101053492]}


def test_every_drift_order_is_finite_and_above_the_gate():
    # at the round-off floor a drift's observed order reads inf (99.0 in a
    # report), and the gate's order >= 3.5 holds there without saying
    # anything; a pair of higher order could take a drift there.  Every
    # order of catalog run --all (the golden report, the oracle included)
    # and of run on both long windows is finite and clears the gate, as is
    # every one of ORDER_AT_THE_GATE
    reports = json.loads(GOLDEN_CATALOG.read_text())
    files = sorted(pathlib.Path(__file__).parent.glob("data/*_long.json"))
    for data in [json.loads(path.read_text()) for path in files] + [ORDER_AT_THE_GATE]:
        problem, exprs = load_problem(data)
        reports.append(cli.run_pipeline(problem, exprs, data)[0])
    orders = [entry["drift"]["order"] for report in reports
              for entry in (*report["invariants"], report.get("oracle"))
              if entry is not None]
    assert len(orders) == 12 + 6 + 3 + 1 + 3
    assert all(3.5 <= order < 99.0 for order in orders), orders


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
    ["run", "{file}", "--tol", "1e-13"],   # the tol/64 refinement run is below 1e-14
    ["run", "{file}", "--threshold", "0"],
    ["catalog", "run", "PG18", "--grid", "1"],
    ["catalog", "run", "PG18", "--tol", "1e-13"],
    ["run", "{file}", "--grid", "1048577"],     # above 2**20, 1024 times the default
    ["run", "{file}", "--grid", "1000000000000"],
    ["catalog", "run", "PG18", "--grid", "1048577"],
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
    # every invariant and the oracle's constancy gate are evaluated on one
    # coarse/fine pair
    original = integrate_module.integrate
    tols = []

    def counting(p, integrands, tol, quadratures=()):
        tols.append(tol[0])
        return original(p, integrands, tol, quadratures)

    for module in (cli, integrate_module):
        monkeypatch.setattr(module, "integrate", counting)
    for fid in catalog.ids():
        for oracle, want in ((True, [1e-10, 1e-10 / 64]),
                             (False, [1e-10, 1e-10 / 64])):
            tols.clear()
            _, code = cli.run_fixture(fid, grid=64, oracle=oracle)
            assert code == 0
            assert tols == want, (fid, oracle)


def test_the_oracle_leaves_the_invariant_reports_unchanged():
    # the oracle's channels ride the run's pair as quadratures, outside
    # step control, so they move no step, no termination and no digit of
    # the invariants: on the fixtures and over the long windows
    runs = [(fx.data, fx.drift_threshold) for fx in map(catalog.get, catalog.ids())]
    runs += [(json.loads((pathlib.Path(__file__).parent / "data" / f"{name}.json").read_text()),
              1e-6) for name in ("free_oscillator_long", "forced_oscillator_long")]
    for data, threshold in runs:
        problem, exprs = load_problem(data)
        reports = [cli.run_pipeline(problem, exprs, data, oracle=oracle, threshold=threshold)[0]
                   for oracle in (False, True)]
        assert "oracle" in reports[1]
        sections = [dumps({key: report[key] for key in ("termination", "invariants")})
                    for report in reports]
        assert sections[0] == sections[1], data


def test_a_zero_oracle_integrand_leaves_the_shared_pair_whole(tmp_path, capsys):
    # over JAC_EXACT's window stretched to 1500, the oracle's dressing
    # exp(u_b), u_b = t/2, leaves float range at t = 2 ln(DBL_MAX) =
    # 1419.57, but the work integrand it dresses has only zero
    # coefficients, so the right-hand side writes it as 0.0 and evaluates
    # no exponential.  Without the oracle the pair completes (its
    # invariant's series overflows at 1419.35, which fails the gate); with
    # the oracle's quadratures it completes on the same steps, x and v and
    # the invariants' channels the same bits, and the run exits 2 on the
    # oracle's own series, as test_run_oracle_undefined_on_the_trajectory_exit_2
    # shows
    data = {**catalog.get("JAC_EXACT").data, "t_end": 1500}
    problem, exprs = load_problem(data)
    report, code, plain = cli.run_pipeline(problem, exprs, data)
    assert code == 1 and report["termination"] == {"status": "Completed", "t": 1500.0}
    _, built = cli.run_checks(problem, exprs, oracle=True)
    oracle = integrated_oracle(problem, built.lagrangian, built.family)
    assert all(c == ex.ZERO for c in oracle.integrands[-1].coeffs)
    carried = integrate_module.integrate(problem, built.spec_integrands, (1e-10, 1e-10),
                                         oracle.integrands)
    assert carried.termination == plain.termination
    assert carried.ts.tobytes() == plain.ts.tobytes()
    width = plain.ys.shape[1]
    assert carried.ys[:, :width].tobytes() == plain.ys.tobytes()
    assert not carried.ys[:, -1].any()
    code, out, err = run_main(["run", write(tmp_path, "o.json", data), "--oracle"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: oracle undefined on the trajectory: overflow in exp")


def test_run_fixture_samples_each_grid_once(monkeypatch):
    # the invariants, the oracle's gate and its comparison with the closed
    # form read the coarse and the fine trajectory at 1024 points: each
    # grid is sampled once, BLOCK points at a time
    sizes = []
    original = integrate_module.Trajectory.sample
    monkeypatch.setattr(integrate_module.Trajectory, "sample",
                        lambda self, ts: sizes.append(len(ts)) or original(self, ts))
    _, code = cli.run_fixture("PG18")
    assert code == 0
    assert sum(sizes) == 1024 + 1024
    assert max(sizes) <= integrate_module.BLOCK


def test_a_catalog_pass_runs_each_series_once(monkeypatch):
    # one pass per (trajectory, grid) runs each spec's compiled series once
    # on each of the coarse and the fine run, the oracle's with the
    # invariants': the discrepancy and the drift reports read those series
    calls = Counter()
    original = invariants_module.InvariantSpec.compiled

    def compiled(self, params=None):
        fn = original(self, params)

        def counted(*args):
            calls[fid] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(invariants_module.InvariantSpec, "compiled", compiled)
    for fid in catalog.ids():
        _, code = cli.run_fixture(fid)
        assert code == 0
    assert calls == {"PG18": 8, "PG21": 8, "PG22": 8, "PG4": 4, "PG20": 4, "JAC_EXACT": 4}
    assert sum(calls.values()) == 36


def test_oracle_gate_samples_at_least_the_default_grid():
    # the order of PG21's oracle series, estimated from 2 to 4 points,
    # reads 1.3-3.4; the comparison with the closed form reads the same
    # grid, so its discrepancy does not move
    discrepancies = set()
    for grid in (2, 3, 4, 1024):
        report, code = cli.run_fixture("PG21", grid=grid)
        assert code == 0 and report["oracle"]["gate"] is True, grid
        discrepancies.add(report["oracle"]["max_discrepancy"])
    assert len(discrepancies) == 1


@pytest.mark.parametrize("fid", catalog.ids())
def test_oracle_discrepancy_compares_the_integrated_series(fid):
    # max_discrepancy reads the integrated oracle series and the closed
    # form on the coarse run at the gate's 1024 points, no second
    # quadrature of the work integral
    fx = catalog.get(fid)
    problem, exprs = load_problem(fx.data)
    report, code, traj = cli.run_pipeline(problem, exprs, fx.data, oracle=True,
                                          threshold=fx.drift_threshold)
    assert code == 0
    _, built = cli.run_checks(problem, exprs, oracle=True)
    o_spec = integrated_oracle(problem, built.lagrangian, built.family)
    want = oracle_vs_closed(integrate_module.evaluate_along(traj, o_spec, 1024),
                            integrate_module.evaluate_along(traj, built.closed, 1024))
    assert report["oracle"]["max_discrepancy"] == want


def test_dumps_float_format():
    text = dumps({"a": 0.5, "n": 3, "flag": True, "s": "x", "list": [1.0]})
    assert '"a": 5.000000000000e-01' in text
    assert '"n": 3' in text
    assert '"flag": true' in text
    assert json.loads(text)["list"] == [1.0]
    # JSON has no infinity: dumps alone writes one, as +-99
    text = dumps({"inf": math.inf, "-inf": -math.inf})
    assert '"inf": 9.900000000000e+01' in text
    assert '"-inf": -9.900000000000e+01' in text


def test_dumps_refuses_a_record():
    # a NamedTuple is a tuple, but a record leaked into a report is a bug,
    # not a JSON array
    termination = integrate_module.Termination(integrate_module.COMPLETED, 1.0)
    assert dumps({"window": (0.0, 1.0)}) == dumps({"window": [0.0, 1.0]})
    with pytest.raises(TypeError, match="cannot serialize Termination"):
        dumps({"termination": termination})


def _dumps_by_json(obj, indent=0):
    """dumps written with one json.dumps call per key and leaf: the text
    dumps keeps."""
    pad, pad1 = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad1}{json.dumps(str(k))}: {_dumps_by_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if type(obj) in (list, tuple):
        if not obj:
            return "[]"
        items = [f"{pad1}{_dumps_by_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    return dumps(obj, indent)  # a float


def test_dumps_writes_the_text_of_json_dumps_per_leaf():
    # a run whose parameter name and expression strings are not ASCII, and
    # leaves of every kind: keys and strings escaped as json.dumps escapes
    # them, true/false/null and ints as it writes them
    data = dict(JAC_FILE, B="κ*exp(-(t+x)/2)", rho1="κ", delta1="2*κ*exp((t+x)/2)",
                params={"κ": 1.0})
    problem, exprs = load_problem(data)
    report, code, _ = cli.run_pipeline(problem, exprs, data)
    assert code == 0 and report["problem"]["params"] == {"κ": 1.0}
    leaves = {"κ ω": ["é", "\u2028", "\x00\x1f\x7f", 'q"\\/', "🙂"], "t": True, "f": False,
              "none": None, "ints": [0, -7, 10 ** 30], 3: {}, "e": []}
    for obj in (report, leaves, "κ", 5, None):
        text = dumps(obj)
        assert text == _dumps_by_json(obj) and text.isascii()
    assert '"B": "\\u03ba*exp(-(t+x)/2)"' in dumps(report)


def test_load_problem_rejects_bad_domain():
    from jacobi_invariants.cli import InputError

    data = dict(PG18_FILE, domain=[1, 2])
    with pytest.raises(InputError):
        load_problem(data)


def test_a_parameter_sweep_compiles_once_per_shape():
    # generated sources name the parameters, and each function's namespace
    # binds their values, so two free oscillators that differ only in k2
    # and c share every source: the second run compiles nothing, and its
    # report is the one it gives from a cold cache
    first = json.loads((pathlib.Path(__file__).parent / "data"
                        / "free_oscillator_long.json").read_text())
    second = {**first, "params": {"k2": 1.21, "c": 1.1791}}

    def run(data):
        problem, exprs = load_problem(data)
        report, code, _ = cli.run_pipeline(problem, exprs, data, oracle=True)
        return report, code

    run(first)
    misses = ex._code.cache_info().misses
    warm = run(second)
    assert ex._code.cache_info().misses == misses
    assert warm[1] == 0 and warm[0]["problem"]["params"] == second["params"]
    ex._code.cache_clear()
    assert run(second) == warm


def test_the_compile_cache_is_bounded():
    # a run of distinct problems repeats no source, so the cache keeps only
    # the most recent ones
    bound = ex._code.cache_info().maxsize
    assert bound is not None
    for i in range(bound + 10):
        assert ex._define("f", "", [f"return {i}"], {})() == i
    assert ex._code.cache_info().currsize == bound
