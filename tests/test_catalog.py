import numpy as np
import pytest

from jacobi_invariants import catalog
from jacobi_invariants import expr as ex
from jacobi_invariants.expr import parse, simplify
from jacobi_invariants.problem import classify, validate_lagrangian
from helpers import blowup_scan, exact_solution, exact_solution_residual, local_exprs, on_states


def test_ids_and_unknown():
    assert catalog.ids() == ("PG18", "PG21", "PG22", "PG4", "PG20", "JAC_EXACT")
    with pytest.raises(catalog.UnknownFixtureError):
        catalog.get("PG99")


def test_every_fixture_passes_its_hypotheses(loaded, checked):
    for fid, fx in loaded.items():
        reports = validate_lagrangian(fx.problem, fx.lagrangian)
        assert all(r.passed for r in reports), fid
        _, _, report, built = checked[fid]
        assert report["pass"] and built.specs, fid


def test_expected_classifications(loaded):
    tags = {fid: classify(fx.problem).tag for fid, fx in loaded.items()}
    assert tags == {
        "PG18": "Autonomous", "PG21": "Autonomous", "PG22": "Autonomous",
        "PG4": "TimeIndependentPhi", "PG20": "TimeIndependentPhi",
        "JAC_EXACT": "General",
    }


def test_safe_windows_stay_inside_escape_scan(loaded):
    for fid, fx in loaded.items():
        status, t_esc = blowup_scan(fx.problem, horizon=10.0)
        if status == "Completed":
            continue
        assert fx.problem.t_end <= 0.6 * t_esc + 1e-9, (fid, t_esc)


def test_pg18_doubled_expected_form(constructed):
    spec = constructed["PG18"][0]
    doubled = {d: simplify(ex.Rat(2) * c) for d, c in local_exprs(spec).items()}
    assert doubled[2] == simplify(parse("x^(-1)"))
    assert doubled[0] == simplify(parse("-4*x^2"))


def test_exact_solution_against_finite_differences():
    x, v = exact_solution(1.0, -2.0, 1.0)
    h = 1e-6
    for t in np.linspace(0.1, 3.9, 25):
        fd = (x(t + h) - x(t - h)) / (2 * h)
        assert v(t) == pytest.approx(fd, abs=1e-8)


def test_exact_solution_ode_residual():
    assert exact_solution_residual(1.0, -2.0, 1.0) < 1e-10


def test_exact_solution_guards_log_domain():
    x, _ = exact_solution(0.01, 5.0, -1.0)
    with pytest.raises(ValueError):
        x(0.0)


def test_closed_form_invariant_constant_on_exact_solution(loaded, constructed):
    fx = loaded["JAC_EXACT"]
    spec = constructed["JAC_EXACT"][0]
    fn = on_states(spec, fx.problem.params)
    x, v = exact_solution(1.0, -2.0, 1.0)
    ts = np.linspace(0, 4, 200)
    values, err = fn(ts, np.array([x(t) for t in ts]), np.array([v(t) for t in ts]), [])
    assert err is None and len(values) == len(ts)
    assert values[0] == pytest.approx(-2.0, abs=1e-12)   # the constant is I~
    assert max(abs(u - values[0]) for u in values) < 1e-10


def test_j_form_constant_on_exact_solution():
    # 2 e^(x/2) + I~ e^(-t) - 4 rho e^(-t/2) is constant (= 2 J~)
    rho, itld, jtld = 1.0, -2.0, 1.0
    x, _ = exact_solution(rho, itld, jtld)
    j_expr = simplify(parse("2*exp(x/2) + It*exp(-t) - 4*rho*exp(-t/2)"))
    params = {"rho": rho, "It": itld}
    values = [ex.evaluate(j_expr, t, x(t), params) for t in np.linspace(0, 4, 200)]
    assert values[0] == pytest.approx(2 * jtld, abs=1e-12)
    assert max(abs(u - values[0]) for u in values) < 1e-10


def test_numeric_trajectory_matches_exact_solution(trajectories):
    x, v = exact_solution(1.0, -2.0, 1.0)
    traj = trajectories["JAC_EXACT"]
    for t in np.linspace(0, 4, 100):
        s = traj.state(float(t))
        assert s.x == pytest.approx(x(float(t)), abs=1e-7)
        assert s.v == pytest.approx(v(float(t)), abs=1e-7)


def test_every_expected_invariant_passes_drift_gate(constructed, trajectories,
                                                    fine_trajectories):
    from jacobi_invariants.integrate import drift_report
    from jacobi_invariants.verify import drift_gate

    for fid, specs in constructed.items():
        for spec in specs:
            rep = drift_report(spec, trajectories[fid], fine_trajectories[fid], 512)
            assert drift_gate(rep, 1e-6), (fid, spec.name, rep)
