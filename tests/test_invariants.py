import math

import numpy as np
import pytest

from jacobi_invariants import catalog
from jacobi_invariants import expr as ex
from jacobi_invariants.cli import load_problem, run_checks
from jacobi_invariants.expr import Param, Rat, parse, pprint, simplify, zero_check
from jacobi_invariants.integrate import evaluate_along, integrate
from jacobi_invariants.invariants import (
    FIRST_INTEGRAL,
    NONLOCAL_CONSTANT,
    DegenerateDenominatorError,
    HypothesisError,
    AuxiliaryFunctions,
    NegativeRadicandError,
    autonomous_aux,
    check_accumulator,
    check_general_hypotheses,
    check_y_ode,
    first_integral_autonomous,
    general_aux,
    nonlocal_autonomous,
    nonlocal_general,
    nonlocal_timedep_phi0,
    _antiderivative_t,
)
from jacobi_invariants.problem import JacobiProblem
from helpers import (
    CLASSICAL_FORMS,
    local_exprs,
    nonlocal_general_signed,
    on_states,
    product_first_integral,
    signed_aux,
    spec_value,
)


@pytest.fixture
def pg18(loaded):
    return loaded["PG18"]


def free_particle():
    return JacobiProblem(phi=ex.ZERO, B=ex.ZERO, t0=0.0, t_end=1.0, x0=0.0, v0=1.0)


def accumulator_constant(p, eta, delta2):
    """The phi_t = 0 constant with its hypothesis checked first, as the
    dispatch builds it."""
    return nonlocal_timedep_phi0(p, eta, delta2, check_accumulator(p, eta, delta2))


def general_constant(p, rho1, rho2):
    return nonlocal_general(p, rho1, rho2, check_general_hypotheses(p, rho1, rho2))


# ----------------------------------------------------------- autonomous aux

def test_autonomous_aux_pg18(pg18):
    aux, row = autonomous_aux(pg18.problem, pg18.exprs["delta2"])
    assert AuxiliaryFunctions._fields == ("a", "bbar", "b")
    assert aux.bbar == simplify(parse("2*x^(3/2)"))
    assert aux.b == simplify(parse("-2*x^(1/2)"))
    assert aux.a == simplify(parse("x^(1/2)"))
    assert simplify(aux.bbar * aux.b - pg18.problem.B) == Rat(0)
    assert row == check_y_ode(pg18.problem, aux.bbar) and row.passed


def test_autonomous_aux_constant_forcing_negative_x():
    p = JacobiProblem(phi=ex.ZERO, B=Param("k"), params={"k": 3.0},
                      t0=0.0, t_end=1.0, x0=-1.0, v0=0.0,
                      domain=(0.0, 1.0, -2.0, -0.5))
    aux, _ = autonomous_aux(p, parse("-k*x"))
    assert aux.bbar == simplify(parse("(-2*k*x)^(1/2)"))
    for x in (-2.0, -1.0, -0.6):
        assert ex.evaluate(aux.bbar, 0.0, x, p.params) == \
            pytest.approx(math.sqrt(-2 * 3.0 * x), rel=1e-14)


def test_autonomous_aux_negative_radicand():
    p = JacobiProblem(phi=ex.ZERO, B=Param("k"), params={"k": 3.0},
                      t0=0.0, t_end=1.0, x0=1.0, v0=0.0,
                      domain=(0.0, 1.0, 0.5, 2.0))
    with pytest.raises(NegativeRadicandError):
        autonomous_aux(p, parse("-k*x"))  # radicand -2kx < 0 for x > 0


def test_autonomous_aux_radicand_guard_skips_a_point_beyond_float_range(pg18, monkeypatch):
    # at x = 1e120 the radicand's x*x*x - x*x*x is inf - inf on floats, a
    # nan that the guard's val < 0 would let pass; the radicand's callable
    # raises evaluate's DomainError there instead, and the guard skips the
    # point
    seen = []
    original_fn, original_points = ex.compile_fn, ex.sample_points

    def recording_fn(e, params=None):
        fn = original_fn(e, params)

        def call(t, x):
            try:
                seen.append((x, fn(t, x)))
            except ex.DomainError as err:
                seen.append((x, err.reason))
                raise
            return seen[-1][1]

        return call

    monkeypatch.setattr(ex, "compile_fn", recording_fn)
    monkeypatch.setattr(ex, "sample_points",
                        lambda domain: [*original_points(domain), (0.0, 1e120)])
    delta2 = pg18.exprs["delta2"] + parse("x*x*x - x*x*x")
    aux, _ = autonomous_aux(pg18.problem, delta2)
    assert seen[-1] == (1e120, "sum of opposite infinities")
    assert all(math.isfinite(value) and value >= 0.0 for _, value in seen[:-1])
    assert aux.bbar == simplify(parse("2*x^(3/2)"))


def test_autonomous_aux_rejects_a_time_dependent_forcing_by_factorization(loaded):
    # PG4's B depends on t, so no factor built from delta2 = t*x matches it
    with pytest.raises(HypothesisError, match="factorization"):
        autonomous_aux(loaded["PG4"].problem, parse("t*x"))


# ----------------------------------------------------------------- y-ODE

def test_check_y_ode_pg18(pg18):
    _, report = autonomous_aux(pg18.problem, pg18.exprs["delta2"])
    assert report.name == "square_factor_ode"
    assert report.passed and report.structural


def test_check_y_ode_all_autonomous_aux(loaded):
    for fid in ("PG18", "PG21", "PG22"):
        fx = loaded[fid]
        aux, row = autonomous_aux(fx.problem, fx.exprs["delta2"])
        assert row.passed and check_y_ode(fx.problem, aux.bbar) == row, fid


def test_check_y_ode_rejects_wrong_factor(pg18):
    report = check_y_ode(pg18.problem, ex.X)
    assert not report.passed


# ------------------------------------------------------ autonomous specs

def test_first_integral_autonomous_forms(loaded):
    # doubled, the energy form matches the classical one for each fixture
    for fid in ("PG18", "PG21", "PG22"):
        fx = loaded[fid]
        spec = first_integral_autonomous(fx.problem, fx.exprs["delta2"])
        assert spec.kind == FIRST_INTEGRAL and not spec.integrands
        form = CLASSICAL_FORMS[fid]
        doubled = {d: simplify(Rat(form.normalization) * c)
                   for d, c in local_exprs(spec).items()}
        for d, text in form.poly.items():
            assert doubled[d] == simplify(parse(text)), (fid, d)


def test_first_integral_requires_consistent_delta2():
    data = dict(catalog.get("PG18").data, delta2="2*x^2 + x")
    report, _ = run_checks(*load_problem(data))
    checks = {h["name"]: h["passed"] for h in report["hypotheses"]}
    assert checks["lagrangian_constraint"] is False
    assert not report["pass"]


def test_nonlocal_autonomous_free_particle():
    p = free_particle()
    aux, _ = autonomous_aux(p, ex.ZERO)
    spec = nonlocal_autonomous(p, aux, +1)
    assert simplify(spec.integrands[0]) == Rat(0)
    assert spec_value(spec, 0.0, 0.0, 3.0, [0.0]) == pytest.approx(3.0)


def test_nonlocal_autonomous_pg18_values(pg18, trajectories):
    aux, _ = autonomous_aux(pg18.problem, pg18.exprs["delta2"])
    spec = nonlocal_autonomous(pg18.problem, aux, +1)
    # at the initial state u = 0: I+ = (v + bbar) e^(phi/2) = (0 + 2)*1
    assert spec_value(spec, 0.0, 1.0, 0.0, [0.0]) == pytest.approx(2.0, rel=1e-14)
    series = evaluate_along(trajectories["PG18"], spec, 512)
    assert series.max_drift() < 1e-6 * max(1.0, abs(series.initial()))


def test_product_first_integral_identity(pg18, trajectories):
    aux, _ = autonomous_aux(pg18.problem, pg18.exprs["delta2"])
    ip = nonlocal_autonomous(pg18.problem, aux, +1)
    im = nonlocal_autonomous(pg18.problem, aux, -1)
    prod = product_first_integral(ip, im)
    assert prod.kind == FIRST_INTEGRAL and not prod.integrands
    fi = first_integral_autonomous(pg18.problem, pg18.exprs["delta2"])
    f_fi = on_states(fi, pg18.problem.params)
    f_pr = on_states(prod, pg18.problem.params)
    traj = trajectories["PG18"]
    states = (traj.ts, traj.ys[:, 0], traj.ys[:, 1], [])
    (a, err_a), (b, err_b) = f_fi(*states), f_pr(*states)
    assert err_a is None and err_b is None and len(a) == len(traj.ts)
    assert np.all(np.abs(a - b) < 1e-9 * (1 + np.abs(a)))


def test_product_first_integral_free_particle():
    p = free_particle()
    aux, _ = autonomous_aux(p, ex.ZERO)
    prod = product_first_integral(nonlocal_autonomous(p, aux, +1),
                                  nonlocal_autonomous(p, aux, -1))
    assert spec_value(prod, 0.0, 0.0, 2.0) == pytest.approx(2.0)  # (1/2) v^2


# ----------------------------------------------------- time-free phi specs

def test_theorem3_pg4_structure(loaded):
    fx = loaded["PG4"]
    spec = accumulator_constant(fx.problem, fx.exprs["eta"], fx.exprs["delta2"])
    assert spec.kind == NONLOCAL_CONSTANT
    assert spec.poly[2] == Rat(1, 2)
    assert spec.poly[0] == simplify(parse("-2*x^3 - t*x"))
    assert simplify(spec.integrands[0]) == simplify(parse("-x"))
    assert spec.minus_channel == 0


def test_theorem3_pg20_structure(loaded):
    fx = loaded["PG20"]
    spec = accumulator_constant(fx.problem, fx.exprs["eta"], fx.exprs["delta2"])
    assert spec.poly[2] == simplify(parse("1/2 * x^(-1)"))
    assert spec.poly[0] == simplify(parse("-2*t*x - 2*x^2"))
    # d_t(eta_t - delta2) = -2x, entering as +2*Int[x] through the -w term
    assert simplify(spec.integrands[0]) == simplify(parse("-2*x"))


def test_theorem3_hypothesis_failure():
    p = JacobiProblem(phi=ex.ZERO, B=parse("-(6*x^2+t)"), t0=0, t_end=0.5, x0=1.0)
    with pytest.raises(HypothesisError):
        accumulator_constant(p, parse("-2*x^3*t"), parse("t*x + x"))


def test_theorem3_reduces_to_energy_on_autonomous(pg18, trajectories):
    spec3 = accumulator_constant(pg18.problem, ex.ZERO, pg18.exprs["delta2"])
    assert spec3.kind == FIRST_INTEGRAL
    assert simplify(spec3.integrands[0]) == Rat(0)
    fi = first_integral_autonomous(pg18.problem, pg18.exprs["delta2"])
    f3 = on_states(spec3, {})
    f1 = on_states(fi, {})
    traj = trajectories["PG18"]
    t, x, v = traj.ts, traj.ys[:, 0], traj.ys[:, 1]
    (a, err_a), (b, err_b) = f3(t, x, v, [np.zeros(len(t))]), f1(t, x, v, [])
    assert err_a is None and err_b is None and len(a) == len(t)
    assert np.all(np.abs(a - b) < 1e-12)


def test_theorem3_drift(loaded):
    for fid in ("PG4", "PG20"):
        fx = loaded[fid]
        spec = accumulator_constant(fx.problem, fx.exprs["eta"], fx.exprs["delta2"])
        traj = integrate(fx.problem, spec.integrands, (1e-10, 1e-10))
        series = evaluate_along(traj, spec, 512)
        rel = series.max_drift() / max(1.0, abs(series.initial()))
        assert rel < 1e-6, fid


# ------------------------------------------------------------ general specs

def test_general_aux_exact_fixture(loaded):
    fx = loaded["JAC_EXACT"]
    aux = general_aux(fx.problem)
    assert aux.bbar == simplify(parse("2*rho*exp(-(t+x)/2)"))
    assert aux.b == Rat(1, 2)
    assert simplify(aux.bbar * aux.b - fx.problem.B) == Rat(0)


def test_general_hypotheses_pass_structurally(loaded):
    fx = loaded["JAC_EXACT"]
    reports = check_general_hypotheses(fx.problem, fx.exprs["rho1"], fx.exprs["rho2"])
    assert all(r.passed and r.structural for r in reports)


def test_general_rejects_vanishing_rho1(loaded):
    fx = loaded["JAC_EXACT"]
    with pytest.raises(HypothesisError):
        check_general_hypotheses(fx.problem, ex.ZERO, Rat(1))


def test_general_constant_structure_and_downgrade(loaded):
    fx = loaded["JAC_EXACT"]
    spec = general_constant(fx.problem, fx.exprs["rho1"], fx.exprs["rho2"])
    assert spec.kind == FIRST_INTEGRAL
    assert not spec.integrands  # closed-form exponent found
    assert simplify(spec.exp_closed_arg) == simplify(parse("t/2"))
    le = local_exprs(spec)
    assert le[1] == simplify(parse("exp(t/2)*exp((t+x)/2)"))
    assert le[0] == simplify(parse("2*rho*exp(t/2)"))


def test_general_constant_equals_itilde_on_trajectory(loaded, trajectories):
    fx = loaded["JAC_EXACT"]
    spec = general_constant(fx.problem, fx.exprs["rho1"], fx.exprs["rho2"])
    series = evaluate_along(trajectories["JAC_EXACT"], spec, 512)
    assert series.initial() == pytest.approx(-2.0, abs=1e-12)
    assert series.max_drift() < 1e-8


def test_general_sign_collapse(loaded):
    fx = loaded["JAC_EXACT"]
    plus = general_aux(fx.problem)
    minus = signed_aux(plus, -1)
    assert minus.bbar == simplify(parse("-2*rho*exp(-(t+x)/2)"))
    assert minus.b == Rat(-1, 2)
    sp = nonlocal_general_signed(fx.problem, plus, +1)
    sm = nonlocal_general_signed(fx.problem, plus, -1)
    traj = integrate(fx.problem, sp.integrands + sm.integrands, (1e-10, 1e-10))
    fp, fm = on_states(sp, fx.problem.params), on_states(sm, fx.problem.params)
    cp = [traj.channel_of(g) for g in sp.integrands]
    cm = [traj.channel_of(g) for g in sm.integrands]
    t, x, v = traj.ts, traj.ys[:, 0], traj.ys[:, 1]
    a, err_a = fp(t, x, v, [traj.ys[:, 2 + c] for c in cp])
    b, err_b = fm(t, x, v, [traj.ys[:, 2 + c] for c in cm])
    assert err_a is None and err_b is None and len(a) == len(t)
    assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(1.0, np.abs(a)))


def test_general_degenerate_denominator():
    # phi = 2 ln(t+1): 2 phi_tt + phi_t^2 = 0 identically
    p = JacobiProblem(phi=parse("2*ln(t+1)"), B=parse("exp(x)"),
                      t0=0.0, t_end=1.0, x0=0.0, v0=0.0,
                      domain=(0.0, 1.0, -1.0, 1.0))
    with pytest.raises(DegenerateDenominatorError):
        general_aux(p)


@pytest.mark.parametrize("text, antiderivative", [
    ("t^2", "((1/3) * (t ^ 3))"),
    ("2*t^2", "((2/3) * (t ^ 3))"),
    ("exp(3*t)", "((1/3) * exp((3 * t)))"),
    ("5*exp(3*t)", "((5/3) * exp((3 * t)))"),
    ("(1/2)*exp((2/3)*t)", "((3/4) * exp(((2/3) * t)))")])
def test_antiderivative_coefficients_are_exact(text, antiderivative):
    # an integral coefficient over an integral exponent or slope is a
    # rational, never the float an int true division gives
    assert pprint(_antiderivative_t(parse(text))) == antiderivative


# ------------------------------------------------------- drift invariants

def test_every_constructed_invariant_drifts_below_1e6(loaded, constructed,
                                                      trajectories):
    for fid, specs in constructed.items():
        for spec in specs:
            series = evaluate_along(trajectories[fid], spec, 512)
            rel = series.max_drift() / max(1.0, abs(series.initial()))
            assert rel < 1e-6, (fid, spec.name, rel)


def test_factorization_invariant_for_every_aux(loaded):
    for fid in ("PG18", "PG21", "PG22"):
        fx = loaded[fid]
        aux, _ = autonomous_aux(fx.problem, fx.exprs["delta2"])
        assert zero_check(
            simplify(aux.bbar * aux.b - fx.problem.B),
            fx.problem.domain, params=fx.problem.params).is_zero
    fx = loaded["JAC_EXACT"]
    aux = general_aux(fx.problem)
    assert zero_check(
        simplify(aux.bbar * aux.b - fx.problem.B),
        fx.problem.domain, params=fx.problem.params).is_zero
