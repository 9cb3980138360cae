import pytest

from jacobi_invariants import expr as ex
from jacobi_invariants.integrate import REFINE, DriftReport, evaluate_along, integrate
from jacobi_invariants.invariants import autonomous_aux, nonlocal_autonomous
from jacobi_invariants.problem import JacobiProblem, LagrangianData
from jacobi_invariants.verify import (
    PerturbationFamily,
    drift_gate,
    integrated_oracle,
    oracle_constant,
    oracle_drift_report,
    oracle_vs_closed,
)
from helpers import oracle_offset


def test_family_sign_validation():
    with pytest.raises(ValueError):
        PerturbationFamily(ex.ONE, ex.ZERO, 2)


def test_free_particle_oracle_is_momentum():
    p = JacobiProblem(phi=ex.ZERO, B=ex.ZERO, t0=0.0, t_end=1.0, x0=0.0, v0=1.0)
    traj = integrate(p, (), (1e-10, 1e-10))
    series = oracle_constant(p, LagrangianData(ex.ZERO, ex.ZERO),
                             PerturbationFamily(ex.ONE, ex.ZERO, 0), traj, 64)
    assert series.values[0] == pytest.approx(1.0)
    assert series.max_drift() < 1e-14


def test_oracle_grid_minimum():
    p = JacobiProblem(phi=ex.ZERO, B=ex.ZERO, t0=0.0, t_end=1.0, x0=0.0, v0=1.0)
    traj = integrate(p, (), (1e-10, 1e-10))
    with pytest.raises(ValueError):
        oracle_constant(p, LagrangianData(ex.ZERO, ex.ZERO),
                        PerturbationFamily(ex.ONE, ex.ZERO, 0), traj, 4)


def test_oracle_matches_closed_form_pg18(loaded):
    fx = loaded["PG18"]
    aux, _ = autonomous_aux(fx.problem, fx.exprs["delta2"])
    spec = nonlocal_autonomous(fx.problem, aux, +1)
    fam = PerturbationFamily(a=aux.a, b=aux.b, sign=+1)
    regs = tuple(spec.integrands) + (fam.b,)
    traj = integrate(fx.problem, regs, (1e-12, 1e-12))
    discrepancies = {}
    for grid in (1024, 2048, 4096):
        so = oracle_constant(fx.problem, fx.lagrangian, fam, traj, grid)
        sc = evaluate_along(traj, spec, grid)
        discrepancies[grid] = oracle_vs_closed(so, sc)
    assert discrepancies[4096] < 1e-6
    # doubling the grid cuts the discrepancy at least 2^1.8-fold
    assert discrepancies[1024] / discrepancies[2048] >= 2 ** 1.8
    assert discrepancies[2048] / discrepancies[4096] >= 2 ** 1.8


def test_oracle_offset_is_initial_dressing_pg18(loaded):
    # closed form absorbs bbar*e^(phi/2) at t0: offset = 2 exactly for PG18
    fx = loaded["PG18"]
    aux, _ = autonomous_aux(fx.problem, fx.exprs["delta2"])
    spec = nonlocal_autonomous(fx.problem, aux, +1)
    fam = PerturbationFamily(a=aux.a, b=aux.b, sign=+1)
    regs = tuple(spec.integrands) + (fam.b,)
    traj = integrate(fx.problem, regs, (1e-12, 1e-12))
    so = oracle_constant(fx.problem, fx.lagrangian, fam, traj, 1024)
    sc = evaluate_along(traj, spec, 1024)
    expected = ex.evaluate(ex.simplify(aux.bbar * ex.Exp(ex.HALF * fx.problem.phi)),
                           fx.problem.t0, fx.problem.x0, fx.problem.params)
    assert oracle_offset(so, sc) == pytest.approx(expected, abs=1e-10)


def test_oracle_constant_series_on_plain_shift_pg4(loaded):
    fx = loaded["PG4"]
    fam = PerturbationFamily(ex.ONE, ex.ZERO, 0)
    traj = integrate(fx.problem, (), (1e-10, 1e-10))
    series = oracle_constant(fx.problem, fx.lagrangian, fam, traj, 4096)
    rel = series.max_drift() / max(1.0, abs(series.values[0]))
    assert rel < 1e-6


def test_oracle_drift_gate_on_fixtures(loaded, families):
    for fid, fx in loaded.items():
        fam = families[fid]
        spec = integrated_oracle(fx.problem, fx.lagrangian, fam)
        coarse = integrate(fx.problem, spec.integrands, (1e-8, 1e-8))
        fine = integrate(fx.problem, spec.integrands, (1e-8 / REFINE, 1e-8 / REFINE))
        rep = oracle_drift_report(spec, coarse, fine, 1024)
        assert drift_gate(rep, 1e-5), (fid, rep.rel_drift, rep.order)


def test_drift_gate_examples():
    def rep(drift, order):
        return DriftReport("g", 1.0, drift, drift, drift, order)

    assert drift_gate(rep(1e-9, 4.8), 1e-6)
    assert not drift_gate(rep(1e-3, 4.8), 1e-6)
    assert not drift_gate(rep(1e-9, 1.0), 1e-6)  # spurious constancy guard
    with pytest.raises(ValueError):
        drift_gate(rep(1e-9, 4.8), 0.0)
