"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with plain `pytest`; the summary lines bypass output capture so they
are visible either way.
"""

import json
import math
import random
import subprocess
import sys

import numpy as np

from jacobi_invariants import expr as ex
from jacobi_invariants.expr import Rat, diff, evaluate, parse, simplify, zero_check
from jacobi_invariants.integrate import drift_report, evaluate_along, integrate
from jacobi_invariants.invariants import (
    HypothesisError,
    check_accumulator,
    check_general_hypotheses,
    nonlocal_timedep_phi0,
)
from jacobi_invariants.problem import (
    LagrangianData,
    lagrangian_residual_expr,
    rhs,
)
from jacobi_invariants.verify import integrated_oracle, oracle_constant, oracle_vs_closed
from conftest import SAFE_ENV, random_tree
from helpers import (
    CLASSICAL_FORMS,
    euler_lagrange_residual,
    exact_solution,
    exact_solution_residual,
    local_exprs,
    on_states,
    product_first_integral,
)


def announce(capsys, num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_autonomous_first_integrals(constructed, trajectories, capsys):
    """Doubled energy form equals xdot^2 x^-alpha - beta*gamma*x^(-2/gamma)
    structurally; relative drift < 1e-6 at tol 1e-10."""
    ok = True
    details = []
    for fid in ("PG18", "PG21", "PG22"):
        form = CLASSICAL_FORMS[fid]
        spec = constructed[fid][0]
        doubled = {d: simplify(Rat(form.normalization) * c)
                   for d, c in local_exprs(spec).items()}
        structural = all(doubled[d] == simplify(parse(text))
                         for d, text in form.poly.items())
        series = evaluate_along(trajectories[fid], spec, 1024)
        rel = series.max_drift() / max(1.0, abs(series.initial()))
        ok = ok and structural and rel < 1e-6
        details.append(f"{fid} structural={structural} rel={rel:.1e}")
    announce(capsys, 1, "PG18/21/22 classical first integrals", ok,
             "; ".join(details))


def test_criterion_2_nonlocal_pair_and_product(loaded, constructed,
                                               trajectories, capsys):
    """PG18 dressed pair drifts < 1e-6; (1/2) I+ I- equals the energy form
    to 1e-9 relative at every accepted step."""
    fx = loaded["PG18"]
    energy, iplus, iminus = constructed["PG18"]
    traj = trajectories["PG18"]
    rels = []
    for spec in (iplus, iminus):
        series = evaluate_along(traj, spec, 1024)
        rels.append(series.max_drift() / max(1.0, abs(series.initial())))
    drift_ok = all(r < 1e-6 for r in rels)

    prod = product_first_integral(iplus, iminus)
    f_e = on_states(energy, fx.problem.params)
    f_p = on_states(prod, fx.problem.params)
    fp = on_states(iplus, fx.problem.params)
    fm = on_states(iminus, fx.problem.params)
    ch = [traj.channel_of(g) for g in iplus.integrands]
    # every accepted step at once
    t, x, v = traj.ts, traj.ys[:, 0], traj.ys[:, 1]
    u = [traj.ys[:, 2 + c] for c in ch]
    (val_e, err_e), (val_p, err_p) = f_e(t, x, v, []), f_p(t, x, v, [])
    (val_plus, err_plus), (val_minus, err_minus) = fp(t, x, v, u), fm(t, x, v, u)
    assert err_e is err_p is err_plus is err_minus is None
    val_pm = 0.5 * val_plus * val_minus
    err = np.maximum(np.abs(val_p - val_e), np.abs(val_pm - val_e))
    worst = float(np.max(err / (1 + np.abs(val_e))))
    point_ok = bool(np.all(err < 1e-9 * (1 + np.abs(val_e))))
    announce(capsys, 2, "PG18 dressed pair and product identity",
             drift_ok and point_ok,
             f"I+/I- rel={max(rels):.1e}, product max rel err={worst:.1e}")


def test_criterion_3_time_free_phi_constants(all_fixtures, constructed,
                                             trajectories, capsys):
    """PG4 and PG20 accumulator constants drift < 1e-6 relative."""
    ok = True
    details = []
    for fid in ("PG4", "PG20"):
        spec = constructed[fid][0]
        series = evaluate_along(trajectories[fid], spec, 1024)
        rel = series.max_drift() / max(1.0, abs(series.initial()))
        ok = ok and rel < 1e-6
        details.append(f"{fid} rel={rel:.1e}")
    announce(capsys, 3, "PG4/PG20 nonlocal constants", ok, "; ".join(details))


def test_criterion_4_general_fixture(loaded, constructed, trajectories, capsys):
    """The general construction simplifies to e^(t/2)(xdot e^((t+x)/2)+2 rho);
    drift < 1e-8 along the numeric trajectory and the closed-form solution;
    closed-form ODE residual < 1e-10 at 200 points."""
    spec = constructed["JAC_EXACT"][0]
    le = local_exprs(spec)
    structural = all(le[d] == simplify(parse(text))
                     for d, text in CLASSICAL_FORMS["JAC_EXACT"].poly.items())

    series = evaluate_along(trajectories["JAC_EXACT"], spec, 1024)
    drift_traj = series.max_drift()

    rho, itld, jtld = 1.0, -2.0, 1.0
    x_cf, v_cf = exact_solution(rho, itld, jtld)
    fn = on_states(spec, loaded["JAC_EXACT"].problem.params)
    ts = np.linspace(0, 4, 200)
    vals, err = fn(ts, np.array([x_cf(t) for t in ts]), np.array([v_cf(t) for t in ts]), [])
    assert err is None
    drift_cf = max(abs(v - vals[0]) for v in vals)
    worst_resid = exact_solution_residual(rho, itld, jtld)

    ok = structural and drift_traj < 1e-8 and drift_cf < 1e-8 and worst_resid < 1e-10
    announce(capsys, 4, "exactly solvable general fixture", ok,
             f"structural={structural}, drift traj={drift_traj:.1e}, "
             f"drift closed-form={drift_cf:.1e}, ODE residual={worst_resid:.1e}")


def test_criterion_5_oracle_equivalence(loaded, constructions, capsys):
    """Oracle vs closed form after t0-offset matching: max discrepancy < 1e-5
    at grid 4096 and observed order >= 1.8 across grids 1024/2048/4096."""
    ok = True
    details = []
    for fid, fx in loaded.items():
        built = constructions[fid]
        fam, closed = built.family, built.closed
        quadratures = integrated_oracle(fx.problem, fx.lagrangian, fam).integrands
        traj = integrate(fx.problem, built.spec_integrands, (1e-12, 1e-12), quadratures)
        disc = {}
        for grid in (1024, 2048, 4096):
            so = oracle_constant(fx.problem, fx.lagrangian, fam, traj, grid)
            sc = evaluate_along(traj, closed, grid)
            disc[grid] = oracle_vs_closed(so, sc)
        scale = max(1.0, abs(evaluate_along(traj, closed, 16).initial()))
        floor = 1e-13 * scale
        if disc[4096] <= floor:
            order = math.inf  # already at round-off; refinement shows nothing
        else:
            order = math.log2(disc[1024] / disc[4096]) / 2.0
        fix_ok = disc[4096] < 1e-5 and order >= 1.8
        ok = ok and fix_ok
        details.append(f"{fid} D4096={disc[4096]:.1e} order={order:.1f}")
    announce(capsys, 5, "oracle equivalence on every fixture", ok,
             "; ".join(details))


def test_criterion_6_hypothesis_gates(loaded, capsys):
    """Structural gates pass on the fixtures and fail on mutated data."""
    results = []

    # constraint residual, autonomous fixtures (delta1 = 0)
    for fid in ("PG18", "PG21", "PG22"):
        fx = loaded[fid]
        resid = lagrangian_residual_expr(fx.problem, fx.lagrangian)
        zc = zero_check(resid, fx.problem.domain, params=fx.problem.params)
        results.append((f"{fid} constraint", zc.is_zero and zc.structural))
        mutated = simplify(fx.exprs["delta2"] + ex.X)
        resid_m = lagrangian_residual_expr(
            fx.problem, LagrangianData(ex.ZERO, mutated))
        zc_m = zero_check(resid_m, fx.problem.domain, params=fx.problem.params)
        results.append((f"{fid} mutated fails", not zc_m.is_zero))

    # accumulator hypothesis, time-free-phi fixtures
    for fid in ("PG4", "PG20"):
        fx = loaded[fid]
        eta, delta2 = fx.exprs["eta"], fx.exprs["delta2"]
        psi = simplify(diff(eta, "t") - delta2)
        resid = simplify(ex.Exp(fx.problem.phi) * fx.problem.B - diff(psi, "x"))
        zc = zero_check(resid, fx.problem.domain, params=fx.problem.params)
        results.append((f"{fid} hypothesis", zc.is_zero and zc.structural))
        mutated = simplify(delta2 + ex.X)
        try:
            nonlocal_timedep_phi0(fx.problem, eta, mutated,
                                  check_accumulator(fx.problem, eta, mutated))
            results.append((f"{fid} mutated fails", False))
        except HypothesisError:
            results.append((f"{fid} mutated fails", True))

    # decomposition and compatibility, general fixture
    problem, exprs, _ = loaded["JAC_EXACT"]
    rho1, rho2 = exprs["rho1"], exprs["rho2"]
    reports = check_general_hypotheses(problem, rho1, rho2)
    results.append(("JAC_EXACT hypotheses",
                    all(r.passed and r.structural for r in reports)))
    mutated = check_general_hypotheses(problem, rho1, simplify(rho2 + ex.X))
    results.append(("JAC_EXACT mutated fails",
                    any(not r.passed for r in mutated)))

    ok = all(flag for _, flag in results)
    failing = [name for name, flag in results if not flag]
    announce(capsys, 6, "hypothesis gates structural + mutation detection", ok,
             f"{len(results)} checks" + (f", failing: {failing}" if failing else ""))


def test_criterion_7_numerics_hygiene(loaded, constructed, trajectories,
                                      fine_trajectories, capsys):
    """Derivatives vs finite differences < 1e-6 (100 points); drift order
    >= 3.5 on every fixture; EL residual < 1e-8 (1+|a|) along every
    trajectory."""
    rng = random.Random(4242)
    h = 1e-6
    checked = 0
    fd_ok = True
    while checked < 100:
        e = random_tree(rng, rng.randint(1, 5))
        var = rng.choice(["t", "x"])
        t, x = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        try:
            d = evaluate(diff(e, var), t, x, SAFE_ENV)
            if var == "t":
                fp, fm = evaluate(e, t + h, x, SAFE_ENV), evaluate(e, t - h, x, SAFE_ENV)
            else:
                fp, fm = evaluate(e, t, x + h, SAFE_ENV), evaluate(e, t, x - h, SAFE_ENV)
        except ex.DomainError:
            continue
        if not all(math.isfinite(v) for v in (d, fp, fm)) or abs(d) > 1e6:
            continue
        fd_ok = fd_ok and abs(d - (fp - fm) / (2 * h)) / (1 + abs(d)) < 1e-6
        checked += 1

    orders_ok = True
    worst_order = math.inf
    for fid in loaded:
        for spec in constructed[fid]:
            rep = drift_report(spec, trajectories[fid], fine_trajectories[fid], 512)
            worst_order = min(worst_order, rep.order)
            orders_ok = orders_ok and rep.order >= 3.5

    el_ok = True
    worst_el = 0.0
    for fid, fx in loaded.items():
        f = rhs(fx.problem)
        residual = euler_lagrange_residual(fx.problem, fx.lagrangian)
        traj = trajectories[fid]
        for t, (x, v, *_) in zip(traj.ts.tolist(), traj.ys.tolist()):
            a = f(t, x, v)[1]
            r = abs(residual(t, x, v, a)) / (1 + abs(a))
            worst_el = max(worst_el, r)
            el_ok = el_ok and r < 1e-8

    ok = fd_ok and orders_ok and el_ok
    announce(capsys, 7, "numerics hygiene", ok,
             f"fd={fd_ok}, min order={worst_order:.1f}, "
             f"max EL residual={worst_el:.1e}")


def test_criterion_8_determinism(capsys):
    """Two consecutive catalog run --all invocations are byte-identical."""
    cmd = [sys.executable, "-m", "jacobi_invariants.cli", "catalog", "run", "--all"]
    r1 = subprocess.run(cmd, capture_output=True, check=False)
    r2 = subprocess.run(cmd, capture_output=True, check=False)
    ok = (r1.returncode == 0 and r2.returncode == 0 and r1.stdout == r2.stdout
          and len(r1.stdout) > 0)
    detail = f"{len(r1.stdout)} bytes, exit {r1.returncode}"
    if r1.returncode != 0:
        detail += f", stderr: {r1.stderr.decode()[:200]}"
    announce(capsys, 8, "byte-identical catalog reports", ok, detail)
    reports = json.loads(r1.stdout)
    assert all(r["pass"] for r in reports)
