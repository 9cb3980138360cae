import importlib
import json
import math
import pathlib
from array import array
from dataclasses import replace

import numpy as np
import pytest
import scalar_reference

from jacobi_invariants import catalog, cli
from jacobi_invariants import expr as ex
from jacobi_invariants.expr import Rat, parse
from jacobi_invariants.integrate import (
    BLOW_UP,
    COMPLETED,
    DOMAIN_ABORT,
    STEP_FAILURE,
    AccumulatorMismatchError,
    IntegrationError,
    Termination,
    Trajectory,
    _A,
    _B,
    _C,
    _E,
    _dense_rows,
    _loop,
    drift_report,
    evaluate_along,
    integrate,
)
from jacobi_invariants.invariants import first_integral_autonomous, nonlocal_autonomous
from jacobi_invariants.problem import Integrand, JacobiProblem, canonical, read_channel, rhs
from jacobi_invariants.verify import oracle_channels


def free_particle(t_end=1.0, x0=0.0, v0=1.0):
    return JacobiProblem(phi=ex.ZERO, B=ex.ZERO, t0=0.0, t_end=t_end, x0=x0, v0=v0)


def test_free_particle_exact():
    traj = integrate(free_particle(), (), (1e-10, 1e-10))
    assert traj.termination.status == COMPLETED
    assert traj.state(1.0).x == pytest.approx(1.0, abs=1e-12)
    assert traj.state(0.5).x == pytest.approx(0.5, abs=1e-12)


def test_harmonic_like_cosine():
    p = JacobiProblem(phi=ex.ZERO, B=parse("x"), t0=0.0, t_end=2 * math.pi,
                      x0=1.0, v0=0.0)
    traj = integrate(p, (), (1e-10, 1e-10))
    assert traj.termination.status == COMPLETED
    for t in np.linspace(0, 2 * math.pi, 50):
        assert traj.state(float(t)).x == pytest.approx(math.cos(t), abs=1e-8)


def test_exactly_solvable_general_fixture_solution():
    from jacobi_invariants.catalog import exact_solution

    x_cf, _ = exact_solution(1.0, -2.0, 1.0)
    p = JacobiProblem(phi=parse("t+x"), B=parse("rho*exp(-(t+x)/2)"),
                      params={"rho": 1.0}, t0=0.0, t_end=4.0,
                      x0=x_cf(0.0), v0=-1.0)
    traj = integrate(p, (), (1e-10, 1e-10))
    assert traj.termination.status == COMPLETED
    for t in np.linspace(0, 4, 80):
        assert traj.state(float(t)).x == pytest.approx(x_cf(float(t)), abs=1e-7)


def test_accumulator_exactness():
    traj = integrate(free_particle(), (Rat(1),), (1e-10, 1e-10))
    assert traj.state(1.0).u[0] == pytest.approx(1.0, abs=1e-12)
    assert traj.state(0.25).u[0] == pytest.approx(0.25, abs=1e-12)


def test_initial_sample_and_zero_accumulators():
    traj = integrate(free_particle(), (parse("t"), parse("x")), (1e-8, 1e-8))
    t, (x, v, *u) = traj.ts[0], traj.ys[0].tolist()
    assert (t, x, v) == (0.0, 0.0, 1.0)
    assert tuple(u) == (0.0, 0.0)
    assert np.all(np.diff(traj.ts) > 0)


def test_dense_output_matches_accepted_steps():
    p = JacobiProblem(phi=ex.ZERO, B=parse("x"), t0=0.0, t_end=3.0, x0=1.0, v0=0.0)
    traj = integrate(p, (parse("x"),), (1e-9, 1e-9))
    for t, (x, v, u0) in zip(traj.ts.tolist(), traj.ys.tolist()):
        d = traj.state(t)
        assert d.x == pytest.approx(x, abs=1e-14)
        assert d.v == pytest.approx(v, abs=1e-14)
        assert d.u[0] == pytest.approx(u0, abs=1e-14)


def test_accumulator_translation_consistency():
    p = JacobiProblem(phi=ex.ZERO, B=parse("x"), t0=0.0, t_end=2.0, x0=1.0, v0=0.0)
    g = (parse("x"), parse("t*x"))
    whole = integrate(p, g, (1e-11, 1e-11))
    p1 = JacobiProblem(phi=p.phi, B=p.B, t0=0.0, t_end=1.0, x0=1.0, v0=0.0)
    leg1 = integrate(p1, g, (1e-11, 1e-11))
    mid = leg1.state(1.0)
    p2 = JacobiProblem(phi=p.phi, B=p.B, t0=1.0, t_end=2.0, x0=mid.x, v0=mid.v)
    leg2 = integrate(p2, g, (1e-11, 1e-11))
    end = leg2.state(2.0)
    ref = whole.state(2.0)
    for i in range(2):
        assert mid.u[i] + end.u[i] == pytest.approx(ref.u[i], abs=1e-10)


def test_blow_up_status():
    p = JacobiProblem(phi=parse("-ln(x)"), B=parse("-4*x^2"),
                      t0=0.0, t_end=3.0, x0=1.0, v0=0.0)
    traj = integrate(p, (), (1e-8, 1e-8))
    assert traj.termination.status == BLOW_UP
    assert traj.t_last < 1.5


def test_domain_abort_status():
    # forcing leaves its domain at t = 1/2
    p = JacobiProblem(phi=ex.ZERO, B=parse("sqrt(1/2 - t)"),
                      t0=0.0, t_end=1.0, x0=0.0, v0=0.0)
    traj = integrate(p, (), (1e-9, 1e-9))
    assert traj.termination.status == DOMAIN_ABORT
    assert traj.t_last == pytest.approx(0.5, abs=1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_domain_abort_when_a_dressing_channel_overflows():
    # the integrand exp(u) reads a channel u = 800*t, whose exponential
    # leaves float range at t = 0.887; a trial stage past it is a domain
    # failure like any other, so the run aborts there.  The channel that
    # integrates exp(u) overflows first, and the dense rows built from its
    # stages hold inf and nan without a numpy warning
    b = parse("800")
    p = free_particle(t_end=2.0)
    traj = integrate(p, (b, Integrand((ex.ONE,), sign=1, channel=b)), (1e-8, 1e-8))
    assert traj.termination.status == DOMAIN_ABORT
    assert traj.termination.detail.startswith("overflow in ")
    assert traj.t_last == pytest.approx(math.log(np.finfo(float).max) / 800, abs=1e-3)
    assert not np.isfinite(traj.conts).all()


def test_step_failure_on_unreachable_singularity():
    p = JacobiProblem(phi=ex.ZERO, B=parse("1/(1/2 - t)"),
                      t0=0.0, t_end=1.0, x0=0.0, v0=0.0)
    traj = integrate(p, (), (1e-9, 1e-9))
    assert traj.termination.status in (STEP_FAILURE, DOMAIN_ABORT)
    assert traj.t_last == pytest.approx(0.5, abs=1e-2)


@pytest.mark.parametrize("t0, t_end", [(-4.548, 12.711), (1.493, 27.715)])
def test_last_step_lands_exactly_on_t_end(t0, t_end):
    # the first window used to leave a gap below the minimum step, which
    # the step floor pushed past t_end; in the second, t + h rounded above it
    p = JacobiProblem(phi=ex.ZERO, B=ex.ZERO, t0=t0, t_end=t_end, x0=1.0, v0=0.3)
    traj = integrate(p, (), (1e-6, 1e-6))
    assert traj.termination.status == COMPLETED
    assert traj.t_last == traj.termination.t == t_end
    assert np.all(np.diff(traj.ts) > 0)


def _assert_matches_scipy_dop853(loaded, trajectory_of):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    for fid, fx in loaded.items():
        p, traj = fx.problem, trajectory_of(fid)
        separate = scalar_reference.rhs(p, traj.integrands)
        read = read_channel(traj.integrands)
        inputs = [0, 1] if read is None else [0, 1, 2 + read]

        def f(t, y):
            return separate(t, *y[inputs])

        n_u = len(traj.integrands)
        ref = solve_ivp(f, (p.t0, p.t_end), [p.x0, p.v0] + [0.0] * n_u,
                        method="DOP853", rtol=1e-13, atol=1e-13, dense_output=True)
        assert ref.success, fid
        ts = np.linspace(p.t0, p.t_end, 257)
        want = ref.sol(ts).T
        got = traj.sample(ts)
        assert got.shape == want.shape == (257, 2 + n_u), fid
        assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want))), fid


def test_dense_output_matches_scipy_dop853(loaded, trajectories):
    # an independent integrator on the same right-hand side, every
    # accumulator channel included, built from separately compiled
    # expressions so that it shares no generated code with the integrator
    _assert_matches_scipy_dop853(loaded, trajectories.get)


def test_dense_output_on_the_oracle_channels_matches_scipy_dop853(loaded, families):
    # the work channel reads the channel b where the family has one
    _assert_matches_scipy_dop853(loaded, lambda fid: integrate(
        loaded[fid].problem, oracle_channels(loaded[fid].problem, loaded[fid].lagrangian,
                                             families[fid]), (1e-10, 1e-10)))


DRESSED = (parse("x^2"), parse("t*x"),
           Integrand((parse("exp(-x)"), parse("t"), parse("x")), sign=-1, channel=parse("t*x")))


@pytest.mark.parametrize("integrands", [
    (), tuple(parse(g) for g in ("x^2", "t*x", "exp(-x)")), DRESSED])
def test_one_step_matches_scipy_rk45_tableau(integrands):
    # one step of the generated loop against one built from scipy's own
    # Dormand-Prince coefficients on the same right-hand side, with 2 and 5
    # components; in the last case the right-hand side reads the channel of t*x
    RK45 = pytest.importorskip("scipy.integrate").RK45
    assert np.array_equal(RK45.C, _C[:6]) and np.array_equal(RK45.B, _B)
    assert all(np.array_equal(RK45.A[s, :s], _A[s]) for s in range(6))
    assert np.array_equal(RK45.E, -np.array(_E))
    p = JacobiProblem(phi=parse("x/2 + t/3"), B=parse("sin(x) + t*x"),
                      t0=0.0, t_end=1.0, x0=0.7, v0=-0.4)
    f = rhs(p, integrands)
    n = 2 + len(integrands)
    read = read_channel(integrands)
    inputs = (0, 1) if read is None else (0, 1, 2 + read)
    # a window of one step h, which the loop takes whole unless it rejects it
    t, t_end = 0.3, 0.35
    h = t_end - t
    y = (0.7, -0.4) + tuple(0.25 * (i + 1) for i in range(n - 2))
    K = np.empty((7, n))
    K[0] = k1 = f(t, *(y[i] for i in inputs))
    for s in range(1, 6):
        ys = np.array(y) + h * (K[:s].T @ RK45.A[s, :s])
        K[s] = f(t + RK45.C[s] * h, *(float(ys[i]) for i in inputs))
    want = np.array(y) + h * (K[:6].T @ RK45.B)
    K[6] = f(t + h, *(float(want[i]) for i in inputs))

    def run(scale):
        """The loop from (t, y) with atol = scale/1000 and rtol = scale:
        (ts, ys, stages, k7)."""
        ts, ys, stages = array("d", [t]), array("d", y), array("d")
        status, t_last, _, _, k7 = _loop(n, inputs)(
            f, t, t_end, h, 1e-12, y, k1, 1e-3 * scale, scale, ts, ys, stages)
        assert (status, t_last) == (COMPLETED, t_end)
        return ts, ys, stages, k7

    # the error norm is the RMS of the scaled error vector; the estimate is
    # a cancelling sum, so its rounding is bounded against the same norm of
    # the magnitudes summed.  At scale s the norm is err/s, with err the
    # norm at scale 1, and the step is taken when it is at most 1: the loop
    # takes it at s just above err + bound and rejects it just below
    # err - bound
    sc = 1e-3 + np.maximum(np.abs(y), np.abs(want))

    def rms(vec):
        return float(np.sqrt(np.mean((vec / sc) ** 2)))

    err = rms(h * (K.T @ RK45.E))
    bound = 1e-14 * rms(h * (np.abs(K.T) @ np.abs(RK45.E)))
    assert len(run((err - bound) * (1 - 1e-14))[0]) > 2
    ts, ys, stages, k7 = run((err + bound) * (1 + 1e-14))
    assert list(ts) == [t, t_end] and stages[0] == h

    assert np.allclose(ys[n:], want, rtol=1e-14, atol=0.0)
    assert np.allclose(k7, K[6], rtol=1e-14, atol=0.0)
    step = Trajectory(problem=p, integrands=(), ts=np.array(ts), ys=np.reshape(ys, (2, n)),
                      conts=_dense_rows(ys, stages, k7, n),
                      termination=Termination(COMPLETED, t_end), mean_step=h)
    thetas = np.array([0.1, 0.5, 0.9])
    got = step.sample(t + thetas * h)
    powers = thetas[:, None] ** np.arange(1, 5)
    dense = np.array(y) + h * (powers @ (K.T @ RK45.P).T)
    assert np.allclose(got, dense, rtol=1e-14, atol=0.0)


# runs that end before t_end, all but the blow-up with rejected steps: by
# the error test, and by domain-creep retries, where a trial stage leaves
# the domain and the step shrinks
EARLY_ENDS = {
    "step_failure": (JacobiProblem(phi=ex.ZERO, B=parse("1/(1/2 - t)"),
                                   t0=0.0, t_end=1.0, x0=0.0, v0=0.0), (), 1e-9),
    "domain_abort": (JacobiProblem(phi=ex.ZERO, B=parse("sqrt(1/2 - t)"),
                                   t0=0.0, t_end=1.0, x0=0.0, v0=0.0), (), 1e-9),
    "channel_domain_abort": (JacobiProblem(phi=ex.ZERO, B=parse("ln(1 - t)"),
                                           t0=0.0, t_end=2.0, x0=0.0, v0=0.0),
                             (parse("x"),), 1e-9),
    "dressing_overflow": (free_particle(t_end=2.0),
                          (parse("800"), Integrand((ex.ONE,), sign=1, channel=parse("800"))),
                          1e-8),
    "blow_up": (JacobiProblem(phi=parse("-ln(x)"), B=parse("-4*x^2"),
                              t0=0.0, t_end=3.0, x0=1.0, v0=0.0), (), 1e-8),
}
LONG_WINDOWS = ("free_oscillator_long", "forced_oscillator_long")


@pytest.mark.parametrize("name", catalog.ids() + LONG_WINDOWS + tuple(EARLY_ENDS))
def test_dense_rows_match_the_per_step_scalar_reference(name):
    # every accepted state and dense-output coefficient of the generated
    # loop and the one-pass row build, bit for bit against a step-by-step
    # integration whose rows are Python floats: on each fixture's channels,
    # over multi-period windows of about 2.6k and 0.85k steps, and on runs
    # that end early, with inf and nan in the last rows of the overflowing one
    if name in EARLY_ENDS:
        p, integrands, tol = EARLY_ENDS[name]
    else:
        path = pathlib.Path(__file__).parent / "data" / f"{name}.json"
        data = json.loads(path.read_text()) if name in LONG_WINDOWS else catalog.get(name).data
        p, exprs = cli.load_problem(data)
        integrands, tol = cli.run_checks(p, exprs)[1].integrands, 1e-10
    integrands = tuple(map(canonical, integrands))
    traj = integrate(p, integrands, (tol, tol))
    ts, ys, rows, termination, _ = scalar_reference.integrate(
        p, integrands, (tol, tol), rhs(p, integrands))
    for got, want in ((traj.ts, ts), (traj.ys, ys), (traj.conts, rows)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    term = traj.termination
    assert (term.status, term.t, term.point, term.detail) == termination


@pytest.mark.parametrize("name", tuple(EARLY_ENDS))
def test_rhs_calls_are_two_plus_six_per_attempted_step(monkeypatch, name):
    # k1 and the starting-step heuristic make one call each, every
    # attempted step six (FSAL reuses the seventh); an attempt ended by a
    # DomainError makes only the calls up to the stage that raised
    integrate_module = importlib.import_module("jacobi_invariants.integrate")
    p, integrands, tol = EARLY_ENDS[name]
    integrands = tuple(map(canonical, integrands))
    f = rhs(p, integrands)
    calls = []

    def counted(*point):
        calls.append(point)
        return f(*point)

    monkeypatch.setattr(integrate_module, "rhs", lambda *args: counted)
    traj = integrate(p, integrands, (tol, tol))
    *_, counts = scalar_reference.integrate(p, integrands, (tol, tol), f)
    assert counts["attempts"] > len(traj.conts) or name == "blow_up"
    assert len(calls) == counts["calls"] == 2 + 6 * counts["attempts"] - counts["unreached"]
    assert (counts["unreached"] > 0) == ("domain" in name or "overflow" in name)


def test_tolerance_validation():
    with pytest.raises(IntegrationError):
        integrate(free_particle(), (), (1e-15, 1e-10))
    with pytest.raises(IntegrationError):
        integrate(free_particle(), (), (1e-10, 0.5))


def test_step_doubling_consistency(loaded, constructed):
    # halving both tolerances never worsens max drift by more than 2x
    for fid, fx in loaded.items():
        spec = constructed[fid][-1]
        traj1 = integrate(fx.problem, spec.integrands, (1e-8, 1e-8))
        traj2 = integrate(fx.problem, spec.integrands, (5e-9, 5e-9))
        d1 = evaluate_along(traj1, spec, 256).max_drift()
        d2 = evaluate_along(traj2, spec, 256).max_drift()
        assert d2 <= 2.0 * d1 + 1e-15, fid


def test_drift_convergence_under_refinement():
    p = JacobiProblem(phi=parse("-ln(x)"), B=parse("-4*x^2"),
                      t0=0.0, t_end=0.4, x0=1.0, v0=0.0,
                      domain=(0.0, 0.4, 0.4, 3.0))
    spec = first_integral_autonomous(p, parse("2*x^2"))
    coarse = evaluate_along(integrate(p, (), (1.6e-9, 1.6e-9)), spec, 256)
    fine = evaluate_along(integrate(p, (), (1e-10, 1e-10)), spec, 256)
    assert coarse.max_drift() >= 8.0 * fine.max_drift()


def test_evaluate_along_truncates_on_domain_error(loaded):
    # push PG22 past the singular contact so the dressed constant's
    # square root leaves its domain along the way
    fx = loaded["PG22"]
    from jacobi_invariants.invariants import autonomous_aux

    aux_p, _ = autonomous_aux(fx.problem, fx.exprs["delta2"])
    spec = nonlocal_autonomous(fx.problem, aux_p)
    from dataclasses import replace

    p_long = replace(fx.problem, t_end=1.99)
    traj = integrate(p_long, spec.integrands, (1e-10, 1e-10))
    series = evaluate_along(traj, spec, 512)
    assert len(series.ts) >= 2


def test_channel_mismatch_raises():
    traj = integrate(free_particle(), (parse("t"),), (1e-8, 1e-8))
    spec = first_integral_autonomous(
        JacobiProblem(phi=ex.ZERO, B=ex.ZERO, t0=0, t_end=1), ex.ZERO)
    evaluate_along(traj, spec, 64)  # no channels needed: fine
    with pytest.raises(AccumulatorMismatchError):
        traj.channel_of(parse("x"))


def test_csv_export_roundtrip():
    traj = integrate(free_particle(), (parse("t"),), (1e-8, 1e-8))
    text = traj.to_csv()
    header, *rows = text.strip().split("\n")
    assert header == "t,x,v,u0"
    last = [float(v) for v in rows[-1].split(",")]
    assert last[0] == pytest.approx(1.0)
    assert last[1] == pytest.approx(1.0, abs=1e-12)


def test_drift_report_orders(constructed, trajectories, fine_trajectories):
    spec = constructed["PG18"][0]
    rep = drift_report(spec, trajectories["PG18"], fine_trajectories["PG18"], 256)
    assert rep.rel_drift < 1e-6
    assert rep.order >= 3.5


def test_drift_report_window_is_the_evaluated_window():
    # x = cos(t) turns negative at pi/2, where the ln(x) term of this
    # energy-like constant leaves its domain and the series stops
    p = JacobiProblem(phi=ex.ZERO, B=ex.X, t0=0.0, t_end=3.0, x0=1.0, v0=0.0,
                      domain=(0.0, 3.0, 0.5, 1.5))
    spec = first_integral_autonomous(p, parse("-x^2/2"))
    spec = replace(spec, poly={**spec.poly, 0: ex.simplify(spec.poly[0] + parse("ln(x)"))})
    coarse = integrate(p, (), (1e-8, 1e-8))
    fine = integrate(p, (), (1e-8 / 16, 1e-8 / 16))
    series = evaluate_along(coarse, spec, 1024)
    rep = drift_report(spec, coarse, fine, 1024)
    assert rep.truncated and series.truncated
    assert rep.window == (float(series.ts[0]), float(series.ts[-1]))
    assert rep.window[0] == 0.0 and rep.window[1] == pytest.approx(math.pi / 2, abs=3e-3)
    assert rep.window[1] < coarse.t_last
