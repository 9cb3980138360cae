import importlib
import itertools
import math
from array import array

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
    _D,
    _E3,
    _E5,
    _dense_rows,
    _loop,
    drift_report,
    evaluate_along,
    integrate,
)
from jacobi_invariants.invariants import (InvariantSpec, first_integral_autonomous,
                                         nonlocal_autonomous)
from jacobi_invariants.problem import Integrand, JacobiProblem, canonical, read_channel, rhs
from jacobi_invariants.verify import integrated_oracle
from helpers import EARLY_ENDS, LONG_WINDOWS, free_particle, integration_case, load_named


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
    from helpers import exact_solution

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


# the new value of a component is y + h*(sum of _B[s]*k_s), summed left to
# right: with stages of one size k, near the largest float once the step is
# at its floor, the partial sums reach W*k (W = 6.4), so the sum overflows
# once k passes the largest float over W
W = max(map(abs, itertools.accumulate(_B)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_step_that_overflows_a_dressed_channel_is_rejected():
    # the integrand exp(u) reads a channel u = 800*t, whose exponential
    # leaves float range at t = 0.887.  The channel that integrates exp(u)
    # is under step control, and just before that its new value, a sum of
    # stages near the largest float, overflows to inf without an error, at
    # a size of the stages W times below it (see W).
    # A step that makes it inf is rejected, as one that makes a quadrature
    # inf is, until the step reaches its floor: every accepted state is
    # finite, and the dense rows built from the last stages hold inf and
    # nan without a numpy warning
    p, integrands, tol, quadratures = EARLY_ENDS["dressing_overflow"]
    traj = integrate(p, integrands, (tol, tol), quadratures)
    assert traj.termination.status == STEP_FAILURE
    assert traj.t_last == pytest.approx(math.log(np.finfo(float).max / W) / 800, abs=1e-3)
    assert np.isfinite(traj.ys).all()
    assert not np.isfinite(traj.conts).all()


def test_a_quadrature_that_overflows_silently_ends_the_run():
    # t^200 * x^200 along x = t overflows to inf, without an error, once t
    # passes about 5.9, and the step's sum of such stages W times below
    # that; as a quadrature it is outside the error norm, but a step that
    # makes it inf is rejected all the same, until the step reaches its
    # floor
    p, integrands, tol, quadratures = EARLY_ENDS["quadrature_inf"]
    traj = integrate(p, integrands, (tol, tol), quadratures)
    assert traj.termination.status == STEP_FAILURE
    assert traj.t_last == pytest.approx((np.finfo(float).max / W) ** (1 / 400), abs=0.02)
    assert np.isfinite(traj.ys).all()


def test_a_controlled_channel_that_overflows_silently_ends_the_run():
    # the same channel under step control: an inf value would scale its own
    # term of the error norm to 0 and leave the norm finite, so the step
    # that makes it inf is rejected as the quadrature's is
    p, integrands, tol, quadratures = EARLY_ENDS["channel_inf"]
    traj = integrate(p, integrands, (tol, tol), quadratures)
    assert traj.termination.status == STEP_FAILURE
    assert traj.t_last == pytest.approx((np.finfo(float).max / W) ** (1 / 400), abs=0.02)
    assert np.isfinite(traj.ys).all()


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
        loaded[fid].problem, integrated_oracle(loaded[fid].problem, loaded[fid].lagrangian,
                                               families[fid]).integrands, (1e-10, 1e-10)))


DRESSED = (parse("x^2"), parse("t*x"),
           Integrand((parse("exp(-x)"), parse("t"), parse("x")), sign=-1, channel=parse("t*x")))


def test_tableau_matches_scipy_dop853():
    # every coefficient, entry by entry, against scipy's DOP853 module:
    # stages 1..12 of the step, the weights (stage 13's row), the two error
    # estimates and the dense output's 3 stages and 4 rows
    dop853 = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    assert list(_C) == dop853.C.tolist()
    assert len(_A) == 16 and all(list(_A[s]) == dop853.A[s, :s].tolist() for s in range(16))
    assert not np.any(np.triu(dop853.A))
    assert list(_B) == dop853.B.tolist() == dop853.A[12, :12].tolist()
    assert list(_E5) == dop853.E5.tolist() and list(_E3) == dop853.E3.tolist()
    assert [list(row) for row in _D] == dop853.D.tolist()


DRESSED = (parse("x^2"), parse("t*x"),
           Integrand((parse("exp(-x)"), parse("t"), parse("x")), sign=-1, channel=parse("t*x")))


@pytest.mark.parametrize("integrands", [
    (), tuple(parse(g) for g in ("x^2", "t*x", "exp(-x)")), DRESSED])
def test_one_step_matches_scipy_dop853(integrands):
    # one step of the generated loop against scipy's DOP853 solver on the
    # same right-hand side, with 2 and 5 components: the new state, its
    # derivative, the error norm and the dense output.  In the last case
    # the right-hand side reads the channel of t*x
    ivp = pytest.importorskip("scipy.integrate._ivp.rk")
    p = JacobiProblem(phi=parse("x/2 + t/3"), B=parse("sin(x) + t*x"),
                      t0=0.0, t_end=1.0, x0=0.7, v0=-0.4)
    f = rhs(p, integrands)
    n = 2 + len(integrands)
    read = read_channel(integrands)
    inputs = (0, 1) if read is None else (0, 1, 2 + read)
    # a window of one step h, which the loop takes whole unless it rejects
    # it; every time in it is a binary fraction, so both take the same h
    t, t_end = 0.25, 0.3125
    h = t_end - t
    y = (0.7, -0.4) + tuple(0.25 * (i + 1) for i in range(n - 2))
    k1 = f(t, *(y[i] for i in inputs))
    solver = ivp.DOP853(lambda t, y: np.array(f(t, *(float(y[i]) for i in inputs))),
                        t, y, t_end, first_step=h, rtol=1e-3, atol=1e-6)
    assert solver.step() is None and (solver.t, solver.step_size) == (t_end, h)
    K = solver.K

    def run(scale):
        """The loop from (t, y) with atol = scale/1000 and rtol = scale:
        (ts, ys, stages, k13)."""
        ts, ys, stages = array("d", [t]), array("d", y), array("d")
        status, t_last, _, _, k13 = _loop(f, n, inputs)(
            t, t_end, h, 1e-12, y, k1, 1e-3 * scale, scale, ts, ys, stages)
        assert (status, t_last) == (COMPLETED, t_end)
        return ts, ys, stages, k13

    # at scale s the loop's norm is err/s, with err scipy's norm at scale 1,
    # and the step is taken when it is at most 1.  The estimates are
    # cancelling sums: each is bounded by its sum of magnitudes, and the
    # norm grows with the fifth-order estimate and falls with the
    # third-order one, so the loop takes the step at s just above the
    # norm's upper bound and rejects it just below its lower bound
    sc = 1e-3 + np.maximum(np.abs(y), np.abs(solver.y))
    err = solver._estimate_error_norm(K, h, sc)

    def norm(e5, e3):
        return h * np.sum(e5 ** 2) / np.sqrt((np.sum(e5 ** 2) + 0.01 * np.sum(e3 ** 2)) * n)

    e5, e3 = (np.abs(K.T @ E) / sc for E in (ivp.DOP853.E5, ivp.DOP853.E3))
    u5, u3 = (1e-14 * (np.abs(K.T) @ np.abs(E)) / sc for E in (ivp.DOP853.E5, ivp.DOP853.E3))
    lower = norm(np.maximum(e5 - u5, 0.0), e3 + u3) * (1 - 1e-14)
    upper = norm(e5 + u5, np.maximum(e3 - u3, 0.0)) * (1 + 1e-14)
    assert 0.0 < lower <= err <= upper < 2.0 * lower
    assert len(run(lower * (1 - 1e-14))[0]) > 2
    ts, ys, stages, k13 = run(upper * (1 + 1e-14))
    assert list(ts) == [t, t_end] and stages[0] == h

    assert np.allclose(ys[n:], solver.y, rtol=1e-14, atol=0.0)
    assert np.allclose(k13, K[12], rtol=1e-14, atol=0.0)
    step = Trajectory(problem=p, integrands=(), ts=np.array(ts), ys=np.reshape(ys, (2, n)),
                      conts=_dense_rows(ys, stages, k13, n),
                      termination=Termination(COMPLETED, t_end), mean_step=h)
    dense = solver.dense_output()
    assert isinstance(dense, ivp.Dop853DenseOutput)
    times = t + np.array([0.1, 0.3, 0.5, 0.7, 0.9]) * h
    assert np.allclose(step.sample(times), dense(times).T, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name", catalog.ids() + LONG_WINDOWS + tuple(EARLY_ENDS))
def test_dense_rows_match_the_per_step_scalar_reference(name):
    # every accepted state and dense-output coefficient of the generated
    # loop and the one-pass row build, bit for bit against a step-by-step
    # integration whose rows are Python floats: on each fixture's channels,
    # over multi-period windows of 339 and 155 steps, and on runs
    # that end early, with inf and nan in the last rows of the overflowing
    # one.  The fixtures and long windows carry the oracle's channels as
    # quadratures after the invariants'
    p, integrands, tol, quadratures = integration_case(name)
    traj = integrate(p, integrands, (tol, tol), quadratures)
    assert traj.integrands[:len(integrands)] == tuple(map(canonical, integrands))
    ts, ys, rows, termination, _ = scalar_reference.integrate(
        p, traj.integrands, (tol, tol), rhs(p, traj.integrands),
        len(traj.integrands) - len(integrands))
    for got, want in ((traj.ts, ts), (traj.ys, ys), (traj.conts, rows)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    term = traj.termination
    assert (term.status, term.t, term.point, term.detail) == termination


@pytest.mark.parametrize("name", catalog.ids() + LONG_WINDOWS + tuple(EARLY_ENDS))
def test_a_wrapped_right_hand_side_runs_the_same_loop(name, monkeypatch):
    # the loop calls the right-hand side at every stage, 15 times per
    # accepted step, and its source depends on the shape alone: a wrapped
    # right-hand side, such as a tracer's counting wrapper, runs the loop
    # already compiled for the plain one, with the same bits and the same
    # end, also where a stage leaves the domain or overflows
    p, integrands, tol, quadratures = integration_case(name)
    plain = integrate(p, integrands, (tol, tol), quadratures)
    module = importlib.import_module("jacobi_invariants.integrate")
    built = module.rhs
    calls = []

    def wrapped(p, integrands):
        f = built(p, integrands)
        return lambda *point: calls.append(1) or f(*point)

    monkeypatch.setattr(module, "rhs", wrapped)
    misses = ex._code.cache_info().misses
    called = integrate(p, integrands, (tol, tol), quadratures)
    assert ex._code.cache_info().misses == misses
    assert len(calls) >= 15 * (len(called.ts) - 1)
    for got, want in ((plain.ts, called.ts), (plain.ys, called.ys),
                      (plain.conts, called.conts)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert plain.termination == called.termination


@pytest.mark.parametrize("name", catalog.ids() + LONG_WINDOWS)
def test_quadrature_channels_stay_out_of_step_control(name):
    # the oracle's channels ride an oracle run as quadratures: with them or
    # without, the steps, the states and the dense rows of x, v and the
    # invariants' channels are the same bits
    p, exprs = load_named(name)
    _, built = cli.run_checks(p, exprs, oracle=True)
    oracle = integrated_oracle(p, built.lagrangian, built.family)
    bare, carried = (integrate(p, built.spec_integrands, (1e-10, 1e-10), quadratures)
                     for quadratures in ((), oracle.integrands))
    assert len(carried.integrands) > len(bare.integrands)
    m = 2 + len(bare.integrands)
    assert bare.ts.tobytes() == carried.ts.tobytes()
    assert bare.ys.tobytes() == carried.ys[:, :m].tobytes()
    assert bare.conts.tobytes() == carried.conts[:, :, :m].tobytes()


def _check_rhs_call_rule(monkeypatch, name):
    # k1 and the starting-step heuristic make one call each, every
    # attempted step twelve (FSAL reuses the thirteenth) and every one that
    # passes the error test three more, for its dense output: each accepted
    # step, and in "dense_domain_abort" one whose dense-output stage leaves
    # the domain.  An attempt ended by a DomainError makes only the calls
    # up to the stage that raised
    integrate_module = importlib.import_module("jacobi_invariants.integrate")
    p, integrands, tol, quadratures = EARLY_ENDS[name]
    channels = tuple(map(canonical, integrands + quadratures))
    f = rhs(p, channels)
    calls = []

    def counted(*point):
        calls.append(point)
        return f(*point)

    monkeypatch.setattr(integrate_module, "rhs", lambda *args: counted)
    traj = integrate(p, integrands, (tol, tol), quadratures)
    *_, counts = scalar_reference.integrate(p, channels, (tol, tol), f, len(quadratures))
    assert counts["attempts"] > len(traj.conts) or name == "blow_up"
    assert counts["dense"] - len(traj.conts) == (name == "dense_domain_abort")
    assert len(calls) == counts["calls"] == (2 + 12 * counts["attempts"] + 3 * counts["dense"]
                                             - counts["unreached"])
    assert (counts["unreached"] > 0) == ("domain" in name)


_CHANNEL_ENDS = ("channel_domain_abort", "channel_inf")


@pytest.mark.parametrize("name", [n for n in EARLY_ENDS if n not in _CHANNEL_ENDS])
def test_rhs_calls_are_two_plus_twelve_per_attempt_plus_three_per_passed_step(monkeypatch, name):
    _check_rhs_call_rule(monkeypatch, name)


# the channel cases keep their ids from the Dormand-Prince 5(4) loop, whose
# attempts made six calls each; they check the same DOP853 rule
@pytest.mark.parametrize("name", _CHANNEL_ENDS)
def test_rhs_calls_are_two_plus_six_per_attempted_step(monkeypatch, name):
    _check_rhs_call_rule(monkeypatch, name)


def test_problems_of_one_shape_compile_the_loop_once():
    # the loop calls the right-hand side, so its source depends on the
    # shape (n, inputs, controlled) alone: two forced oscillators that
    # differ only in k2 and c share it, and so does a problem whose B and
    # channel differ in structure.  The right-hand side's source names the
    # parameters instead of writing their values, so the second oscillator
    # compiles nothing, neither the loop nor anything else of its integration
    p, q = (JacobiProblem(phi=ex.ZERO, B=parse("k2*x + c*t"), params=params, t0=0.0,
                          t_end=3.0, x0=1.0, v0=0.0)
            for params in ({"k2": 1.3, "c": 0.1}, {"k2": 2.1, "c": -0.07}))
    r = JacobiProblem(phi=ex.ZERO, B=parse("x^3 + sin(t)"), t0=0.0, t_end=3.0, x0=1.0, v0=0.0)
    integrands = (parse("c*x"),)
    fns = rhs(p, integrands), rhs(q, integrands), rhs(r, (parse("t*x^2"),))
    ex._code.cache_clear()
    for f in fns:
        _loop(f, 3, (0, 1))
        assert ex._code.cache_info().misses == 1
    integrate(p, integrands, (1e-10, 1e-10))
    misses = ex._code.cache_info().misses
    traj = integrate(q, integrands, (1e-10, 1e-10))
    assert ex._code.cache_info().misses == misses
    assert traj.termination.status == COMPLETED


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
    p = fx.problem
    p_long = JacobiProblem(p.phi, p.B, p.params, p.t0, 1.99, p.x0, p.v0, p.domain)
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
    spec = InvariantSpec(spec.name, spec.kind,
                         {**spec.poly, 0: ex.simplify(spec.poly[0] + parse("ln(x)"))})
    coarse = integrate(p, (), (1e-8, 1e-8))
    fine = integrate(p, (), (1e-8 / 16, 1e-8 / 16))
    series = evaluate_along(coarse, spec, 1024)
    rep = drift_report(spec, coarse, fine, 1024)
    assert rep.truncated and series.truncated
    assert rep.window == (float(series.ts[0]), float(series.ts[-1]))
    assert rep.window[0] == 0.0 and rep.window[1] == pytest.approx(math.pi / 2, abs=3e-3)
    assert rep.window[1] < coarse.t_last
