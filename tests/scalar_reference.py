"""Point-by-point reference implementations of the integration and
series evaluation layers: one step, one dense-output state, one compiled
scalar call and one Python float operation at a time.  The parity tests
hold the generated integration loop and its dense rows, the block
sampling and the generated series loops to these bit for bit, and the
fused right-hand side of ``problem.rhs`` to ``rhs`` here."""

import math
from collections import Counter

import numpy as np

from jacobi_invariants import expr as ex
from jacobi_invariants.expr import DomainError
from jacobi_invariants.integrate import (
    _A, _BLOWUP_BOUND, _C, _D, _E, _MAX_CONSECUTIVE_REJECTS, BLOW_UP, COMPLETED,
    DOMAIN_ABORT, STEP_FAILURE, IntegrationError, _initial_step)
from jacobi_invariants.problem import read_channel


def weighted(weights, ks, i):
    """Sum of w*k[i] over the stages ks, left to right, zero weights
    dropped, as the generated step writes it."""
    total = None
    for w, k in zip(weights, ks):
        if w != 0.0:
            total = w * k[i] if total is None else total + w * k[i]
    return total


def integrate(problem, integrands, tol, f):
    """The steps of ``integrate.integrate`` one at a time on the right-hand
    side f, each with its quartic dense-output rows computed from its own
    stages as Python floats.

    Returns (ts, ys, rows, termination, counts): rows has shape
    (steps, 5, n), termination is (status, t, point, detail) and counts
    has the RHS calls, the attempted steps (``attempts``) and the stage
    calls that attempts ended by a DomainError did not reach
    (``unreached``)."""
    atol, rtol = tol
    n = 2 + len(integrands)
    read = read_channel(integrands)
    inputs = (0, 1) if read is None else (0, 1, 2 + read)
    counts = Counter()

    def call(*point):
        counts["calls"] += 1
        return f(*point)

    t0, t_end = problem.t0, problem.t_end
    hmin = 1e-12 * (t_end - t0)
    y = (float(problem.x0), float(problem.v0)) + (0.0,) * (n - 2)
    ts, ys, rows = [t0], [y], []

    def finish(*termination):
        return (np.array(ts), np.array(ys), np.array(rows).reshape(-1, 5, n),
                termination, counts)

    try:
        k1 = call(t0, *(y[i] for i in inputs))
    except DomainError as exc:
        return finish(DOMAIN_ABORT, t0, (exc.t, exc.x), str(exc))
    h = _initial_step(call, inputs, t0, y, k1, t_end, atol, rtol)
    t, errprev, rejects, just_rejected = t0, 1.0, 0, False
    while t < t_end:
        h = max(h, hmin)
        last = h >= t_end - t
        if last:
            h = t_end - t
        counts["attempts"] += 1
        ks = [k1]
        try:
            for s in range(1, 7):
                trial = [y[i] + h * weighted(_A[s], ks, i) for i in range(n)]
                ks.append(call(t + _C[s] * h, *(trial[i] for i in inputs)))
        except DomainError as exc:
            counts["unreached"] += 6 - len(ks)
            if h > 8.0 * hmin and rejects < _MAX_CONSECUTIVE_REJECTS:
                rejects += 1
                just_rejected = True
                h *= 0.25
                continue
            return finish(DOMAIN_ABORT, t, (exc.t, exc.x), str(exc))
        y_new = tuple(trial)
        total = 0.0
        for i in range(n):
            a, b = abs(y[i]), abs(y_new[i])
            q = h * weighted(_E, ks, i) / (atol + rtol * (a if a > b else b))
            total += q * q
        err = math.sqrt(total / n)
        if not math.isfinite(err):
            err = 10.0
        if err <= 1.0:
            d = [y_new[i] - y[i] for i in range(n)]
            p = [h * k1[i] - d[i] for i in range(n)]
            rows.append([list(y), d, p,
                         [d[i] - h * ks[6][i] - p[i] for i in range(n)],
                         [h * weighted(_D, ks, i) for i in range(n)]])
            t = t_end if last else t + h
            y = y_new
            ts.append(t)
            ys.append(y)
            if abs(y[0]) + abs(y[1]) > _BLOWUP_BOUND:
                return finish(BLOW_UP, t, (t, y[0]), f"|x|+|v| exceeded {_BLOWUP_BOUND:g}")
            k1 = ks[6]
            rejects = 0
            fac = 0.9 * err ** (-0.175) * errprev ** 0.1 if err > 0 else 5.0
            fac = min(1.0 if just_rejected else 5.0, max(0.2, fac))
            errprev = max(err, 1e-4)
            just_rejected = False
            h *= fac
        else:
            rejects += 1
            just_rejected = True
            if rejects >= _MAX_CONSECUTIVE_REJECTS and h <= hmin * 4.0:
                return finish(STEP_FAILURE, t, (t, y[0]),
                              f"{rejects} consecutive rejected steps at minimum step size")
            h *= max(0.2, 0.9 * err ** (-0.25))
    return finish(COMPLETED, t, None, "")


def state(traj, t: float) -> np.ndarray:
    """Dense-output state [x, v, u...] at one t, per the quartic
    continuous extension of the Dormand-Prince pair."""
    ts = traj.ts
    if not (ts[0] <= t <= ts[-1]):
        raise IntegrationError(f"t={t} outside integrated window")
    if t == ts[-1]:
        return traj.ys[-1]
    k = int(np.searchsorted(ts, t, side="right")) - 1
    k = min(max(k, 0), len(ts) - 2)
    h = ts[k + 1] - ts[k]
    theta = (t - ts[k]) / h
    r = traj.conts[k]
    return r[0] + theta * (r[1] + (1 - theta) * (r[2] + theta * (r[3] + (1 - theta) * r[4])))


def rhs(p, integrands=()):
    """(t, x, v[, u]) -> (v, a, g_0..) from separately compiled expressions,
    in the order and with the arithmetic that ``problem.rhs`` fuses, which
    leaves out a structurally zero phi_x or phi_t term; u is the value of
    the channel that a dressed integrand reads."""
    phi_x, phi_t = (ex.diff(p.phi, var) for var in "xt")
    phi_x = None if phi_x == ex.ZERO else ex.compile_fn(phi_x, p.params)
    phi_t = None if phi_t == ex.ZERO else ex.compile_fn(phi_t, p.params)
    B = ex.compile_fn(ex.simplify(p.B), p.params)
    gs = [channel_fn(g, p.params) for g in integrands]

    def f(t, x, v, *u):
        a = None
        if phi_x is not None:
            a = 0.5 * phi_x(t, x) * v * v
        if phi_t is not None:
            a = phi_t(t, x) * v if a is None else a + phi_t(t, x) * v
        a = B(t, x) if a is None else a + B(t, x)
        return (v, -a, *(g(t, x, v, *u) for g in gs))

    return f


def channel_fn(g, params):
    """(t, x, v[, u]) -> one channel's integrand: g(t, x) for an Expr; for
    an Integrand, 0.0 plus its nonzero terms c_d*v**d left to right, times
    exp(sign*u) when it is dressed, as an invariant's polynomial."""
    if isinstance(g, ex.Expr):
        fn = ex.compile_fn(g, params)
        return lambda t, x, v, *u: fn(t, x)
    terms = [(d, ex.compile_fn(c, params)) for d, c in enumerate(g.coeffs) if c != ex.ZERO]

    def integrand(t, x, v, *u):
        total = 0.0
        for d, c in terms:
            total += c(t, x) * v ** d
        return total * math.exp(g.sign * u[0]) if g.sign else total

    return integrand


def spec_fn(spec, params):
    """Scalar (t, x, v, u) -> float evaluator of an InvariantSpec."""
    coeff_fns = [(d, ex.compile_fn(c, params)) for d, c in sorted(spec.poly.items())]
    closed_fn = (ex.compile_fn(spec.exp_closed_arg, params)
                 if spec.exp_closed_arg is not None else None)

    def fn(t, x, v, u):
        val = 0.0
        for d, cf in coeff_fns:
            val += cf(t, x) * v ** d
        if spec.exp_sign != 0:
            val *= math.exp(spec.exp_sign * u[spec.exp_channel])
        if closed_fn is not None:
            val *= math.exp(closed_fn(t, x))
        for c, i in spec.linear_channels:
            val += float(c) * u[i]
        return val

    return fn


def evaluate_along(traj, spec, grid):
    """(ts, values, truncated, abort_point) of the invariant on a uniform
    grid, stopping at the first point outside the domain."""
    channels = [traj.channel_of(g) for g in spec.integrands]
    fn = spec_fn(spec, traj.problem.params)
    ts = np.linspace(traj.t0, traj.t_last, grid)
    values = []
    abort = None
    for t in ts:
        y = state(traj, float(t))
        try:
            values.append(fn(float(t), float(y[0]), float(y[1]),
                             [float(y[2 + c]) for c in channels]))
        except DomainError as err:
            abort = (err.t, err.x)
            break
    return ts[: len(values)], np.array(values), abort is not None, abort


def prefix_simpson(fs, h):
    n = len(fs)
    out = np.zeros(n)
    for k in range(2, n, 2):
        out[k] = out[k - 2] + h / 3.0 * (fs[k - 2] + 4.0 * fs[k - 1] + fs[k])
    for k in range(1, n, 2):
        out[k] = out[k - 1] + h / 2.0 * (fs[k - 1] + fs[k])
    return out


def oracle_constant(p, L, fam, traj, grid):
    """Values of the oracle's conserved series, one point at a time."""
    params = p.params
    ephi = ex.Exp(p.phi)
    dLdv_1 = ex.compile_fn(ex.simplify(ephi), params)
    dLdv_0 = ex.compile_fn(ex.simplify(L.delta1), params)
    dLdx_2 = ex.compile_fn(ex.simplify(ex.HALF * ex.diff(p.phi, "x") * ephi), params)
    dLdx_1 = ex.compile_fn(ex.simplify(ex.diff(L.delta1, "x")), params)
    dLdx_0 = ex.compile_fn(ex.simplify(ex.diff(L.delta2, "x")), params)
    a_fn = ex.compile_fn(ex.simplify(fam.a), params)
    at_fn = ex.compile_fn(ex.diff(fam.a, "t"), params)
    ax_fn = ex.compile_fn(ex.diff(fam.a, "x"), params)
    b_fn = ex.compile_fn(ex.simplify(fam.b), params)
    chan = traj.channel_of(fam.b) if fam.sign != 0 else None

    ts = np.linspace(traj.t0, traj.t_last, grid)
    mom = np.empty(grid)
    dLeps = np.empty(grid)
    for i, t in enumerate(ts):
        y = state(traj, float(t))
        t, x, v = float(t), float(y[0]), float(y[1])
        factor = math.exp(fam.sign * float(y[2 + chan])) if chan is not None else 1.0
        vf = a_fn(t, x) * factor
        vfd = (at_fn(t, x) + ax_fn(t, x) * v + fam.sign * b_fn(t, x) * a_fn(t, x)) * factor
        dldv = dLdv_1(t, x) * v + dLdv_0(t, x)
        dldx = dLdx_2(t, x) * v * v + dLdx_1(t, x) * v + dLdx_0(t, x)
        mom[i] = dldv * vf
        dLeps[i] = dldx * vf + dldv * vfd
    return mom - prefix_simpson(dLeps, ts[1] - ts[0])
