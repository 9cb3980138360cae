"""Point-by-point reference implementations of the integration and
series evaluation layers: one step, one dense-output state, one compiled
scalar call and one Python float operation at a time.  The parity tests
hold the generated integration loop and its dense rows, the block
sampling and the generated series loops to these bit for bit, and the
fused right-hand side of ``problem.rhs`` to ``rhs`` here.

The DOP853 coefficients come from scipy's own module, not from the
integrator's, so a wrong coefficient there shows as a mismatch."""

import math
from collections import Counter

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as dop853

from jacobi_invariants import expr as ex
from jacobi_invariants.expr import DomainError
from jacobi_invariants.integrate import (
    _BLOWUP_BOUND, _MAX_CONSECUTIVE_REJECTS, _MAX_STEPS, BLOW_UP, COMPLETED,
    DOMAIN_ABORT, STEP_FAILURE, IntegrationError)
from jacobi_invariants.problem import read_channel

# stage s + 1 is at C[s] with weights A[s][:s] on the stages before it:
# 12 stages of the step, the 13th at its end (FSAL), 3 of the dense output
C = dop853.C.tolist()
A = [row[:s] for s, row in enumerate(dop853.A.tolist())]
B, E5, E3 = dop853.B.tolist(), dop853.E5.tolist(), dop853.E3.tolist()
D = dop853.D.tolist()
# the order of the error estimate; the step controller's exponents are
# 0.7 and 0.4 over it, and the starting step's root is one over it plus 1
ORDER = 7


def weighted(weights, ks, i):
    """Sum of w*k[i] over the stages ks, left to right, zero weights
    dropped, as the generated step writes it."""
    total = None
    for w, k in zip(weights, ks):
        if w != 0.0:
            total = w * k[i] if total is None else total + w * k[i]
    return total


def norm(values, scales):
    """RMS of values[i]/scales[i] over the components scales has, summed
    left to right: the controlled ones."""
    total = 0.0
    for i in range(len(scales)):
        q = values[i] / scales[i]
        total += q * q
    return math.sqrt(total / len(scales))


def initial_step(f, inputs, controlled, t0, y0, f0, t_end, hmin, atol, rtol):
    """The starting-step heuristic (Hairer-Norsett-Wanner, Solving ODEs I,
    II.4) with its norms over the controlled components, as the step's
    error norm; the trial step is floored at hmin."""
    sc = [atol + rtol * abs(y0[i]) for i in range(controlled)]
    d0, d1 = norm(y0, sc), norm(f0, sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = max(min(h0, t_end - t0), hmin)
    try:
        f1 = f(t0 + h0, *(y0[i] + h0 * f0[i] for i in inputs))
    except DomainError:
        return max(h0 * 0.1, 1e-10 * (t_end - t0))
    d2 = norm([f1[i] - f0[i] for i in range(controlled)], sc) / h0
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** (1 / (ORDER + 1)) if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100.0 * h0, h1, t_end - t0)


def integrate(problem, integrands, tol, f, quadratures=0):
    """The steps of ``integrate.integrate`` one at a time on the right-hand
    side f, each with its seventh-order dense-output rows computed from its
    own stages as Python floats; the last ``quadratures`` of the integrands
    are outside step control.

    Returns (ts, ys, rows, termination, counts): rows has shape
    (steps, 8, n), termination is (status, t, point, detail) and counts
    has the RHS calls, the attempted steps (``attempts``), the attempts
    that passed the error test and took the dense-output stages
    (``dense``), and the stage calls that attempts ended by a DomainError
    did not reach (``unreached``)."""
    atol, rtol = tol
    n = 2 + len(integrands)
    controlled = n - quadratures
    read = read_channel(integrands)
    inputs = (0, 1) if read is None else (0, 1, 2 + read)
    counts = Counter()

    def call(*point):
        counts["calls"] += 1
        return f(*point)

    def stages(ks, t, h, y, upto):
        """Append stages len(ks) + 1.. upto of the step (t, y, h) to ks."""
        for s in range(len(ks), upto):
            trial = [y[i] + h * weighted(A[s], ks, i) for i in range(n)]
            ks.append(call(t + C[s] * h, *(trial[i] for i in inputs)))

    t0, t_end = problem.t0, problem.t_end
    hmin = 1e-12 * (t_end - t0)
    y = (float(problem.x0), float(problem.v0)) + (0.0,) * (n - 2)
    ts, ys, rows = [t0], [y], []

    def finish(*termination):
        return (np.array(ts), np.array(ys), np.array(rows).reshape(-1, 8, n),
                termination, counts)

    try:
        k1 = call(t0, *(y[i] for i in inputs))
    except DomainError as exc:
        return finish(DOMAIN_ABORT, t0, (exc.t, exc.x), str(exc))
    h = initial_step(call, inputs, controlled, t0, y, k1, t_end, hmin, atol, rtol)
    t, errprev, rejects, just_rejected = t0, 1.0, 0, False
    while t < t_end:
        if counts["attempts"] >= _MAX_STEPS:
            return finish(STEP_FAILURE, t, (t, y[0]), f"more than {_MAX_STEPS} steps")
        h = max(h, hmin)
        last = h >= t_end - t
        if last:
            h = t_end - t
        counts["attempts"] += 1
        ks, planned = [k1], 12
        try:
            stages(ks, t, h, y, 12)
            y_new = tuple(y[i] + h * weighted(B, ks, i) for i in range(n))
            ks.append(call(t + C[12] * h, *(y_new[i] for i in inputs)))
            # step control reads the controlled components; the quadrature
            # ones are integrated with the step but outside its error norm.
            # A non-finite channel value, or quadrature derivative, at the
            # new state rejects the step
            err5 = err3 = 0.0
            for i in range(controlled):
                a, b = abs(y[i]), abs(y_new[i])
                scale = atol + rtol * (a if a > b else b)
                e, g = weighted(E5, ks, i) / scale, weighted(E3, ks, i) / scale
                err5, err3 = err5 + e * e, err3 + g * g
            deno = err5 + 0.01 * err3
            err = h * err5 / math.sqrt((deno if deno > 0.0 else 1.0) * controlled)
            if not all(map(math.isfinite, (err, *y_new[2:], *ks[12][controlled:]))):
                err = 10.0
            if err <= 1.0:
                counts["dense"] += 1
                planned = 15
                stages(ks, t, h, y, 16)
        except DomainError as exc:
            counts["unreached"] += planned - len(ks)
            if h > 8.0 * hmin and rejects < _MAX_CONSECUTIVE_REJECTS:
                rejects += 1
                just_rejected = True
                h *= 0.25
                continue
            return finish(DOMAIN_ABORT, t, (exc.t, exc.x), str(exc))
        if err <= 1.0:
            d = [y_new[i] - y[i] for i in range(n)]
            rows.append([list(y), d, [h * k1[i] - d[i] for i in range(n)],
                         [2.0 * d[i] - h * (ks[12][i] + k1[i]) for i in range(n)],
                         *([h * weighted(w, ks, i) for i in range(n)] for w in D)])
            t = t_end if last else t + h
            y = y_new
            ts.append(t)
            ys.append(y)
            if abs(y[0]) + abs(y[1]) > _BLOWUP_BOUND:
                return finish(BLOW_UP, t, (t, y[0]), f"|x|+|v| exceeded {_BLOWUP_BOUND:g}")
            k1 = ks[12]
            rejects = 0
            fac = (0.9 * err ** (-0.7 / ORDER) * errprev ** (0.4 / ORDER)
                   if err > 0 else 5.0)
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
            h *= max(0.2, 0.9 * err ** (-1 / ORDER))
    return finish(COMPLETED, t, None, "")


def state(traj, t: float) -> np.ndarray:
    """Dense-output state [x, v, u...] at one t, per the seventh-order
    continuous extension of DOP853, in the form of scipy's
    ``Dop853DenseOutput``: the rows from the last inwards, each added and
    the sum multiplied by theta and 1 - theta in turn."""
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
    y = r[7] * theta
    for j, row in enumerate(r[6:0:-1]):
        y = (y + row) * ((1 - theta) if j % 2 == 0 else theta)
    return r[0] + y


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
            val *= math.exp(spec.exp_sign * u[0])
        if closed_fn is not None:
            val *= math.exp(closed_fn(t, x))
        if spec.minus_channel is not None:
            val -= u[spec.minus_channel]
        return val

    return fn


def evaluate_along(traj, spec, grid):
    """(ts, values, truncated, (t, x) of the stopping DomainError or None)
    of the invariant on a uniform grid, stopping at the first point
    outside the domain."""
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
