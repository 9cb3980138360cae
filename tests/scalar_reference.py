"""Point-by-point reference implementations of the series evaluation
layer: one dense-output state, one compiled scalar call and one Python
float operation at a time.  The parity tests hold the block sampling and
the generated series loops to these bit for bit, and the fused
right-hand side of ``problem.rhs`` to ``rhs`` here."""

import math

import numpy as np

from jacobi_invariants import expr as ex
from jacobi_invariants.expr import DomainError
from jacobi_invariants.integrate import IntegrationError


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
    in the order and with the arithmetic that ``problem.rhs`` fuses; u is
    the value of the channel that a dressed integrand reads."""
    phi_x, phi_t, B = (ex.compile_fn(e, p.params) for e in (
        ex.diff(p.phi, "x"), ex.diff(p.phi, "t"), ex.simplify(p.B)))
    gs = [channel_fn(g, p.params) for g in integrands]

    def f(t, x, v, *u):
        a = -(0.5 * phi_x(t, x) * v * v + phi_t(t, x) * v + B(t, x))
        return (v, a, *(g(t, x, v, *u) for g in gs))

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
