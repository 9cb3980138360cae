"""Small functions only the tests need: a spec's compiled evaluator over
arrays and at one point, its coefficients as point functions, the
oracle's offset, the blow-up scan that chose the fixtures' windows and a
copy of an expression tree with no memo filled."""

import numpy as np

from jacobi_invariants import expr as ex
from jacobi_invariants.integrate import integrate
from jacobi_invariants.problem import JacobiProblem


def on_states(spec, params=None):
    """``spec.compiled(params)`` over arrays: fn(t, x, v, u) with u a list
    of channel arrays, returning (values array, err)."""
    fn = spec.compiled(params)

    def call(t, x, v, u):
        values, err = fn(*(np.asarray(a, dtype=float).tolist() for a in (t, x, v, *u)))
        return np.array(values), err

    return call


def spec_value(spec, t, x, v, u=(), params=None) -> float:
    """The spec's value at one state, through its compiled evaluator."""
    values, err = on_states(spec, params)([t], [x], [v], [[c] for c in u])
    if err is not None:
        raise err
    return float(values[0])


def local_exprs(spec) -> dict[int, ex.Expr]:
    """Velocity-power coefficients with any closed exp factor folded in.

    Only meaningful when no live accumulator remains (pure point
    function); used for structural comparisons against target formulas.
    """
    if spec.exp_sign != 0 or spec.linear_channels:
        raise ValueError(f"{spec.name} still depends on accumulator channels")
    if spec.exp_closed_arg is None:
        return {d: ex.simplify(c) for d, c in spec.poly.items()}
    factor = ex.Exp(spec.exp_closed_arg)
    return {d: ex.simplify(c * factor) for d, c in spec.poly.items()}


def fresh(e: ex.Expr) -> ex.Expr:
    """A tree equal to e built from new nodes, so that no normal form or
    derivative is kept on any of them yet."""
    return ex.Expr(e.kind, tuple(fresh(a) for a in e.args), e.value, e.name)


def oracle_offset(series_oracle, series_closed) -> float:
    """Constant by which the closed form exceeds the oracle at t0."""
    return float(series_closed.values[0] - series_oracle.values[0])


def blowup_scan(p, horizon: float = 12.0, tol: float = 1e-6) -> tuple[str, float]:
    """Loose-tolerance escape scan of a ``JacobiProblem``, used to choose
    the safe windows; returns (termination status, termination time)."""
    probe = JacobiProblem(p.phi, p.B, p.params, p.t0, p.t0 + horizon, p.x0, p.v0, p.domain)
    traj = integrate(probe, (), (tol, tol))
    return traj.termination.status, traj.t_last
