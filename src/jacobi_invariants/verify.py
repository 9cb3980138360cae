"""Brute-force oracle: build the constant of motion directly from its
variational definition and quadrature, sharing nothing with the closed-form
constructors.

For a perturbation family x_eps = x + eps*a(t,x)*exp(s*int b dt) the
conserved series is

    I(t) = dL/dv * v_fam  -  int_t0^t [dL/dx * v_fam + dL/dv * v_fam'] ds,

evaluated on dense trajectory output with composite-Simpson prefix sums
(trapezoid patch on odd prefixes).  Closed-form invariants absorb an
integration-by-parts constant, so comparisons match the two series at t0
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr
from .integrate import DriftReport, EvalSeries, Trajectory, _drift_report
from .problem import JacobiProblem, LagrangianData


@dataclass(frozen=True)
class PerturbationFamily:
    """x-shift family d_eps x|_0 = a(t,x) * exp(sign * u(t)), u' = b(t,x).

    sign 0 drops the exponential factor entirely (plain shift).
    """

    a: Expr
    b: Expr
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")


def _prefix_simpson(fs: np.ndarray, h: float) -> np.ndarray:
    """Running integral on a uniform grid: composite Simpson at even
    prefixes, a single trapezoid panel closing each odd prefix."""
    n = len(fs)
    out = np.zeros(n)
    for k in range(2, n, 2):
        out[k] = out[k - 2] + h / 3.0 * (fs[k - 2] + 4.0 * fs[k - 1] + fs[k])
    for k in range(1, n, 2):
        out[k] = out[k - 1] + h / 2.0 * (fs[k - 1] + fs[k])
    return out


def oracle_constant(p: JacobiProblem, L: LagrangianData, fam: PerturbationFamily,
                    traj: Trajectory, grid: int = 1024) -> EvalSeries:
    """The conserved series of the family along an integrated trajectory.

    When the family carries an exponential factor, its integrand b must be
    registered as an accumulator channel on the trajectory.
    """
    if grid < 8:
        raise ValueError("grid must be >= 8")
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
        s = traj.state(float(t))
        factor = math.exp(fam.sign * s.u[chan]) if chan is not None else 1.0
        vf = a_fn(s.t, s.x) * factor
        vfd = (at_fn(s.t, s.x) + ax_fn(s.t, s.x) * s.v
               + fam.sign * b_fn(s.t, s.x) * a_fn(s.t, s.x)) * factor
        dldv = dLdv_1(s.t, s.x) * s.v + dLdv_0(s.t, s.x)
        dldx = (dLdx_2(s.t, s.x) * s.v * s.v + dLdx_1(s.t, s.x) * s.v
                + dLdx_0(s.t, s.x))
        mom[i] = dldv * vf
        dLeps[i] = dldx * vf + dldv * vfd
    h = ts[1] - ts[0]
    work = _prefix_simpson(dLeps, h)
    return EvalSeries(ts, mom - work)


def oracle_vs_closed(series_oracle: EvalSeries, series_closed: EvalSeries) -> float:
    """Max discrepancy after matching the two series at t0 (the closed form
    absorbs a constant of integration that the oracle does not)."""
    n = min(len(series_oracle.values), len(series_closed.values))
    a = series_oracle.values[:n] - series_oracle.values[0]
    b = series_closed.values[:n] - series_closed.values[0]
    return float(np.max(np.abs(a - b)))


def oracle_offset(series_oracle: EvalSeries, series_closed: EvalSeries) -> float:
    return float(series_closed.values[0] - series_oracle.values[0])


def oracle_drift_report(p: JacobiProblem, L: LagrangianData, fam: PerturbationFamily,
                        coarse: Trajectory, fine: Trajectory,
                        grid: int = 4096) -> DriftReport:
    """Constancy of the oracle series along the coarse trajectory, with the
    order estimated against the fine one."""
    return _drift_report("oracle", oracle_constant(p, L, fam, coarse, grid),
                         oracle_constant(p, L, fam, fine, grid), coarse, fine)


def drift_gate(report: DriftReport, threshold: float) -> bool:
    """Pass iff relative drift beats the threshold AND the observed
    convergence order is at least 3.5 (rejects constants that are constant
    only because the trajectory barely moved)."""
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    return report.rel_drift < threshold and report.order >= 3.5
