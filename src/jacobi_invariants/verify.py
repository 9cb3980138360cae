"""Brute-force oracle: build the constant of motion directly from its
variational definition, sharing nothing with the closed-form constructors.

For a perturbation family x_eps = x + eps*a(t,x)*exp(s*int b dt) the
conserved series is

    I(t) = dL/dv * v_fam  -  int_t0^t [dL/dx * v_fam + dL/dv * v_fam'] ds.

A run reads that work integral W from an accumulator channel: its
integrand exp(sign*u_b) * (c_0 + c_1*v + c_2*v^2) rides the run's one
coarse/fine pair as a quadrature (``integrated_oracle``), after the
invariants' channels and outside step control.  The oracle's gate and its
comparison with the closed form read that series on the gate's grid, from
the invariants' pass over it (``Trajectory.series``), so the discrepancy
is bounded by the two series' drifts.  Closed forms absorb an
integration-by-parts constant, so comparisons match the series at t0.
``oracle_constant`` takes W as composite-Simpson prefix sums instead: the
independent reference the acceptance tests check the closed forms against.

As in ``integrate``, numpy is imported by the functions that build arrays.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from . import expr as ex
from .expr import Expr
from .integrate import DriftReport, EvalSeries, IntegrationError, Trajectory, drift_report
from .invariants import NONLOCAL_CONSTANT, InvariantSpec
from .problem import Frozen, Integrand, JacobiProblem, LagrangianData

if TYPE_CHECKING:
    import numpy as np


class PerturbationFamily(Frozen):
    """x-shift family d_eps x|_0 = a(t,x) * exp(sign * u(t)), u' = b(t,x).

    sign 0 drops the exponential factor entirely (plain shift).
    """

    __slots__ = ("a", "b", "sign")

    def __init__(self, a: Expr, b: Expr, sign: int):
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        self._set(a=a, b=b, sign=sign)


def _prefix_simpson(fs: np.ndarray, h: float) -> np.ndarray:
    """Running integral on a uniform grid: composite Simpson at even
    prefixes, a single trapezoid panel closing each odd prefix."""
    import numpy as np

    n = len(fs)
    out = np.zeros(n)
    m = (n - 1) // 2  # Simpson panels
    panels = h / 3.0 * (fs[0:2 * m:2] + 4.0 * fs[1:2 * m:2] + fs[2:2 * m + 1:2])
    # np.cumsum adds left to right, as a running sum from 0.0 does
    out[0::2] = np.cumsum(np.concatenate(([0.0], panels)))
    out[1::2] = out[0:n - 1:2] + h / 2.0 * (fs[0:n - 1:2] + fs[1::2])
    return out


def _variational_exprs(p: JacobiProblem, L: LagrangianData,
                       fam: PerturbationFamily) -> dict[str, Expr]:
    """The family's shift a, its derivatives and exponent integrand b, and
    the coefficients of dL/dv (dLdv_d) and dL/dx (dLdx_d) in powers of v."""
    ephi = ex.Exp(p.phi)
    return {
        "a": ex.simplify(fam.a), "a_t": ex.diff(fam.a, "t"), "a_x": ex.diff(fam.a, "x"),
        "b": ex.simplify(fam.b),
        "dLdv_1": ex.simplify(ephi), "dLdv_0": ex.simplify(L.delta1),
        "dLdx_2": ex.simplify(ex.HALF * ex.diff(p.phi, "x") * ephi),
        "dLdx_1": ex.simplify(ex.diff(L.delta1, "x")),
        "dLdx_0": ex.simplify(ex.diff(L.delta2, "x")),
    }


def oracle_constant(p: JacobiProblem, L: LagrangianData, fam: PerturbationFamily,
                    traj: Trajectory, grid: int = 1024) -> EvalSeries:
    """The conserved series of the family along an integrated trajectory,
    W a Simpson quadrature on ``grid`` points (trapezoid patch on odd
    prefixes), with an O(h^3) error of its own; no run computes it.  It
    reads the blocks ``Trajectory.listed`` yields and stores nothing.

    When the family carries an exponential factor, its integrand b must be
    registered as an accumulator channel on the trajectory.  A series that
    leaves the real domain inside the window raises IntegrationError.
    """
    import numpy as np

    if grid < 8:
        raise ValueError("grid must be >= 8")
    exprs = _variational_exprs(p, L, fam)
    chan = traj.channel_of(fam.b) if fam.sign != 0 else None
    # the momentum term and the perturbed-Lagrangian integrand at one point,
    # in the order of the scalar formula; both series evaluate every field,
    # so the one that stops first stops where the pair of them fails
    statements = "\n".join((
        f"factor = math.exp({fam.sign}*u0)" if chan is not None else "factor = 1.0",
        "a = {a}",
        "vf = a*factor",
        f"vfd = ({{a_t}} + {{a_x}}*v + {fam.sign}*{{b}}*a)*factor",
        "dldv = {dLdv_1}*v + {dLdv_0}",
        "dldx = {dLdx_2}*v*v + {dLdx_1}*v + {dLdx_0}",
    ))
    fns = [ex.compile_series(f"{statements}\n{value}", exprs, p.params, int(chan is not None))
           for value in ("dldv*vf", "dldx*vf + dldv*vfd")]
    ts = np.linspace(traj.t0, traj.t_last, grid)
    momentum, integrand = [], []
    for t, x, v, *u in traj.listed(ts):
        parts = [fn(t, x, v, *((u[chan],) if chan is not None else ())) for fn in fns]
        err = min(parts, key=lambda part: len(part[0]))[1]
        if err is not None:
            raise IntegrationError(f"oracle undefined on the trajectory: {err}") from err
        momentum += parts[0][0]
        integrand += parts[1][0]
    work = _prefix_simpson(np.array(integrand), ts[1] - ts[0])
    return EvalSeries(ts, np.array(momentum) - work)


def oracle_vs_closed(series_oracle: EvalSeries, series_closed: EvalSeries) -> float:
    """Max discrepancy after matching the two series at t0 (the closed form
    absorbs a constant of integration that the oracle does not)."""
    import numpy as np

    n = min(len(series_oracle.values), len(series_closed.values))
    a = series_oracle.values[:n] - series_oracle.values[0]
    b = series_closed.values[:n] - series_closed.values[0]
    return float(np.max(np.abs(a - b)))


def integrated_oracle(p: JacobiProblem, L: LagrangianData,
                      fam: PerturbationFamily) -> InvariantSpec:
    """The oracle series dL/dv * v_fam - W as a spec over the channels
    (b, W), or (W,) without an exponential factor; a trajectory the
    oracle's gate reads registers them.  With v_fam = a*exp(sign*u_b) and
    v_fam' = (a_t + a_x*v + sign*b*a)*exp(sign*u_b), W integrates
    dL/dx * v_fam + dL/dv * v_fam', expanded in powers of v."""
    e = _variational_exprs(p, L, fam)
    a, a_x = e["a"], e["a_x"]
    # v_fam' over the exponential factor, less its a_x*v term
    shift_t = e["a_t"] + ex.Rat(fam.sign) * e["b"] * a
    coeffs = (e["dLdx_0"] * a + e["dLdv_0"] * shift_t,
              e["dLdx_1"] * a + e["dLdv_1"] * shift_t + e["dLdv_0"] * a_x,
              e["dLdx_2"] * a + e["dLdv_1"] * a_x)
    dressed = fam.sign != 0
    work = Integrand(tuple(ex.simplify(c) for c in coeffs), fam.sign,
                     e["b"] if dressed else None)
    channels = (e["b"], work) if dressed else (work,)
    return InvariantSpec(
        name="oracle", kind=NONLOCAL_CONSTANT,
        poly={1: ex.simplify(e["dLdv_1"] * a), 0: ex.simplify(e["dLdv_0"] * a)},
        integrands=channels, exp_sign=fam.sign,
        linear_channels=((Fraction(-1), len(channels) - 1),))


# the fewest grid points of the oracle's constancy gate: an order
# estimated from a few points reads as low as 1.3 on PG21 at grid 2
ORACLE_MIN_GRID = 1024


def oracle_drift_report(oracle: InvariantSpec, coarse: Trajectory, fine: Trajectory,
                        grid: int = ORACLE_MIN_GRID) -> DriftReport:
    """Constancy of the oracle series ``integrated_oracle(p, L, fam)``
    along the coarse trajectory on at least ORACLE_MIN_GRID points, with
    the order estimated against the fine one.  The work integral is read
    from its channel, so both trajectories must carry the spec's
    channels."""
    return drift_report(oracle, coarse, fine, max(grid, ORACLE_MIN_GRID))


def drift_gate(report: DriftReport, threshold: float) -> bool:
    """Pass iff relative drift beats the threshold AND the observed
    convergence order is at least 3.5 (rejects constants that are constant
    only because the trajectory barely moved)."""
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    return report.rel_drift < threshold and report.order >= 3.5
