"""Built-in fixtures: five Painleve-Gambier equations in Jacobi form plus
an exactly solvable non-autonomous example.

Safe windows come from a coarse blow-up scan (integrate at tol 1e-6 over a
long horizon, record the termination time, keep at most 60% of it); the
scan results are quoted in each fixture's notes.  PG18/21/22 need x > 0,
so initial data is fixed at x0 = 1, v0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .expr import Expr, parse
from .invariants import FIRST_INTEGRAL
from .problem import JacobiProblem, LagrangianData

FIXTURE_IDS = ("PG18", "PG21", "PG22", "PG4", "PG20", "JAC_EXACT")


class UnknownFixtureError(KeyError):
    pass


@dataclass(frozen=True)
class ExpectedInvariant:
    """Recorded target for one constructed invariant.

    ``poly_targets`` maps velocity powers to expression strings for the
    structural comparison, with the constructed invariant scaled by
    ``normalization`` first (the catalog records the unhalved classical
    forms, which are twice the energy-like construction).
    """

    constructor: str                      # "energy" | "plus" | "minus" | ...
    kind: str
    printed: str
    normalization: Fraction = Fraction(1)
    poly_targets: dict[int, str] | None = None


@dataclass(frozen=True)
class Fixture:
    id: str
    problem: JacobiProblem
    lagrangian: LagrangianData
    expected: tuple[ExpectedInvariant, ...]
    delta2: Expr | None = None
    eta: Expr | None = None
    rho1: Expr | None = None
    rho2: Expr | None = None
    drift_threshold: float = 1e-6
    notes: str = ""


def _pg_autonomous(fid: str, alpha: str, beta_xn: str, delta2: str,
                   t_end: float, gamma: Fraction, betagamma: Fraction,
                   notes: str) -> Fixture:
    phi = parse(f"-{alpha}*ln(x)")
    problem = JacobiProblem(
        phi=phi, B=parse(beta_xn), t0=0.0, t_end=t_end, x0=1.0, v0=0.0,
        domain=(0.0, t_end, 0.35, 3.0),
    )
    d2 = parse(delta2)
    expo = -2 / gamma
    expected = (
        ExpectedInvariant(
            constructor="energy",
            kind=FIRST_INTEGRAL,
            printed=f"xdot^2*x^(-{alpha}) - {betagamma}*x^({expo})",
            normalization=Fraction(2),
            poly_targets={2: f"x^(-{alpha})", 0: f"-{betagamma}*x^({expo})"},
        ),
    )
    return Fixture(
        id=fid, problem=problem,
        lagrangian=LagrangianData(ex.ZERO, d2),
        expected=expected, delta2=d2,
        notes=notes,
    )


def _build_fixtures() -> dict[str, Fixture]:
    fixtures = {}

    fixtures["PG18"] = _pg_autonomous(
        "PG18", "1", "-4*x^2", "2*x^2", 0.4,
        gamma=Fraction(-1), betagamma=Fraction(4),
        notes="x'' - (1/2)x^-1 x'^2 - 4x^2 = 0; blow-up scan: escape at "
              "t ~ 1.308 from (1,0), 60% bound 0.78; window kept at 0.4.",
    )
    fixtures["PG21"] = _pg_autonomous(
        "PG21", "3/2", "-3*x^2", "2*x^(3/2)", 0.8,
        gamma=Fraction(-4, 3), betagamma=Fraction(4),
        notes="x'' - (3/4)x^-1 x'^2 - 3x^2 = 0; blow-up scan: escape at "
              "t ~ 1.399 from (1,0); window 0.8 = 60%.",
    )
    fixtures["PG22"] = _pg_autonomous(
        "PG22", "3/2", "1", "2*x^(-1/2)", 1.2,
        gamma=Fraction(4), betagamma=Fraction(4),
        notes="x'' - (3/4)x^-1 x'^2 + 1 = 0; the orbit from (1,0) touches "
              "x = 0 at t = 2 exactly (x = (1 - t^2/4)^2), where ln x "
              "leaves its domain; window 1.2 = 60%.",
    )

    p4 = JacobiProblem(
        phi=ex.ZERO, B=parse("-(6*x^2+t)"), t0=0.0, t_end=0.7, x0=1.0, v0=0.0,
        domain=(0.0, 0.7, 0.35, 3.0),
    )
    fixtures["PG4"] = Fixture(
        id="PG4", problem=p4,
        lagrangian=LagrangianData(parse("-6*x^2*t"), parse("t*x"), eta=parse("-2*x^3*t")),
        expected=(ExpectedInvariant(
            constructor="accumulator",
            kind="NonlocalConstant",
            printed="(1/2)*xdot^2 - 2*x^3 - x*t + Int[x]",
        ),),
        eta=parse("-2*x^3*t"), delta2=parse("t*x"),
        notes="x'' - (6x^2 + t) = 0; blow-up scan: escape at t ~ 1.204 "
              "from (1,0); window 0.7 = 60%.",
    )

    p20 = JacobiProblem(
        phi=parse("-ln(x)"), B=parse("-2*x*(2*x+t)"), t0=0.0, t_end=0.75,
        x0=1.0, v0=0.0, domain=(0.0, 0.75, 0.35, 3.0),
    )
    fixtures["PG20"] = Fixture(
        id="PG20", problem=p20,
        lagrangian=LagrangianData(parse("-t^2"), parse("2*x^2"), eta=parse("-t^2*x")),
        expected=(ExpectedInvariant(
            constructor="accumulator",
            kind="NonlocalConstant",
            printed="(1/2)*xdot^2*x^(-1) - 2*x*(x+t) + 2*Int[x]",
        ),),
        eta=parse("-t^2*x"), delta2=parse("2*x^2"),
        notes="x'' - (1/2)x^-1 x'^2 - 4x^2 - 2tx = 0; blow-up scan: escape "
              "at t ~ 1.260 from (1,0); window 0.75 = 60%.  The integral "
              "term enters with +2*Int[x]: differentiating along solutions "
              "fixes this sign.",
    )

    rho, itld, jtld = 1.0, -2.0, 1.0
    x0 = 2.0 * math.log(2.0 * rho - 0.5 * itld + jtld)
    v0 = 2.0 * (-rho + 0.5 * itld) / (2.0 * rho - 0.5 * itld + jtld)
    pj = JacobiProblem(
        phi=parse("t+x"), B=parse("rho*exp(-(t+x)/2)"), params={"rho": rho},
        t0=0.0, t_end=4.0, x0=x0, v0=v0,
        domain=(0.0, 4.0, 0.0, 3.0),
    )
    fixtures["JAC_EXACT"] = Fixture(
        id="JAC_EXACT", problem=pj,
        lagrangian=LagrangianData(parse("2*rho*exp((t+x)/2)"), ex.ZERO),
        expected=(ExpectedInvariant(
            constructor="general",
            kind=FIRST_INTEGRAL,
            printed="exp(t/2)*(xdot*exp((t+x)/2) + 2*rho)",
            poly_targets={1: "exp(t/2)*exp((t+x)/2)", 0: "2*rho*exp(t/2)"},
        ),),
        rho1=parse("rho"), rho2=ex.ZERO,
        drift_threshold=1e-8,
        notes="x'' + (1/2)x'^2 + x' + rho*e^(-(t+x)/2) = 0, solvable in "
              "closed form; defaults (rho, I~, J~) = (1, -2, 1) keep the "
              "log argument >= 1 for all t >= 0, no blow-up; window 4.0. "
              "Initial data read off the closed-form solution at t = 0.",
    )
    return fixtures


_FIXTURES: dict[str, Fixture] | None = None


def get(fixture_id: str) -> Fixture:
    global _FIXTURES
    if _FIXTURES is None:
        _FIXTURES = _build_fixtures()
    try:
        return _FIXTURES[fixture_id]
    except KeyError:
        raise UnknownFixtureError(
            f"unknown fixture {fixture_id!r}; known: {', '.join(FIXTURE_IDS)}") from None


def ids() -> tuple[str, ...]:
    return FIXTURE_IDS


def exact_solution(rho: float, itilde: float, jtilde: float):
    """Closed-form solution of the JAC_EXACT equation:
    x(t) = 2*ln(2*rho*e^(-t/2) - (1/2)*itilde*e^(-t) + jtilde).

    Returns (x, xdot) callables; raises ValueError where the log argument
    is not positive.
    """

    def arg(t: float) -> float:
        return 2.0 * rho * math.exp(-t / 2.0) - 0.5 * itilde * math.exp(-t) + jtilde

    def arg_dot(t: float) -> float:
        return -rho * math.exp(-t / 2.0) + 0.5 * itilde * math.exp(-t)

    def x(t: float) -> float:
        a = arg(t)
        if a <= 0.0:
            raise ValueError(f"log argument {a:g} <= 0 at t = {t:g}")
        return 2.0 * math.log(a)

    def xdot(t: float) -> float:
        a = arg(t)
        if a <= 0.0:
            raise ValueError(f"log argument {a:g} <= 0 at t = {t:g}")
        return 2.0 * arg_dot(t) / a

    return x, xdot


def blowup_scan(p: JacobiProblem, horizon: float = 12.0,
                tol: float = 1e-6) -> tuple[str, float]:
    """Loose-tolerance escape scan used to choose the safe windows;
    returns (termination status, termination time)."""
    from dataclasses import replace

    from .integrate import integrate

    probe = replace(p, t_end=p.t0 + horizon)
    traj = integrate(probe, (), (tol, tol))
    return traj.termination.status, traj.t_last
