"""Jacobi-type second-order ODE problems and their variational structure.

A problem is the equation  x'' + (1/2)*phi_x*x'^2 + phi_t*x' + B = 0  with
coefficient functions phi(t,x) and B(t,x).  It derives from the Lagrangian
L = (1/2)*e^phi*x'^2 + delta1*x' + delta2 whenever the deltas satisfy
d_t(delta1) - d_x(delta2) = e^phi * B.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from . import expr as ex
from .expr import Expr, DomainError, zero_check, ZeroCheck

AUTONOMOUS = "Autonomous"
TIME_INDEPENDENT_PHI = "TimeIndependentPhi"
GENERAL = "General"

# shortest side of a domain, relative to 1 + its largest |bound|
MIN_SIDE = 1e-6


class ProblemError(Exception):
    pass


def default_domain(t0: float, t_end: float, x0: float) -> tuple[float, float, float, float]:
    span = 2.0 * abs(x0) + 1.0
    return (t0, t_end, x0 - span, x0 + span)


class Frozen:
    """Base of the slotted classes whose caches assume that they never
    change: assigning or deleting an attribute raises AttributeError, so
    ``__init__`` and the caches write through ``object.__setattr__``.
    Equality, hashing, the repr and copies go by the public slots, which
    ``__init__`` takes in the same order; a copy starts with empty caches."""

    __slots__ = ()

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        names = (name for name in self.__slots__ if name[0] != "_")
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: it is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: it is immutable")


class JacobiProblem(Frozen):
    """Coefficients, parameters, initial state and sampling domain."""

    # the last rhs() built, as (channels, function); the problem is immutable
    __slots__ = ("phi", "B", "params", "t0", "t_end", "x0", "v0", "domain", "_rhs")

    def __init__(self, phi: Expr, B: Expr, params: dict[str, float] | None = None,
                 t0: float = 0.0, t_end: float = 1.0, x0: float = 0.0, v0: float = 0.0,
                 domain: tuple[float, float, float, float] | None = None):
        self._set(phi=phi, B=B, params={} if params is None else params, t0=t0,
                  t_end=t_end, x0=x0, v0=v0, domain=domain, _rhs=None)
        if not self.t_end > self.t0:
            raise ProblemError(f"t_end ({self.t_end}) must exceed t0 ({self.t0})")
        if self.domain is not None:
            # every sample point of a degenerate rectangle shares a t or an
            # x, so a sampled zero test there can pass a false identity
            tmin, tmax, xmin, xmax = self.domain
            if not (tmin < tmax and xmin < xmax):
                raise ProblemError(f"domain {list(self.domain)} must have "
                                   "tmin < tmax and xmin < xmax")
        try:
            ex.evaluate(self.phi, self.t0, self.x0, self.params)
            ex.evaluate(self.B, self.t0, self.x0, self.params)
        except DomainError as err:
            raise ProblemError(f"coefficients undefined at the initial point: {err}") from err
        if self.domain is None:
            object.__setattr__(self, "domain", default_domain(self.t0, self.t_end, self.x0))
        tmin, tmax, xmin, xmax = self.domain
        # the step bounds scale with the window and the sample points with
        # the domain; a width beyond float range makes them inf or nan
        if not all(map(math.isfinite, (self.t_end - self.t0, tmax - tmin, xmax - xmin))):
            raise ProblemError(f"window [{self.t0}, {self.t_end}] and domain "
                               f"{list(self.domain)} must have widths within float range")
        # the integrator's step floor is 1e-12 of the window; below the
        # smallest normal float, steps round to zero or past the window
        if 1e-12 * (self.t_end - self.t0) < sys.float_info.min:
            raise ProblemError(f"window [{self.t0}, {self.t_end}] is too narrow to integrate: "
                               f"1e-12*(t_end - t0) must be at least {sys.float_info.min!r}")
        if domain is None:
            return
        # the sampled zero test compares with an absolute 1e-12, which a
        # residual vanishing to second order at a point of the box stays
        # under when a side is shorter than about 1e-6
        if any(hi - lo < MIN_SIDE * (1.0 + max(abs(lo), abs(hi)))
               for lo, hi in ((tmin, tmax), (xmin, xmax))):
            raise ProblemError(
                f"domain {list(self.domain)} is too thin for the zero test: each "
                f"side must be at least {MIN_SIDE:g}*(1 + its largest |bound|)")
        if not (tmin <= self.t0 <= tmax and xmin <= self.x0 <= xmax):
            raise ProblemError(f"domain {list(self.domain)} must contain the "
                               f"initial point (t0, x0) = ({self.t0}, {self.x0})")


class Classification(NamedTuple):
    tag: str
    warnings: tuple[str, ...] = ()

    def __str__(self):
        return self.tag


class LagrangianData(NamedTuple):
    """delta1/delta2 pair; eta optional with delta1 = d_x(eta)."""

    delta1: Expr
    delta2: Expr
    eta: Expr | None = None


class CheckReport(NamedTuple):
    """Outcome of one hypothesis/residual check."""

    name: str
    passed: bool
    structural: bool
    residual: str
    warning: str | None = None


def vanishes(p: JacobiProblem, e: Expr) -> ZeroCheck:
    """The zero test of e on the problem's domain with its parameters,
    true when e vanishes there; every hypothesis test of a run is one."""
    return zero_check(e, p.domain, params=p.params)


def check(p: JacobiProblem, name: str, residual: Expr) -> CheckReport:
    """The hypothesis row ``name``: whether residual vanishes on the
    problem's domain, and the residual's normal form."""
    zc = vanishes(p, residual)
    return CheckReport(name, zc.is_zero, zc.structural,
                       ex.pprint(ex.simplify(residual)), zc.warning)


def classify(p: JacobiProblem) -> Classification:
    """Split into the three regimes by whether phi_t and B_t vanish."""
    zc_phi = vanishes(p, ex.diff(p.phi, "t"))
    warnings = []
    if zc_phi.warning:
        warnings.append("phi_t: " + zc_phi.warning)
    if not zc_phi:
        return Classification(GENERAL, tuple(warnings))
    zc_B = vanishes(p, ex.diff(p.B, "t"))
    if zc_B.warning:
        warnings.append("B_t: " + zc_B.warning)
    if zc_B:
        return Classification(AUTONOMOUS, tuple(warnings))
    return Classification(TIME_INDEPENDENT_PHI, tuple(warnings))


class Integrand(Frozen):
    """An accumulator integrand polynomial in the velocity, optionally
    dressed by the exponential of another channel:
    exp(sign*u) * (c_0 + c_1*v + c_2*v^2 + ..) with coefficients c_d(t, x),
    where u is the channel that integrates ``channel``.  sign 0 drops the
    dressing.  A bare Expr g(t, x) is the undressed degree-0 case.
    Equality is structural, since trajectories match channels by it."""

    __slots__ = ("coeffs", "sign", "channel")

    def __init__(self, coeffs: tuple[Expr, ...], sign: int = 0, channel: Expr | None = None):
        if not coeffs:
            raise ValueError("an integrand needs at least one coefficient")
        if sign not in (-1, 0, 1) or (sign != 0) == (channel is None):
            raise ValueError("a dressing needs a sign of -1 or +1 and a channel")
        self._set(coeffs=coeffs, sign=sign, channel=channel)

    def __str__(self):
        body = " + ".join(f"{c} * xdot^{d}" for d, c in enumerate(self.coeffs))
        if self.sign == 0:
            return f"({body})"
        return f"exp({self.sign} * Int[{self.channel}]) * ({body})"


def canonical(g: Expr | Integrand) -> Expr | Integrand:
    """A channel integrand with every expression simplified, the form in
    which a trajectory registers and matches it."""
    if isinstance(g, Expr):
        return ex.simplify(g)
    return Integrand(tuple(ex.simplify(c) for c in g.coeffs), g.sign,
                     None if g.channel is None else ex.simplify(g.channel))


def read_channel(integrands: tuple[Expr | Integrand, ...]) -> int | None:
    """Index of the one channel whose value the dressed integrands read,
    None when none is dressed."""
    read = {g.channel for g in integrands if isinstance(g, Integrand) and g.sign != 0}
    if not read:
        return None
    if len(read) > 1:
        raise ProblemError("integrands read more than one channel")
    channel = read.pop()
    if channel not in integrands:
        raise ProblemError(f"dressing channel {channel} is not registered")
    return integrands.index(channel)


def rhs(p: JacobiProblem, integrands: tuple[Expr | Integrand, ...] = ()):
    """Right-hand side of the first-order system, one fused function
    (t, x, v[, u]) -> (v, a, g_0, ..): the acceleration
    a = -(phi_x/2 v^2 + phi_t v + B) and one integrand per accumulator
    channel, compiled as given.  u is the value of the channel that
    ``read_channel`` names, and is passed only when there is one.

    Built once per problem and channel tuple: the problem keeps the last
    function built, which every integration of a coarse/fine pair shares.
    """
    if p._rhs is None or p._rhs[0] != integrands:
        object.__setattr__(p, "_rhs", (integrands, _fused_rhs(p, integrands)))
    return p._rhs[1]


def _fused_rhs(p: JacobiProblem, integrands: tuple[Expr | Integrand, ...]):
    # the acceleration's terms, a structurally zero phi_x or phi_t one left out
    exprs, accel = {}, []
    for name, e, term in (("phi_x", ex.diff(p.phi, "x"), "0.5*{phi_x}*v*v"),
                          ("phi_t", ex.diff(p.phi, "t"), "{phi_t}*v"),
                          ("B", ex.simplify(p.B), "{B}")):
        if e != ex.ZERO or name == "B":
            exprs[name] = e
            accel.append(term)
    channels = []
    for i, g in enumerate(integrands):
        if isinstance(g, Expr):
            exprs[f"g{i}"] = g
            channels.append(f"{{g{i}}}")
            continue
        terms = {d: f"g{i}_{d}" for d, c in enumerate(g.coeffs) if c != ex.ZERO}
        exprs.update({name: g.coeffs[d] for d, name in terms.items()})
        channels.append(ex.velocity_poly(terms, g.sign, "u0"))
    template = (f"(v, -({' + '.join(accel)})"
                + "".join(f", {c}" for c in channels) + ")")
    return ex.compile_fused(template, exprs, p.params,
                            int(read_channel(integrands) is not None))


def lagrangian_residual_expr(p: JacobiProblem, L: LagrangianData) -> Expr:
    """d_t(delta1) - d_x(delta2) - e^phi*B, simplified."""
    return ex.simplify(
        ex.diff(L.delta1, "t") - ex.diff(L.delta2, "x") - ex.Exp(p.phi) * p.B
    )


def validate_lagrangian(p: JacobiProblem, L: LagrangianData) -> list[CheckReport]:
    """Check the defining constraint, and delta1 = d_x(eta) when eta is given."""
    reports = [check(p, "lagrangian_constraint", lagrangian_residual_expr(p, L))]
    if L.eta is not None:
        reports.append(check(p, "delta1_is_dx_eta",
                             ex.simplify(L.delta1 - ex.diff(L.eta, "x"))))
    return reports
