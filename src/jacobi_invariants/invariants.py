"""Constructors for constants of motion of the Jacobi-type equation.

Three regimes:

* autonomous (phi_t = B_t = 0): an exponential-dressed pair I+/I- built
  from the factorization B = b*Bbar, and the energy-like first integral
  (1/2)*v^2*e^phi - delta2, which equals (1/2)*I+*I-;
* phi_t = 0, B_t != 0: a constant with one additive accumulator channel,
  (1/2)*v^2*e^phi + (eta_t - delta2) - int d_t(eta_t - delta2) dt;
* phi_t != 0: a single exponential-dressed constant built from the
  decomposition B*e^phi = rho1*e^(phi/2) + rho2, downgraded to a true
  first integral when the exponent integrand depends on t alone.

Every accumulator integrand is a function of t and x only; velocities
never enter the integral terms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import expr as ex
from .expr import Expr, pprint, simplify
from .problem import CheckReport, Frozen, JacobiProblem, check, vanishes

FIRST_INTEGRAL = "FirstIntegral"
NONLOCAL_CONSTANT = "NonlocalConstant"


class HypothesisError(Exception):
    def __init__(self, message: str, residual: Expr | None = None):
        if residual is not None:
            message = f"{message}; residual {pprint(simplify(residual))}"
        super().__init__(message)
        self.residual = residual


class NegativeRadicandError(Exception):
    def __init__(self, point: tuple[float, float], value: float):
        super().__init__(f"radicand {value:g} < 0 at (t={point[0]:g}, x={point[1]:g})")
        self.point = point
        self.value = value


class DegenerateDenominatorError(Exception):
    pass


class AuxiliaryFunctions(NamedTuple):
    """Amplitude/factorization data of the dressed pair's plus sign; the
    minus sign's is (a, -bbar, -b).

    bbar and b factor the forcing term (bbar*b == B on the domain); the
    amplitude a = e^(-phi/2) kills the v^2 term of the perturbed action.
    """

    a: Expr
    bbar: Expr
    b: Expr


class InvariantSpec(Frozen):
    """A constructed constant of motion.

    The local part is a polynomial in the velocity with (t,x)-coefficients,
    optionally dressed by exp(sign*u0) for its first accumulator channel
    and/or a closed-form factor exp(g(t)), minus the channel
    ``minus_channel`` when one is given.  Channel indices refer to this
    spec's own ``integrands`` tuple.
    """

    # the last evaluator compiled, as (params items, function); the spec is
    # immutable
    __slots__ = ("name", "kind", "poly", "integrands", "exp_sign", "minus_channel",
                 "exp_closed_arg", "_compiled")

    def __init__(self, name: str, kind: str, poly: dict[int, Expr],
                 integrands: tuple[Expr, ...] = (), exp_sign: int = 0,
                 minus_channel: int | None = None,
                 exp_closed_arg: Expr | None = None):
        self._set(name=name, kind=kind, poly=poly, integrands=integrands, exp_sign=exp_sign,
                  minus_channel=minus_channel, exp_closed_arg=exp_closed_arg,
                  _compiled=None)

    def compiled(self, params: dict[str, float] | None = None):
        """Evaluator over many states: ``fn(T, X, V, U0, ..) -> (values,
        err)`` with T, X, V equal-length sequences of Python floats and one
        ``U`` per channel of this spec.  Matches a point-by-point scalar
        loop: values cover the points before the first one outside the
        domain, err is that point's DomainError (None when every point
        evaluates).  Compiled once per params: the spec keeps the last
        evaluator, which its coarse and fine series share."""
        key = tuple(sorted((params or {}).items()))
        if self._compiled is None or self._compiled[0] != key:
            object.__setattr__(self, "_compiled", (key, self._compile(params)))
        return self._compiled[1]

    def _compile(self, params: dict[str, float] | None):
        exprs = {f"c{d}": c for d, c in sorted(self.poly.items())}
        template = ex.velocity_poly({d: f"c{d}" for d in self.poly}, self.exp_sign, "u0")
        if self.exp_closed_arg is not None:
            exprs["closed"] = self.exp_closed_arg
            template = f"({template})*math.exp({{closed}})"
        if self.minus_channel is not None:
            template += f" + (-1.0)*u{self.minus_channel}"
        return ex.compile_series(template, exprs, params, len(self.integrands))

    def printed(self) -> str:
        parts = []
        for d in sorted(self.poly, reverse=True):
            c = pprint(simplify(self.poly[d]))
            if d == 0:
                parts.append(c)
            elif d == 1:
                parts.append(f"{c} * xdot")
            else:
                parts.append(f"{c} * xdot^{d}")
        body = " + ".join(parts) if parts else "0"
        if self.exp_sign != 0:
            g = pprint(simplify(self.integrands[0]))
            s = "-" if self.exp_sign < 0 else ""
            body = f"({body}) * exp({s}Int[{g}])"
        if self.exp_closed_arg is not None:
            body = f"({body}) * exp({pprint(simplify(self.exp_closed_arg))})"
        if self.minus_channel is not None:
            g = pprint(simplify(self.integrands[self.minus_channel]))
            body += f" + (-1) * Int[{g}]"
        return body

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "expression": self.printed(),
            "accumulators": [pprint(simplify(g)) for g in self.integrands],
        }


# ------------------------------------------------------------ autonomous
# The builders assume the regime and the hypotheses that cli.run_checks,
# the one dispatch on the regime, has classified and checked.

def autonomous_aux(p: JacobiProblem,
                   delta2: Expr) -> tuple[AuxiliaryFunctions, CheckReport]:
    """Factorization data for the autonomous dressed pair, and its one
    test, the ``square_factor_ode`` row: with y = bbar^2 the row's
    residual y_x + phi_x*y + 2B is -2*(bbar*b - B).

    Builds a = e^(-phi/2), bbar = sqrt(2*delta2*e^(-phi)) (principal root)
    and b = -(1/2)*phi_x*bbar - bbar_x.
    """
    # guard the radicand in its defining form: points where e^(-phi) itself
    # is undefined lie outside the problem domain and are skipped
    raw_radicand = ex.Rat(2) * delta2 * ex.Exp(-p.phi)
    radicand_at = ex.compile_fn(raw_radicand, p.params)
    for (tv, xv) in ex.sample_points(p.domain):
        try:
            val = radicand_at(tv, xv)
        except ex.DomainError:
            continue
        if val < 0.0:
            raise NegativeRadicandError((tv, xv), val)
    radicand = simplify(raw_radicand)
    a = simplify(ex.Exp(ex.Rat(-1, 2) * p.phi))
    bbar = simplify(ex.Sqrt(radicand))
    b = simplify(ex.Rat(-1, 2) * ex.diff(p.phi, "x") * bbar - ex.diff(bbar, "x"))
    row = check_y_ode(p, bbar)
    if not row.passed:
        raise HypothesisError("factorization bbar*b == B fails", bbar * b - p.B)
    return AuxiliaryFunctions(a=a, bbar=bbar, b=b), row


def check_y_ode(p: JacobiProblem, bbar: Expr) -> CheckReport:
    """Residual of d_x(bbar^2) + phi_x*bbar^2 + 2B."""
    y = simplify(bbar * bbar)
    return check(p, "square_factor_ode",
                 simplify(ex.diff(y, "x") + ex.diff(p.phi, "x") * y + ex.Rat(2) * p.B))


def first_integral_autonomous(p: JacobiProblem, delta2: Expr) -> InvariantSpec:
    """Energy-like first integral (1/2)*v^2*e^phi - delta2."""
    # its hypothesis -d_x(delta2) = e^phi*B is the factorization bbar*b == B
    # times e^phi, which autonomous_aux checks
    return InvariantSpec(name="energy_integral", kind=FIRST_INTEGRAL,
                         poly={2: simplify(ex.HALF * ex.Exp(p.phi)), 0: simplify(-delta2)})


def nonlocal_autonomous(p: JacobiProblem, aux: AuxiliaryFunctions, sign: int) -> InvariantSpec:
    """Dressed constant (v +/- bbar)*e^(phi/2)*exp(-/+ u), u' = -b, for
    sign +1 or -1."""
    half_phi = simplify(ex.HALF * p.phi)
    return InvariantSpec(
        name=f"dressed_constant_{'plus' if sign > 0 else 'minus'}",
        kind=NONLOCAL_CONSTANT,
        poly={1: simplify(ex.Exp(half_phi)),
              0: simplify(ex.Rat(sign) * aux.bbar * ex.Exp(half_phi))},
        integrands=(simplify(-aux.b),),
        exp_sign=-sign,
    )


# ------------------------------------------------- time-independent phi

def check_accumulator(p: JacobiProblem, eta: Expr, delta2: Expr) -> CheckReport:
    """Residual of e^phi*B - d_x(eta_t - delta2), the hypothesis of the
    phi_t = 0 construction."""
    psi = simplify(ex.diff(eta, "t") - delta2)
    return check(p, "accumulator_hypothesis",
                 simplify(ex.Exp(p.phi) * p.B - ex.diff(psi, "x")))


def nonlocal_timedep_phi0(p: JacobiProblem, eta: Expr, delta2: Expr,
                          check: CheckReport) -> InvariantSpec:
    """Accumulator constant for phi_t = 0:
    (1/2)*v^2*e^phi + (eta_t - delta2) - int d_t(eta_t - delta2) dt.

    Requires e^phi*B = d_x(eta_t - delta2), the hypothesis that ``check``
    (from check_accumulator) reports; a true first integral when the
    accumulator integrand vanishes, which it does on autonomous problems.
    """
    if not check.passed:
        raise HypothesisError(
            f"e^phi*B = d_x(eta_t - delta2) fails; residual {check.residual}")
    psi = simplify(ex.diff(eta, "t") - delta2)
    integrand = simplify(ex.diff(psi, "t"))
    return InvariantSpec(
        name="accumulator_constant",
        kind=FIRST_INTEGRAL if integrand == ex.ZERO else NONLOCAL_CONSTANT,
        poly={2: simplify(ex.HALF * ex.Exp(p.phi)), 0: psi},
        integrands=(integrand,),
        minus_channel=0,
    )


# ------------------------------------------------------------- general

def general_aux(p: JacobiProblem) -> AuxiliaryFunctions:
    """Factorization for phi_t != 0, the plus sign's record:
    bbar = 4*(B_t + B*phi_t) / (2*phi_tt + phi_t^2),
    b    = (1/4)*(2*phi_tt + phi_t^2) / (d_t ln B + phi_t).
    """
    phi_t = ex.diff(p.phi, "t")
    den = simplify(ex.Rat(2) * ex.diff(phi_t, "t") + phi_t * phi_t)
    if vanishes(p, den):
        raise DegenerateDenominatorError("2*phi_tt + phi_t^2 vanishes identically")
    den2 = simplify(ex.diff(ex.Ln(p.B), "t") + phi_t)
    if vanishes(p, den2):
        raise DegenerateDenominatorError("d_t ln B + phi_t vanishes identically")
    num = simplify(ex.diff(p.B, "t") + p.B * phi_t)
    bbar = simplify(ex.Rat(4) * num / den)
    b = simplify(ex.Rat(1, 4) * den / den2)
    product_residual = simplify(bbar * b - p.B)
    if not vanishes(p, product_residual):
        raise HypothesisError("factorization bbar*b == B fails", product_residual)
    return AuxiliaryFunctions(a=simplify(ex.Exp(ex.Rat(-1, 2) * p.phi)), bbar=bbar, b=b)


def check_general_hypotheses(p: JacobiProblem, rho1: Expr, rho2: Expr) -> list[CheckReport]:
    """Both structural hypotheses of the general construction:
    B*e^phi = rho1*e^(phi/2) + rho2 and
    rho1' = d_t(ln phi_t) * (e^(phi/2) + rho2/rho1),
    with rho1, rho2 functions of x alone and rho1 not identically zero.
    """
    if vanishes(p, rho1):
        raise HypothesisError("rho1 must not vanish identically")
    reports = [check(p, "rho1_time_free", ex.diff(rho1, "t")),
               check(p, "rho2_time_free", ex.diff(rho2, "t"))]
    half_phi = simplify(ex.HALF * p.phi)
    reports.append(check(p, "forcing_decomposition",
                         simplify(p.B * ex.Exp(p.phi) - rho1 * ex.Exp(half_phi) - rho2)))
    growth = simplify(ex.diff(ex.Ln(ex.diff(p.phi, "t")), "t"))
    reports.append(check(p, "rho_compatibility",
                         simplify(ex.diff(rho1, "x")
                                  - growth * (ex.Exp(half_phi) + simplify(rho2 / rho1)))))
    return reports


def _antiderivative_t(g: Expr) -> Expr | None:
    """Closed-form antiderivative in t for the downgrade table:
    constants, powers of t, and exp(linear in t); sums and constant
    multiples thereof.  None when the shape is not recognized."""
    g = simplify(g)
    terms = g.args if g.kind == ex.ADD else (g,)
    parts = []
    for term in terms:
        c, core = ex._as_coeff_core(term)
        if core is None:
            parts.append(ex.Rat(c) * ex.T)
            continue
        if ex.depends_on(core, "x"):
            return None
        if core.kind == ex.VAR:  # t itself
            parts.append(ex.Rat(c, 2) * ex.T ** ex.Rat(2))
            continue
        if (core.kind == ex.POW and core.args[0].kind == ex.VAR
                and core.args[1].kind == ex.RAT and core.args[1].value != -1):
            k = core.args[1].value
            parts.append(ex.Rat(c, k + 1) * ex.T ** ex.Rat(k + 1))
            continue
        if core.kind == ex.EXP:
            arg = core.args[0]
            slope = simplify(ex.diff(arg, "t"))
            if slope.kind == ex.RAT and slope.value != 0 and \
                    simplify(ex.diff(slope, "t")) == ex.ZERO:
                parts.append(ex.Rat(c, slope.value) * core)
                continue
        return None
    out = parts[0]
    for part in parts[1:]:
        out = out + part
    return simplify(out)


def nonlocal_general(p: JacobiProblem, rho1: Expr, rho2: Expr,
                     reports: list[CheckReport]) -> InvariantSpec:
    """Dressed constant for phi_t != 0:
    (v*e^(phi/2) + 2*rho1/D) * exp(int (D/2)*(1 + (rho2/rho1)*e^(-phi/2)) dt)
    with D = d_t(2*ln(phi_t) + phi).  Downgraded to a first integral with a
    closed-form exponent when the integrand depends on t alone.  Requires
    the hypotheses that ``reports`` (from check_general_hypotheses) cover.
    """
    failed = [r for r in reports if not r.passed]
    if failed:
        raise HypothesisError(f"hypothesis {failed[0].name} fails "
                              f"(residual {failed[0].residual})")
    phi_t = ex.diff(p.phi, "t")
    D = simplify(ex.diff(simplify(ex.Rat(2) * ex.Ln(phi_t) + p.phi), "t"))
    if vanishes(p, D):
        raise DegenerateDenominatorError("d_t(2*ln(phi_t) + phi) vanishes identically")
    half_phi = simplify(ex.HALF * p.phi)
    quotient = simplify(rho2 / rho1)
    integrand = simplify(ex.HALF * D * (ex.ONE + quotient * ex.Exp(-half_phi)))
    poly = {1: simplify(ex.Exp(half_phi)),
            0: simplify(ex.Rat(2) * rho1 / D)}
    t_only = not ex.depends_on(integrand, "x")
    F = _antiderivative_t(integrand) if t_only else None
    if F is not None:
        F0 = simplify(ex.substitute(F, "t", ex.Rat(Fraction(p.t0))))
        return InvariantSpec(name="general_constant", kind=FIRST_INTEGRAL, poly=poly,
                             exp_closed_arg=simplify(F - F0))
    # an integrand of t alone still makes a point function of (t, x, v);
    # the channel is kept for evaluation
    return InvariantSpec(name="general_constant",
                         kind=FIRST_INTEGRAL if t_only else NONLOCAL_CONSTANT,
                         poly=poly, integrands=(integrand,), exp_sign=+1)
