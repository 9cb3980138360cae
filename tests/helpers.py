"""Small functions only the tests need: a spec's compiled evaluator over
arrays and at one point, its coefficients as point functions, the
oracle's offset, the blow-up scan that chose the fixtures' windows, a
copy of an expression tree with no memo filled and an expression in
sympy.

Beside them, the constructions of the paper that the acceptance tests
check and no command reports: the product (1/2)*I+*I- of the autonomous
dressed pair, one sign of the general dressed pair, the Euler-Lagrange
residual, the closed-form solution of JAC_EXACT with its ODE residual
and the fixtures' classical forms.

Then the runs that the integrator's and the sampler's parity tests
share: the runs that end early, and each fixture's and long window's
channels.

Last, commands run in child processes bounded in memory and time, for
problem files built to exhaust them."""

import json
import math
import pathlib
import resource
import subprocess
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from jacobi_invariants import catalog, cli
from jacobi_invariants import expr as ex
from jacobi_invariants.expr import Expr, parse, simplify
from jacobi_invariants.integrate import integrate
from jacobi_invariants.invariants import (
    FIRST_INTEGRAL,
    NONLOCAL_CONSTANT,
    AuxiliaryFunctions,
    InvariantSpec,
)
from jacobi_invariants.problem import Integrand, JacobiProblem, LagrangianData
from jacobi_invariants.verify import integrated_oracle


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
    if spec.exp_sign != 0 or spec.minus_channel is not None:
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


def to_sympy(sp, e, symbols=None):
    """e as a sympy expression over real symbols, parameters included;
    ``symbols`` maps a name to the symbol to use in its place."""
    k = e.kind
    if k == ex.RAT:
        return sp.Rational(e.value.numerator, e.value.denominator)
    if k in (ex.VAR, ex.PARAM):
        return (symbols or {}).get(e.name) or sp.Symbol(e.name, real=True)
    a = [to_sympy(sp, arg, symbols) for arg in e.args]
    if k == ex.ADD:
        return sp.Add(*a)
    if k == ex.MUL:
        return sp.Mul(*a)
    if k == ex.POW:
        return a[0] ** a[1]
    return {ex.EXP: sp.exp, ex.LN: sp.log, ex.SIN: sp.sin, ex.COS: sp.cos}[k](a[0])


# ------------------------------------------- constructions the tests check

class ClassicalForm(NamedTuple):
    """Velocity powers mapped to the paper's classical first integral's
    coefficients, which equal the constructed one times ``normalization``:
    the autonomous forms are unhalved, twice the energy-like construction.
    The classical forms of PG4 and PG20 are quoted in their notes."""

    poly: dict[int, str]
    normalization: Fraction = Fraction(1)


CLASSICAL_FORMS = {
    "PG18": ClassicalForm({2: "x^(-1)", 0: "-4*x^(2)"}, Fraction(2)),
    "PG21": ClassicalForm({2: "x^(-3/2)", 0: "-4*x^(3/2)"}, Fraction(2)),
    "PG22": ClassicalForm({2: "x^(-3/2)", 0: "-4*x^(-1/2)"}, Fraction(2)),
    "JAC_EXACT": ClassicalForm({1: "exp(t/2)*exp((t+x)/2)", 0: "2*rho*exp(t/2)"}),
}


def product_first_integral(iplus: InvariantSpec, iminus: InvariantSpec) -> InvariantSpec:
    """(1/2)*I+*I-; the exponential dressings cancel pairwise and drop out."""
    if (not iplus.integrands or iplus.integrands != iminus.integrands
            or iplus.exp_sign != -iminus.exp_sign or iplus.exp_sign == 0
            or iplus.minus_channel is not None or iminus.minus_channel is not None):
        raise ValueError("inputs must share one accumulator with opposite exponential signs")
    poly: dict[int, Expr] = {}
    for d1, c1 in iplus.poly.items():
        for d2, c2 in iminus.poly.items():
            d = d1 + d2
            term = ex.HALF * c1 * c2
            poly[d] = simplify(poly[d] + term) if d in poly else simplify(term)
    poly = {d: c for d, c in poly.items() if not (c.kind == ex.RAT and c.value == 0)}
    return InvariantSpec(name="product_integral", kind=FIRST_INTEGRAL, poly=poly)


def signed_aux(aux: AuxiliaryFunctions, s: int) -> AuxiliaryFunctions:
    """The record of sign s from the plus sign's: (a, s*bbar, s*b)."""
    if s > 0:
        return aux
    return AuxiliaryFunctions(a=aux.a, bbar=simplify(-aux.bbar), b=simplify(-aux.b))


def nonlocal_general_signed(p: JacobiProblem, plus: AuxiliaryFunctions,
                            s: int) -> InvariantSpec:
    """One sign of the general dressed pair, (v + s*bbar_s)*e^(phi/2)*exp(s*u),
    u' = b_s, from the plus sign's record (``general_aux``).  Both signs
    collapse to the same constant."""
    half_phi = simplify(ex.HALF * p.phi)
    aux = signed_aux(plus, s)
    return InvariantSpec(
        name=f"general_constant_{'plus' if s > 0 else 'minus'}",
        kind=NONLOCAL_CONSTANT,
        poly={1: simplify(ex.Exp(half_phi)),
              0: simplify(ex.Rat(s) * aux.bbar * ex.Exp(half_phi))},
        integrands=(simplify(aux.b),),
        exp_sign=s,
    )


def euler_lagrange_residual(p: JacobiProblem, L: LagrangianData):
    """Closure (t, x, v, a) -> (d/dt dL/dv - dL/dx) with the chain rule expanded.

    Zero along exact solutions of the equation of motion whenever the
    Lagrangian constraint holds.
    """
    ephi = ex.Exp(p.phi)
    # d/dt(e^phi v + delta1) = e^phi(phi_t v + phi_x v^2) + e^phi a
    #                          + dt(delta1) + dx(delta1) v
    # dL/dx = (1/2) phi_x e^phi v^2 + dx(delta1) v + dx(delta2)
    c_a = ex.compile_fn(ex.simplify(ephi), p.params)
    c_v2 = ex.compile_fn(ex.simplify(ex.Rat(1, 2) * ex.diff(p.phi, "x") * ephi), p.params)
    c_v1 = ex.compile_fn(ex.simplify(ex.diff(p.phi, "t") * ephi), p.params)
    c_v0 = ex.compile_fn(ex.simplify(ex.diff(L.delta1, "t") - ex.diff(L.delta2, "x")), p.params)

    def residual(t: float, x: float, v: float, a: float) -> float:
        return c_a(t, x) * a + c_v2(t, x) * v * v + c_v1(t, x) * v + c_v0(t, x)

    return residual


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


def exact_solution_residual(rho: float, itilde: float, jtilde: float) -> float:
    """Largest |x'' + (1/2)*x'^2 + x' + rho*e^(-(t+x)/2)| of the closed-form
    solution at 200 points of [0, 4], with its analytic second derivative."""
    x, xdot = exact_solution(rho, itilde, jtilde)

    def arg(t):
        return 2 * rho * math.exp(-t / 2) - 0.5 * itilde * math.exp(-t) + jtilde

    def arg_d(t):
        return -rho * math.exp(-t / 2) + 0.5 * itilde * math.exp(-t)

    def arg_dd(t):
        return 0.5 * rho * math.exp(-t / 2) - 0.5 * itilde * math.exp(-t)

    worst = 0.0
    for t in np.linspace(0.0, 4.0, 200):
        a = arg(t)
        xdd = 2 * (arg_dd(t) * a - arg_d(t) ** 2) / a ** 2
        resid = xdd + 0.5 * xdot(t) ** 2 + xdot(t) + rho * math.exp(-(t + x(t)) / 2)
        worst = max(worst, abs(resid))
    return worst


# ------------------------------------------------------------ runs

def free_particle(t_end=1.0, x0=0.0, v0=1.0):
    return JacobiProblem(phi=ex.ZERO, B=ex.ZERO, t0=0.0, t_end=t_end, x0=x0, v0=v0)


# runs that end before t_end, all but the blow-up with rejected steps: by
# the error test, and by domain-creep retries, where a trial stage leaves
# the domain and the step shrinks.  (problem, integrands, tol, quadratures);
# in "quadrature_inf" and "channel_inf" the channel's t^200 * x^200, a
# quadrature in one and under step control in the other, overflows to inf
# without an error once t*x passes about 34.8, where x = t is 5.9.  In
# "dense_domain_abort" the forcing is undefined on a gap of 1/1000 at
# t = 0.08, which one attempt's trial stages all miss and one of its
# dense-output stages hits
EARLY_ENDS = {
    "step_failure": (JacobiProblem(phi=ex.ZERO, B=parse("1/(1/2 - t)"),
                                   t0=0.0, t_end=1.0, x0=0.0, v0=0.0), (), 1e-9, ()),
    "domain_abort": (JacobiProblem(phi=ex.ZERO, B=parse("sqrt(1/2 - t)"),
                                   t0=0.0, t_end=1.0, x0=0.0, v0=0.0), (), 1e-9, ()),
    "dense_domain_abort": (JacobiProblem(phi=ex.ZERO, B=parse("sqrt((t - 0.08)*(t - 0.081))"),
                                         t0=0.0, t_end=3.0, x0=0.0, v0=0.0), (), 1e-6, ()),
    "channel_domain_abort": (JacobiProblem(phi=ex.ZERO, B=parse("ln(1 - t)"),
                                           t0=0.0, t_end=2.0, x0=0.0, v0=0.0),
                             (parse("x"),), 1e-9, ()),
    "dressing_overflow": (free_particle(t_end=2.0),
                          (parse("800"), Integrand((ex.ONE,), sign=1, channel=parse("800"))),
                          1e-8, ()),
    "blow_up": (JacobiProblem(phi=parse("-ln(x)"), B=parse("-4*x^2"),
                              t0=0.0, t_end=3.0, x0=1.0, v0=0.0), (), 1e-8, ()),
    "quadrature_inf": (free_particle(t_end=10.0), (parse("x"),), 1e-8,
                       (parse("t^200 * x^200"),)),
    "channel_inf": (free_particle(t_end=10.0), (parse("t^200 * x^200"),), 1e-8, ()),
}
LONG_WINDOWS = ("free_oscillator_long", "forced_oscillator_long")


def load_named(name):
    """(problem, exprs) of a catalog fixture or a long-window problem file."""
    path = pathlib.Path(__file__).parent / "data" / f"{name}.json"
    return cli.load_problem(
        json.loads(path.read_text()) if name in LONG_WINDOWS else catalog.get(name).data)


def integration_case(name):
    """(problem, integrands, tol, quadratures) of an EARLY_ENDS case, or of
    a fixture or a long window with its invariants' channels and the
    oracle's as quadratures."""
    if name in EARLY_ENDS:
        return EARLY_ENDS[name]
    p, exprs = load_named(name)
    _, built = cli.run_checks(p, exprs, oracle=True)
    quadratures = integrated_oracle(p, built.lagrangian, built.family).integrands
    return p, built.spec_integrands, 1e-10, quadratures


# ------------------------------------------------------------ bounded commands

# the address space of a bounded child: 1 GB
BOUNDED_BYTES = 1 << 30


def _bound_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (BOUNDED_BYTES, BOUNDED_BYTES))


def run_bounded(*argvs, timeout: float = 60.0) -> list[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of the command line of each argv, all
    run at once, each in a child process with at most BOUNDED_BYTES of
    address space; a child still running after timeout seconds is killed
    and the call raises subprocess.TimeoutExpired.  A run that outgrows
    either bound fails its test instead of exhausting the host."""
    procs = [subprocess.Popen([sys.executable, "-m", "jacobi_invariants.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              preexec_fn=_bound_address_space)
             for argv in argvs]
    results = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=timeout)
            results.append((proc.returncode, out, err))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return results
