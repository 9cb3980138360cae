"""Conservation certificates: the total derivative of each constant along
the augmented motion x' = v, v' = a(t, x, v), u_k' = g_k(t, x) vanishes
identically.  The derivative is built and simplified in sympy, which
shares no code with the package's symbolic layer, from the problem's
phi and B and the spec's polynomial, dressings and integrands, so it
checks the theorem's conclusion on each instance, where the run checks
its hypotheses."""

import importlib.util
import itertools
import pathlib
import sys

import pytest

from jacobi_invariants import catalog, cli
from jacobi_invariants import expr as ex
from jacobi_invariants.invariants import InvariantSpec, general_aux
from helpers import nonlocal_general_signed, product_first_integral, to_sympy

sp = pytest.importorskip("sympy")

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
V = sp.Symbol("v", real=True)


def _signed(name: str, lo: float, hi: float):
    """The symbol with the sign the domain [lo, hi] gives it: sympy keeps a
    Piecewise or an Abs for the root of a power of a merely real symbol."""
    if lo >= 0.0:
        return sp.Symbol(name, positive=True)
    if hi <= 0.0:
        return sp.Symbol(name, negative=True)
    return sp.Symbol(name, real=True)


def certified(problem, spec: InvariantSpec) -> bool:
    """Whether dI/dt = I_t + v*I_x + a*I_v + sum_k g_k*I_{u_k} simplifies
    to 0."""
    tmin, tmax, xmin, xmax = problem.domain
    t, x = _signed("t", tmin, tmax), _signed("x", xmin, xmax)

    def to_sp(e):
        return to_sympy(sp, e, {"t": t, "x": x})

    u = sp.symbols(f"u0:{len(spec.integrands)}", real=True)
    inv = sp.Add(*(to_sp(c) * V ** d for d, c in spec.poly.items()))
    if spec.exp_sign != 0:
        inv *= sp.exp(spec.exp_sign * u[0])
    if spec.exp_closed_arg is not None:
        inv *= sp.exp(to_sp(spec.exp_closed_arg))
    inv += sp.Add(*(sp.Rational(c.numerator, c.denominator) * u[i]
                    for c, i in spec.linear_channels))
    phi = to_sp(problem.phi)
    accel = -(sp.diff(phi, x) / 2 * V ** 2 + sp.diff(phi, t) * V + to_sp(problem.B))
    d_inv = (sp.diff(inv, t) + V * sp.diff(inv, x) + accel * sp.diff(inv, V)
             + sp.Add(*(to_sp(g) * sp.diff(inv, uk) for g, uk in zip(spec.integrands, u))))
    return sp.simplify(sp.expand(d_inv)) == 0


def mutated(spec: InvariantSpec) -> InvariantSpec:
    """spec with (1/1000)*x*v added to its polynomial."""
    poly = dict(spec.poly)
    poly[1] = ex.simplify(poly.get(1, ex.ZERO) + ex.Rat(1, 1000) * ex.X)
    return InvariantSpec(spec.name, spec.kind, poly, spec.integrands, spec.exp_sign,
                         spec.linear_channels, spec.exp_closed_arg)


@pytest.mark.parametrize("fid", catalog.ids())
def test_every_fixture_constant_is_certified(fid, loaded, constructed):
    problem = loaded[fid].problem
    specs = list(constructed[fid])
    # with the constants only the tests build: (1/2)*I+*I- of the
    # autonomous dressed pair, and both signs of the general pair
    if fid in ("PG18", "PG21", "PG22"):
        specs.append(product_first_integral(specs[1], specs[2]))
    if fid == "JAC_EXACT":
        specs += [nonlocal_general_signed(problem, aux) for aux in general_aux(problem)]
    assert [spec.name for spec in specs if not certified(problem, spec)] == []


@pytest.mark.parametrize("fid", catalog.ids())
def test_a_perturbed_fixture_constant_is_not_certified(fid, loaded, constructed):
    problem = loaded[fid].problem
    assert [spec.name for spec in constructed[fid] if certified(problem, mutated(spec))] == []


def _symbolic_cases(monkeypatch, seed: int, count: int):
    # dataclasses looks the module up in sys.modules while it builds Case
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return list(itertools.islice(module.symbolic_cases(seed), count))


def test_benchmark_problems_are_certified_exactly_when_they_pass(monkeypatch):
    # the constants of a passing problem are certified; a General problem
    # that first_integral_condition refuses builds a constant that is not
    tally = {"passed": 0, "refused": 0}
    for case in _symbolic_cases(monkeypatch, 1, 60):
        problem, exprs = cli.load_problem(case.data)
        report, built = cli.run_checks(problem, exprs)
        failed = [h["name"] for h in report["hypotheses"] if not h["passed"]]
        if report["pass"]:
            tally["passed"] += 1
            assert all(certified(problem, spec) for spec in built.specs), case.data
        else:
            tally["refused"] += 1
            assert failed == ["first_integral_condition"], (case.data, failed)
            assert not certified(problem, built.closed), case.data
    assert tally["passed"] >= 40 and tally["refused"] >= 5, tally
