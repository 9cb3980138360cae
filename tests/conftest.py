import os
import pathlib
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from jacobi_invariants import catalog, cli
from jacobi_invariants import expr as ex
from jacobi_invariants.integrate import REFINE, integrate
from jacobi_invariants.problem import JacobiProblem, LagrangianData
from jacobi_invariants.verify import integrated_oracle

# pyproject's pythonpath setting puts src/ on the path of this process
# only; the commands that tests start as child processes read it here
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(pathlib.Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def all_fixtures():
    return {fid: catalog.get(fid) for fid in catalog.ids()}


class Loaded(NamedTuple):
    problem: JacobiProblem
    exprs: dict[str, ex.Expr]
    lagrangian: LagrangianData | None


@pytest.fixture(scope="session")
def loaded(all_fixtures):
    """Each fixture's problem file loaded as ``cli.run_fixture`` loads it:
    the problem, its parsed expressions and its Lagrangian data."""
    out = {}
    for fid, fx in all_fixtures.items():
        problem, exprs = cli.load_problem(fx.data)
        out[fid] = Loaded(problem, exprs, cli._lagrangian_from(exprs))
    return out


@pytest.fixture(scope="session")
def checked(loaded):
    """(problem, exprs, check report, construction) per fixture id, through
    the CLI path with the oracle's family."""
    out = {}
    for fid, (problem, exprs, _) in loaded.items():
        report, built = cli.run_checks(problem, exprs, oracle=True)
        out[fid] = (problem, exprs, report, built)
    return out


@pytest.fixture(scope="session")
def constructions(checked):
    """The ``cli.Construction`` of each fixture id."""
    return {fid: built for fid, (_, _, _, built) in checked.items()}


@pytest.fixture(scope="session")
def constructed(constructions):
    """Constructed invariant specs per fixture id."""
    return {fid: built.specs for fid, built in constructions.items()}


@pytest.fixture(scope="session")
def families(constructions):
    return {fid: built.family for fid, built in constructions.items()}


def _integrate_all(loaded, constructions, tol):
    # the channels a run with the oracle integrates: the specs' under step
    # control, the oracle's as quadratures
    out = {}
    for fid, ld in loaded.items():
        built = constructions[fid]
        oracle = integrated_oracle(ld.problem, ld.lagrangian, built.family)
        out[fid] = integrate(ld.problem, built.spec_integrands, (tol, tol), oracle.integrands)
    return out


@pytest.fixture(scope="session")
def trajectories(loaded, constructions):
    """One tol-1e-10 trajectory per fixture with the channels of the run."""
    return _integrate_all(loaded, constructions, 1e-10)


@pytest.fixture(scope="session")
def fine_trajectories(loaded, constructions):
    """The refinement partners of ``trajectories``, at 1e-10 / REFINE."""
    return _integrate_all(loaded, constructions, 1e-10 / REFINE)


# ---------------------------------------------------------------- helpers

PARAM_NAMES = ("alpha", "beta", "k")
SAFE_ENV = {"alpha": 1.25, "beta": 0.8, "k": 2.0}


def random_tree(rng: random.Random, depth: int, powers: bool = True) -> ex.Expr:
    """Random expression tree for round-trip and derivative properties."""
    if depth == 0 or rng.random() < 0.28:
        choice = rng.random()
        if choice < 0.34:
            return ex.Rat(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        if choice < 0.75:
            return ex.T if rng.random() < 0.5 else ex.X
        return ex.Param(rng.choice(PARAM_NAMES))
    op = rng.choice(["add", "sub", "mul", "div", "neg",
                     "exp", "ln", "sqrt", "sin", "cos", "pow"])
    if op in ("add", "sub", "mul", "div"):
        a, b = random_tree(rng, depth - 1, powers), random_tree(rng, depth - 1, powers)
        return {"add": a + b, "sub": a - b, "mul": a * b, "div": a / b}[op]
    if op == "neg":
        return -random_tree(rng, depth - 1, powers)
    if op == "pow":
        base = random_tree(rng, depth - 1, powers)
        den = rng.choice([1, 1, 1, 2]) if powers else 1
        return base ** ex.Rat(Fraction(rng.randint(-4, 4), den))
    fn = {"exp": ex.Exp, "ln": ex.Ln, "sqrt": ex.Sqrt, "sin": ex.Sin, "cos": ex.Cos}[op]
    return fn(random_tree(rng, depth - 1, powers))
