"""Command-line front end: load a problem file, run the pipeline
(classify -> construct -> integrate -> verify), emit machine-readable
reports.

Problem files are JSON objects with string-valued expression fields
{"phi", "B", "delta1"?, "delta2"?, "eta"?, "rho1"?, "rho2"?,
 "params": {...}, "t0", "t_end", "x0", "v0"}.

Exit codes: 0 pass, 1 check/drift-gate failure, 2 input error,
3 integration abort before 10% of the window.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import NamedTuple

from . import catalog
from . import expr as ex
from .expr import Expr, ParseError, parse
from .integrate import (
    REFINE,
    TOL_MAX,
    TOL_MIN,
    IntegrationError,
    drift_report,
    evaluate_along,
    integrate,
)
from . import invariants as inv
from .invariants import (
    FIRST_INTEGRAL,
    check_accumulator,
    check_general_hypotheses,
    nonlocal_autonomous,
    HypothesisError,
    DegenerateDenominatorError,
    InvariantSpec,
    NegativeRadicandError,
)
from .problem import (
    AUTONOMOUS,
    TIME_INDEPENDENT_PHI,
    CheckReport,
    JacobiProblem,
    LagrangianData,
    ProblemError,
    classify,
    validate_lagrangian,
)
from .verify import (
    ORACLE_MIN_GRID,
    PerturbationFamily,
    drift_gate,
    integrated_oracle,
    oracle_drift_report,
    oracle_vs_closed,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_ABORT = 3

SCHEMA_VERSION = 1


class InputError(Exception):
    pass


# ------------------------------------------------------------- serializer

_string = json.encoder.encode_basestring_ascii  # json.dumps' encoder of a str


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats as %.12e.  The one
    writer of a non-finite float: inf, -inf and nan, which JSON lacks, are
    99.0, -99.0 and -99.0."""
    pad = "  " * indent
    pad1 = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad1}{_string(str(k))}: {dumps(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    # exactly a list or tuple: a record (a NamedTuple) is no JSON array
    if type(obj) in (list, tuple):
        if not obj:
            return "[]"
        items = [f"{pad1}{dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            obj = 99.0 if obj > 0 else -99.0
        return "%.12e" % obj
    # the text json.dumps gives each of these
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, bool) or obj is None:
        return "null" if obj is None else ("true" if obj else "false")
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------- loading

_EXPR_KEYS = ("phi", "B", "delta1", "delta2", "eta", "rho1", "rho2")
_NUM_KEYS = ("t0", "t_end", "x0", "v0")


def _number(value) -> float:
    """A JSON number as a float, an integer beyond float range as an
    infinity of its sign; true and false are not numbers."""
    if isinstance(value, bool):
        raise TypeError("boolean is not a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def load_problem(data: dict) -> tuple[JacobiProblem, dict[str, Expr]]:
    if not isinstance(data, dict):
        raise InputError("problem file must contain a JSON object")
    for key in ("phi", "B", "t0", "t_end", "x0", "v0"):
        if key not in data:
            raise InputError(f"missing required key {key!r}")
    exprs: dict[str, Expr] = {}
    for key in _EXPR_KEYS:
        # an optional expression may be null, as if absent; phi and B not
        if data.get(key) is not None or key in ("phi", "B"):
            if not isinstance(data[key], str):
                raise InputError(f"{key!r} must be an expression string")
            try:
                exprs[key] = parse(data[key])
            except ParseError as err:
                raise InputError(f"cannot parse {key!r}: {err}") from err
    nums = {}
    for key in _NUM_KEYS:
        try:
            nums[key] = _number(data[key])
        except (TypeError, ValueError):
            raise InputError(f"{key!r} must be a number") from None
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise InputError("'params' must be an object")
    try:
        params = {str(k): _number(v) for k, v in params.items()}
    except (TypeError, ValueError):
        raise InputError("'params' values must be numbers") from None
    domain = None
    if data.get("domain") is not None:
        try:
            tmin, tmax, xmin, xmax = (_number(v) for v in data["domain"])
            domain = (tmin, tmax, xmin, xmax)
        except (TypeError, ValueError):
            raise InputError("'domain' must be [tmin, tmax, xmin, xmax]") from None
    bad = [k for k, v in (*nums.items(), *params.items()) if not math.isfinite(v)]
    if bad or not all(map(math.isfinite, domain or ())):
        raise InputError(f"{bad[0] if bad else 'domain'!r} must be finite")
    try:
        problem = JacobiProblem(phi=exprs["phi"], B=exprs["B"], params=params,
                                domain=domain, **nums)
    except ProblemError as err:
        raise InputError(str(err)) from err
    return problem, exprs


def read_problem_file(path: str) -> tuple[JacobiProblem, dict[str, Expr], dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except (ValueError, RecursionError) as err:
        # a JSONDecodeError, an integer past the digit limit, or arrays or
        # objects nested past the recursion limit
        raise InputError(f"{path} is not valid JSON: {err}") from err
    problem, exprs = load_problem(data)
    return problem, exprs, data


# ------------------------------------------------------------ pipeline

def _lagrangian_from(exprs: dict[str, Expr]) -> LagrangianData | None:
    delta1 = exprs.get("delta1")
    if delta1 is None and "eta" in exprs:
        delta1 = ex.diff(exprs["eta"], "x")
    delta2 = exprs.get("delta2")
    if delta1 is None and delta2 is None:
        return None
    return LagrangianData(delta1 if delta1 is not None else ex.ZERO,
                          delta2 if delta2 is not None else ex.ZERO,
                          eta=exprs.get("eta"))


def _report_of(check: CheckReport) -> dict:
    out = check._asdict()
    if not check.warning:
        del out["warning"]
    return out


class Construction(NamedTuple):
    """What the hypothesis checks of a run admit: the invariant specs, the
    one the oracle compares to, the Lagrangian data and, when the oracle
    is requested, its perturbation family."""

    specs: tuple[InvariantSpec, ...]
    closed: InvariantSpec | None
    lagrangian: LagrangianData | None
    family: PerturbationFamily | None

    @property
    def spec_integrands(self) -> tuple[Expr, ...]:
        """Accumulator channels of the invariant specs; simplified, first
        occurrence kept."""
        return tuple(dict.fromkeys(ex.simplify(g) for spec in self.specs
                                   for g in spec.integrands))


def run_checks(problem: JacobiProblem, exprs: dict[str, Expr],
               oracle: bool = False) -> tuple[dict, Construction]:
    """Classification, every hypothesis check the input data allows (each
    once), and the construction they admit; the one dispatch on the regime.
    With ``oracle`` the oracle's family is built too, once every
    hypothesis has passed."""
    cls = classify(problem)
    hypotheses: list[dict] = []
    specs: list[InvariantSpec] = []
    closed = family = None
    L = _lagrangian_from(exprs)

    def add(check: CheckReport):
        hypotheses.append(_report_of(check))

    try:
        if cls.tag == AUTONOMOUS:
            if "delta2" not in exprs:
                raise InputError("autonomous problems need 'delta2' "
                                 "(symbolic input preferred; see README)")
            for check in validate_lagrangian(problem, L):
                add(check)
            aux, row = inv.autonomous_aux(problem, exprs["delta2"])
            add(row)
            specs.append(inv.first_integral_autonomous(problem, exprs["delta2"]))
            closed = nonlocal_autonomous(problem, aux, +1)
            specs += [closed, nonlocal_autonomous(problem, aux, -1)]
            family = PerturbationFamily(a=aux.a, b=aux.b, sign=+1)
        elif cls.tag == TIME_INDEPENDENT_PHI:
            if "eta" not in exprs or "delta2" not in exprs:
                raise InputError("problems with time-free phi need 'eta' and 'delta2'")
            for check in validate_lagrangian(problem, L):
                add(check)
            check = check_accumulator(problem, exprs["eta"], exprs["delta2"])
            add(check)
            closed = inv.nonlocal_timedep_phi0(problem, exprs["eta"], exprs["delta2"], check)
            specs.append(closed)
            family = PerturbationFamily(a=ex.ONE, b=ex.ZERO, sign=0)
        else:
            if "rho1" not in exprs:
                raise InputError("general problems need 'rho1' (and optionally 'rho2')")
            rho1, rho2 = exprs["rho1"], exprs.get("rho2", ex.ZERO)
            checks = check_general_hypotheses(problem, rho1, rho2)
            for check in checks:
                add(check)
            closed = inv.nonlocal_general(problem, rho1, rho2, checks)
            specs.append(closed)
            first_integral = closed.kind == FIRST_INTEGRAL
            add(CheckReport("first_integral_condition", first_integral, True, ""))
            if closed.exp_closed_arg is not None:
                hypotheses[-1]["closed_form_exponent"] = ex.pprint(closed.exp_closed_arg)
            if oracle and first_integral:  # every other check passed above
                try:
                    aux = inv.general_aux(problem)
                except (HypothesisError, DegenerateDenominatorError) as err:
                    raise InputError(f"oracle family unavailable: {err}") from err
                family = PerturbationFamily(a=aux.a, b=aux.b, sign=+1)
    except (HypothesisError, NegativeRadicandError, DegenerateDenominatorError) as err:
        add(CheckReport(type(err).__name__, False, False, str(err)))

    passed = all(h["passed"] for h in hypotheses)
    if oracle and passed and L is None:
        raise InputError("--oracle needs Lagrangian data "
                         "(delta1/delta2, or eta and delta2)")
    report = {"classification": {"tag": cls.tag, "warnings": list(cls.warnings)},
              "hypotheses": hypotheses, "pass": passed}
    return report, Construction(tuple(specs), closed, L,
                                family if oracle and passed else None)


def _problem_echo(data: dict) -> dict:
    echo = {}
    for key in _EXPR_KEYS:
        if key in data and data[key] is not None:
            echo[key] = data[key]
    echo["params"] = {k: float(v) for k, v in sorted(data.get("params", {}).items())}
    for key in _NUM_KEYS:
        echo[key] = float(data[key])
    return echo


def run_pipeline(problem: JacobiProblem, exprs: dict[str, Expr], data: dict,
                 tol: float = 1e-10, grid: int = 1024, oracle: bool = False,
                 threshold: float = 1e-6) -> tuple[dict, int, object]:
    """Full pipeline; returns (report, exit_code, trajectory)."""
    report, built = run_checks(problem, exprs, oracle)
    report = {"schema": SCHEMA_VERSION, "problem": _problem_echo(data), **report}
    report["settings"] = {"tol": tol, "grid": grid, "oracle": oracle,
                          "threshold": threshold}
    if not report["pass"]:
        return report, EXIT_FAIL, None

    # one coarse/fine pair carries every channel of the run: the
    # invariants' under step control, the oracle's (b, W) after them as
    # quadratures, outside it, so they move no step of the invariants
    registered, quadratures = built.spec_integrands, ()
    if oracle:
        o_spec = integrated_oracle(problem, built.lagrangian, built.family)
        quadratures = o_spec.integrands
    traj = integrate(problem, registered, (tol, tol), quadratures)
    term = traj.termination
    report["termination"] = {"status": term.status, "t": term.t}
    if term.detail:
        report["termination"]["detail"] = term.detail
    window = problem.t_end - problem.t0
    if not term.completed and (traj.t_last - problem.t0) < 0.1 * window:
        return report, EXIT_ABORT, traj

    fine = integrate(problem, registered, (tol / REFINE, tol / REFINE), quadratures)
    # one pass per (trajectory, grid) computes every series the reports read;
    # the oracle's gate and comparison read the coarse run at the gate's grid
    o_grid = max(grid, ORACLE_MIN_GRID)
    shared = built.specs + ((o_spec,) if oracle and o_grid == grid else ())
    for run in (traj, fine):
        run.series(shared, grid)
    if oracle:
        traj.series((o_spec, built.closed), o_grid)
    all_pass = True
    inv_reports = []
    for spec in built.specs:
        rep = drift_report(spec, traj, fine, grid)
        gate = drift_gate(rep, threshold)
        all_pass = all_pass and gate
        entry = spec.to_jsonable()
        entry["drift"] = rep._asdict()
        entry["gate"] = gate
        inv_reports.append(entry)
    report["invariants"] = inv_reports

    if oracle:
        # the integrated oracle series against the closed form: the
        # discrepancy is bounded by the two series' drifts, drift(O) + drift(C)
        fam = built.family
        ser_oracle = evaluate_along(traj, o_spec, o_grid)
        if ser_oracle.error is not None:
            raise IntegrationError(f"oracle undefined on the trajectory: {ser_oracle.error}")
        disc = oracle_vs_closed(ser_oracle, evaluate_along(traj, built.closed, o_grid))
        o_rep = oracle_drift_report(o_spec, traj, fine, grid)
        o_gate = drift_gate(o_rep, 1e-5)
        all_pass = all_pass and o_gate and disc < 1e-5
        report["oracle"] = {
            "family": {"a": ex.pprint(ex.simplify(fam.a)),
                       "b": ex.pprint(ex.simplify(fam.b)),
                       "sign": fam.sign},
            "compared_to": built.closed.name,
            "max_discrepancy": disc,
            "drift": o_rep._asdict(),
            "gate": o_gate,
        }

    report["pass"] = all_pass
    return report, (EXIT_PASS if all_pass else EXIT_FAIL), traj


# ------------------------------------------------------------- commands

# what a problem file can make loading or checking raise: each is an
# ``error:`` line and exit 2
_INPUT_ERRORS = (InputError, ex.UnboundParameterError, ex.IllPosedDomainError,
                 ex.ExpressionTooLargeError)


def cmd_check(args) -> int:
    try:
        problem, exprs, data = read_problem_file(args.file)
        report, _ = run_checks(problem, exprs)
    except _INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    report = {"schema": SCHEMA_VERSION, "problem": _problem_echo(data), **report}
    print(dumps(report))
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def cmd_run(args) -> int:
    try:
        problem, exprs, data = read_problem_file(args.file)
        report, code, traj = run_pipeline(
            problem, exprs, data, tol=args.tol, grid=args.grid,
            oracle=args.oracle, threshold=args.threshold)
    except (*_INPUT_ERRORS, IntegrationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    if args.out == "csv":
        if traj is not None:
            sys.stdout.write(traj.to_csv())
        return code
    print(dumps(report))
    return code


def run_fixture(fixture_id: str, tol: float = 1e-10, grid: int = 1024,
                oracle: bool = True) -> tuple[dict, int]:
    """``run`` on a built-in fixture's problem file at its drift threshold."""
    fx = catalog.get(fixture_id)
    problem, exprs = load_problem(fx.data)
    report, code, _ = run_pipeline(problem, exprs, fx.data, tol=tol, grid=grid,
                                   oracle=oracle, threshold=fx.drift_threshold)
    return {"fixture": fixture_id, **report}, code


def cmd_catalog(args) -> int:
    if args.action == "list":
        print(dumps({"fixtures": list(catalog.ids())}))
        return EXIT_PASS
    # action == "run"
    if args.all:
        reports = []
        worst = EXIT_PASS
        for fid in catalog.ids():
            report, code = run_fixture(fid, tol=args.tol, grid=args.grid,
                                       oracle=args.oracle)
            reports.append(report)
            worst = max(worst, code)
        print(dumps(reports))
        return worst
    if not args.id:
        print("error: catalog run needs a fixture id or --all", file=sys.stderr)
        return EXIT_INPUT
    try:
        report, code = run_fixture(args.id, tol=args.tol, grid=args.grid,
                                   oracle=args.oracle)
    except catalog.UnknownFixtureError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    print(dumps(report))
    return code


def _float_arg(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


# 1024 times the default grid; a grid's arrays are allocated whole
GRID_MAX = 2 ** 20


def _grid_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if not 2 <= value <= GRID_MAX:
        raise argparse.ArgumentTypeError(
            f"grid must lie in [2, {GRID_MAX}], got {value}")
    return value


def _tol_arg(text: str) -> float:
    # the refinement run integrates at tol / REFINE, which must stay inside
    # the integrator's tolerance range
    low = TOL_MIN * REFINE
    value = _float_arg(text)
    if not low <= value <= TOL_MAX:
        raise argparse.ArgumentTypeError(
            f"tolerance must lie in [{low:g}, {TOL_MAX:g}], got {text}")
    return value


def _threshold_arg(text: str) -> float:
    value = _float_arg(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"threshold must be positive and finite, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jacobi-invariants",
        description="Construct and verify constants of motion for "
                    "Jacobi-type second-order ODEs.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="hypothesis checks only, no integration")
    p_check.add_argument("file", help="problem JSON file")
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="full pipeline on a problem file")
    p_run.add_argument("file", help="problem JSON file")
    p_run.add_argument("--tol", type=_tol_arg, default=1e-10,
                       help="integration tolerance, absolute and relative "
                            "(default 1e-10)")
    p_run.add_argument("--grid", type=_grid_arg, default=1024,
                       help="evaluation grid points (default 1024)")
    p_run.add_argument("--threshold", type=_threshold_arg, default=1e-6,
                       help="relative drift gate (default 1e-6)")
    p_run.add_argument("--oracle", action="store_true",
                       help="also run the brute-force variational oracle")
    p_run.add_argument("--out", choices=("json", "csv"), default="json",
                       help="report JSON or trajectory CSV (default json)")
    p_run.set_defaults(fn=cmd_run)

    p_cat = sub.add_parser("catalog", help="built-in fixture set")
    p_cat.add_argument("action", choices=("list", "run"))
    p_cat.add_argument("id", nargs="?", help="fixture id for 'run'")
    p_cat.add_argument("--all", action="store_true", help="run every fixture")
    p_cat.add_argument("--tol", type=_tol_arg, default=1e-10)
    p_cat.add_argument("--grid", type=_grid_arg, default=1024)
    p_cat.add_argument("--no-oracle", dest="oracle", action="store_false",
                       help="skip the oracle comparison")
    p_cat.set_defaults(fn=cmd_catalog, oracle=True)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    code = args.fn(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
