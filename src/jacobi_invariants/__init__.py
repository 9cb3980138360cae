"""Symbolic-numeric constants of motion for Jacobi-type second-order ODEs."""

from .expr import (
    DomainError,
    Expr,
    ParseError,
    diff,
    evaluate,
    parse,
    pprint,
    simplify,
)
from .integrate import DriftReport, Trajectory, drift_report, evaluate_along, integrate
from .invariants import (
    AuxiliaryFunctions,
    InvariantSpec,
    autonomous_aux,
    check_accumulator,
    check_general_hypotheses,
    check_y_ode,
    first_integral_autonomous,
    general_aux,
    nonlocal_autonomous,
    nonlocal_general,
    nonlocal_timedep_phi0,
)
from .problem import (
    Classification,
    JacobiProblem,
    LagrangianData,
    classify,
    rhs,
    validate_lagrangian,
)
from .verify import PerturbationFamily, drift_gate, oracle_constant

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryFunctions",
    "Classification",
    "DomainError",
    "DriftReport",
    "Expr",
    "InvariantSpec",
    "JacobiProblem",
    "LagrangianData",
    "ParseError",
    "PerturbationFamily",
    "Trajectory",
    "autonomous_aux",
    "check_accumulator",
    "check_general_hypotheses",
    "check_y_ode",
    "classify",
    "diff",
    "drift_gate",
    "drift_report",
    "evaluate",
    "evaluate_along",
    "first_integral_autonomous",
    "general_aux",
    "integrate",
    "nonlocal_autonomous",
    "nonlocal_general",
    "nonlocal_timedep_phi0",
    "oracle_constant",
    "parse",
    "pprint",
    "rhs",
    "simplify",
    "validate_lagrangian",
]
