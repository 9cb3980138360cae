"""Built-in fixtures: five Painleve-Gambier equations in Jacobi form plus
an exactly solvable non-autonomous example.

Safe windows come from a coarse blow-up scan (integrate at tol 1e-6 over a
long horizon, record the termination time, keep at most 60% of it); the
scan results are quoted in each fixture's notes.  PG18/21/22 need x > 0,
so initial data is fixed at x0 = 1, v0 = 0.
"""

from __future__ import annotations

from typing import NamedTuple


class UnknownFixtureError(KeyError):
    pass


class Fixture(NamedTuple):
    """One built-in problem: ``data`` is the problem file that ``run``
    reads, and ``catalog run ID`` is ``run`` on it with ``drift_threshold``.
    The paper's classical forms and the closed-form solution of JAC_EXACT
    are test data, kept beside the tests that check them."""

    id: str
    data: dict
    drift_threshold: float = 1e-6
    notes: str = ""


# The expression strings are in the canonical printer's form, which the
# reports echo verbatim (tests/data/catalog_all.json pins them), so they
# must stay exactly as written.
_FIXTURES = {fx.id: fx for fx in (
    Fixture(
        id="PG18",
        data={"phi": "((-1) * ln(x))", "B": "((-4) * (x ^ 2))", "params": {},
              "t0": 0.0, "t_end": 0.4, "x0": 1.0, "v0": 0.0,
              "domain": [0.0, 0.4, 0.35, 3.0],
              "delta1": "0", "delta2": "(2 * (x ^ 2))"},
        notes="x'' - (1/2)x^-1 x'^2 - 4x^2 = 0; blow-up scan: escape at "
              "t ~ 1.308 from (1,0), 60% bound 0.78; window kept at 0.4.",
    ),
    Fixture(
        id="PG21",
        data={"phi": "((-3/2) * ln(x))", "B": "((-3) * (x ^ 2))", "params": {},
              "t0": 0.0, "t_end": 0.8, "x0": 1.0, "v0": 0.0,
              "domain": [0.0, 0.8, 0.35, 3.0],
              "delta1": "0", "delta2": "(2 * (x ^ (3/2)))"},
        notes="x'' - (3/4)x^-1 x'^2 - 3x^2 = 0; blow-up scan: escape at "
              "t ~ 1.399 from (1,0); window 0.8 = 60%.",
    ),
    Fixture(
        id="PG22",
        data={"phi": "((-3/2) * ln(x))", "B": "1", "params": {},
              "t0": 0.0, "t_end": 1.2, "x0": 1.0, "v0": 0.0,
              "domain": [0.0, 1.2, 0.35, 3.0],
              "delta1": "0", "delta2": "(2 * (x ^ (-1/2)))"},
        notes="x'' - (3/4)x^-1 x'^2 + 1 = 0; the orbit from (1,0) touches "
              "x = 0 at t = 2 exactly (x = (1 - t^2/4)^2), where ln x "
              "leaves its domain; window 1.2 = 60%.",
    ),
    Fixture(
        id="PG4",
        data={"phi": "0", "B": "(-((6 * (x ^ 2)) + t))", "params": {},
              "t0": 0.0, "t_end": 0.7, "x0": 1.0, "v0": 0.0,
              "domain": [0.0, 0.7, 0.35, 3.0],
              "delta1": "(((-6) * (x ^ 2)) * t)", "delta2": "(t * x)",
              "eta": "(((-2) * (x ^ 3)) * t)"},
        notes="x'' - (6x^2 + t) = 0; blow-up scan: escape at t ~ 1.204 "
              "from (1,0); window 0.7 = 60%.  Classical form: "
              "(1/2)*xdot^2 - 2*x^3 - x*t + Int[x].",
    ),
    Fixture(
        id="PG20",
        data={"phi": "(-ln(x))", "B": "(((-2) * x) * ((2 * x) + t))", "params": {},
              "t0": 0.0, "t_end": 0.75, "x0": 1.0, "v0": 0.0,
              "domain": [0.0, 0.75, 0.35, 3.0],
              "delta1": "(-(t ^ 2))", "delta2": "(2 * (x ^ 2))",
              "eta": "((-(t ^ 2)) * x)"},
        notes="x'' - (1/2)x^-1 x'^2 - 4x^2 - 2tx = 0; blow-up scan: escape "
              "at t ~ 1.260 from (1,0); window 0.75 = 60%.  Classical form: "
              "(1/2)*xdot^2*x^(-1) - 2*x*(x+t) + 2*Int[x]; the integral "
              "term enters with +2*Int[x]: differentiating along solutions "
              "fixes this sign.",
    ),
    Fixture(
        id="JAC_EXACT",
        data={"phi": "(t + x)", "B": "(rho * exp(((-(t + x)) / 2)))",
              "params": {"rho": 1.0},
              "t0": 0.0, "t_end": 4.0, "x0": 2.772588722239781, "v0": -1.0,
              "domain": [0.0, 4.0, 0.0, 3.0],
              "delta1": "((2 * rho) * exp(((t + x) / 2)))", "delta2": "0",
              "rho1": "rho", "rho2": "0"},
        drift_threshold=1e-8,
        notes="x'' + (1/2)x'^2 + x' + rho*e^(-(t+x)/2) = 0, solvable in "
              "closed form; defaults (rho, I~, J~) = (1, -2, 1) keep the "
              "log argument >= 1 for all t >= 0, no blow-up; window 4.0. "
              "Initial data read off the closed-form solution at t = 0: "
              "x0 = 2*ln(4), v0 = -1.",
    ),
)}


def get(fixture_id: str) -> Fixture:
    try:
        return _FIXTURES[fixture_id]
    except KeyError:
        raise UnknownFixtureError(
            f"unknown fixture {fixture_id!r}; known: {', '.join(_FIXTURES)}") from None


def ids() -> tuple[str, ...]:
    return tuple(_FIXTURES)
