"""Seeded workload generators and output checks for the benchmark.

Every problem is a plain dict in the CLI's problem-file format; the
program under test only ever receives that dict (or, for the catalog
workload, a fixture id).  What a generator built in travels beside the
dict in ``Case.expect`` and is used only to check the program's output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

CATALOG_IDS = ("PG18", "PG21", "PG22", "PG4", "PG20", "JAC_EXACT")

# final-state tolerance against the closed-form solution on long_window,
# relative to 1 + amplitude; the observed error at tol 1e-10 is ~1e-9
CLOSED_FORM_TOL = 1e-7


@dataclass(frozen=True)
class Case:
    """One problem: the input the program sees plus what it must produce."""

    data: dict | None
    fixture: str | None = None
    expect: dict = field(default_factory=dict)


# ------------------------------------------------------------ catalog_oracle

def catalog_cases(seed: int):
    """The six built-in fixtures in catalog order, round after round.

    Pinned: the seed is ignored, as for ``catalog run --all``.
    """
    del seed
    while True:
        for fid in CATALOG_IDS:
            yield Case(data=None, fixture=fid, expect={"exit": 0})


# ---------------------------------------------------------------- long_window

def _free_oscillator(rng: random.Random) -> Case:
    """x'' + k2*x = 0 in the Autonomous regime, delta2 = c - k2*x^2/2."""
    k2, x0, v0, k = _oscillator_data(rng)
    t_end = rng.uniform(4.0, 4.5) * 2.0 * math.pi / k
    energy = 0.5 * v0 * v0 + 0.5 * k2 * x0 * x0
    c = round(rng.uniform(1.2, 2.0) * energy, 6)
    # Bbar = sqrt(2c - k2 x^2) must stay real on the whole domain
    xmax = 0.999 * math.sqrt(2.0 * c / k2)
    data = {"phi": "0", "B": "k2*x", "delta2": "c - k2*x^2/2",
            "params": {"k2": k2, "c": c},
            "t0": 0.0, "t_end": t_end, "x0": x0, "v0": v0,
            "domain": [0.0, t_end, -xmax, xmax]}
    return Case(data=data, expect={"exit": 0, "tag": "Autonomous", "force": 0.0})


def _forced_oscillator(rng: random.Random) -> Case:
    """x'' + k2*x + c*t = 0 in the TimeIndependentPhi regime, eta = 0."""
    k2, x0, v0, k = _oscillator_data(rng)
    t_end = rng.uniform(15.0, 16.0) * 2.0 * math.pi / k
    c = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.15), 4)
    data = {"phi": "0", "B": "k2*x + c*t", "eta": "0",
            "delta2": "-k2*x^2/2 - c*t*x", "params": {"k2": k2, "c": c},
            "t0": 0.0, "t_end": t_end, "x0": x0, "v0": v0}
    return Case(data=data, expect={"exit": 0, "tag": "TimeIndependentPhi", "force": c})


def _oscillator_data(rng: random.Random) -> tuple[float, float, float, float]:
    """k2, x0, v0, k with the amplitude in [1, 1.5] and k in [1, 1.5]: the
    step count per period depends on both, so narrow ranges keep the cost
    of a problem, and of a run, nearly independent of the seed."""
    k2 = round(rng.uniform(1.0, 2.25), 4)
    k = math.sqrt(k2)
    amplitude = rng.uniform(1.0, 1.5)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    x0 = round(amplitude * math.cos(phase), 4)
    v0 = round(-amplitude * k * math.sin(phase), 4)
    return k2, x0, v0, k


def long_window_cases(seed: int):
    """Free and forced oscillators in pairs, in seeded order.

    A free oscillator builds three invariants and integrates 7 times, a
    forced one builds one and integrates 3 times, so the forced windows
    are longer (15-16 periods against 4-4.5, about 2.6k and 0.85k accepted
    steps at tol 1e-10) to give both families about the same cost and
    keep the latency distribution of a run unimodal: with two separate
    modes, latency_p50_s would sit in the gap between them and jump
    with every small change of the mix.
    """
    rng = random.Random(f"long_window:{seed}")
    while True:
        pair = [_free_oscillator, _forced_oscillator]
        rng.shuffle(pair)
        for make in pair:
            yield make(rng)


def closed_form_state(data: dict, force: float, t: float) -> tuple[float, float]:
    """(x, v) at t of x'' + k2*x + force*t = 0 from the problem's initial data."""
    k2 = data["params"]["k2"]
    k = math.sqrt(k2)
    q = force / k2
    t0, x0, v0 = data["t0"], data["x0"], data["v0"]
    a = x0 + q * t0
    b = (v0 + q) / k
    s = k * (t - t0)
    return (-q * t + a * math.cos(s) + b * math.sin(s),
            -q - a * k * math.sin(s) + b * k * math.cos(s))


# ------------------------------------------------------------- symbolic_check

def _fmt(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator) if q >= 0 else f"({q.numerator})"
    return f"({q.numerator}/{q.denominator})"


def _rat(rng: random.Random, num: int = 9, den: int = 7, positive: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(1 if positive else -num, num), rng.randint(1, den))
        if q != 0:
            return q


def _poly(terms: dict[tuple[int, Fraction], Fraction]) -> str:
    """Sum of c * t^p * x^r from {(p, r): c}; zero coefficients dropped."""
    parts = []
    for (p, r), c in sorted(terms.items()):
        if c == 0:
            continue
        factors = [_fmt(c)]
        if p:
            factors.append("t" if p == 1 else f"t^{p}")
        if r:
            factors.append("x" if r == 1 else f"x^{_fmt(r)}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def _add(terms: dict, key, c: Fraction):
    terms[key] = terms.get(key, Fraction(0)) + c
    if terms[key] == 0:
        del terms[key]


def _x_phi(rng: random.Random):
    """A phi of x alone as (text, kind, coefficient): 0, -alpha*ln(x) or q*x."""
    kind = rng.choice(("zero", "log", "lin"))
    if kind == "zero":
        return "0", kind, Fraction(0)
    q = _rat(rng, 5, 4)
    if kind == "log":
        return f"-{_fmt(q)}*ln(x)", kind, q
    return f"{_fmt(q)}*x", kind, q


def _times_exp_minus_phi(terms: dict, kind: str, q: Fraction) -> str:
    """Text of e^(-phi) * sum(terms) for an x-only phi from _x_phi."""
    if kind == "log":  # e^(-phi) = x^q
        terms = {(p, r + q): c for (p, r), c in terms.items()}
    body = _poly(terms)
    if kind == "lin":
        return f"exp({_fmt(-q)}*x)*({body})"
    return body


def _exponent(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 8), rng.choice((1, 2, 3)))


def _window(rng: random.Random) -> tuple[float, float, list[float]]:
    t_end = round(rng.uniform(0.5, 2.0), 3)
    xlo = round(rng.uniform(0.3, 0.8), 3)
    xhi = round(rng.uniform(1.5, 3.0), 3)
    x0 = round(rng.uniform(xlo, xhi), 4)
    return t_end, x0, [0.0, t_end, xlo, xhi]


def _autonomous(rng: random.Random) -> Case:
    """delta2 = sum beta_i x^gamma_i > 0 and B = -e^(-phi) delta2_x."""
    phi, kind, q = _x_phi(rng)
    delta2: dict = {}
    for _ in range(rng.randint(1, 2)):
        _add(delta2, (0, _exponent(rng)), _rat(rng, positive=True))
    if rng.random() < 0.3:
        _add(delta2, (0, Fraction(0)), _rat(rng, positive=True))
    if not any(r != 0 for (_, r) in delta2):
        _add(delta2, (0, Fraction(2)), Fraction(1))
    d2_x: dict = {}
    for (_, r), c in delta2.items():
        if r != 0:
            _add(d2_x, (0, r - 1), -c * r)
    t_end, x0, domain = _window(rng)
    data = {"phi": phi, "B": _times_exp_minus_phi(d2_x, kind, q),
            "delta2": _poly(delta2), "t0": 0.0, "t_end": t_end, "x0": x0,
            "v0": round(rng.uniform(-1.0, 1.0), 4), "domain": domain}
    return Case(data=data, expect={"tag": "Autonomous", "exit": 0, "refusal": False})


def _time_independent_phi(rng: random.Random) -> Case:
    """eta = a t^m x^n, delta2 = sum b_j t^p_j x^r_j, B = e^(-phi) d_x(eta_t - delta2)."""
    phi, kind, q = _x_phi(rng)
    while True:
        eta: dict = {}
        if rng.random() < 0.75:
            _add(eta, (rng.randint(1, 3), _exponent(rng)), _rat(rng))
        delta2: dict = {}
        for _ in range(rng.randint(1, 2)):
            _add(delta2, (rng.randint(0, 2), _exponent(rng)), _rat(rng))
        psi: dict = {}
        for (p, r), c in eta.items():
            _add(psi, (p - 1, r), c * p)
        for key, c in delta2.items():
            _add(psi, key, -c)
        psi_x: dict = {}
        for (p, r), c in psi.items():
            if r != 0:
                _add(psi_x, (p, r - 1), c * r)
        if any(p > 0 for (p, _) in psi_x):  # B must depend on t
            break
    t_end, x0, domain = _window(rng)
    data = {"phi": phi, "B": _times_exp_minus_phi(psi_x, kind, q),
            "eta": _poly(eta), "delta2": _poly(delta2), "t0": 0.0,
            "t_end": t_end, "x0": x0, "v0": round(rng.uniform(-1.0, 1.0), 4),
            "domain": domain}
    return Case(data=data, expect={"tag": "TimeIndependentPhi", "exit": 0, "refusal": False})


def _general(rng: random.Random) -> Case:
    """phi = a*t + g(x), constant rho1 and x-only rho2, so that
    B = rho1 e^(-phi/2) + rho2 e^(-phi) meets both hypotheses.

    When rho2 != 0 makes the exponent integrand depend on x, the
    first-integral condition refuses the problem: a refusal, not a failure.
    """
    a = _rat(rng, 5, 3, positive=True)
    g, kind, q = _x_phi(rng)
    if kind == "zero" and rng.random() < 0.5:
        kind = "power"
        g = f"{_fmt(_rat(rng, 4, 3, positive=True))}*x^{_fmt(_exponent(rng) or Fraction(1))}"
    phi = f"{_fmt(a)}*t" + ("" if kind == "zero" else f" + {g}")
    rho1 = _rat(rng)
    rho2: dict = {}
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            _add(rho2, (0, _exponent(rng)), _rat(rng))
    # the integrand carries (rho2/rho1) e^(-g/2); e^(-g/2) is x^(q/2) for
    # g = -q ln(x), 1 for g = 0, and never a power of x otherwise
    shift = {"zero": Fraction(0), "log": q / 2}.get(kind)
    x_free = not rho2 or (shift is not None and all(r + shift == 0 for (_, r) in rho2))
    B = f"{_fmt(rho1)}*exp(-({phi})/2)"
    if rho2:
        B += f" + ({_poly(rho2)})*exp(-({phi}))"
    t_end, x0, domain = _window(rng)
    data = {"phi": phi, "B": B, "rho1": _fmt(rho1), "rho2": _poly(rho2),
            "t0": 0.0, "t_end": t_end, "x0": x0,
            "v0": round(rng.uniform(-1.0, 1.0), 4), "domain": domain}
    refusal = not x_free
    return Case(data=data, expect={"tag": "General", "exit": 1 if refusal else 0,
                                   "refusal": refusal})


def symbolic_cases(seed: int):
    """Rounds of 150 problems, 50 per regime in seeded order, drawn afresh
    every round so that a cache sees few exact repeats."""
    rng = random.Random(f"symbolic_check:{seed}")
    makers = (_autonomous, _time_independent_phi, _general)
    while True:
        order = [m for m in makers for _ in range(50)]
        rng.shuffle(order)
        for make in order:
            yield make(rng)


CASES = {
    "catalog_oracle": catalog_cases,
    "long_window": long_window_cases,
    "symbolic_check": symbolic_cases,
}
