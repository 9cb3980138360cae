"""Adaptive Runge-Kutta integration of the equation of motion with
accumulator channels.

The state is [x, v, u_0..u_k] where each u_i integrates a registered
integrand alongside the motion (u_i(t0) = 0), so nonlocal integral terms
are produced under the same error control as the trajectory itself.  An
integrand is a g(t, x), or a polynomial in v that may be dressed by the
exponential of one other channel (``problem.Integrand``).  The pair is
the classic Dormand-Prince 5(4) with a PI step controller and the
standard quartic dense-output interpolant.

numpy is imported where an array is first built (the end of an
integration and the evaluation helpers), so importing this module, and the
package, loads none.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .expr import Expr, DomainError
from .problem import Integrand, JacobiProblem, canonical, read_channel, rhs

if TYPE_CHECKING:
    import numpy as np

# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B = _A[6]  # fifth-order weights; FSAL
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_D = (
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
)
# the stages an accepted step stores for its dense output: every one with a
# nonzero weight in _D but k7, which is the next step's k1
_STORED = (1, 3, 4, 5, 6)

COMPLETED = "Completed"
DOMAIN_ABORT = "DomainAbort"
BLOW_UP = "BlowUp"
STEP_FAILURE = "StepFailure"

_BLOWUP_BOUND = 1e8
_MAX_CONSECUTIVE_REJECTS = 20

TOL_MIN = 1e-14
TOL_MAX = 1e-2
# tolerance ratio between the coarse and the fine run of a drift report
REFINE = 16
# points evaluated at once along a dense output; bounds the working arrays
BLOCK = 1024


class IntegrationError(Exception):
    pass


class AccumulatorMismatchError(IntegrationError):
    pass


@dataclass(frozen=True)
class Termination:
    status: str
    t: float
    point: tuple[float, float] | None = None
    detail: str = ""

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED


@dataclass(frozen=True)
class AugmentedState:
    t: float
    x: float
    v: float
    u: tuple[float, ...]


@dataclass
class Trajectory:
    """Accepted-step samples plus per-step dense-output coefficients."""

    problem: JacobiProblem
    integrands: tuple[Expr | Integrand, ...]   # canonical, one per channel
    ts: np.ndarray
    ys: np.ndarray          # shape (n_samples, 2 + n_channels)
    conts: np.ndarray       # shape (n_steps, 5, 2 + n_channels)
    termination: Termination
    mean_step: float

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t_last(self) -> float:
        return float(self.ts[-1])

    def sample(self, ts) -> np.ndarray:
        """Dense-output states [x, v, u_0..] at the times ts inside the
        integrated window, shape (len(ts), 2 + n_channels)."""
        import numpy as np

        ts = np.asarray(ts, dtype=float)
        grid = self.ts
        outside = ~((grid[0] <= ts) & (ts <= grid[-1]))
        if outside.any():
            raise IntegrationError(f"t={ts[outside][0]} outside integrated window "
                                   f"[{grid[0]}, {grid[-1]}]")
        if len(grid) < 2:
            return np.tile(self.ys[-1], (len(ts), 1))
        k = np.clip(np.searchsorted(grid, ts, side="right") - 1, 0, len(grid) - 2)
        theta = ((ts - grid[k]) / (grid[k + 1] - grid[k]))[:, None]
        r = self.conts[k]
        y = r[:, 0] + theta * (r[:, 1] + (1 - theta) * (
            r[:, 2] + theta * (r[:, 3] + (1 - theta) * r[:, 4])))
        y[ts == grid[-1]] = self.ys[-1]
        return y

    def state(self, t: float) -> AugmentedState:
        """Dense-output state at any t inside the integrated window."""
        y = self.sample([t])[0]
        return AugmentedState(t=float(t), x=float(y[0]), v=float(y[1]),
                              u=tuple(float(c) for c in y[2:]))

    def channel_of(self, integrand: Expr | Integrand) -> int:
        """Index of a registered accumulator, matched structurally."""
        target = canonical(integrand)
        if target in self.integrands:
            return self.integrands.index(target)
        raise AccumulatorMismatchError(
            f"integrand {target} is not registered on this trajectory")

    def to_csv(self) -> str:
        n_u = self.ys.shape[1] - 2
        header = "t,x,v" + "".join(f",u{i}" for i in range(n_u))
        lines = [header]
        for t, y in zip(self.ts, self.ys):
            lines.append(",".join("%.17g" % val for val in [t, *y]))
        return "\n".join(lines) + "\n"


@functools.cache
def _loop(n: int, inputs: tuple[int, ...] = (0, 1)):
    """The integration loop on n components, with the Dormand-Prince step
    unrolled over Python floats.

    Returns ``loop(f, t, t_end, h, hmin, y, k1, atol, rtol, ts, ys, stages)
    -> (status, t, point, detail, k1)``.  It steps from t, trying the step
    h first, until t_end or an early termination; y and k1 are the state
    and its derivative at t (n-tuples), f the fused right-hand side
    (t, x, v[, u]) -> n-tuple.  Each accepted step appends its end time to
    ts, its end state to ys and (h, k1, k3, k4, k5, k6) to stages, from
    which ``_dense_rows`` builds the dense output.  The k1 returned is the
    derivative at the last accepted state (FSAL: the last step's k7).

    The error norm is the RMS of the error estimate over
    atol + rtol*max(|y|, |y_new|).  Stage inputs are formed for the
    components ``inputs`` only, the ones the right-hand side reads: x, v
    and at most one channel.
    """
    comps = range(n)

    def k(s, i):
        return f"k{s}_{i}"

    def stage(s):
        return ", ".join(k(s, i) for i in comps)

    def combo(weights, i):
        """Source of the weighted sum of stages 1.. of component i, left to
        right, zero weights dropped."""
        terms = [f"{w!r}*{k(s, i)}" for s, w in enumerate(weights, 1) if w != 0.0]
        return " + ".join(terms).replace("+ -", "- ")

    state = ", ".join(f"y{i}" for i in comps)
    derivative = f"({stage(1)})"
    stored = ", ".join(stage(s) for s in _STORED)
    lines = ["def loop(f, t, t_end, h, hmin, y, k1, atol, rtol, ts, ys, stages):",
             f"    {state} = y",
             f"    {stage(1)} = k1",
             "    ts_append, ys_extend, stages_extend = ts.append, ys.extend, stages.extend",
             "    errprev = 1.0",
             "    rejects = 0",
             "    just_rejected = False",
             "    while t < t_end:",
             "        # floor first, then clamp: the last step ends exactly on t_end",
             "        h = max(h, hmin)",
             "        last = h >= t_end - t",
             "        if last:",
             "            h = t_end - t",
             "        try:"]
    for s in range(2, 7):
        args = ", ".join(f"y{i} + h*({combo(_A[s - 1], i)})" for i in inputs)
        lines.append(f"            {stage(s)} = f(t + {_C[s - 1]!r}*h, {args})")
    lines += [f"            n{i} = y{i} + h*({combo(_B, i)})" for i in comps]
    lines += [f"            {stage(7)} = f(t + {_C[6]!r}*h, {', '.join(f'n{i}' for i in inputs)})",
              "        except DomainError as exc:",
              "            # a wide trial step may poke outside the domain; creep",
              "            # closer before declaring the abort",
              f"            if h > 8.0*hmin and rejects < {_MAX_CONSECUTIVE_REJECTS}:",
              "                rejects += 1",
              "                just_rejected = True",
              "                h *= 0.25",
              "                continue",
              f"            return {DOMAIN_ABORT!r}, t, (exc.t, exc.x), str(exc), {derivative}"]
    for i in comps:
        lines += [f"        a{i} = abs(y{i}); b{i} = abs(n{i})",
                  f"        q{i} = h*({combo(_E, i)})"
                  f"/(atol + rtol*(a{i} if a{i} > b{i} else b{i}))"]
    lines += [f"        err = _sqrt(({' + '.join(f'q{i}*q{i}' for i in comps)})/{n})",
              "        if not _isfinite(err):",
              "            err = 10.0",
              "        if err <= 1.0:",
              f"            stages_extend((h, {stored}))",
              "            t = t_end if last else t + h",
              f"            {state} = {', '.join(f'n{i}' for i in comps)}",
              "            ts_append(t)",
              f"            ys_extend(({state}))",
              f"            {stage(1)} = {stage(7)}",
              f"            if abs(y0) + abs(y1) > {_BLOWUP_BOUND!r}:",
              f"                return {BLOW_UP!r}, t, (t, y0), "
              f"{f'|x|+|v| exceeded {_BLOWUP_BOUND:g}'!r}, {derivative}",
              "            rejects = 0",
              "            # PI controller, safety 0.9, exponents 0.7/4 and 0.4/4",
              "            fac = 0.9 * err ** (-0.175) * errprev ** 0.1 if err > 0 else 5.0",
              "            fac = min(1.0 if just_rejected else 5.0, max(0.2, fac))",
              "            errprev = max(err, 1e-4)",
              "            just_rejected = False",
              "            h *= fac",
              "        else:",
              "            rejects += 1",
              "            just_rejected = True",
              f"            if rejects >= {_MAX_CONSECUTIVE_REJECTS} and h <= hmin * 4.0:",
              f"                return {STEP_FAILURE!r}, t, (t, y0), "
              f"f'{{rejects}} consecutive rejected steps at minimum step size', {derivative}",
              "            h *= max(0.2, 0.9 * err ** (-0.25))",
              f"    return {COMPLETED!r}, t, None, '', {derivative}"]
    namespace = {"_sqrt": math.sqrt, "_isfinite": math.isfinite, "DomainError": DomainError}
    exec("\n".join(lines) + "\n", namespace)
    return namespace["loop"]


def _dense_rows(ys: array, stages: array, k7: tuple[float, ...], n: int) -> np.ndarray:
    """The quartic dense-output coefficients of every accepted step, shape
    (steps, 5, n), from the flat buffers of ``_loop``: the accepted states
    and the stored stages; k7 is the derivative at the last accepted state.

    With d = y_new - y and p = h*k1 - d, the rows are y, d, p,
    d - h*k7 - p and h*(sum of _D[s]*k_s), as ``Trajectory.sample`` reads
    them.  Each is formed element-wise in the order of its scalar formula,
    the sum left to right over the nonzero weights, so every coefficient
    is the Python float a per-step computation gives, inf and nan
    included.  Everything is written into the one array returned; row 3
    is the scratch space of row 4's sum before it is formed itself.
    """
    import numpy as np

    width = 1 + n * len(_STORED)
    steps = len(stages) // width
    rows = np.empty((steps, 5, n))
    if not steps:
        return rows
    stored = np.frombuffer(stages).reshape(steps, width)
    h = stored[:, :1]
    k = dict(zip(_STORED, (stored[:, 1 + j * n:1 + (j + 1) * n] for j in range(len(_STORED)))))
    y = np.frombuffer(ys).reshape(-1, n)
    y0, d, p, r3, r4 = (rows[:, j] for j in range(5))

    # k7 of a step is the next step's k1, and the given k7 for the last
    def times_k7(w_head, w_last, out):
        np.multiply(w_head, k[1][1:], out=out[:-1])
        np.multiply(w_last, k7, out=out[-1])

    with np.errstate(all="ignore"):
        np.copyto(y0, y[:-1])
        np.subtract(y[1:], y[:-1], out=d)
        np.multiply(h, k[1], out=p)
        np.subtract(p, d, out=p)
        first, *rest = (s for s, w in enumerate(_D, 1) if w != 0.0)
        np.multiply(_D[first - 1], k[first], out=r4)
        for s in rest:
            if s == 7:
                times_k7(_D[6], _D[6], r3)
            else:
                np.multiply(_D[s - 1], k[s], out=r3)
            np.add(r4, r3, out=r4)
        np.multiply(h, r4, out=r4)
        times_k7(h[:-1], h[-1], r3)
        np.subtract(d, r3, out=r3)
        np.subtract(r3, p, out=r3)
    return rows


def integrate(p: JacobiProblem,
              integrands: list[Expr | Integrand] | tuple[Expr | Integrand, ...] = (),
              tol: tuple[float, float] = (1e-10, 1e-10)) -> Trajectory:
    """Integrate x'' = -(phi_x/2 v^2 + phi_t v + B) plus accumulator channels.

    tol is (absolute, relative), both in [TOL_MIN, TOL_MAX].  Termination is
    Completed when t_end is reached; DomainAbort / BlowUp / StepFailure
    truncate the trajectory at the last accepted step.
    """
    atol, rtol = tol
    for v in (atol, rtol):
        if not (TOL_MIN <= v <= TOL_MAX):
            raise IntegrationError(f"tolerance {v} outside [{TOL_MIN:g}, {TOL_MAX:g}]")
    integrands = tuple(canonical(g) for g in integrands)
    f = rhs(p, integrands)
    n = 2 + len(integrands)
    read = read_channel(integrands)
    # the state components the right-hand side reads
    inputs = (0, 1) if read is None else (0, 1, 2 + read)

    t0, t_end = p.t0, p.t_end
    y = (float(p.x0), float(p.v0)) + (0.0,) * len(integrands)
    # accepted samples and step stages, flat; shaped once in finish
    ts = array("d", [t0])
    ys = array("d", y)
    stages = array("d")

    def finish(status, t_at, point=None, detail="", k7=()):
        import numpy as np

        conts = _dense_rows(ys, stages, k7, n)
        return Trajectory(
            problem=p, integrands=integrands,
            ts=np.frombuffer(ts), ys=np.frombuffer(ys).reshape(-1, n), conts=conts,
            termination=Termination(status, t_at, point, detail),
            mean_step=((ts[-1] - ts[0]) / max(len(conts), 1)),
        )

    try:
        k1 = f(t0, *(y[i] for i in inputs))
    except DomainError as err:
        return finish(DOMAIN_ABORT, t0, (err.t, err.x), str(err))

    h = _initial_step(f, inputs, t0, y, k1, t_end, atol, rtol)
    return finish(*_loop(n, inputs)(f, t0, t_end, h, 1e-12 * (t_end - t0), y, k1,
                                    atol, rtol, ts, ys, stages))


def _rms(values, scales) -> float:
    total = 0.0
    for v, s in zip(values, scales):
        q = v / s
        total += q * q
    return math.sqrt(total / len(values))


def _initial_step(f, inputs, t0, y0, f0, t_end, atol, rtol) -> float:
    """Standard starting-step heuristic from the embedded-RK literature;
    f reads the components ``inputs`` of the state."""
    sc = [atol + rtol * abs(y) for y in y0]
    d0 = _rms(y0, sc)
    d1 = _rms(f0, sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0)
    try:
        f1 = f(t0 + h0, *(y0[i] + h0 * f0[i] for i in inputs))
        d2 = _rms([b - a for a, b in zip(f0, f1)], sc) / h0
    except DomainError:
        return max(h0 * 0.1, 1e-10 * (t_end - t0))
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100.0 * h0, h1, t_end - t0)


# ------------------------------------------------------------- evaluation

@dataclass(frozen=True)
class EvalSeries:
    ts: np.ndarray
    values: np.ndarray
    truncated: bool = False
    abort_point: tuple[float, float] | None = None

    def max_drift(self) -> float:
        import numpy as np

        return float(np.max(np.abs(self.values - self.values[0])))

    def initial(self) -> float:
        return float(self.values[0])


@dataclass(frozen=True)
class DriftReport:
    """Constancy metrics for one invariant along one trajectory."""

    name: str
    initial_value: float
    max_abs_drift: float
    mean_abs_drift: float
    rel_drift: float
    order: float            # observed convergence order under step refinement
    truncated: bool = False
    window: tuple[float, float] = (0.0, 0.0)

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "initial_value": self.initial_value,
            "max_abs_drift": self.max_abs_drift,
            "mean_abs_drift": self.mean_abs_drift,
            "rel_drift": self.rel_drift,
            "order": (self.order if math.isfinite(self.order) else 99.0),
            "truncated": self.truncated,
            "window": list(self.window),
        }


def in_blocks(traj: Trajectory, ts: np.ndarray, evaluate):
    """Evaluate along the dense output at the times ts, BLOCK points at a
    time.  ``evaluate(t, y)`` gets a block of times and their states (rows
    of ``Trajectory.sample``) and returns (values, err): the values before
    the first point outside the domain and that point's DomainError, or
    None.  The first block with an error ends the series.  Returns
    (values, err)."""
    import numpy as np

    parts = []
    err = None
    for start in range(0, len(ts), BLOCK):
        t = ts[start:start + BLOCK]
        values, err = evaluate(t, traj.sample(t))
        parts.append(values)
        if err is not None:
            break
    return np.concatenate(parts), err


def evaluate_along(traj: Trajectory, spec, grid: int = 1024) -> EvalSeries:
    """Sample an invariant on a uniform dense-output grid.

    Domain errors (e.g. the square-root factor leaving its region of
    validity) truncate the series at the failing point and flag it.
    """
    import numpy as np

    if grid < 2:
        raise ValueError("grid must be >= 2")
    channels = [traj.channel_of(g) for g in spec.integrands]
    fn = spec.compiled(traj.problem.params)

    def evaluate(t, y):
        x, v, *u = y.T.tolist()
        return fn(t.tolist(), x, v, *(u[c] for c in channels))

    ts = np.linspace(traj.t0, traj.t_last, grid)
    values, err = in_blocks(traj, ts, evaluate)
    if len(values) < 2:
        raise IntegrationError(
            f"invariant {spec.name!r} undefined on the trajectory start")
    abort = None if err is None else (err.t, err.x)
    return EvalSeries(ts[: len(values)], values, err is not None, abort)


def drift_report(spec, coarse: Trajectory, fine: Trajectory,
                 grid: int = 1024) -> DriftReport:
    """Drift metrics of spec along the coarse trajectory, with the observed
    order log(drift ratio) / log(mean-step ratio) against the fine one
    (integrated at tol / REFINE); drifts at the round-off floor report
    order inf."""
    import numpy as np

    ser_c = evaluate_along(coarse, spec, grid)
    dev = np.abs(ser_c.values - ser_c.values[0])
    max_c = float(np.max(dev))
    max_f = evaluate_along(fine, spec, grid).max_drift()
    scale = max(1.0, abs(ser_c.initial()))
    floor = 1e-14 * scale
    if max_f <= floor or max_c <= floor:
        order = math.inf
    else:
        h_ratio = coarse.mean_step / fine.mean_step
        order = (math.log(max_c / max_f) / math.log(h_ratio)
                 if h_ratio > 1.0 and max_c > max_f else 0.0)
    return DriftReport(
        name=spec.name,
        initial_value=ser_c.initial(),
        max_abs_drift=max_c,
        mean_abs_drift=float(np.mean(dev)),
        rel_drift=max_c / scale,
        order=order,
        truncated=ser_c.truncated,
        window=(float(ser_c.ts[0]), float(ser_c.ts[-1])),
    )
