"""Adaptive Runge-Kutta integration of the equation of motion with
accumulator channels.

The state is [x, v, u_0..u_k] where each u_i integrates a registered
integrand alongside the motion (u_i(t0) = 0), so nonlocal integral terms
are produced with the same steps as the trajectory itself.  The channels
registered as ``integrands`` are under the same error control as x and v;
those registered as ``quadratures`` after them are quadrature components,
as in CVODES with its error control on quadratures off: they are
integrated with the step but left out of step control, so registering
them moves no step and no bit of the other components (unless one of
their integrands leaves its domain, or its float range, on a trial stage).
An integrand is a g(t, x), or a polynomial in v that may be dressed by the
exponential of one other channel (``problem.Integrand``).  The pair is
DOP853 (Hairer, Norsett and Wanner, *Solving Ordinary Differential Equations
I*, II.10): an eighth-order step of 12 stages with FSAL, its error norm
combined from a fifth- and a third-order estimate, a PI step controller,
and the seventh-order dense output, which takes 3 more stages per accepted
step.

numpy is imported where an array is first built (the end of an
integration and the evaluation helpers), so importing this module, and the
package, loads none.
"""

from __future__ import annotations

import functools
import math
import struct
from array import array
from typing import TYPE_CHECKING, NamedTuple

from .expr import DomainError, Expr, _define
from .problem import Integrand, JacobiProblem, canonical, read_channel, rhs

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

# DOP853 (Hairer, Norsett and Wanner, Solving Ordinary Differential Equations I,
# II.10, and their Fortran code): stages 1..12 of the eighth-order step, stage
# 13 the derivative at the new state (FSAL), stages 14..16 the dense output's.
# _A[s - 1] and _C[s - 1] give stage s; the step's weights are stage 13's
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_B = _A[12]
# the fifth- and third-order error estimates, combined in the error norm
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
)
# the four highest coefficients of the seventh-order dense output
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)
# the stages an accepted step stores for its dense output: every one with a
# nonzero weight in _D but k13, which is the next step's k1
_STORED = (1, 6, 7, 8, 9, 10, 11, 12, 14, 15, 16)
# the order of the error estimate, which the step controller's exponents follow
_ERR_ORDER = 7

COMPLETED = "Completed"
DOMAIN_ABORT = "DomainAbort"
BLOW_UP = "BlowUp"
STEP_FAILURE = "StepFailure"

_BLOWUP_BOUND = 1e8
_MAX_CONSECUTIVE_REJECTS = 20

TOL_MIN = 1e-14
TOL_MAX = 1e-2
# tolerance ratio between the coarse and the fine run of a drift report.  The
# pair's steps scale as tol^(1/8), so the fine run's are 64^(1/8) = 1.68 times
# shorter, near the 1.74 of the 16 that Dormand-Prince 5(4) took.  The observed
# order is a log over that ratio: at 16 this pair's steps differ by 1.41 only,
# and on long windows its order spread twice as wide, below the gate's 3.5
REFINE = 64
# points evaluated at once along a dense output; bounds the working arrays
BLOCK = 1024


class IntegrationError(Exception):
    pass


class AccumulatorMismatchError(IntegrationError):
    pass


class Termination(NamedTuple):
    status: str
    t: float
    point: tuple[float, float] | None = None
    detail: str = ""

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED


class AugmentedState(NamedTuple):
    t: float
    x: float
    v: float
    u: tuple[float, ...]


class Trajectory:
    """Accepted-step samples plus per-step dense-output coefficients.

    ``integrands`` are canonical, one per channel; ``ys`` has shape
    (n_samples, 2 + n_channels) and ``conts`` (n_steps, 8, 2 + n_channels),
    a view of the contiguous (8, 2 + n_channels, n_steps) array that
    ``_dense_rows`` builds and ``sample`` gathers from.
    """

    __slots__ = ("problem", "integrands", "ts", "ys", "conts", "termination", "mean_step",
                 "_series")

    def __init__(self, problem: JacobiProblem, integrands: tuple[Expr | Integrand, ...],
                 ts: np.ndarray, ys: np.ndarray, conts: np.ndarray,
                 termination: Termination, mean_step: float):
        self.problem = problem
        self.integrands = integrands
        self.ts = ts
        self.ys = ys
        self.conts = conts
        self.termination = termination
        self.mean_step = mean_step
        # finished series by (id(spec), grid), each held with its spec
        self._series: dict[tuple[int, int], tuple[object, EvalSeries]] = {}

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t_last(self) -> float:
        return float(self.ts[-1])

    def sample(self, ts) -> np.ndarray:
        """Dense-output states [x, v, u_0..] at the times ts inside the
        integrated window, shape (len(ts), 2 + n_channels): the transposed
        view of the contiguous (2 + n_channels, len(ts)) rows it forms."""
        import numpy as np

        ts = np.asarray(ts, dtype=float)
        grid = self.ts
        outside = ~((grid[0] <= ts) & (ts <= grid[-1]))
        if outside.any():
            raise IntegrationError(f"t={ts[outside][0]} outside integrated window "
                                   f"[{grid[0]}, {grid[-1]}]")
        if len(grid) < 2:
            return np.tile(self.ys[-1], (len(ts), 1))
        # each t's step: the number of inner grid times at or before it
        k = np.searchsorted(grid[1:-1], ts, side="right")
        theta = (ts - grid[k]) / (grid[k + 1] - grid[k])
        factors = (theta, 1 - theta)
        # the rows of the steps of ts, (8, n, len(ts)), gathered at once
        # from the (8, n, steps) array the conts view is made from
        r = self.conts.transpose(1, 2, 0).take(k, axis=2)
        # y = r0 + theta*(r1 + (1 - theta)*(r2 + theta*(r3 + ... theta*r7))),
        # formed in place in r7's rows
        y = r[7]
        for j in range(6, -1, -1):
            np.multiply(factors[j % 2], y, out=y)
            np.add(r[j], y, out=y)
        last = ts == grid[-1]
        if last.any():
            y[:, last] = self.ys[-1][:, None]
        return y.T

    def listed(self, ts: np.ndarray) -> Iterator[tuple[list[float], ...]]:
        """Yield the times ts and their dense-output states BLOCK points at
        a time as a (t, x, v, u_0, ..) tuple of lists of Python floats,
        each block sampled when the reader asks for it."""
        for start in range(0, len(ts), BLOCK):
            t = ts[start:start + BLOCK]
            yield t.tolist(), *self.sample(t).T.tolist()

    def series(self, specs, grid: int = 1024) -> list[EvalSeries]:
        """The series of each spec on the uniform grid of ``grid`` points
        over the integrated window.  Those not yet in the trajectory's
        store are computed in one walk over the grid and kept: every live
        spec's compiled series runs on each listed block.  A series stops
        at its first point outside the domain and carries that
        DomainError; the others run on, and no block is sampled once none
        is live."""
        if grid < 2:
            raise ValueError("grid must be >= 2")
        store = self._series
        todo = {id(spec): spec for spec in specs if (id(spec), grid) not in store}
        if todo:
            import numpy as np

            runs = {key: (spec.compiled(self.problem.params),
                          [self.channel_of(g) for g in spec.integrands], [])
                    for key, spec in todo.items()}
            live, errors = dict(runs), {}
            ts = np.linspace(self.t0, self.t_last, grid)
            ts.flags.writeable = False
            for t, x, v, *u in self.listed(ts):
                for key, (fn, channels, values) in list(live.items()):
                    part, errors[key] = fn(t, x, v, *(u[c] for c in channels))
                    values += part
                    if errors[key] is not None:
                        del live[key]
                if not live:
                    break
            for key, (_, _, values) in runs.items():
                values = np.array(values, dtype=float)
                values.flags.writeable = False
                store[key, grid] = todo[key], EvalSeries(ts[:len(values)], values, errors[key])
        return [store[id(spec), grid][1] for spec in specs]

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


def _loop(f, n: int, inputs: tuple[int, ...] = (0, 1), controlled: int | None = None):
    """The integration loop on n components for the right-hand side f,
    with the DOP853 step unrolled over Python floats; the first
    ``controlled`` components (all by default) are under step control.

    Returns ``loop(now, t_end, h, hmin, y, k1, atol, rtol, ts, ys, stages)
    -> (status, t, point, detail, k1)``.  It steps from the time now,
    trying the step h first, until t_end or an early termination; y and k1
    are the state and its derivative at now (n-tuples), f the fused
    right-hand side (t, x, v[, u]) -> n-tuple.  A step that passes the
    error test takes its 3 dense-output stages (a DomainError there rejects
    it as one on any trial stage does), and once accepted appends its end
    time to ts, its end state to ys and h with the stages ``_STORED`` to
    stages, ``array('d')`` buffers, from which ``_dense_rows`` builds the
    dense output.  The k1 returned is the derivative at the last accepted
    state (FSAL: the last step's k13).

    Every stage calls f at its point: 12 calls per attempted step and 3
    more per step that passes the error test.  The source depends only on
    the shape (n, inputs, controlled), not on f, so every problem of one
    shape, and any f (a tracer's counting wrapper too), runs the one loop:
    it is compiled once (``expr._define``) and found again by the body
    tuple that ``_loop_body`` keeps per shape.

    The error norm is DOP853's: with e5 and e3 the sums of squares of the
    fifth- and third-order estimates over atol + rtol*max(|y|, |y_new|), it
    is h*e5/sqrt((e5 + 0.01*e3)*m), summed over the m controlled
    components; the others, quadrature components, are left out of it.  A
    step that makes any channel, or a quadrature's derivative at the new
    state, inf or nan is rejected as a non-finite norm is (an inf channel
    scales its own terms of the norm to 0).  Stage inputs are formed for
    the components ``inputs`` only, the ones the right-hand side reads: x,
    v and at most one channel.  Step control picks its floats by
    comparisons, not by ``abs``/``max``/``min``, choosing the float those
    would.
    """
    namespace = {**_LOOP_NAMESPACE, "f": f, "_pack_state": _packer(n),
                 "_pack_stages": _packer(1 + n * len(_STORED))}
    body = _loop_body(n, inputs, n if controlled is None else controlled)
    return _define("loop", "now, t_end, h, hmin, y, k1, atol, rtol, ts, ys, stages", body,
                   namespace)


_LOOP_NAMESPACE = {"_sqrt": math.sqrt, "_isfinite": math.isfinite, "DomainError": DomainError}


@functools.cache
def _packer(count: int):
    """Packs count floats into their native bytes, which the loop appends
    to an ``array('d')`` whole: the same bits as ``array.extend`` of the
    floats, which converts them one at a time at several times the cost."""
    return struct.Struct(f"{count}d").pack


@functools.lru_cache(maxsize=128)
def _loop_body(n: int, inputs: tuple[int, ...], controlled: int) -> tuple[str, ...]:
    """The body of ``_loop``'s function, as source lines."""
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

    def indent(lines):
        return ["    " + line for line in lines]

    def stage_line(s):
        """Stage s: its derivative, f called at its point."""
        if s == 13:
            point = [f"now + {_C[12]!r}*h", *(f"n{i}" for i in inputs)]
        else:
            point = [f"now + {_C[s - 1]!r}*h",
                     *(f"y{i} + h*({combo(_A[s - 1], i)})" for i in inputs)]
        return f"{stage(s)} = f({', '.join(point)})"

    state = ", ".join(f"y{i}" for i in comps)
    derivative = f"({stage(1)})"
    stored = ", ".join(stage(s) for s in _STORED)
    attempt = [stage_line(s) for s in range(2, 13)]
    attempt += [f"n{i} = y{i} + h*({combo(_B, i)})" for i in comps]
    attempt.append(stage_line(13))
    for i in range(controlled):
        attempt += [f"a{i} = y{i} if y{i} >= 0.0 else -y{i}",
                    f"b{i} = n{i} if n{i} >= 0.0 else -n{i}",
                    f"s{i} = atol + rtol*(a{i} if a{i} > b{i} else b{i})",
                    f"e{i} = ({combo(_E5, i)})/s{i}",
                    f"g{i} = ({combo(_E3, i)})/s{i}"]
    # every channel and each quadrature's derivative must stay finite, which
    # the norm does not see.  z - z is 0.0 for a finite z, nan for inf or nan
    checked = [f"n{i}" for i in range(2, n)] + [k(13, i) for i in range(controlled, n)]
    unchecked = "".join(f" + ({z} - {z})" for z in checked)
    attempt += [f"err5 = {' + '.join(f'e{i}*e{i}' for i in range(controlled))}",
                f"err3 = {' + '.join(f'g{i}*g{i}' for i in range(controlled))}",
                "deno = err5 + 0.01*err3",
                f"err = h*err5/_sqrt((deno if deno > 0.0 else 1.0)*{controlled})",
                f"if not _isfinite(err{unchecked}):",
                "    err = 10.0",
                "if err <= 1.0:",
                *indent([stage_line(s) for s in range(14, 17)])]
    body = [f"{state} = y",
            f"{stage(1)} = k1",
            "ts_append, ys_frombytes, stages_frombytes = ts.append, ys.frombytes, stages.frombytes",
            "errprev = 1.0",
            "rejects = 0",
            "just_rejected = False",
            "while now < t_end:",
            "    # floor first, then clamp: the last step ends exactly on t_end",
            "    if hmin > h:",
            "        h = hmin",
            "    last = h >= t_end - now",
            "    if last:",
            "        h = t_end - now",
            "    try:",
            *indent(indent(attempt)),
            "    except DomainError as exc:",
            "        # a wide trial step may poke outside the domain; creep",
            "        # closer before declaring the abort",
            f"        if h > 8.0*hmin and rejects < {_MAX_CONSECUTIVE_REJECTS}:",
            "            rejects += 1",
            "            just_rejected = True",
            "            h *= 0.25",
            "            continue",
            f"        return {DOMAIN_ABORT!r}, now, (exc.t, exc.x), str(exc), {derivative}"]
    body += ["    if err <= 1.0:",
             f"        stages_frombytes(_pack_stages(h, {stored}))",
             "        now = t_end if last else now + h",
             f"        {state} = {', '.join(f'n{i}' for i in comps)}",
             "        ts_append(now)",
             f"        ys_frombytes(_pack_state({state}))",
             f"        {stage(1)} = {stage(13)}",
             "        if ((y0 if y0 >= 0.0 else -y0) + (y1 if y1 >= 0.0 else -y1)"
             f" > {_BLOWUP_BOUND!r}):",
             f"            return {BLOW_UP!r}, now, (now, y0), "
             f"{f'|x|+|v| exceeded {_BLOWUP_BOUND:g}'!r}, {derivative}",
             "        rejects = 0",
             # PI controller, safety 0.9, exponents 0.7 and 0.4 over the order of
             # the error estimate, the factor kept in [0.2, 5.0], in [0.2, 1.0]
             # after a rejection
             f"        fac = 0.9 * err ** {-0.7 / _ERR_ORDER!r} * errprev ** "
             f"{0.4 / _ERR_ORDER!r} if err > 0 else 5.0",
             "        fac = fac if fac > 0.2 else 0.2",
             "        cap = 1.0 if just_rejected else 5.0",
             "        fac = fac if fac < cap else cap",
             "        errprev = 1e-4 if 1e-4 > err else err",
             "        just_rejected = False",
             "        h *= fac",
             "    else:",
             "        rejects += 1",
             "        just_rejected = True",
             f"        if rejects >= {_MAX_CONSECUTIVE_REJECTS} and h <= hmin * 4.0:",
             f"            return {STEP_FAILURE!r}, now, (now, y0), "
             f"f'{{rejects}} consecutive rejected steps at minimum step size', {derivative}",
             f"        fac = 0.9 * err ** {-1 / _ERR_ORDER!r}",
             "        h *= fac if fac > 0.2 else 0.2",
             f"return {COMPLETED!r}, now, None, '', {derivative}"]
    return tuple(body)


def _dense_rows(ys: array, stages: array, k13: tuple[float, ...], n: int) -> np.ndarray:
    """The seventh-order dense-output coefficients of every accepted step,
    shape (steps, 8, n), from the flat buffers of ``_loop``: the accepted
    states and the stored stages; k13 is the derivative at the last
    accepted state.  It is a view of an (8, n, steps) array.  The stages
    are read in place: each stage row is a strided view of the row-major
    stage buffer, and every operation is element-wise.

    With d = y_new - y, the rows are y, d, h*k1 - d, 2*d - h*(k13 + k1)
    and, for each row of _D, h*(sum of _D[j][s]*k_s), as
    ``Trajectory.sample`` reads them.  Each is formed element-wise in the
    order of its scalar formula, the sums left to right over the nonzero
    weights, so every coefficient is the Python float a per-step
    computation gives, inf and nan included.  The four _D rows have their
    nonzero weights on the same stages, so they are formed together, one
    multiply and one add per stage on a (4, n, steps) block; the first
    four rows hold the terms until they are formed, so no other working
    array is made.
    """
    import numpy as np

    width = 1 + n * len(_STORED)
    steps = len(stages) // width
    rows = np.empty((8, n, steps))
    if not steps:
        return rows.transpose(2, 0, 1)
    stored = np.frombuffer(stages).reshape(steps, width).T
    h = stored[:1]
    k = dict(zip(_STORED, (stored[1 + j * n:1 + (j + 1) * n] for j in range(len(_STORED)))))
    # k13 of a step is the next step's k1, and the given k13 for the last
    k[13] = np.empty((n, steps))
    k[13][:, :-1], k[13][:, -1] = k[1][:, 1:], k13
    y = np.frombuffer(ys).reshape(-1, n).T
    y0, d, p, q = rows[:4]
    r = rows[4:]
    (first, weight), *rest = _dense_weights()

    with np.errstate(all="ignore"):
        # the _D rows first, with rows[:4] as the block of their terms
        np.multiply(weight, k[first], out=r)
        for s, weight in rest:
            np.multiply(weight, k[s], out=rows[:4])
            np.add(r, rows[:4], out=r)
        np.multiply(h, r, out=r)
        np.copyto(y0, y[:, :-1])
        np.subtract(y[:, 1:], y[:, :-1], out=d)
        # 2*d - h*(k13 + k1), with p's row holding 2*d until p is formed
        np.multiply(2.0, d, out=p)
        np.add(k[13], k[1], out=q)
        np.multiply(h, q, out=q)
        np.subtract(p, q, out=q)
        np.multiply(h, k[1], out=p)
        np.subtract(p, d, out=p)
    return rows.transpose(2, 0, 1)


@functools.cache
def _dense_weights():
    """(stage, weights) for each stage with nonzero _D weights, in stage
    order (1 and 6..16 in every row): the column of the four rows'
    weights, shaped (4, 1, 1) to multiply a stage's (n, steps) rows into
    a (4, n, steps) block."""
    import numpy as np

    return tuple((s, np.array([row[s - 1] for row in _D]).reshape(-1, 1, 1))
                 for s, w in enumerate(_D[0], 1) if w != 0.0)


def integrate(p: JacobiProblem,
              integrands: list[Expr | Integrand] | tuple[Expr | Integrand, ...] = (),
              tol: tuple[float, float] = (1e-10, 1e-10),
              quadratures: list[Expr | Integrand] | tuple[Expr | Integrand, ...] = ()
              ) -> Trajectory:
    """Integrate x'' = -(phi_x/2 v^2 + phi_t v + B) plus accumulator channels.

    The channels of ``integrands`` are under step control with x and v.
    Those of ``quadratures`` that ``integrands`` does not already hold are
    registered after them as quadrature components: integrated with the
    step, outside step control, so the steps and the other components are
    the same bits as without them, as long as their integrands stay finite
    and in their domain on every trial stage.

    tol is (absolute, relative), both in [TOL_MIN, TOL_MAX].  Termination is
    Completed when t_end is reached; DomainAbort / BlowUp / StepFailure
    truncate the trajectory at the last accepted step.
    """
    atol, rtol = tol
    for v in (atol, rtol):
        if not (TOL_MIN <= v <= TOL_MAX):
            raise IntegrationError(f"tolerance {v} outside [{TOL_MIN:g}, {TOL_MAX:g}]")
    integrands = tuple(canonical(g) for g in integrands)
    controlled = 2 + len(integrands)
    integrands += tuple(g for g in dict.fromkeys(map(canonical, quadratures))
                        if g not in integrands)
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

    def finish(status, t_at, point=None, detail="", k13=()):
        import numpy as np

        conts = _dense_rows(ys, stages, k13, n)
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

    hmin = 1e-12 * (t_end - t0)
    h = _initial_step(f, inputs, controlled, t0, y, k1, t_end, hmin, atol, rtol)
    return finish(*_loop(f, n, inputs, controlled)(t0, t_end, h, hmin, y, k1,
                                                   atol, rtol, ts, ys, stages))


def _rms(values, scales) -> float:
    """RMS of values[i]/scales[i] over the components scales has."""
    total = 0.0
    for v, s in zip(values, scales):
        q = v / s
        total += q * q
    return math.sqrt(total / len(scales))


def _initial_step(f, inputs, controlled, t0, y0, f0, t_end, hmin, atol, rtol) -> float:
    """Standard starting-step heuristic from the embedded-RK literature,
    with its norms over the first ``controlled`` components, as the loop's
    error norm; f reads the components ``inputs`` of the state.  The trial
    step is floored at the loop's ``hmin``: a right-hand side beyond about
    1e300 makes d1 infinite and 0.01*d0/d1 zero."""
    sc = [atol + rtol * abs(y) for y in y0[:controlled]]
    d0 = _rms(y0, sc)
    d1 = _rms(f0, sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = max(min(h0, t_end - t0), hmin)
    try:
        f1 = f(t0 + h0, *(y0[i] + h0 * f0[i] for i in inputs))
        d2 = _rms([b - a for a, b in zip(f0, f1)], sc) / h0
    except DomainError:
        return max(h0 * 0.1, 1e-10 * (t_end - t0))
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** (1 / (_ERR_ORDER + 1)) if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100.0 * h0, h1, t_end - t0)


# ------------------------------------------------------------- evaluation

class EvalSeries(NamedTuple):
    ts: np.ndarray
    values: np.ndarray
    error: DomainError | None = None    # the one that cut the series short

    @property
    def truncated(self) -> bool:
        return self.error is not None

    def max_drift(self) -> float:
        import numpy as np

        return float(np.max(np.abs(self.values - self.values[0])))

    def initial(self) -> float:
        return float(self.values[0])


class DriftReport(NamedTuple):
    """Constancy metrics for one invariant along one trajectory."""

    name: str
    initial_value: float
    max_abs_drift: float
    mean_abs_drift: float
    rel_drift: float
    # observed convergence order of the drift under step refinement: near
    # the pair's 8 on a smooth problem, inf (99.0 in JSON) at the round-off
    # floor, where the gate's order >= 3.5 says nothing
    order: float
    truncated: bool = False
    window: tuple[float, float] = (0.0, 0.0)


def evaluate_along(traj: Trajectory, spec, grid: int = 1024) -> EvalSeries:
    """An invariant's series on a uniform dense-output grid, read from the
    trajectory's store (``Trajectory.series``).

    A domain error (e.g. the square-root factor leaving its region of
    validity) truncates the series at the failing point; the series
    carries it.
    """
    series = traj.series((spec,), grid)[0]
    if len(series.values) < 2:
        raise IntegrationError(
            f"invariant {spec.name!r} undefined on the trajectory start")
    return series


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
