"""Tracing from outside the program: wrap the public functions of each
layer of ``jacobi_invariants``, record spans, derive self times and counts.

A span is ``[id, name, start, end, parent, problem, child_s, leaf_s]``.
``child_s`` is the time covered by direct child spans and ``leaf_s`` the
time spent in hot leaf calls (``Trajectory.state``) made directly under
it; those calls are too many to keep as spans, so they are aggregated
into their parent.  Self time is ``end - start - child_s - leaf_s``.

Modules bind names with ``from .x import y``, so a wrapper is rebound in
every module namespace that holds the original; methods are wrapped on
their class.  ``Tracer.uninstall`` puts every original binding back and
``Tracer.check_restored`` proves it.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "jacobi_invariants"

# (module, function) pairs recorded as spans
SPAN_FUNCTIONS = {
    "cli": ("load_problem", "run_checks", "run_pipeline", "run_fixture", "dumps"),
    "catalog": ("get",),
    "expr": ("parse", "simplify", "diff", "zero_check", "compile_fn"),
    "problem": ("classify", "rhs", "validate_lagrangian"),
    "invariants": ("autonomous_aux", "check_y_ode", "first_integral_autonomous",
                   "nonlocal_autonomous", "nonlocal_timedep_phi0", "general_aux",
                   "check_general_hypotheses", "nonlocal_general"),
    "integrate": ("integrate", "evaluate_along", "drift_report"),
    "verify": ("oracle_constant", "oracle_vs_closed", "oracle_drift_report", "drift_gate"),
}
# (module, class, method) triples recorded as spans
SPAN_METHODS = (("integrate", "Trajectory", "channel_of"),
                ("invariants", "InvariantSpec", "compiled"))
# hot leaf method: counted and timed, attributed to the enclosing span
LEAF_METHOD = ("integrate", "Trajectory", "state")

CONSTRUCT = tuple(f"invariants.{f}" for f in SPAN_FUNCTIONS["invariants"])

# name, unit; the order is the output order
PER_LAYER = (
    ("integrate.integrate_s", "s"),
    ("integrate.calls", "count"),
    ("integrate.repeat_ratio", "ratio"),
    ("integrate.accepted_steps", "count"),
    ("integrate.rejected_steps", "count"),
    ("integrate.accept_ratio", "ratio"),
    ("problem.rhs_evals", "count"),
    ("integrate.sample_s", "s"),
    ("integrate.sampled_points", "count"),
    ("integrate.evaluate_along_s", "s"),
    ("integrate.evaluate_along_calls", "count"),
    ("integrate.evaluate_along_points", "count"),
    ("integrate.drift_report_s", "s"),
    ("verify.oracle_constant_s", "s"),
    ("verify.oracle_points", "count"),
    ("verify.oracle_drift_report_s", "s"),
    ("verify.max_rel_drift", "ratio"),
    ("invariants.spec_evals", "count"),
    ("invariants.construct_s", "s"),
    ("expr.compiled_evals", "count"),
    ("expr.compile_fn_s", "s"),
    ("expr.compile_fn_calls", "count"),
    ("expr.parse_s", "s"),
    ("expr.simplify_s", "s"),
    ("expr.simplify_calls", "count"),
    ("expr.simplify_repeat_ratio", "ratio"),
    ("expr.diff_s", "s"),
    ("expr.zero_check_s", "s"),
    ("expr.zero_check_calls", "count"),
    ("problem.classify_s", "s"),
    ("problem.classify_calls", "count"),
    ("problem.classify_repeat_ratio", "ratio"),
    ("problem.validate_lagrangian_s", "s"),
    ("check.refusals", "count"),
    ("cli.load_problem_s", "s"),
    ("cli.run_checks_s", "s"),
    ("cli.run_pipeline_s", "s"),
    ("cli.run_fixture_s", "s"),
    ("cli.dumps_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("catalog.get_s", "s"),
    ("cli.self_s", "s"),
    ("expr.self_s", "s"),
    ("problem.self_s", "s"),
    ("invariants.self_s", "s"),
    ("integrate.self_s", "s"),
    ("verify.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
)

# counters that must repeat exactly from one traced pass to the next
DETERMINISTIC = tuple(name for name, unit in PER_LAYER
                      if unit in ("count", "bytes", "ratio")
                      and not name.startswith("trace."))


def _problem_key(p) -> tuple:
    return (p.phi, p.B, tuple(sorted(p.params.items())), p.t0, p.t_end,
            p.x0, p.v0, p.domain)


class Tracer:
    """Spans and counters of one traced pass; wrappers read ``self`` live."""

    def __init__(self):
        self.problem = -1
        self._next_id = 0
        self._bindings: list[tuple[object, str, object]] = []
        self._restored: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = defaultdict(set)
        self.series_by_grid: Counter = Counter()

    # ------------------------------------------------------------ recording

    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        self._next_id += 1
        rec = [self._next_id, name, perf_counter(), 0.0, parent, self.problem, 0.0, 0.0]
        self.stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[3] = perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1][6] += rec[3] - rec[2]
        self.spans.append(rec)

    def _repeat(self, kind: str, key) -> None:
        """Count calls whose key was already seen in this pass."""
        seen = self.seen[kind]
        if key in seen:
            self.counts[kind + "_repeats"] += 1
        else:
            seen.add(key)

    def _counted(self, name: str, fn):
        tracer = self

        def counted(*args):
            tracer.counts[name] += 1
            return fn(*args)

        return counted

    def _span(self, name: str, orig, before=None, after=None,
              collapse: bool = False, result_counter: str | None = None):
        """Span wrapper; ``collapse`` folds direct self-recursion into one
        span, ``result_counter`` makes a returned callable count its calls."""
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if collapse and tracer.stack and tracer.stack[-1][1] == name:
                return orig(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            rec = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                after(args, kwargs, result, state)
            if result_counter is not None:
                result = tracer._counted(result_counter, result)
            return result

        wrapper.__bench_wrapper__ = True
        return wrapper

    def _leaf(self, name: str, orig):
        """Count and time a hot call without a span of its own."""
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                tracer.counts[name] += 1
                tracer.counts[name + "_time"] += dt
                if tracer.stack:
                    tracer.stack[-1][7] += dt

        wrapper.__bench_wrapper__ = True
        return wrapper

    # ------------------------------------------------------- hooks per layer

    def _arg(self, args, kwargs, index: int, name: str, default):
        return args[index] if len(args) > index else kwargs.get(name, default)

    def _hooks(self, qual: str) -> dict:
        """Keyword arguments of ``_span`` for one wrapped function."""
        if qual == "integrate.integrate":
            def before(args, kwargs):
                integrands = tuple(self._arg(args, kwargs, 1, "integrands", ()))
                tol = tuple(self._arg(args, kwargs, 2, "tol", (1e-10, 1e-10)))
                self._repeat("integrate", (_problem_key(args[0]), tol, integrands))
                return self.counts["problem.rhs_evals"]

            def after(args, kwargs, traj, rhs_before):
                rhs = self.counts["problem.rhs_evals"] - rhs_before
                accepted = len(traj.conts)
                # one RHS call for k1, one inside the starting-step heuristic,
                # six per attempted step (FSAL reuses the seventh)
                attempted = max(0, math.ceil((rhs - 2) / 6))
                self.counts["integrate.calls"] += 1
                self.counts["integrate.accepted_steps"] += accepted
                self.counts["integrate.rejected_steps"] += max(0, attempted - accepted)
            return {"before": before, "after": after}

        if qual == "integrate.evaluate_along":
            def after(args, kwargs, series, state):
                grid = self._arg(args, kwargs, 2, "grid", 1024)
                self.counts["integrate.evaluate_along_calls"] += 1
                self.counts["integrate.evaluate_along_points"] += grid
                self.series_by_grid[grid] += 1
            return {"after": after}

        if qual == "verify.oracle_constant":
            def after(args, kwargs, series, state):
                self.counts["verify.oracle_points"] += self._arg(args, kwargs, 4, "grid", 1024)
            return {"after": after}

        if qual == "expr.simplify":
            def before(args, kwargs):
                self.counts["expr.simplify_calls"] += 1
                self._repeat("expr.simplify", args[0])
            return {"before": before}

        if qual == "expr.zero_check":
            def before(args, kwargs):
                self.counts["expr.zero_check_calls"] += 1
            return {"before": before}

        if qual == "problem.classify":
            def before(args, kwargs):
                self.counts["problem.classify_calls"] += 1
                samples = self._arg(args, kwargs, 1, "samples", 64)
                self._repeat("problem.classify", (_problem_key(args[0]), samples))
            return {"before": before}

        if qual == "expr.compile_fn":
            def before(args, kwargs):
                self.counts["expr.compile_fn_calls"] += 1
            return {"before": before, "result_counter": "expr.compiled_evals"}

        if qual == "problem.rhs":
            return {"result_counter": "problem.rhs_evals"}

        if qual == "invariants.InvariantSpec.compiled":
            return {"result_counter": "invariants.spec_evals"}

        if qual == "cli.dumps":
            def after(args, kwargs, text, state):
                self.counts["cli.report_bytes"] += len(text)
            return {"after": after, "collapse": True}

        return {}

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        """Rebind every traced name in every loaded module of the package."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for modname, funcs in SPAN_FUNCTIONS.items():
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            for fname in funcs:
                qual = f"{modname}.{fname}"
                orig = getattr(mod, fname)
                wrapper = self._span(qual, orig, **self._hooks(qual))
                for ns in modules:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._bindings.append((ns, attr, orig))
                            setattr(ns, attr, wrapper)
        for modname, cls_name, meth in SPAN_METHODS + (LEAF_METHOD,):
            cls = getattr(sys.modules[f"{PACKAGE}.{modname}"], cls_name)
            orig = cls.__dict__[meth]
            qual = f"{modname}.{cls_name}.{meth}"
            if (modname, cls_name, meth) == LEAF_METHOD:
                wrapper = self._leaf("integrate.sampled_points", orig)
            else:
                wrapper = self._span(qual, orig, **self._hooks(qual))
            self._bindings.append((cls, meth, orig))
            setattr(cls, meth, wrapper)

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._bindings):
            setattr(ns, attr, orig)
        self._restored = self._bindings
        self._bindings = []

    def check_restored(self) -> list[str]:
        """Names left bound to a wrapper or not bound to their original."""
        bad = [f"{getattr(ns, '__name__', ns)}.{attr}"
               for ns, attr, orig in self._restored if vars(ns).get(attr) is not orig]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in vars(mod).items():
                if getattr(value, "__bench_wrapper__", False):
                    bad.append(f"{name}.{attr}")
                elif isinstance(value, type):
                    bad.extend(f"{name}.{attr}.{meth}" for meth, fn in vars(value).items()
                               if getattr(fn, "__bench_wrapper__", False))
        return bad

    # ------------------------------------------------------------- deriving

    def derive(self) -> dict[str, float]:
        """Per-layer metrics of this pass from its spans and counters."""
        self_time = self_times(self.spans)
        c = self.counts
        leaf_time = float(c["integrate.sampled_points_time"])
        out = {
            "integrate.integrate_s": self_time["integrate.integrate"],
            "integrate.calls": c["integrate.calls"],
            "integrate.repeat_ratio": _ratio(c["integrate_repeats"], c["integrate.calls"]),
            "integrate.accepted_steps": c["integrate.accepted_steps"],
            "integrate.rejected_steps": c["integrate.rejected_steps"],
            "integrate.accept_ratio": _ratio(
                c["integrate.accepted_steps"],
                c["integrate.accepted_steps"] + c["integrate.rejected_steps"]),
            "problem.rhs_evals": c["problem.rhs_evals"],
            "integrate.sample_s": leaf_time,
            "integrate.sampled_points": c["integrate.sampled_points"],
            "integrate.evaluate_along_s": self_time["integrate.evaluate_along"],
            "integrate.evaluate_along_calls": c["integrate.evaluate_along_calls"],
            "integrate.evaluate_along_points": c["integrate.evaluate_along_points"],
            "integrate.drift_report_s": self_time["integrate.drift_report"],
            "verify.oracle_constant_s": self_time["verify.oracle_constant"],
            "verify.oracle_points": c["verify.oracle_points"],
            "verify.oracle_drift_report_s": self_time["verify.oracle_drift_report"],
            "verify.max_rel_drift": c["verify.max_rel_drift"],
            "invariants.spec_evals": c["invariants.spec_evals"],
            "invariants.construct_s": sum(self_time[n] for n in CONSTRUCT),
            "expr.compiled_evals": c["expr.compiled_evals"],
            "expr.compile_fn_s": self_time["expr.compile_fn"],
            "expr.compile_fn_calls": c["expr.compile_fn_calls"],
            "expr.parse_s": self_time["expr.parse"],
            "expr.simplify_s": self_time["expr.simplify"],
            "expr.simplify_calls": c["expr.simplify_calls"],
            "expr.simplify_repeat_ratio": _ratio(c["expr.simplify_repeats"],
                                                 c["expr.simplify_calls"]),
            "expr.diff_s": self_time["expr.diff"],
            "expr.zero_check_s": self_time["expr.zero_check"],
            "expr.zero_check_calls": c["expr.zero_check_calls"],
            "problem.classify_s": self_time["problem.classify"],
            "problem.classify_calls": c["problem.classify_calls"],
            "problem.classify_repeat_ratio": _ratio(c["problem.classify_repeats"],
                                                    c["problem.classify_calls"]),
            "problem.validate_lagrangian_s": self_time["problem.validate_lagrangian"],
            "check.refusals": c["check.refusals"],
            "cli.load_problem_s": self_time["cli.load_problem"],
            "cli.run_checks_s": self_time["cli.run_checks"],
            "cli.run_pipeline_s": self_time["cli.run_pipeline"],
            "cli.run_fixture_s": self_time["cli.run_fixture"],
            "cli.dumps_s": self_time["cli.dumps"],
            "cli.report_bytes": c["cli.report_bytes"],
            "trace.spans": len(self.spans),
            "series_by_grid": {str(g): n for g, n in sorted(self.series_by_grid.items())},
        }
        for layer in ("cli", "expr", "problem", "invariants", "integrate", "verify"):
            out[f"{layer}.self_s"] = sum(t for n, t in self_time.items()
                                         if n.split(".", 1)[0] == layer)
        out["integrate.self_s"] += leaf_time
        return out


def self_times(spans: list[list]) -> dict[str, float]:
    """Summed self time per span name: duration minus what direct child
    spans and aggregated leaf calls cover."""
    out: dict[str, float] = defaultdict(float)
    for _, name, start, end, _, _, child, leaf in spans:
        out[name] += (end - start) - child - leaf
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
