"""Seeded hostile-input run of the CLI's exit-code contract.

    PYTHONPATH=src python tests/fuzz_cli.py --seed N --files M

Builds M problem files, each a symbolic_check or long_window problem of
``bench/workloads.py`` (seed N; 2 in 5 each) or a fixture's file, with one field
mutated: an expression times a new factor or plus a new term, an
expression replaced by a new one, a number made extreme, or the domain
changed.  On each file it runs ``check``, ``run --grid 64`` and
``run --oracle --grid 64`` through ``cli.main`` in this process, under a
2 GB address-space limit and a 10 s alarm per command, and prints one
JSON line per finding: an exit code outside 0-3, an exit 2 without an
``error:`` line, an exception out of ``main``, or a timeout.  The last
line is a summary; the exit code is 1 when there is a finding.

pytest does not collect this file; it is a longer run than tier 1 holds.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import pathlib
import random
import resource
import signal
import sys
import tempfile
import time
import traceback

from jacobi_invariants import catalog, cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"
ADDRESS_SPACE = 2 << 30
ALARM_S = 10
COMMANDS = (["check"], ["run", "--grid", "64"], ["run", "--oracle", "--grid", "64"])
EXPR_KEYS = ("phi", "B", "delta1", "delta2", "eta", "rho1", "rho2")
NUM_KEYS = ("t0", "t_end", "x0", "v0")
EXTREMES = (0.0, -0.0, 5e-324, 1e-320, 2.2e-308, 1e-300, 1e-12, 1e9, 1e15, 1e120,
            1e300, 1.7976931348623157e308, -1e300, -1e-300)
FACTORS = ("x", "t", "exp(x)", "exp(-t)", "ln(x)", "x^(1/3)", "(1 + x)^(-1)", "sin(t)",
           "1e300", "1e-300", "0", "(x - 1)^2", "sqrt(x)", "x^100")


class CommandTimeout(BaseException):
    """Raised by the alarm; a BaseException, so no ``except Exception``
    in the program swallows it."""


def _on_alarm(signum, frame):
    raise CommandTimeout()


def _workloads():
    # dataclasses looks the module up in sys.modules while it builds Case
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _sources(seed: int) -> tuple[list[dict], ...]:
    """The unmutated problems in three groups: 150 symbolic_check problems
    of the seed, 20 long_window ones, and the six fixtures' files with the
    two long windows of tests/data."""
    wl = _workloads()
    fixtures = [catalog.get(fid).data for fid in catalog.ids()]
    fixtures += [json.loads(path.read_text())
                 for path in sorted((ROOT / "tests" / "data").glob("*_long.json"))]
    return ([case.data for case in itertools.islice(wl.symbolic_cases(seed), 150)],
            [case.data for case in itertools.islice(wl.long_window_cases(seed), 20)],
            fixtures)


def _number(rng: random.Random) -> float:
    if rng.random() < 0.6:
        return rng.choice(EXTREMES)
    return rng.choice((1, -1)) * 10.0 ** rng.uniform(-320, 308)


def _expression(rng: random.Random, depth: int = 3) -> str:
    """A random expression over t, x and small rationals."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(("t", "x", "1", "2", "1/2", "-3", f"{_number(rng):.17g}"))
    pick = rng.random()
    a = _expression(rng, depth - 1)
    if pick < 0.5:
        op = rng.choice(("+", "-", "*", "/", "^"))
        b = _expression(rng, depth - 1) if op != "^" else rng.choice(("2", "-1", "1/2", "3/2", "7"))
        return f"({a}) {op} ({b})"
    return f"{rng.choice(('exp', 'ln', 'sin', 'cos', 'sqrt'))}({a})"


def mutated(data: dict, rng: random.Random) -> tuple[str, dict]:
    """(mutation, a copy of data with one field changed)."""
    data = json.loads(json.dumps(data))
    exprs = [k for k in EXPR_KEYS if isinstance(data.get(k), str)]
    kind = rng.choice(("factor", "term", "expression", "number", "param", "domain"))
    if kind in ("factor", "term", "expression") and exprs:
        key = rng.choice(exprs)
        if kind == "factor":
            data[key] = f"({data[key]}) * ({rng.choice(FACTORS)})"
        elif kind == "term":
            data[key] = f"({data[key]}) + ({_expression(rng, 2)})"
        else:
            data[key] = _expression(rng)
        return f"{kind} {key}", data
    if kind == "param" and data.get("params"):
        key = rng.choice(sorted(data["params"]))
        data["params"][key] = _number(rng)
        return f"param {key}", data
    if kind == "domain":
        t0, t_end = float(data["t0"]), float(data["t_end"])
        x0 = float(data["x0"])
        width = 10.0 ** rng.uniform(-320, 308)
        data["domain"] = rng.choice((
            [t0, t_end, x0 - width, x0 + width],
            [t0, t_end, x0, x0],
            [t0, t_end, x0 + width, x0 - width],
            [t0 - width, t_end + width, x0 - 1.0, x0 + 1.0],
        ))
        return "domain", data
    key = rng.choice(NUM_KEYS)
    data[key] = _number(rng)
    if key == "t_end" and rng.random() < 0.5:
        data["t0"] = 0.0
        data.pop("domain", None)
    return f"number {key}", data


def run_command(argv: list[str]) -> tuple[str | None, str]:
    """(finding or None, detail) of cli.main on argv."""
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except CommandTimeout:
        return "timeout", f"over {ALARM_S} s"
    except BaseException as exc:  # noqa: BLE001 - every escape is a finding
        return "exception", "".join(traceback.format_exception_only(exc)).strip()
    finally:
        signal.alarm(0)
    if code not in (0, 1, 2, 3):
        return "exit code", str(code)
    if code == 2 and not err.getvalue().startswith("error: "):
        return "exit 2 without an error line", err.getvalue()[-300:]
    return None, str(code)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--files", type=int, default=200)
    args = ap.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    signal.signal(signal.SIGALRM, _on_alarm)
    rng = random.Random(f"fuzz_cli:{args.seed}")
    sources = _sources(args.seed)
    findings = commands = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "problem.json")
        for index in range(args.files):
            group = rng.choices(sources, weights=(2, 2, 1))[0]
            mutation, data = mutated(rng.choice(group), rng)
            with open(path, "w") as f:
                json.dump(data, f)
            for command in COMMANDS:
                commands += 1
                finding, detail = run_command([*command, path])
                if finding is not None:
                    findings += 1
                    print(json.dumps({"seed": args.seed, "file": index, "command": command,
                                      "finding": finding, "detail": detail,
                                      "mutation": mutation, "problem": data}), flush=True)
    print(json.dumps({"seed": args.seed, "files": args.files, "commands": commands,
                      "findings": findings,
                      "seconds": round(time.perf_counter() - start, 1)}))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
