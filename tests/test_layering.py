"""The symbolic layers stay free of numpy: parsing, checking and building
invariants never need an array, and the layers that do build arrays load
numpy on first use, so the package, ``check`` and ``catalog list`` start
without it.  They start without ``dataclasses`` and ``inspect`` too: the
package's records are NamedTuples and slotted classes.  Every function,
class and method the package defines is read by the package itself."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

import jacobi_invariants
from jacobi_invariants import catalog

SOURCE = pathlib.Path(jacobi_invariants.__file__).parent


def _imported(nodes):
    names = [alias.name for node in nodes if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in nodes
              if isinstance(node, ast.ImportFrom) and node.module]
    return [name for name in names if name.split(".")[0] == "numpy"]


def _import_time_nodes(body):
    """The statements of body that run when the module is imported: all of
    them, less function bodies and ``if TYPE_CHECKING:`` blocks."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _import_time_nodes(node.orelse)
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _import_time_nodes(getattr(node, field, []))


@pytest.mark.parametrize("module", ["expr", "problem", "invariants", "catalog"])
def test_symbolic_module_does_not_import_numpy(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    assert not _imported(list(ast.walk(tree))), module


@pytest.mark.parametrize("module", ["integrate", "verify", "cli", "__init__"])
def test_module_imports_no_numpy_at_import_time(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    assert not _imported(list(_import_time_nodes(tree.body))), module


def _loaded(name: str, code: str) -> bool:
    """Whether a fresh interpreter has the module name loaded after running
    code."""
    child = f"import sys\nsys.path.insert(0, {str(SOURCE.parent)!r})\n{code}\n" \
            f"print({name!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr[-500:]
    return proc.stdout.splitlines()[-1] == "True"


def _check_and_catalog_list(tmp_path) -> tuple[str, str]:
    """Code that runs ``check`` on PG18's problem file, then ``catalog
    list``, and the path of that file."""
    path = tmp_path / "pg18.json"
    path.write_text(json.dumps(catalog.get("PG18").data))
    return (f"from jacobi_invariants import cli\n"
            f"assert cli.main(['check', {str(path)!r}]) == 0\n"
            f"assert cli.main(['catalog', 'list']) == 0"), str(path)


def test_import_loads_no_numpy():
    assert not _loaded("numpy", "import jacobi_invariants")


def test_check_and_catalog_list_load_no_numpy(tmp_path):
    code, path = _check_and_catalog_list(tmp_path)
    assert not _loaded("numpy", code)
    # the test sees numpy once an integration needs it
    assert _loaded("numpy", code + f"\ncli.main(['run', {path!r}])")


@pytest.mark.parametrize("name", ["dataclasses", "inspect"])
def test_start_up_loads_no_dataclasses_or_inspect(tmp_path, name):
    # records are NamedTuples and slotted classes; dataclasses would pull
    # in inspect, ast, dis and tokenize
    assert not _loaded(name, "import jacobi_invariants")
    assert not _loaded(name, _check_and_catalog_list(tmp_path)[0])


def _float_divisions_into_rat(tree):
    """Line numbers of ``Rat(...)`` and ``ex.Rat(...)`` calls whose
    arguments hold a true division."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "Rat":
            continue
        for arg in node.args + [kw.value for kw in node.keywords]:
            if any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div)
                   for sub in ast.walk(arg)):
                yield node.lineno


def test_no_true_division_builds_a_constant():
    # a constant's value may be an int, and an int true division is a
    # float: an exact quotient is Rat(n, d)
    assert list(_float_divisions_into_rat(ast.parse("ex.Rat(c / k) + Rat(2 * (a / b))"))) == [1, 1]
    found = {path.name: lines for path in sorted(SOURCE.glob("*.py"))
             if (lines := list(_float_divisions_into_rat(ast.parse(path.read_text()))))}
    assert not found


# Fraction's private API: the keyword that skips normalization (3.10 and
# 3.11), its slots, and the constructor from a coprime pair (3.12 on)
PRIVATE_FRACTION_NAMES = {"_normalize", "_numerator", "_denominator", "_from_coprime_ints"}


def _private_fraction_uses(tree):
    """Line numbers of keywords, attributes and strings (as in getattr)
    that name Fraction's private API."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword):
            name = node.arg
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in PRIVATE_FRACTION_NAMES:
            yield node.lineno


def test_no_module_uses_private_fraction_api():
    # requires-python is >=3.10, and that API differs between 3.10 and 3.13
    probe = "Fraction(n, d, _normalize=False)\nq._numerator\ngetattr(Fraction, '_from_coprime_ints')"
    assert sorted(_private_fraction_uses(ast.parse(probe))) == [1, 2, 3]
    found = {path.name: lines for path in sorted(SOURCE.glob("*.py"))
             if (lines := list(_private_fraction_uses(ast.parse(path.read_text()))))}
    assert not found


# the regime tags a classification returns
REGIME_TAGS = {"AUTONOMOUS", "TIME_INDEPENDENT_PHI", "GENERAL"}


def _calls_by_function(tree, name: str):
    """(enclosing function, line) of each call of ``name`` or ``x.name``;
    None for a call at module level."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    yield function, child.lineno
            yield from visit(child, function)
    return list(visit(tree, None))


def _imported_names(tree):
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_the_regime_is_dispatched_once_in_run_checks():
    # the builders in invariants assume the regime that cli.run_checks
    # classified, and classify no problem themselves
    calls = {path.stem: [f for f, _ in found] for path in sorted(SOURCE.glob("*.py"))
             if (found := _calls_by_function(ast.parse(path.read_text()), "classify"))}
    assert calls == {"cli": ["run_checks"]}
    tree = ast.parse((SOURCE / "invariants.py").read_text())
    read = _imported_names(tree) | {node.attr for node in ast.walk(tree)
                                    if isinstance(node, ast.Attribute)}
    assert not read & (REGIME_TAGS | {"classify"})


def test_every_generated_source_is_compiled_in_expr_code():
    # expr._code is the one compile, which turns the compiler's refusal
    # into an ExpressionTooLargeError, and _define the one exec, of its code
    calls = {builtin: {path.stem: [f for f, _ in found] for path in sorted(SOURCE.glob("*.py"))
                       if (found := _calls_by_function(ast.parse(path.read_text()), builtin))}
             for builtin in ("compile", "exec", "eval")}
    assert calls == {"compile": {"expr": ["_code"]}, "exec": {"expr": ["_define"]}, "eval": {}}


def _names(tree) -> set[str]:
    """Every name the module reads, binds, imports, or reads as an
    attribute or a string (as in getattr)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_compiled_evaluator_comes_from_one_generator():
    # compile_fn is the generator's one-expression case, so nothing in expr
    # calls it, and the slow path is expr's own: no other module names _eval
    probe = "from .expr import _eval\nex._eval(e)\ngetattr(ex, '_eval')"
    assert "_eval" in _names(ast.parse(probe))
    assert not _calls_by_function(ast.parse((SOURCE / "expr.py").read_text()), "compile_fn")
    assert not [path.stem for path in sorted(SOURCE.glob("*.py")) if path.stem != "expr"
                if "_eval" in _names(ast.parse(path.read_text()))]


def test_every_hypothesis_row_is_made_by_problem_check():
    # outside expr, problem.vanishes is the one zero test, and a hypothesis
    # row is a CheckReport built by problem.check, or by cli.run_checks for
    # a row that is not a zero test
    calls = {name: {path.stem: sorted({f for f, _ in found})
                    for path in sorted(SOURCE.glob("*.py")) if path.stem != "expr"
                    if (found := _calls_by_function(ast.parse(path.read_text()), name))}
             for name in ("zero_check", "CheckReport")}
    assert calls == {"zero_check": {"problem": ["vanishes"]},
                     "CheckReport": {"cli": ["run_checks"], "problem": ["check"]}}


def _private_reads_of_invariants(tree):
    """Names starting with ``_`` that the module imports from, or reads
    as attributes of, the invariants module."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module in (None, "jacobi_invariants")
               for alias in node.names if alias.name == "invariants"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("invariants"):
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and node.attr.startswith("_")):
            yield node.attr


def test_cli_reads_no_private_name_of_invariants():
    probe = "from . import invariants as inv\nfrom .invariants import _b\ninv._a(inv.c)"
    assert sorted(_private_reads_of_invariants(ast.parse(probe))) == ["_a", "_b"]
    assert not list(_private_reads_of_invariants(ast.parse((SOURCE / "cli.py").read_text())))


# definitions that nothing in src/ reads, all kept for bench/tracing.py,
# which wraps oracle_constant and Trajectory.state by name; ROADMAP item
# 1, the benchmark change that retargets the tracer, frees each
UNREFERENCED = {
    "verify.oracle_constant",      # ROADMAP item 1: a traced span
    "verify._prefix_simpson",      # ROADMAP item 1: oracle_constant's quadrature
    "integrate.Trajectory.state",  # ROADMAP item 1: the tracer's leaf method
    "integrate.AugmentedState",    # ROADMAP item 1: what Trajectory.state returns
}


def _unreferenced(modules: dict[str, ast.AST]) -> list[str]:
    """Qualified names of the functions, classes and methods of modules
    that no live code reads.  A read inside the definition itself does not
    count, nor one inside a definition that is unreferenced in turn.  A
    method counts attribute reads (``obj.name``) only, anything else bare
    names too; dunder methods are called implicitly and are left out."""
    defs, reads = [], {}

    def visit(node, qualified, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    defs.append((f"{qualified}.{name}", name,
                                 isinstance(node, ast.ClassDef), child))
                visit(child, f"{qualified}.{name}", enclosing | {child})
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                reads.setdefault(child.id, []).append((False, enclosing))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                reads.setdefault(child.attr, []).append((True, enclosing))
            visit(child, qualified, enclosing)

    for module, tree in modules.items():
        visit(tree, module, frozenset())
    dead: set = set()
    while True:
        now = {node for _, name, method, node in defs
               if not any((attribute or not method) and node not in within
                          and not within & dead
                          for attribute, within in reads.get(name, ()))}
        if now == dead:
            return sorted(qualified for qualified, _, _, node in defs if node in dead)
        dead = now


def test_every_definition_in_src_is_read_in_src():
    # a function that only tests call belongs beside them, in helpers.py;
    # __init__ re-exports names, which is not a use
    probe = ("def helper(): pass\n"
             "def unused(): return helper()\n"
             "def recursive(): return recursive()\n"
             "def used(state): return state\n"
             "class C:\n"
             "    def state(self): return state\n"
             "    def __len__(self): return 0\n"
             "used(C)\n")
    assert _unreferenced({"m": ast.parse(probe)}) == [
        "m.C.state", "m.helper", "m.recursive", "m.unused"]
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"}
    assert set(_unreferenced(modules)) == UNREFERENCED
