"""The benchmark's tracer (``bench/tracing.py``) wraps public names of the
package by ``getattr``; a name it lists that the package no longer has
breaks the traced benchmark run, not the program, so it is guarded here."""

import importlib
import importlib.util
import inspect
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(tracing, name):
    return importlib.import_module(f"{tracing.PACKAGE}.{name}")


def test_every_traced_name_resolves_in_the_package():
    tracing = _tracing()
    missing = [f"{mod}.{name}" for mod, names in tracing.SPAN_FUNCTIONS.items()
               for name in names if not callable(getattr(_module(tracing, mod), name, None))]
    # methods are wrapped from the class's own namespace
    missing += [f"{mod}.{cls}.{meth}"
                for mod, cls, meth in tracing.SPAN_METHODS + (tracing.LEAF_METHOD,)
                if meth not in vars(getattr(_module(tracing, mod), cls, object))]
    assert missing == []


def test_the_grid_arguments_the_tracer_reads_keep_their_positions():
    # its hooks read the grid positionally: argument 2 of evaluate_along
    # and 4 of oracle_constant
    tracing = _tracing()
    for mod, name, index in (("integrate", "evaluate_along", 2),
                             ("verify", "oracle_constant", 4)):
        params = list(inspect.signature(getattr(_module(tracing, mod), name)).parameters)
        assert params[index] == "grid", (mod, name)
