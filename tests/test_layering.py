"""The symbolic layers stay free of numpy: parsing, checking and building
invariants never need an array."""

import ast
import pathlib

import pytest

import jacobi_invariants

SOURCE = pathlib.Path(jacobi_invariants.__file__).parent


@pytest.mark.parametrize("module", ["expr", "problem", "invariants", "catalog"])
def test_symbolic_module_does_not_import_numpy(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert not [name for name in imported if name.split(".")[0] == "numpy"], module
