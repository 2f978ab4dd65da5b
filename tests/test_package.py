"""Checks on the package source itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import uberhom

SOURCE = Path(uberhom.__file__).parent


def test_no_assert_statements_in_the_package():
    # checks must keep working under ``python -O``, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_package_imports_only_the_standard_library():
    # the runtime depends on nothing outside the standard library
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}:{name}"
                for name in names
                if name != "__future__" and name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []
