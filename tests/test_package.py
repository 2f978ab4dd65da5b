"""Checks on the package source itself."""

from __future__ import annotations

import ast
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
