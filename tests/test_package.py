"""Checks on the package source itself."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
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


def test_every_public_name_resolves():
    # a stale ``__all__`` entry breaks ``from uberhom.<module> import *``
    missing = []
    exported = 0
    for path in sorted(SOURCE.glob("*.py")):
        module = importlib.import_module("uberhom" if path.stem == "__init__" else f"uberhom.{path.stem}")
        names = getattr(module, "__all__", ())
        exported += len(names)
        missing += [f"{path.stem}.{name}" for name in names if not hasattr(module, name)]
    assert exported
    assert missing == []


def _resolves(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_every_name_reference_in_the_package_resolves():
    # a docstring or comment that points at a renamed or retired helper,
    # as ``<module>.<name>`` or :func:`name`, misleads its reader
    modules = {path.stem: importlib.import_module(f"uberhom.{path.stem}") for path in SOURCE.glob("*.py")}
    modules.pop("__init__")
    qualified = re.compile(r"``(%s)\.(\w+(?:\.\w+)*)" % "|".join(modules))
    checked, missing = 0, []
    for stem, module in sorted(modules.items()):
        text = (SOURCE / f"{stem}.py").read_text(encoding="utf-8")
        refs = [(modules[m], name) for m, name in qualified.findall(text)]
        for name in re.findall(r":func:`([\w.]+)`", text):
            head, _, rest = name.partition(".")
            refs.append((modules[head], rest) if rest and head in modules else (module, name))
        checked += len(refs)
        missing += [f"{stem}: {owner.__name__}.{name}" for owner, name in refs if not _resolves(owner, name)]
    assert checked
    assert missing == []


def test_bench_trace_targets_resolve():
    # the benchmark traces these callables by name; a rename shows up here
    # rather than only in a traced benchmark run
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    assert targets
    missing = []
    for module, path in targets:
        owner = importlib.import_module(f"uberhom.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert missing == []


def test_every_definition_in_the_package_is_referenced():
    # a def or class that no code names is dead; names in string constants
    # count, since the benchmark traces callables listed as strings.  The
    # test oracles are held to it too, so the twin of a deleted kernel
    # method cannot linger there
    root = Path(__file__).resolve().parents[1]
    used: set[str] = set()
    for folder in ("src", "tests", "bench"):
        for path in (root / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.update(re.findall(r"\w+", node.value))
    unused = [
        f"{path.name}:{node.lineno}:{node.name}"
        for path in [*sorted(SOURCE.glob("*.py")), root / "tests" / "oracles.py"]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert unused == []


def test_no_module_level_name_is_defined_in_two_modules():
    # one helper per job: a twin of a kernel helper (such as a second bitset
    # splitter) shows up here instead of drifting from the first
    where: dict[str, set[str]] = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    where.setdefault(name, set()).add(path.stem)
    assert {name: sorted(modules) for name, modules in where.items() if len(modules) > 1} == {}


def test_importing_the_package_loads_no_process_pool():
    # the multiprocessing import alone adds about 2.6 MB to every process
    # that imports the package, the CLI and the benchmark included
    modules = [f"uberhom.{path.stem}" for path in sorted(SOURCE.glob("*.py")) if path.stem != "__init__"]
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print([n for n in ('multiprocessing', 'concurrent.futures') if n in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _own_nodes(func):
    """The nodes of a function's body, not descending into the functions,
    lambdas and classes defined inside it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def test_no_function_assigns_a_local_it_never_reads():
    # a local that is written and never read is dead code, or a sign that a
    # later line reads the wrong name; a nested function reading it counts
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [node for node in ast.walk(func) if isinstance(node, ast.Name)]
            read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
            shared = {name for node in ast.walk(func) if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
            found += [
                f"{path.name}:{node.lineno}:{func.name}:{node.id}"
                for node in _own_nodes(func)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)
                and not node.id.startswith("_")
                and node.id not in read | shared
            ]
    assert found == []
