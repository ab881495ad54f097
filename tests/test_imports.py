"""Every name a library module imports is used there or re-exported,
every local a library function assigns is read, and every name the package
imports from a module is in that module's __all__."""

import ast
import importlib
from pathlib import Path

import pytest

import syncgames

MODULES = sorted(
    p for p in Path(syncgames.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_checker_flags_unused_and_keeps_used():
    source = "import math\nimport os.path\nfrom x import a, b as c\n__all__ = ['a']\nos.sep\n"
    assert unused_imports(source) == ["c (line 3)", "math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(func):
    """Nodes of func's body, not descending into nested functions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list[str]:
    """Locals a function assigns and neither it nor a nested function
    reads; names starting with "_" are exempt."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {
            n.id for n in ast.walk(func)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        outer = set()
        stored = {}
        for node in _own_nodes(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)  # x += 1 reads x
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
        found += [
            f"{func.name}: {name} (line {line})"
            for name, line in stored.items()
            if name not in read | outer and not name.startswith("_")
        ]
    return sorted(found)


def test_unused_locals_checker():
    source = (
        "def f(x):\n"
        "    a, b = x\n"             # b is never read
        "    c = 0\n"
        "    c += 1\n"               # augmented assignment reads c
        "    _d = 2\n"               # exempt
        "    total = 0\n"
        "    def g():\n"
        "        nonlocal total\n"
        "        total = a\n"        # the outer total, read by f below
        "        e = 3\n"            # g's own unused local
        "    g()\n"
        "    return total\n"
        "def h():\n"
        "    seen = [k for k in range(3)]\n"
        "    return len(seen)\n"
    )
    assert unused_locals(source) == ["f: b (line 2)", "g: e (line 10)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


def unexported_imports(init_source: str, exports: dict) -> list[str]:
    """Names the package __init__ imports from a sibling module that the
    module's __all__ (exports[module]) does not list."""
    missing = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = exports[node.module]
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    return sorted(missing)


def test_unexported_imports_checker():
    source = "import os\nfrom .a import x, y\nfrom .b import z\nfrom os import sep\n"
    assert unexported_imports(source, {"a": ["x"], "b": ["z"]}) == ["a.y"]
    assert unexported_imports(source, {"a": ["x", "y"], "b": []}) == ["b.z"]


def test_package_imports_only_exported_names():
    exports = {p.stem: importlib.import_module(f"syncgames.{p.stem}").__all__ for p in MODULES}
    init = Path(syncgames.__file__).read_text()
    assert unexported_imports(init, exports) == []
