"""Every name a library module imports is used there or re-exported,
every local a library function assigns and every parameter it takes is
read, and every name the package imports from a module is in that
module's __all__."""

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


def unused_parameters(source: str) -> list[str]:
    """Parameters of named functions that neither the function nor a
    nested function reads; self, cls and names starting with "_" are
    exempt, and so are lambdas."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {
            n.id for n in ast.walk(func)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        found += [
            f"{func.name}: {p.arg} (line {p.lineno})"
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")
        ]
    return sorted(found)


def test_unused_parameters_checker():
    source = (
        "def f(self, a, b, *args, c=1, _d=2, **kw):\n"   # b, args and c unread
        "    g = lambda x, y: x\n"                        # lambdas are exempt
        "    def h(e):\n"
        "        return a + kw['k']\n"                     # e unread; a read by h
        "    return g, h\n"
        "class C:\n"
        "    @classmethod\n"
        "    def make(cls, n):\n"
        "        return [n for _ in range(2)]\n"
    )
    assert unused_parameters(source) == [
        "f: args (line 1)", "f: b (line 1)", "f: c (line 1)", "h: e (line 3)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


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


SETTABLE_DEFAULTS_CEILING = 11
SRC_LINES_CEILING = 4254


def _called_name(node):
    """The name of a called (or decorating) function, dotted or not."""
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(_called_name(deco) == "dataclass" for deco in cls.decorator_list)


def _sets_default(value) -> bool:
    """A dataclass field's value sets a default, unless it is a field(...)
    call without default= or default_factory= (such as field(repr=False))."""
    if isinstance(value, ast.Call) and _called_name(value) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def settable_defaults(source: str) -> int:
    """Defaulted positional and keyword-only parameters of every function
    and lambda, plus the fields with defaults of every dataclass."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES):
            a = node.args
            count += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and _sets_default(s.value) for s in node.body)
    return count


def test_settable_defaults_counter():
    source = (
        "import dataclasses\n"
        "def f(a, b=1, *args, c, d=None, **kw):\n"     # b and d
        "    return lambda x, y=2: x\n"                  # y
        "@dataclass(frozen=True)\n"
        "class P:\n"
        "    n: int\n"
        "    m: int = 3\n"                               # m
        "    def g(self, k=0): ...\n"                    # k
        "@dataclasses.dataclass\n"
        "class Q:\n"
        "    t: float = 1e-9\n"                          # t
        "    e: list = field(repr=False)\n"             # a marker, no default
        "    h: dict = dataclasses.field(hash=False)\n"  # a marker, no default
        "    v: list = field(default_factory=list)\n"   # v
        "    w: int = field(default=0, repr=False)\n"   # w
        "class R:\n"
        "    u: int = 4\n"                               # not a dataclass
    )
    assert settable_defaults(source) == 8


def test_settable_defaults_bounded():
    """A new knob raises this ceiling in the change that adds it."""
    total = sum(settable_defaults(p.read_text()) for p in MODULES)
    total += settable_defaults(Path(syncgames.__file__).read_text())
    assert total <= SETTABLE_DEFAULTS_CEILING


def test_src_lines_bounded():
    """A change that grows src/syncgames raises this ceiling in its own diff."""
    total = sum(len(p.read_text().splitlines()) for p in MODULES)
    total += len(Path(syncgames.__file__).read_text().splitlines())
    assert total <= SRC_LINES_CEILING
