"""Code hygiene: no module of the package imports a name it never uses,
none imports from the same module in two statements, and no private
function, class or module constant is left that nothing refers to."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "legch").glob("*.py"))


def import_problems(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: Counter = Counter()
    modules: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            modules["." * node.level + (node.module or "")] += 1
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    problems = [f"unused import {name}" for name in sorted(bound) if name not in used]
    problems += [f"{name} imported {n} times" for name, n in sorted(bound.items()) if n > 1]
    problems += [
        f"from {module} import in {n} statements" for module, n in sorted(modules.items()) if n > 1
    ]
    return problems


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_or_repeated_imports(path):
    assert import_problems(path.read_text()) == []


def test_checker_catches_both_faults():
    source = "from .a import x, y\nfrom .a import z\nimport json\nprint(x, z)\n"
    assert import_problems(source) == [
        "unused import json",
        "unused import y",
        "from .a import in 2 statements",
    ]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The `_`-prefixed functions, methods, classes and module constants
    that no module of `sources` (file name -> text) refers to."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{file}:{node.lineno}")
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defined.setdefault(t.id, f"{file}:{node.lineno}")
    return sorted(
        f"{where} {name}"
        for name, where in defined.items()
        if name.startswith("_") and not name.endswith("__") and name not in used
    )


def test_no_dead_private_code():
    assert dead_private_names({p.name: p.read_text() for p in SOURCES}) == []


def test_checker_catches_dead_private_code():
    source = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "def _helper():\n    return _USED\n"
        "def _dead():\n    pass\n"
        "class _Gone:\n    def _method(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "print(_helper())\n"
    )
    assert dead_private_names({"m.py": source}) == [
        "m.py:2 _UNUSED",
        "m.py:5 _dead",
        "m.py:7 _Gone",
        "m.py:8 _method",
    ]
