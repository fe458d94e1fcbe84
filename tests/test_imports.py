"""Import hygiene: no module of the package imports a name it never uses,
and none imports from the same module in two statements."""

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
