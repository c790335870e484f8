"""Every public name of normsplit is used by the package, a script or the benchmark.

A name that only its own tests call is a helper to delete, not an API. The
walk counts identifiers, attribute names, imported names and string
constants (the benchmark reaches some attributes through getattr strings)
in every module but __init__.py, in scripts/ and in perfbench/. Uses inside
a name's own def or class do not count.
"""

import ast
import types
from pathlib import Path

import normsplit

ROOT = Path(__file__).resolve().parents[1]


def _used_names(tree: ast.AST) -> set:
    used = set()

    def walk(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name.split(".")[-1], node.asname]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value] if node.value.isidentifier() else []
        else:
            names = []
        used.update(name for name in names if name and name not in owners)
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    walk(tree, frozenset())
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    files = [path for path in (ROOT / "src" / "normsplit").glob("*.py")
             if path.name != "__init__.py"]
    files += sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    used = set()
    for path in files:
        used |= _used_names(ast.parse(path.read_text(), filename=str(path)))
    public = [name for name in normsplit.__all__
              if not isinstance(getattr(normsplit, name), types.ModuleType)]
    assert sorted(name for name in public if name not in used) == []
