"""Every public name of normsplit is used by the package, a script or the benchmark.

A name that only its own tests call is a helper to delete, not an API. The
walk counts identifiers, attribute names, imported names and string
constants (the benchmark reaches some attributes through getattr strings)
in every module but __init__.py, in scripts/ and in perfbench/. Uses inside
a name's own def or class do not count.

Likewise every field of a public dataclass is read by that code, by
attribute or through a getattr string: a field that is only passed at
construction or assigned, or read only by tests, is a setting to delete. And every
public method or property of a public class is used by that code outside
its own class: a method that only its own class calls is a private helper.

And every parameter with a default, of a public function, of a public
method of a public class or of a vecspace function, is passed by some call
of that code, by position or by keyword: a default that no caller overrides
is a constant, not an option. A call is matched to a function by its name.
"""

import ast
import dataclasses
import functools
import inspect
import types
from pathlib import Path

import normsplit

ROOT = Path(__file__).resolve().parents[1]


def _uses(tree: ast.AST) -> set:
    """(name, owners) for every use of a name, owners being the names of the
    defs and classes around it."""
    uses = set()

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
        uses.update((name, owners) for name in names if name and name not in owners)
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    walk(tree, frozenset())
    return uses


def _accessed_fields(tree: ast.AST) -> set:
    """Attribute names read anywhere, and getattr/hasattr string arguments.

    Keyword arguments at construction and assignments are not reads.
    """
    accessed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            accessed.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            accessed.add(node.args[1].value)
    return accessed


def _program_trees() -> list:
    files = [path for path in (ROOT / "src" / "normsplit").glob("*.py")
             if path.name != "__init__.py"]
    files += sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return [ast.parse(path.read_text(), filename=str(path)) for path in files]


def test_every_public_name_has_a_caller_outside_the_tests():
    used = {name for tree in _program_trees() for name, _ in _uses(tree)}
    public = [name for name in normsplit.__all__
              if not isinstance(getattr(normsplit, name), types.ModuleType)]
    assert sorted(name for name in public if name not in used) == []


def test_every_public_dataclass_field_is_accessed_outside_the_tests():
    accessed = set()
    for tree in _program_trees():
        accessed |= _accessed_fields(tree)
    classes = [obj for obj in map(normsplit.__dict__.get, normsplit.__all__)
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)]
    unused = {f"{cls.__name__}.{f.name}" for cls in classes
              for f in dataclasses.fields(cls) if f.name not in accessed}
    assert sorted(unused) == []


def test_every_public_method_is_used_outside_the_tests():
    uses = set().union(*map(_uses, _program_trees()))
    kinds = (types.FunctionType, property, functools.cached_property, classmethod, staticmethod)
    classes = [obj for obj in map(normsplit.__dict__.get, normsplit.__all__) if isinstance(obj, type)]
    unused = {f"{cls.__name__}.{name}" for cls in classes for name, value in vars(cls).items()
              if not name.startswith("_") and isinstance(value, kinds)
              and not any(used == name and cls.__name__ not in owners for used, owners in uses)}
    assert sorted(unused) == []


def _defaulted_parameters() -> list:
    """(qualified name, function name, index, parameter) for each parameter
    with a default; index is its place among the arguments a call gives."""
    functions = []
    for name in normsplit.__all__:
        obj = getattr(normsplit, name)
        if isinstance(obj, types.FunctionType):
            functions.append((name, name, obj, 0))
        elif isinstance(obj, type):
            functions += [(f"{name}.{attr}", attr, value, 1) for attr, value in vars(obj).items()
                          if not attr.startswith("_") and isinstance(value, types.FunctionType)]
    vecspace = normsplit.vecspace
    functions += [(f"vecspace.{name}", name, obj, 0) for name, obj in vars(vecspace).items()
                  if not name.startswith("_") and isinstance(obj, types.FunctionType)
                  and obj.__module__ == vecspace.__name__]
    out = []
    for qualified, name, function, skip in functions:  # skip a method's self
        params = list(inspect.signature(function).parameters.values())[skip:]
        out += [(qualified, name, index, p) for index, p in enumerate(params)
                if p.default is not inspect.Parameter.empty]
    return out


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    calls = [node for tree in _program_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]

    def passed(name, index, param):
        positional = param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
        for call in calls:
            func = call.func
            if getattr(func, "id", None) != name and getattr(func, "attr", None) != name:
                continue
            if param.name in {keyword.arg for keyword in call.keywords}:
                return True
            if positional and (index < len(call.args)
                               or any(isinstance(arg, ast.Starred) for arg in call.args)):
                return True
        return False

    unpassed = {f"{qualified}({param.name})" for qualified, name, index, param
                in _defaulted_parameters() if not passed(name, index, param)}
    assert sorted(unpassed) == []
