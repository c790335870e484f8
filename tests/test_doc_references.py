"""Every file path and test id that README.md and ROADMAP.md cite exists.

A cited path such as `scripts/name.py` is a file under the repository root.
A cited test id `file.py::Name::name` names a test module, by its path from
the root or by its name under tests/, and in it each name in turn: a
top-level def or class, then a def or class in that class's body. A
parametrized case in brackets after the last name is not checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "ROADMAP.md")


def _resolves(test_id: str) -> bool:
    path, *names = test_id.split("::")
    module = ROOT / path if "/" in path else ROOT / "tests" / path
    if not module.is_file():
        return False
    body = ast.parse(module.read_text()).body
    for name in names:
        found = [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_cited_paths_and_test_ids_exist():
    text = "\n".join((ROOT / doc).read_text() for doc in DOCS)
    paths = set(re.findall(r"[\w.-]+(?:/[\w.-]+)+\.py\b", text))
    test_ids = set(re.findall(r"[\w/.-]+\.py(?:::\w+)+", text))
    missing = [path for path in paths if not (ROOT / path).is_file()]
    missing += [test_id for test_id in test_ids if not _resolves(test_id)]
    assert sorted(missing) == []
