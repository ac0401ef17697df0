"""Source checks that need no tool beyond the standard library."""

import ast
from pathlib import Path

import pbcurv

SRC = Path(pbcurv.__file__).parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name a top-level import binds and the module never reads.

    `from __future__` imports and statements with a line marked `# noqa` are exempt.
    """
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", "") == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        bound += [(node.lineno, (alias.asname or alias.name).split(".")[0]) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re  # noqa\n"
        "from math import (\n    e,\n    pi,\n)\n"
        "x = pi\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "e")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_no_unused_imports_in_src():
    # __init__.py imports to re-export
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


# The parser is recursive descent; nothing else in src/ may recurse.
RECURSION_ALLOWED = {"_Parser.parse_expr", "_fold_constant"}


def self_calls(source: str) -> list[tuple[int, str]]:
    """(line, qualified name) of each function that calls itself directly.

    A direct call is the function's bare name, or self.<name> inside a
    method of the same class.
    """
    found = []

    def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    bare = isinstance(func, ast.Name) and func.id == name and not in_class
                    method = (
                        in_class
                        and isinstance(func, ast.Attribute)
                        and func.attr == name
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                    )
                    if bare or method:
                        found.append((child.lineno, prefix + name))
                        break
                visit(child, f"{prefix}{name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(source), "", False)
    return found


def test_self_calls_are_found():
    source = (
        "def walk(node):\n    return [walk(k) for k in node]\n"
        "class Tree:\n"
        "    def __init__(self):\n        super().__init__()\n"
        "    def index(self):\n        return VARIABLES.index(self.name)\n"
        "    def size(self):\n        return 1 + self.size()\n"
        "def flat(xs):\n    return sorted(xs)\n"
    )
    assert self_calls(source) == [(1, "walk"), (8, "Tree.size")]


def test_no_recursion_in_src_outside_the_parser():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in self_calls(path.read_text())
        if name not in RECURSION_ALLOWED
    ]
    assert found == []
