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
