"""Every module of the package and of the tests reads each name it imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__ imports names to re-export them, not to read them
MODULES = sorted(p for p in [*ROOT.glob("src/weakconv/*.py"), *ROOT.glob("tests/*.py")]
                 if p.name != "__init__.py")


def unread_imports(source: str) -> list:
    """(line, name) of each name an import binds that the module never reads."""
    bound: dict = {}
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_named_with_its_line():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "import a.b\nfrom x import y, z as w\nprint(np, a.b, y)\n")
    assert unread_imports(source) == [(2, "os"), (5, "w")]
