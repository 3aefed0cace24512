"""Every import in the package's modules is used."""

import ast
from pathlib import Path

import pytest

import spectraclass

MODULES = sorted(p for p in Path(spectraclass.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def unused_imports(source: str) -> list:
    """Names that ``source`` imports and never reads, ``__future__`` features aside."""
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == ["os (line 2)", "b (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
