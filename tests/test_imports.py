"""Every import and top-level definition in the package's modules is used, the runtime is pure
stdlib, the CLI imports neither a thread pool nor dataclasses, and spectra are read as columns."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectraclass

ALL_MODULES = sorted(Path(spectraclass.__file__).parent.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]  # __init__ imports to re-export


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


def unreferenced_definitions(sources: dict) -> list:
    """``module.name`` of each top-level function or class in ``{module: source}`` that no code names.

    A name counts as referenced where another module reads it, imports it
    or reads it as an attribute, or where its own module does so outside
    its definition; docstrings and comments do not count.
    """
    def names(node):
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                out.update(alias.name.rpartition(".")[2] for alias in n.names)
        return out

    trees = {module: ast.parse(source) for module, source in sources.items()}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            elsewhere = [other for other in tree.body if other is not node]
            elsewhere += [other for name, other in trees.items() if name != module]
            if not any(node.name in names(other) for other in elsewhere):
                dead.append(f"{module}.{node.name}")
    return dead


def test_finds_an_unreferenced_definition():
    sources = {"a": "def f():\n    return f()\n\ndef g():\n    pass\n\nclass C:\n    pass\n\nx = C()\n",
               "b": 'from .a import g\n\ndef h():\n    """Calls f()."""\n\nimport m\nm.h\n'}
    assert unreferenced_definitions(sources) == ["a.f"]


def test_no_unreferenced_definitions():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in ALL_MODULES}
    assert unreferenced_definitions(sources) == []


def absolute_imports(source: str) -> list:
    """The top-level names of the modules ``source`` imports absolutely."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


def test_finds_absolute_imports():
    source = ("from __future__ import annotations\nimport os.path, json\n"
              "from . import a\nfrom .b import c\nfrom numpy.linalg import d\n")
    assert absolute_imports(source) == ["__future__", "os", "json", "numpy"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_imports_only_the_standard_library(path):
    # Anything else, the package itself included, must be a relative import.
    names = absolute_imports(path.read_text(encoding="utf-8"))
    assert [name for name in names if name not in sys.stdlib_module_names] == []


def test_cli_import_leaves_the_thread_pool_and_dataclasses_unloaded():
    # -S skips site, which in some installs imports threading or inspect itself.
    # dataclasses loads inspect, which loads ast, dis and tokenize; with the code it
    # generates per class, that costs more start-up than all of the package's own modules.
    code = "import sys, spectraclass.cli; print(*sorted(sys.modules))"
    src = str(Path(spectraclass.__file__).resolve().parents[1])
    loaded = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True).stdout.split()
    unwanted = {"concurrent.futures", "logging", "threading", "dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert sorted(unwanted.intersection(loaded)) == []


FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def file_access(source: str) -> list:
    """Each place ``source`` opens a file or imports tempfile: ``open()``, a Path-style file method, tempfile.

    Calls into the ``files`` module are its API, and a read of package data
    through ``importlib.resources.files(...)`` opens no file of the user's.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name} (line {node.lineno})" for a in node.names
                      if a.name.partition(".")[0] == "tempfile"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "tempfile":
            found.append(f"from {node.module} import (line {node.lineno})")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                found.append(f"open() (line {node.lineno})")
            elif (isinstance(func, ast.Attribute) and func.attr in FILE_METHODS
                  and ast.unparse(func.value) != "files"
                  and not ast.unparse(func.value).startswith("resources.files(")):
                found.append(f".{func.attr}() (line {node.lineno})")
    return found


def test_finds_file_access():
    source = ("import tempfile, os\nfrom tempfile import TemporaryFile\nfrom importlib import resources\n"
              "open('a')\nPath('a').read_text()\nPath('b').open()\np.write_text('x')\nos.open('c', 0)\n"
              "resources.files(__package__).joinpath('d').read_text()\nf.read()\nfiles.read_text('e')\n")
    assert file_access(source) == ["import tempfile (line 1)", "from tempfile import (line 2)",
                                   "open() (line 4)", ".read_text() (line 5)", ".open() (line 6)",
                                   ".write_text() (line 7)", ".open() (line 8)"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_only_files_module_opens_files(path):
    # files.py is the one module that opens an input or stages an output.
    if path.name != "files.py":
        assert file_access(path.read_text(encoding="utf-8")) == []


def number_conversions(source: str) -> list:
    """``function (line)`` of each use of the builtin float or int as a value in ``source``.

    A call such as ``float(text)`` counts, and so does a function passed on,
    as in ``map(float, fields)``; an annotation does not, nor the kind that
    ``number(text, int)`` is given.
    """
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Name) and node.id in ("float", "int") and isinstance(node.ctx, ast.Load):
            found.append(f"{scope or '<module>'} (line {node.lineno})")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "number":
            children = node.args[:1]
        else:
            children = [child for field, value in ast.iter_fields(node) if field not in ("annotation", "returns")
                        for child in (value if isinstance(value, list) else [value])]
        for child in children:
            if isinstance(child, ast.AST):
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_finds_number_conversions():
    source = ("def f(x: float) -> int:\n    return float(x)\n\nclass C:\n    def g(self, t):\n"
              "        return list(map(int, t)), number(t, int)\n\ny: float = int\n")
    assert number_conversions(source) == ["f (line 2)", "C.g (line 6)", "<module> (line 8)"]


# number() reads every number of the input syntax, and plain_columns() whole columns of them;
# Spectrum.__init__ and rulebase._fmt_num convert Python values, not text.
NUMBER_READERS = {"spectrum.py": {"number", "plain_columns", "Spectrum.__init__"}, "rulebase.py": {"_fmt_num"}}


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_text_becomes_a_number_only_through_number(path):
    allowed = NUMBER_READERS.get(path.name, set())
    found = number_conversions(path.read_text(encoding="utf-8"))
    assert [place for place in found if place.partition(" ")[0] not in allowed] == []


def column_bypasses(source: str) -> list:
    """``what (line)`` of each ``.points`` read and each use of ``cached_property`` in ``source``, by line.

    A Spectrum is its ``mzs`` and ``abundances`` columns: ``points`` builds a
    tuple per peak, and a cached property would hold a second copy of them.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "points" and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, ".points"))
        elif "cached_property" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   node.name if isinstance(node, ast.alias) else None):
            found.append((node.lineno, "cached_property"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_finds_column_bypasses():
    source = ("from functools import cached_property\nimport functools\n\nclass C:\n    @cached_property\n"
              "    def a(self):\n        return self.points[0]\n    b = functools.cached_property(len)\n"
              "x.points = 1\ny = x.mzs\n")
    assert column_bypasses(source) == ["cached_property (line 1)", "cached_property (line 5)",
                                       ".points (line 7)", "cached_property (line 8)"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_spectra_are_read_as_columns(path):
    found = column_bypasses(path.read_text(encoding="utf-8"))
    if path.name == "spectrum.py":  # where points is derived from the columns
        found = [place for place in found if not place.startswith(".points")]
    assert found == []
