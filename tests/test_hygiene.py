"""Source hygiene: every name a package module imports is used there, every
module-level private function or class is used somewhere in the package, and
only the CSV module reads or writes CSV."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "echospread"


def unused_imports(source: str) -> list[str]:
    """Names bound by imports (``from __future__`` exempt) that the module
    never references."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Any, List\n"
        "x: List[int] = []\n"
    )
    assert unused_imports(source) == ["os (line 2)", "Any (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _used_names(node: ast.AST) -> set[str]:
    """Names a statement reads, attributes it takes and names it imports."""
    used: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes (``_name``, not dunder)
    that no other top-level statement of any module names."""
    defs: list[tuple[str, str, ast.stmt]] = []
    statements: list[ast.stmt] = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            statements.append(stmt)
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and stmt.name.startswith("_")
                and not stmt.name.startswith("__")
            ):
                defs.append((module, stmt.name, stmt))
    uses = [(stmt, _used_names(stmt)) for stmt in statements]
    return [
        f"{module}:{name}"
        for module, name, own in defs
        if not any(name in used for stmt, used in uses if stmt is not own)
    ]


def test_scanner_flags_an_unreferenced_private_def():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _recursive():\n    _recursive()\n",
        "b.py": "from .a import _used\n\nclass _Left:\n    pass\n",
    }
    assert unreferenced_private_defs(sources) == ["a.py:_recursive", "b.py:_Left"]


def test_no_unreferenced_private_defs():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


CSV_MODULE = "csvio.py"
_CSV_DIALECT = {"reader", "writer", "DictReader", "DictWriter"}


def csv_dialect_uses(source: str) -> list[str]:
    """Uses of the ``csv`` module's readers and writers: attributes taken of
    ``csv`` and names imported from it. ``csv.Error`` and the rest are free."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "csv"
            and node.attr in _CSV_DIALECT
        ):
            found.append(f"csv.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found += [
                f"csv.{alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name in _CSV_DIALECT
            ]
    return found


def test_scanner_flags_csv_readers_and_writers():
    source = (
        "import csv\n"
        "from csv import DictReader\n"
        "w = csv.writer(fh)\n"
        "r = csv.reader(fh)\n"
        "errors = (ValueError, csv.Error)\n"
    )
    assert csv_dialect_uses(source) == [
        "csv.DictReader (line 2)", "csv.writer (line 3)", "csv.reader (line 4)"
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_csv_dialect_only_in_the_csv_module(path):
    """Every artifact is read and written through one module, so the CSV
    dialect (UTF-8, ``newline=""``, header first) is stated once."""
    uses = csv_dialect_uses(path.read_text(encoding="utf-8"))
    if path.name == CSV_MODULE:
        assert uses
    else:
        assert uses == []
