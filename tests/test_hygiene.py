"""Source hygiene: every name a package, test or script module imports is
used there, every module-level private function or class is used somewhere
in the package, every defaulted parameter is passed by some call in it, every
dataclass field is read in it, only the CSV module reads or writes CSV,
only the CLI's two boundaries catch every exception, and the CLI loads a
stage module only when a command that calls it runs."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "echospread"


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


# Package modules go by file name; test and script modules by path.
@pytest.mark.parametrize(
    "path",
    [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
     *sorted((ROOT / "scripts").glob("*.py"))],
    ids=lambda p: p.name if p.parent == SRC else str(p.relative_to(ROOT)),
)
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


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` passes ``param``: by keyword, through ``*args`` or
    ``**kwargs``, or by position when it has one."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters (``module.function.param``) of any function or
    method that no call in any module passes. A call is matched to a def by
    name alone, and a method's ``self`` or ``cls`` takes no position."""
    params: list[tuple[str, str, str, int | None]] = []
    calls: dict[str | None, list[ast.Call]] = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                shift = int(bool(positional) and positional[0].arg in ("self", "cls"))
                first = len(positional) - len(args.defaults)
                params += [(module, node.name, positional[i].arg, i - shift)
                           for i in range(first, len(positional))]
                params += [(module, node.name, arg.arg, None)
                           for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None]
    return [
        f"{module.removesuffix('.py')}.{name}.{param}"
        for module, name, param, position in params
        if not any(_passes(call, param, position) for call in calls.get(name, ()))
    ]


def test_scanner_flags_an_unpassed_default():
    sources = {
        "a.py": (
            "def f(x, y=1, z=2, *, k=3, m=4):\n    pass\n"
            "def e(p=1):\n    pass\n"
            "class C:\n    def g(self, a=0, b=0):\n        pass\n"
        ),
        "b.py": "f(0, 1, m=5)\nC().g(1)\ne(*rest)\n",
    }
    assert unpassed_defaults(sources) == ["a.f.z", "a.f.k", "a.g.b"]


# Defaults that stay although no call in the package passes them.
UNPASSED_DEFAULTS = {
    # The entry point reads sys.argv; tests pass argument lists.
    "cli.main.argv",
}


def test_every_default_is_passed_somewhere():
    """A default that no caller overrides is a constant with a knob on it."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert sorted(unpassed_defaults(sources)) == sorted(UNPASSED_DEFAULTS)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Whether ``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass``
    decorates the class."""
    for decorator in cls.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "dataclass":
            return True
    return False


def unread_fields(sources: dict[str, str]) -> list[str]:
    """Fields (``module.Class.field``) of any ``@dataclass`` whose name no
    module reads as an attribute. A read is matched to a field by name alone."""
    fields: list[tuple[str, str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [(module, node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [
        f"{module.removesuffix('.py')}.{cls}.{name}"
        for module, cls, name in fields
        if name not in read
    ]


def test_scanner_flags_an_unread_field():
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int = 0\n    z: int = 0\n"
            "class Plain:\n    w: int\n"
        ),
        "b.py": (
            "import dataclasses\n"
            "@dataclasses.dataclass\nclass Q:\n    u: str\n    v: str\n"
            "def f(p, q):\n    q.v = p.x\n    return q.u\n"
        ),
    }
    assert unread_fields(sources) == ["a.P.y", "a.P.z", "b.Q.v"]


# Fields that stay although no module of the package reads them.
UNREAD_FIELDS = {
    # Criterion 05 checks per-user attribution.
    "exposure.ExposureLedger.attribution",
    # ROADMAP direction 5 records these four in the manifest.
    "ingest.Cascade.timestamp_inversion",
    "ingest.CascadeReport.collapsed_duplicates",
    "ingest.CascadeReport.inversions",
    "virality.ViralityEstimate.dropped_zero_activity",
    # Part of the fit's result; criterion 07 and test_lasso check it.
    "lasso.LassoFit.intercept",
    # Part of the fit's result; test_lasso checks it.
    "lasso.LassoFit.objective",
    # perfbench/spans.py's _fit_cv hook reads it.
    "lasso.LassoFit.n_iter",
}


def test_every_dataclass_field_is_read():
    """A field nothing reads is computed, carried and pickled for no one."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert sorted(unread_fields(sources)) == sorted(UNREAD_FIELDS)

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


# The handlers that turn any exception into an exit code: ``main`` for the
# process and ``run_stage``, which also records the failing stage.
BROAD_HANDLER_OWNERS = {"cli.main", "cli.run_stage"}
_BROAD = {"Exception", "BaseException"}


def broad_handlers(module: str, source: str) -> list[str]:
    """``except Exception``, ``except BaseException`` (alone or in a tuple)
    and bare ``except:`` clauses, each named by the function or class that
    holds it."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.ExceptHandler):
                caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(t is None or isinstance(t, ast.Name) and t.id in _BROAD
                       for t in caught):
                    found.append(f"{owner} (line {child.lineno})")
            visit(child, owner)

    visit(ast.parse(source), module)
    return found


def test_scanner_flags_broad_handlers():
    source = (
        "def main():\n"
        "    try:\n"
        "        run()\n"
        "    except Exception:\n"
        "        pass\n"
        "class Stage:\n"
        "    def go(self):\n"
        "        try:\n"
        "            run()\n"
        "        except (ValueError, BaseException):\n"
        "            raise\n"
        "        except KeyError:\n"
        "            pass\n"
        "try:\n"
        "    import numpy\n"
        "except:\n"
        "    numpy = None\n"
    )
    assert broad_handlers("m", source) == [
        "m.main (line 4)", "m.Stage.go (line 10)", "m (line 16)"
    ]


def test_only_the_cli_boundaries_catch_every_exception():
    """A broad handler elsewhere would decide an exit code of its own, or turn
    a bug into an input error."""
    found = [
        handler
        for path in sorted(SRC.glob("*.py"))
        for handler in broad_handlers(path.stem, path.read_text(encoding="utf-8"))
    ]
    assert {handler.split(" ")[0] for handler in found} <= BROAD_HANDLER_OWNERS, found


# What argument parsing and the ``Workspace`` base need; every other stage
# module is imported when a stage that calls it starts.
CLI_IMPORTS = {"csvio", "graph", "ingest"}
STAGE_ONLY = ("echospread.exposure", "echospread.virality", "echospread.labels",
              "echospread.lasso", "echospread.textstats", "echospread.sim", "multiprocessing")


def package_imports(source: str) -> set[str]:
    """Package modules that a module's top-level import statements load."""
    modules = {p.stem for p in SRC.glob("*.py")}
    found = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            found.update({stmt.module} if stmt.module else
                         {alias.name for alias in stmt.names} & modules)
    return found


def test_scanner_finds_package_imports():
    source = (
        "from . import __version__, sim\n"
        "from .csvio import write_csv\n"
        "import json\n"
        "if TYPE_CHECKING:\n"
        "    from .lasso import LassoFit\n"
    )
    assert package_imports(source) == {"sim", "csvio"}


def test_cli_imports_only_the_modules_every_command_needs():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert package_imports(source) == CLI_IMPORTS


def _loaded_after(code: str) -> list[str]:
    """The modules of ``STAGE_ONLY`` loaded once ``code`` has run in a fresh
    interpreter."""
    probe = f"import sys\n{code}\nprint(sorted(set(sys.modules) & {set(STAGE_ONLY)!r}))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_stage_module():
    assert _loaded_after("import echospread.cli") == []


def test_deferred_names_resolve_and_unknown_names_do_not():
    from echospread import cli

    for module, names in cli._DEFERRED.items():
        loaded = importlib.import_module(f"echospread.{module}")
        assert getattr(cli, module) is loaded
        for name in names:
            assert hasattr(loaded, name), f"{module}.{name}"
            assert getattr(cli, name) is getattr(loaded, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(cli, "no_such_name")
