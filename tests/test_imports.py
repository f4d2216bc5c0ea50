"""Every module of the package uses each name it imports, and every function,
method and class the package defines is referenced by the package itself or
documented in README's module list, so no code ships for the tests alone.
The command's start-up imports neither ``dataclasses`` nor ``inspect``, adds
exactly the pinned set of public modules, and builds no merge table.  A well-formed call
leaves ``argparse`` unloaded; help loads it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import idcodes

MODULES = sorted(Path(idcodes.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that it never reads, less those
    its ``__all__`` re-exports."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "from os import path, sep\nimport json\n__all__ = ['sep']\n"
    assert unused_imports(source) == ["path (line 1)", "json (line 2)"]


def documented_names(readme: str) -> set[str]:
    """The identifiers in the code spans of README's module list, the text
    from "The package provides:" to the next heading."""
    start = readme.index("The package provides:")
    module_list = readme[start:readme.index("\n## ", start)]
    return {
        name
        for span in re.findall(r"`([^`]+)`", module_list)
        for name in re.findall(r"[A-Za-z_]\w*", span)
    }


def unreferenced_definitions(
    defining: str, sources: list[str], documented=frozenset()
) -> list[str]:
    """Functions, methods and classes defined in ``defining`` whose names no
    source reads, as a variable or an attribute, and that are not
    ``documented``; dunder methods are exempt."""
    used = set(documented)
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    definitions = [
        node
        for node in ast.walk(ast.parse(defining))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return [
        f"{node.name} (line {node.lineno})"
        for node in sorted(definitions, key=lambda node: node.lineno)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path):
    # only the package and README's module list count: a name only the tests
    # read belongs in a helper module under tests/
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    documented = documented_names(README.read_text(encoding="utf-8"))
    assert unreferenced_definitions(path.read_text(encoding="utf-8"), sources, documented) == []


def test_detects_an_unreferenced_definition():
    source = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.size = area()\n"
        "    def unused(self):\n"
        "        pass\n"
        "def area():\n"
        "    return 0\n"
        "def orphan():\n"
        "    return Box().size\n"
        "def listed():\n"
        "    return 1\n"
    )
    readme = "# x\n\nThe package provides:\n\n- **box**: `listed(x)`, not orphan\n\n## Next\n`orphan`\n"
    documented = documented_names(readme)
    assert documented == {"listed", "x"}
    assert unreferenced_definitions(source, [source], documented) == [
        "unused (line 4)", "orphan (line 8)"
    ]


def _fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports this package."""
    src = str(Path(idcodes.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # dataclasses imports inspect, which every run of the command would pay for
    code = "import sys, idcodes.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh_interpreter(code) == "[]\n"


# The standard modules the package imports itself: whether start-up has
# loaded them already differs between installs, so they are imported before
# the count starts.
START_UP = "bisect, collections, contextlib, enum, itertools, math, operator, random, types, typing"
# bounds and generators are left out: only the subcommands that run them
# import them.  So are argparse and gettext: only help and errors build the
# parser.  No standard module is added: interval endpoints are integer keys,
# so fractions (with decimal and numbers) is not loaded.
CLI_ADDS = [
    "idcodes" if p.stem == "__init__" else f"idcodes.{p.stem}"
    for p in MODULES
    if p.stem not in ("bounds", "generators")
]


def test_cli_import_adds_the_pinned_modules_and_no_merge_table():
    # each module the command's start-up adds is paid for by every run
    code = (
        f"import sys, {START_UP}\n"
        "before = set(sys.modules)\n"
        "import idcodes.cli\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(m for m in added if not m.startswith('_')))\n"
        "print(sys.modules['idcodes.cograph']._TABLES)\n"
    )
    assert _fresh_interpreter(code) == f"{sorted(CLI_ADDS)}\n{{}}\n"


def test_argparse_loads_only_for_help_and_errors():
    # a well-formed call is read from the subcommand table; --help needs argparse
    code = (
        "import sys\n"
        "from idcodes.cli import main\n"
        "main(['bounds', '--class', 'interval', '--kind', 'ic', '--k', '4'])\n"
        "after_call = sorted({'argparse', 'gettext'} & set(sys.modules))\n"
        "try:\n"
        "    main(['bounds', '--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(after_call, sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    )
    out = _fresh_interpreter(code)
    assert out.startswith("interval ic 4 - 10 n<=k(k+1)/2\n")
    assert out.endswith("\n[] ['argparse', 'gettext']\n")
