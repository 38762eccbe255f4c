"""Every module of the package and of scripts/ uses each name it imports.

The check walks the syntax tree of each file, so it needs no linter: a
name bound by an import statement must appear as a name somewhere in
the module. The package's __init__ is left out, since it imports names
to re-export them; its own check is that it exports only what the
command line, the scripts, the benchmark and the acceptance tests use.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "frenetsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    """(line, name) of every imported name the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import numpy as np\n"
                     "from .curves import TRIM, structure_skew\n"
                     "x = np.zeros(TRIM)\n")
    assert unused_imports(tree) == [(3, "structure_skew")]


def test_no_unused_imports():
    assert len(MODULES) > 10
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in MODULES
              for line, name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert unused == [], "\n".join(unused)


def dead_definitions(trees: dict) -> list:
    """(file, line, name) of every top-level definition that no tree reads.

    trees maps a file name to its syntax tree. A definition is a top-level
    function, class or assigned name other than a dunder. It is read where
    any of the trees loads it as a name or as an attribute, which may be a
    same-named definition of another file, and kept where an __all__
    lists it.
    """
    read, defined = set(), []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                ident = getattr(target, "name", getattr(target, "id", None))
                if ident == "__all__":
                    read.update(ast.literal_eval(node.value))
                elif ident and not ident.startswith("__"):
                    defined.append((name, node.lineno, ident))
    return sorted(d for d in defined if d[2] not in read)


def test_dead_definition_is_found():
    tree = ast.parse("__all__ = ['kept']\n"
                     "LIMIT = 3\n"
                     "def kept():\n"
                     "    return helper(LIMIT)\n"
                     "def helper(x):\n"
                     "    return x\n"
                     "def _leftover(x):\n"
                     "    return x\n"
                     "class Unused:\n"
                     "    pass\n"
                     "SPARE: int = 1\n")
    assert dead_definitions({"m.py": tree}) == [
        ("m.py", 7, "_leftover"), ("m.py", 9, "Unused"), ("m.py", 11, "SPARE")]


def test_no_dead_definitions():
    files = sorted((ROOT / "src" / "frenetsim").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py"))
    dead = [f"{path}:{line}: {name}" for path, line, name in dead_definitions(
        {str(p.relative_to(ROOT)): ast.parse(p.read_text(encoding="utf-8"))
         for p in files})]
    assert dead == [], "\n".join(dead)


# exported though nothing above reads them as fs.<name>: the version,
# the exception module, and the reader of the signature JSON that
# `analyze` writes
EXPORT_EXEMPT = {"__version__", "errors", "signature_from_json"}


def test_exports_are_what_the_commands_scripts_and_acceptance_use():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = next(ast.literal_eval(node.value) for node in init.body
                    if isinstance(node, ast.Assign)
                    and node.targets[0].id == "__all__")
    imported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(set(exported)) == len(exported)
    # series is loaded only so that perfbench's tracer wraps it
    assert set(exported) == imported - {"series"} | {"__version__"}
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    used = {alias.name for node in ast.walk(cli)
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    readers = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
               ROOT / "tests" / "conftest.py", *(ROOT / "scripts").glob("*.py"),
               *(ROOT / "perfbench").rglob("*.py")]
    assert len(readers) > 8
    read = {name for path in readers for name in
            re.findall(r"\bfs\.(\w+)", path.read_text(encoding="utf-8"))}
    assert sorted(set(exported) - used - read - EXPORT_EXEMPT) == []
    # and every fs.<name> read is exported, apart from the modules
    # (fs.curves, fs.series) that perfbench reaches through
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert sorted(read - set(exported) - modules) == []
