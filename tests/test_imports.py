"""Every module of the package and of scripts/ uses each name it imports.

The check walks the syntax tree of each file, so it needs no linter: a
name bound by an import statement must appear as a name somewhere in
the module. The package's __init__ is left out, since it imports names
to re-export them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "frenetsim").glob("*.py")
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
