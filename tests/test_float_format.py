"""One function of the package holds the 17-significant-digit float format.

Every float of the package's CSV tables and JSON output goes through
that function (jsonio.format_rows), so a column formatted once serves
every artifact that carries it, and no writer can drift from the others.
The check walks the syntax tree of each module: the format is a string
constant holding ".17g", such as "%.17g" or the spec of f"{v:.17g}";
docstrings do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "frenetsim").glob("*.py"))


def _docstrings(tree: ast.Module) -> set:
    """ids of the docstring constants of the module, classes and functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                found.add(id(first.value))
    return found


def format_scopes(tree: ast.Module) -> list:
    """(line, scope) of each 17-digit format, scope its innermost function.

    A format outside every function has the scope "<module>".
    """
    docs = _docstrings(tree)
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and ".17g" in node.value and id(node) not in docs):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_two_formatting_functions_are_found():
    tree = ast.parse('"""Module text: %.17g is the format."""\n'
                     "ROW = 3\n"
                     "def table(data):\n"
                     '    """Cells as %.17g."""\n'
                     '    return ",".join(["%.17g"] * ROW) % data\n'
                     "def number(v):\n"
                     '    return f"{v:.17g}"\n')
    assert format_scopes(tree) == [(5, "table"), (7, "number")]


def test_one_function_holds_the_float_format():
    assert len(PACKAGE) > 10
    scopes = {(path.name, scope)
              for path in PACKAGE
              for _, scope in format_scopes(ast.parse(path.read_text(encoding="utf-8")))}
    assert scopes == {("jsonio.py", "format_rows")}, scopes
