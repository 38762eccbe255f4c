"""Every module of the package and of scripts/ uses each name it imports.

The check walks the syntax tree of each file, so it needs no linter: a
name bound by an import statement must appear as a name somewhere in
the module. The package's __init__ is left out, since it imports names
to re-export them; its own check is that it exports only what the
command line, the scripts, the benchmark and the acceptance tests use.
Another check keeps scipy.integrate out of the package: no file under
src/ imports it, and a fresh `import frenetsim.cli` does not load it.
Another keeps the spline fit in curves.py: no other file under src/
imports scipy.interpolate or reaches a private of the fit layer. One
keeps one float64 refusal: the package holds one except clause for
FloatingPointError and one errstate call that raises on overflow. Two
keep one freeze rule: setflags(write=False) in curves._frozen and in
the jet of _ReparamSource alone, and every array that a frozen
dataclass takes set through _frozen. One keeps every value complete
when built: no method of a frozen dataclass but __post_init__ sets or
grows a field. One keeps one kept window, the name TRIM read in
curves.py alone. The last keeps one derivative rule: no call passes a
derivative order to a fitted spline, whose derivatives are read off its
derivative chain instead.
"""

import ast
import os
import re
import subprocess
import sys
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


def integrate_imports(tree: ast.Module) -> list:
    """Line of every statement of the tree that imports scipy.integrate."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        if any(n == "scipy.integrate" or n.startswith("scipy.integrate.")
               for n in names):
            lines.append(node.lineno)
    return lines


def test_integrate_import_is_found():
    tree = ast.parse("import scipy.integrate\n"
                     "from scipy import integrate\n"
                     "from scipy.integrate import cumulative_simpson\n"
                     "import scipy.interpolate\n"
                     "from .curves import integrate\n")
    assert integrate_imports(tree) == [1, 2, 3]


def test_launch_loads_no_scipy_integrate():
    # a launch pays for numpy and scipy.interpolate only: the quadrature
    # is curves.cumulative_simpson, and scipy.integrate with its ODE and
    # quadrature solvers stays out of every command, in source and at run
    files = sorted((ROOT / "src").rglob("*.py"))
    assert len(files) > 10
    found = [f"{path.relative_to(ROOT)}:{line}" for path in files for line in
             integrate_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, frenetsim.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "frenetsim.cli" in loaded
    assert [m for m in loaded if m.split(".")[:2] == ["scipy", "integrate"]] == []


# the privates of curves.py that decide or make a spline fit, and the
# make_interp_spline binding that every fit goes through
FIT_LAYER = {"_knot_sites", "_interp_fit", "_fit_spline_source", "_SplineSource",
             "_engine", "make_interp_spline"}


def fit_layer_uses(tree: ast.Module) -> list:
    """Line of every import of scipy.interpolate or use of a FIT_LAYER name."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[:2] == ["scipy", "interpolate"]
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            module = [] if node.level else (node.module or "").split(".")
            hit = (module[:2] == ["scipy", "interpolate"]
                   or module == ["scipy"] and "interpolate" in names
                   or bool(names & FIT_LAYER))
        elif isinstance(node, ast.Attribute):
            hit = node.attr in FIT_LAYER
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


def test_fit_layer_use_is_found():
    tree = ast.parse("import scipy.interpolate\n"
                     "from scipy import interpolate\n"
                     "from scipy.interpolate import make_interp_spline\n"
                     "from .curves import TRIM, _knot_sites\n"
                     "from . import curves\n"
                     "fit = curves._engine\n"
                     "from scipy.integrate import cumulative_simpson\n"
                     "from .curves import field_derivative, field_fits\n"
                     "import scipy.fft\n")
    assert fit_layer_uses(tree) == [1, 2, 3, 4, 6]


def test_one_module_owns_the_spline_fit():
    # curves.py alone places knots and fits splines; indicatrix, focal,
    # evolute and signatures differentiate through field_derivative and
    # field_fits, so a new fit elsewhere would bypass the one site rule
    found = {path.name: fit_layer_uses(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 10 and found.pop("curves.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def float64_guards(tree: ast.Module) -> list:
    """("except", line) of every except clause that names FloatingPointError
    and ("errstate", line) of every errstate call raising on overflow."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(t, "id", getattr(t, "attr", None)) == "FloatingPointError"
                   for t in types):
                found.append(("except", node.lineno))
        elif isinstance(node, ast.Call) and getattr(
                node.func, "attr", getattr(node.func, "id", None)) == "errstate":
            if any(k.arg in ("over", "all") and isinstance(k.value, ast.Constant)
                   and k.value.value == "raise" for k in node.keywords):
                found.append(("errstate", node.lineno))
    return sorted(found)


def test_float64_guard_is_found():
    tree = ast.parse("try:\n"
                     "    with np.errstate(over='raise', invalid='raise'):\n"
                     "        pass\n"
                     "except FloatingPointError:\n"
                     "    pass\n"
                     "try:\n"
                     "    pass\n"
                     "except (ValueError, builtins.FloatingPointError):\n"
                     "    pass\n"
                     "except ValueError:\n"
                     "    raise FloatingPointError\n"
                     "with np.errstate(over='ignore', invalid='ignore'):\n"
                     "    pass\n"
                     "with errstate(all='raise'):\n"
                     "    pass\n")
    assert float64_guards(tree) == [("errstate", 2), ("errstate", 14),
                                    ("except", 4), ("except", 8)]


def test_one_float64_refusal():
    # the resampling and the frame run under curves._float64_guard, so
    # the BadRange wording of a trip outside float64 has one source
    found = {path.name: float64_guards(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 10
    hits = sorted((kind, name) for name, lines in found.items() for kind, _ in lines)
    assert hits == [("errstate", "curves.py"), ("except", "curves.py")]


def freezes(tree: ast.Module) -> list:
    """The qualified name of the function (or "<module>") around every
    setflags call that clears the write flag, in the order met."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "attr", None) == "setflags"):
                write = [k.value for k in child.keywords if k.arg == "write"]
                flag = (write or child.args[:1] or [None])[0]
                if isinstance(flag, ast.Constant) and flag.value is False:
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, [])
    return found


def test_freeze_is_found():
    tree = ast.parse("a.setflags(write=False)\n"
                     "class C:\n"
                     "    def f(self, a):\n"
                     "        a.setflags(write=False)\n"
                     "        def g():\n"
                     "            a.setflags(False)\n"
                     "def h(a):\n"
                     "    a.setflags(write=True)\n"
                     "    a.setflags(align=False)\n"
                     "    return [a.setflags(write=False)]\n")
    assert freezes(tree) == ["<module>", "C.f", "C.f.g", "h"]


def test_one_freeze_rule():
    # every value type sets its arrays through curves._frozen, which
    # freezes copies; only the jet that _ReparamSource computes is frozen
    # where it is made, since it owns that array
    found = {path.name: freezes(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 10
    hits = sorted((name, scope) for name, scopes in found.items()
                  for scope in scopes)
    assert hits == [("curves.py", "_ReparamSource._unit_jet"),
                    ("curves.py", "_frozen")]


def frozen_dataclasses(tree: ast.Module) -> list:
    """Every class of the tree decorated @dataclass(frozen=True)."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                for k in d.keywords)
        for d in node.decorator_list)]


def unfrozen_arrays(tree: ast.Module) -> list:
    """(class, field) of every array field of a frozen dataclass that its
    __post_init__ does not hand to _frozen by name.

    An array field is one whose annotation names ndarray and that the
    constructor takes, so not a field(init=False).
    """
    found = []
    for node in frozen_dataclasses(tree):
        arrays = [stmt.target.id for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign)
                  and "ndarray" in ast.unparse(stmt.annotation)
                  and not (isinstance(stmt.value, ast.Call) and any(
                      k.arg == "init" and getattr(k.value, "value", None) is False
                      for k in stmt.value.keywords))]
        frozen = {k.arg for fn in node.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                  for call in ast.walk(fn) if isinstance(call, ast.Call)
                  and getattr(call.func, "id", getattr(call.func, "attr", None)) == "_frozen"
                  for k in call.keywords}
        found += [(node.name, name) for name in arrays if name not in frozen]
    return found


def test_unfrozen_array_is_found():
    tree = ast.parse("@dataclass(frozen=True)\n"
                     "class A:\n"
                     "    a: np.ndarray\n"
                     "    b: np.ndarray | None = None\n"
                     "    c: np.ndarray = field(init=False)\n"
                     "    d: float = 0.0\n"
                     "    def __post_init__(self):\n"
                     "        if self.b is not None:\n"
                     "            _frozen(self, b=self.b)\n"
                     "@dataclass(frozen=True)\n"
                     "class B:\n"
                     "    x: np.ndarray\n"
                     "@dataclass\n"
                     "class C:\n"
                     "    y: np.ndarray\n")
    assert unfrozen_arrays(tree) == [("A", "a"), ("B", "x")]


def test_every_value_array_is_frozen():
    # a frozen dataclass that takes an array sets it through
    # curves._frozen, so no value hands out an array its caller can write
    found = [(path.name, *hit) for path in sorted(PACKAGE.glob("*.py"))
             for hit in unfrozen_arrays(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def late_sets(tree: ast.Module) -> list:
    """(class, method) of every method of a frozen dataclass, other than
    __post_init__, that sets a field or grows one in place.

    Setting is a call of object.__setattr__ or of _frozen; growing is an
    append, extend or insert call on an attribute of self.
    """
    found = []
    for node in frozen_dataclasses(tree):
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__post_init__":
                continue
            for call in ast.walk(fn):
                func = getattr(call, "func", None)
                name = getattr(func, "attr", getattr(func, "id", None))
                owner = getattr(func, "value", None)
                sets = name == "_frozen" or (
                    name == "__setattr__" and getattr(owner, "id", None) == "object")
                grows = name in ("append", "extend", "insert") and getattr(
                    getattr(owner, "value", None), "id", None) == "self"
                if sets or grows:
                    found.append((node.name, fn.name))
                    break
    return found


def test_late_set_is_found():
    tree = ast.parse("@dataclass(frozen=True)\n"
                     "class A:\n"
                     "    chain: list\n"
                     "    def __post_init__(self):\n"
                     "        object.__setattr__(self, 'chain', [])\n"
                     "        self.chain.append(1)\n"
                     "    def grow(self, x):\n"
                     "        self.chain.extend([x])\n"
                     "    def reset(self):\n"
                     "        object.__setattr__(self, 'chain', [])\n"
                     "    def refreeze(self, a):\n"
                     "        _frozen(self, a=a)\n"
                     "    def local(self, x):\n"
                     "        out = []\n"
                     "        out.append(x)\n"
                     "        return self.chain[0]\n"
                     "@dataclass\n"
                     "class B:\n"
                     "    items: list\n"
                     "    def add(self, x):\n"
                     "        self.items.insert(0, x)\n")
    assert late_sets(tree) == [("A", "grow"), ("A", "reset"), ("A", "refreeze")]


def test_values_are_complete_when_built():
    # a frozen dataclass sets its fields in __post_init__ and nowhere
    # else, so a value holds the same thing for its whole life: no cache
    # it fills on first use, no list it extends when asked for more
    found = [(path.name, *hit) for path in sorted(PACKAGE.glob("*.py"))
             for hit in late_sets(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def trim_reads(tree: ast.Module) -> list:
    """Line of every import of the name TRIM and of every read of it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            hit = any(alias.name == "TRIM" for alias in node.names)
        elif isinstance(node, ast.Name):
            hit = node.id == "TRIM" and isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "TRIM"
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_trim_read_is_found():
    tree = ast.parse("from .curves import TRIM, FrenetData\n"
                     "TRIM = 2\n"
                     "sl = slice(TRIM, -2)\n"
                     "n = curves.TRIM + 1\n"
                     "text = 'TRIM'\n")
    assert trim_reads(tree) == [1, 3, 4]


def test_one_kept_window():
    # FrenetData.kept and _ladder_signatures take the samples a signature
    # keeps from curves._kept, so no other module slices by TRIM itself
    found = {path.name: trim_reads(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 10
    assert [name for name, lines in found.items() if lines] == ["curves.py"]


# calls that return a fitted spline, a derivative chain of one, or fits
# holding one, and the attributes that hold one
SPLINE_MAKERS = {"make_interp_spline", "CubicHermiteSpline", "BSpline",
                 "construct_fast", "derivative", "derivative_chain",
                 "field_fits", "_interp_fit", "_fit_spline_source"}
SPLINE_ATTRS = {"spline", "chain", "t_of_s"}


def spline_order_calls(tree: ast.Module) -> list:
    """Line of every call that passes a derivative order to a fitted spline.

    A fitted spline is an attribute in SPLINE_ATTRS, a name that some
    assignment, for loop, comprehension or with statement of the module
    binds from a value calling one of SPLINE_MAKERS, a call of one of
    those, or an item of any of these. Passing an order is a second
    positional argument or a nu keyword.
    """
    def makes(value):
        return any(isinstance(node, ast.Call) and getattr(
            node.func, "attr", getattr(node.func, "id", None)) in SPLINE_MAKERS
            for node in ast.walk(value))

    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            pairs = [(t, node.value) for t in node.targets]
        elif isinstance(node, ast.AnnAssign):
            pairs = [(node.target, node.value)]
        elif isinstance(node, (ast.For, ast.comprehension)):
            pairs = [(node.target, node.iter)]
        elif isinstance(node, ast.withitem):
            pairs = [(node.optional_vars, node.context_expr)]
        else:
            continue
        for target, value in pairs:
            if target is not None and value is not None and makes(value):
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))

    def spline(func):
        while isinstance(func, ast.Subscript):
            func = func.value
        if isinstance(func, ast.Attribute):
            return func.attr in SPLINE_ATTRS
        if isinstance(func, ast.Name):
            return func.id in bound
        return isinstance(func, ast.Call) and makes(func)

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and spline(node.func)
                  and (len(node.args) > 1 or any(k.arg == "nu" for k in node.keywords)))


def test_spline_order_call_is_found():
    tree = ast.parse("fit = make_interp_spline(x, y, k=5)\n"
                     "a = fit(x, 1)\n"
                     "b = fit(x)\n"
                     "out[j] = self.spline(tq, j)\n"
                     "for graphs, g in field_fits(x, y):\n"
                     "    g(x, nu=1)\n"
                     "chain = derivative_chain(fit, 2)\n"
                     "c = chain[2](x)\n"
                     "d = chain[2](x, 0)\n"
                     "e = make_interp_spline(x, y)(x, 2)\n"
                     "f = self.t_of_s(sq, 1)\n"
                     "g2 = np.diff(x, 2) + fit.derivative(2)(x)\n"
                     "h = CubicHermiteSpline(a, b, c)(t)\n"
                     "k = [d(x) for d in derivative_chain(fit, 3)]\n"
                     "m = [d(x, 1) for d in self.chain]\n")
    assert spline_order_calls(tree) == [2, 4, 6, 9, 10, 11, 15]


def test_every_derivative_is_read_off_a_chain():
    # a fitted spline is evaluated, never differentiated in the call: its
    # derivatives are the splines of curves.derivative_chain, so the basis
    # recursion runs once per order at that order's own degree
    found = {path.name: spline_order_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 10
    assert {name: lines for name, lines in found.items() if lines} == {}
