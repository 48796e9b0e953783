"""Import hygiene: every module-level import of the package is used.

The package modules are parsed with ``ast``; ``__init__.py`` is left out
because its imports are the public re-exports.  Nothing in the package loads
scipy: neither the import, nor the verify battery, nor the ``monodromy``
command.  mpmath loads only when root isolation escalates past double
precision (or on ``periods --dps``).  Every module-level
function and class has a caller in the package (a re-export counts) or in
``demos/``, and every public method, property and class-level constant of a
package class (not an enum member or a dataclass field) is read by name
outside its class (in the package, ``demos/`` or ``bench/``): code that only
tests need does not belong in ``src/``.  Every
function the traced benchmark reads a metric from still exists, so no metric
of a traced run reads ``null``.  Every exception type is raised somewhere in
the package, or is the base of one that is.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "expperiods"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """Names bound by the module's top-level imports, mapped to their line."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set:
    """Every name the module loads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


def referenced_names(tree: ast.AST, skip: ast.AST = None) -> set:
    """Names loaded, attributes read and names imported in ``tree``, outside ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def attributes_read(tree: ast.AST, skip: ast.AST = None) -> set:
    """Attribute names loaded in ``tree``, outside ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def uncalled_definitions(paths, callers, readers=()) -> list:
    """(file, name) of each top-level def or class in ``paths`` that is not
    referenced in its own file outside its definition, nor in ``callers``; and
    (file, "Class.member") of each public method, property or class-level
    constant (a plain assignment, so neither a dataclass field nor, in an enum,
    a member) of a class in ``paths`` whose attribute name is not read in its
    own file outside that class, nor in ``callers`` or ``readers``."""
    trees = {p: ast.parse(p.read_text()) for p in {*paths, *callers, *readers}}
    refs = {q: referenced_names(trees[q]) for q in callers}
    reads = {q: attributes_read(trees[q]) for q in {*callers, *readers}}
    out = []
    for p in paths:
        elsewhere = set().union(*(refs[q] for q in callers if q != p))
        read_elsewhere = set().union(*(reads[q] for q in reads if q != p))
        for node in trees[p].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in (
                elsewhere | referenced_names(trees[p], skip=node)
            ):
                out.append((p.name, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            read = read_elsewhere | attributes_read(trees[p], skip=node)
            enum = any(ast.unparse(b).endswith("Enum") for b in node.bases)
            for member in node.body:
                names = [member.name] if isinstance(member, ast.FunctionDef) else []
                if isinstance(member, ast.Assign) and not enum:
                    names = [t.id for t in member.targets if isinstance(t, ast.Name)]
                for name in names:
                    if not name.startswith("_") and name not in read:
                        out.append((p.name, f"{node.name}.{name}"))
    return out


def test_modules_found():
    assert {p.name for p in MODULES} >= {"symbolic.py", "cohomology.py", "singular.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )


def test_detector_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from fractions import Fraction\n"
        "from typing import Sequence\n"
        "def f(x: 'Sequence[int]'):\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Fraction")]


def test_every_definition_has_a_caller_outside_tests():
    callers = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    readers = sorted((ROOT / "bench").glob("*.py"))
    assert not uncalled_definitions(MODULES, callers, readers)


def unraised_exceptions(errors: ast.Module, sources) -> list:
    """Classes of ``errors`` other than EngineError that no ``raise`` in
    ``sources`` names and that are no base of a class that one names."""
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in errors.body if isinstance(node, ast.ClassDef)
    }
    live = set()
    for tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                live.add(getattr(exc, "id", getattr(exc, "attr", None)))
    stack = list(live)
    while stack:
        for base in bases.get(stack.pop(), []):
            if base not in live:
                live.add(base)
                stack.append(base)
    return sorted(set(bases) - live - {"EngineError"})


def test_every_exception_type_is_raised():
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    assert not unraised_exceptions(ast.parse((PACKAGE / "errors.py").read_text()), trees)


def test_unraised_exception_detector():
    errors = ast.parse(
        "class EngineError(Exception): pass\n"
        "class Dead(EngineError): pass\n"
        "class Base(EngineError): pass\n"
        "class Child(Base): pass\n"
        "class Bare(EngineError): pass\n"
    )
    app = ast.parse(
        "from errors import Child, Dead\n"
        "def f(x):\n"
        "    if x: raise Child('no')\n"
        "    raise errors.Bare\n"
        "def g():\n"
        "    return Dead\n"
    )
    assert unraised_exceptions(errors, [app]) == ["Dead"]


def test_traced_bench_sources_exist():
    # bench/spans.py maps each traced metric to the function it is read from; a
    # metric whose function has gone missing is reported as null
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    (source,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_SOURCE"]
    ]
    for metric, name in ast.literal_eval(source).items():
        layer, func = name.split(".")
        assert callable(getattr(importlib.import_module(f"expperiods.{layer}"), func, None)), metric
    from expperiods.quadrature import period_matrix

    assert "tol" in inspect.signature(period_matrix).parameters


def test_caller_detector(tmp_path):
    lib, app, bench = tmp_path / "lib.py", tmp_path / "app.py", tmp_path / "bench.py"
    lib.write_text(
        "def used(): return helper().size + Box().width\n"
        "def helper(): return 1\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Orphan: pass\n"
        "class Box:\n"
        "    def size(self): return self.inner()\n"
        "    def inner(self): return 1\n"
        "    def _private(self): return 2\n"
        "    @property\n"
        "    def width(self): return 3\n"
        "    def timed(self): return 4\n"
        "    def dead(self): return self.dead\n"
        "    LIMIT = 3\n"
        "    alias = LIMIT\n"
        "    _hidden = 4\n"
        "class Kind(enum.Enum):\n"
        "    RED = 1\n"
        "@dataclass\n"
        "class Rec:\n"
        "    size: int = 0\n"
    )
    app.write_text("from lib import Box, Kind, Rec, used\nBox.dead = None\n")
    bench.write_text("import lib\nlib.Box().timed()\nlib.Box.LIMIT\n")
    assert uncalled_definitions([lib], [lib, app], [bench]) == [
        ("lib.py", "recursive"),
        ("lib.py", "Orphan"),
        ("lib.py", "Box.inner"),
        ("lib.py", "Box.dead"),
        ("lib.py", "Box.alias"),
    ]


def run_python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=ROOT,
        capture_output=True,
        text=True,
    )


def test_import_does_not_load_scipy():
    proc = run_python("import sys, expperiods, expperiods.cli; sys.exit('scipy' in sys.modules)")
    assert proc.returncode == 0, "importing expperiods loaded scipy"


def test_verify_and_monodromy_do_not_load_scipy():
    code = (
        "import sys\n"
        "from expperiods import FiberType, ProblemSpec, parse_laurent, run_all\n"
        "from expperiods.cli import main\n"
        "spec = ProblemSpec(FiberType.PUNCTURED_LINE, parse_laurent('(t/2)*(u - u^-1)'))\n"
        "assert run_all(spec, n_stokes=1).passed\n"
        "assert main(['monodromy', 'fixtures/bessel.spec', '--center', '0']) == 0\n"
        "sys.exit(10 if 'scipy' in sys.modules else 0)\n"
    )
    proc = run_python(code)
    assert proc.returncode != 10, "run_all or the monodromy command loaded scipy"
    assert proc.returncode == 0, proc.stderr


def test_import_and_singular_set_do_not_load_mpmath():
    code = (
        "import sys\n"
        "import expperiods, expperiods.cli\n"
        "from expperiods import FiberType, ProblemSpec, parse_laurent, singular_set\n"
        "for g in ('u^3/3 - t*u', 'u^7-t*u^3+t^2*u'):\n"
        "    singular_set(ProblemSpec(FiberType.AFFINE_LINE, parse_laurent(g)))\n"
        "sys.exit(10 if 'mpmath' in sys.modules else 0)\n"
    )
    proc = run_python(code)
    assert proc.returncode != 10, "the import or singular_set loaded mpmath"
    assert proc.returncode == 0, proc.stderr


def test_escalation_rung_loads_mpmath_on_demand():
    code = (
        "import sys\n"
        "from expperiods import TPoly, parse_laurent, root_isolate\n"
        "from fractions import Fraction\n"
        "tiny = TPoly([-Fraction(1, 10**30)] + [0] * 9 + [1])\n"
        "assert len(root_isolate(tiny)) == 10\n"
        "(ball,) = root_isolate(parse_laurent('(t - 1)*(t - 1 - 1/10^20)').coeff(0))\n"
        "assert ball.multiplicity == 2\n"
        "sys.exit(0 if 'mpmath' in sys.modules else 10)\n"
    )
    proc = run_python(code)
    assert proc.returncode != 10, "the clustered pair did not reach the mpmath rung"
    assert proc.returncode == 0, proc.stderr
