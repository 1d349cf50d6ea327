"""Guards over the source of the freearr package itself."""
import ast
import importlib
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import freearr

SRC = Path(freearr.__file__).parent
TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def test_no_assert_statements():
    """Invariants are real exceptions: python -O strips assert statements."""
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 7
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_benchmark_traced_names_exist():
    """perfbench/trace.py rebinds these names; read them without importing it."""
    tree = ast.parse(TRACE.read_text(), str(TRACE))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED"
                          for t in node.targets))
    names = [(mod, fn) for mod, fns in traced.items() for fn in fns]
    assert len(names) == 21
    missing = []
    for mod, fn in names:
        try:
            reduce(getattr, fn.split("."),
                   importlib.import_module(f"freearr.{mod}"))
        except AttributeError:
            missing.append(f"{mod}.{fn}")
    assert missing == []


def _attribute_reads(node, attr, scope="<module>"):
    """Names of the innermost functions that read ``.attr``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.ctx, ast.Load)):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _attribute_reads(child, attr, scope)


def test_only_canonical_key_reads_the_canonical_walk():
    """The walk, canonical_key and its TRACED entry can then go together."""
    readers = [f"{path.relative_to(SRC)}:{scope}"
               for path in sorted(SRC.rglob("*.py"))
               for scope in _attribute_reads(
                   ast.parse(path.read_text(), str(path)), "canonical")]
    assert readers == ["arrangement.py:canonical_key"]


def test_no_sympy_in_the_package():
    """Factorization in Z[t] is in-house; sympy is a test oracle only."""
    found = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
             if "sympy" in path.read_text()]
    assert found == []


def test_degeneracy_sets_do_not_load_sympy():
    code = (
        "import sys\n"
        "from freearr import cli, moduli\n"
        "moduli.degeneracy_set(moduli.family_13())\n"
        "try:\n"
        "    cli.main(['moduli', 'paper15'])\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code, 'sympy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.stdout.startswith("Degeneracy set of paper15"), proc.stderr
    assert proc.stdout.endswith("exit 0 False\n")
