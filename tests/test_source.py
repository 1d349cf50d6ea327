"""Guards over the source of the freearr package itself."""
import ast
import importlib
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
