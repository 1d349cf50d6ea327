"""Guards over the source of the freearr package itself."""
import ast
from pathlib import Path

import freearr

SRC = Path(freearr.__file__).parent


def test_no_assert_statements():
    """Invariants are real exceptions: python -O strips assert statements."""
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 7
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
