"""The README's python example runs and returns what its comments say."""
import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _result(comment: str):
    """(True, value) when the comment is a Python literal, alone or before a
    parenthetical note; (False, None) when it is prose."""
    text = comment.strip()
    for candidate in (text, re.sub(r"\s+\(.*\)$", "", text)):
        try:
            return True, ast.literal_eval(candidate)
        except (ValueError, SyntaxError):
            pass
    return False, None


def test_python_example_shows_its_results():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace, checked = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        literal, expected = _result(comment)
        if literal:
            assert eval(code, namespace) == expected, line
            checked.append(expected)
        else:
            exec(code, namespace)
    assert checked == ['(x - 1)*(x - 6)^2', (1, 6, 6), None, 'NotRF']
    # "13 lines over QQ"
    arr = namespace["arr"]
    assert (arr.n, arr.ops.name) == (13, "QQ")
