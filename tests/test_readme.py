"""The README's Python examples run, and the values they show are the values.

Every ```python block of README.md runs, in order, in one namespace.  A
statement that is a bare expression followed by a comment ``# (...)``
shows its value: the expression's items, printed with ``str`` and joined
as a tuple, must read exactly as the comment.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
SHOWN = re.compile(r"#\s+(\(.*\))\s*$")


def test_readme_examples_run_and_show_their_values():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    namespace: dict = {}
    shown = []
    for block in blocks:
        lines = block.splitlines()
        for node in ast.parse(block).body:
            m = SHOWN.search(lines[node.end_lineno - 1])
            if isinstance(node, ast.Expr) and m:
                value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
                assert "(" + ", ".join(map(str, value)) + ")" == m.group(1), ast.unparse(node)
                shown.append(ast.unparse(node))
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert blocks and shown, "no README example shows a value"
