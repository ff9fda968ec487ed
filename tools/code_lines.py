"""Print the code lines of each module in src/fisym and their total: the
lines that are not blank, not only a comment and not in a docstring.

Usage: python tools/code_lines.py
"""

import ast
import pathlib

total = 0
for path in sorted(pathlib.Path(__file__).parents[1].glob("src/fisym/*.py")):
    text = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        first = body[0] if isinstance(body, list) and body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            docs.update(range(first.lineno, first.end_lineno + 1))
    n = sum(1 for i, line in enumerate(text.splitlines(), 1)
            if line.strip() and not line.lstrip().startswith("#")
            and i not in docs)
    print(f"{path.name:14}{n:6}")
    total += n
print(f"{'total':14}{total:6}")
