"""Count the code and physical lines of each module of ``src/ecsched``.

A code line holds at least one token that is not a comment, and lies
outside every docstring (of a module, class or function); blank lines,
comment lines and docstring lines are not code.  Physical lines are
every line of the file.

    python tools/linecount.py
"""

import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path):
    """(code lines, physical lines) of one source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(text.splitlines())


def main():
    root = Path(__file__).resolve().parent.parent / "src" / "ecsched"
    rows = [(path.name, *count(path)) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'code':>6}  {'physical':>8}")
    for name, code, physical in rows:
        print(f"{name:<{width}}  {code:>6,}  {physical:>8,}")


if __name__ == "__main__":
    main()
