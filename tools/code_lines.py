"""Print the code lines of each module of a Python package and their total.

A code line holds at least one token that is not a comment, a docstring
(the leading string of a module, class or function) or layout (newlines,
indents); a token spread over several lines holds each of them. Only the
standard library is used.

    python tools/code_lines.py [package_dir]    # default: src/pendraw
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) of every docstring's first character."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING
                                   and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> None:
    root = Path(argv[1] if len(argv) > 1 else "src/pendraw")
    total = physical = 0
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        n = code_lines(source)
        total += n
        physical += source.count("\n")
        print(f"{path.name:20} {n:6}")
    print(f"{'total':20} {total:6}  ({physical} physical lines)")


if __name__ == "__main__":
    main(sys.argv)
