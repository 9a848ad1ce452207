"""Count the lines of a Python package: raw lines and code lines.

A code line is one that is not blank, not a comment only, and not part of a
docstring: the first statement of a module, class or function body when it
is a string constant.

    python3 scripts/src_lines.py [DIR ...]     # default: src/charzero

prints `DIR: raw R, code C` for each directory, counting every *.py file
under it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def token_lines(text: str) -> set[int]:
    """The line numbers a token other than a comment or layout spans; a
    line inside a string literal that starts with # is code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def count(root) -> tuple[int, int]:
    """(raw, code) lines over every *.py file under root."""
    raw = code = 0
    for path in sorted(Path(root).rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tokens, docs = token_lines(text), docstring_lines(ast.parse(text))
        lines = text.splitlines()
        raw += len(lines)
        code += sum(
            1 for i, line in enumerate(lines, 1) if line.strip() and i in tokens and i not in docs
        )
    return raw, code


def main(argv: list[str]) -> None:
    for root in argv or ["src/charzero"]:
        raw, code = count(root)
        print(f"{root}: raw {raw}, code {code}")


if __name__ == "__main__":
    main(sys.argv[1:])
