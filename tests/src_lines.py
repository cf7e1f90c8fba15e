"""Print the line counts of each module under a source tree, split three ways.

    python tests/src_lines.py [SRC]

SRC defaults to src.  Every line of a .py file is a docstring line (within
the span of a module, class or function docstring, as ast reports it), a
comment-and-blank line (blank, or a comment alone) or a code line.  The
output is a Markdown table with one row per module and a total row, the
split by which a change's src/ line count is judged.
"""

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def split(source: str) -> tuple[int, int, int]:
    """(code, comment-and-blank, docstring) line counts of one module."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    comment = sum(1 for number, line in enumerate(lines, 1)
                  if number not in docstring and line.strip()[:1] in ("", "#"))
    return len(lines) - comment - len(docstring), comment, len(docstring)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    print("| module | code | comments and blanks | docstrings | total |")
    print("|---|---:|---:|---:|---:|")
    totals = [0, 0, 0]
    for path in sorted(root.rglob("*.py")):
        counts = split(path.read_text(encoding="utf-8"))
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"| {path.relative_to(root).as_posix()} | {' | '.join(map(str, counts))} "
              f"| {sum(counts)} |")
    print(f"| total | {' | '.join(map(str, totals))} | {sum(totals)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
