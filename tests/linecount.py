"""Line counts of Python modules, per module and in total.

    python tests/linecount.py [REV]

It counts src/biphoton/*.py in the working tree, or at the git revision REV
(read with `git show`, so uncommitted changes do not count).  For each file
it prints three counts:

    wc -l      newline characters, as `wc -l` counts them
    code       lines that are not blank, not inside a docstring and hold a
               token other than a comment (by tokenize), so a comment-only
               line is not code and a line of a multi-line string is
    docstring  lines spanned by the docstrings of the module, its classes
               and its functions (by ast), blank ones included

Pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Token types that make no line code.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(source: str) -> set[int]:
    """The line numbers spanned by the module's, each class's and each function's docstring."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """(wc -l, code lines, docstring lines) of one module's source."""
    docstrings = docstring_lines(source)
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    spanned = {n for tok in tokens if tok.type not in _NOT_CODE for n in range(tok.start[0], tok.end[0] + 1)}
    text = source.splitlines()
    code = {n for n in spanned - docstrings if text[n - 1].strip()}
    return source.count("\n"), len(code), len(docstrings)


def sources(rev: str | None, root: Path = ROOT) -> list[tuple[str, str]]:
    """(file name, source) of each src/biphoton/*.py, in the working tree
    under root or at rev in root's git repository, sorted by name."""
    if rev is None:
        paths = sorted((root / "src" / "biphoton").glob("*.py"))
        return [(path.name, path.read_text(encoding="utf-8")) for path in paths]

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, check=True,
                              encoding="utf-8").stdout

    paths = sorted(p for p in git("ls-tree", "--name-only", rev, "src/biphoton/").splitlines() if p.endswith(".py"))
    return [(Path(path).name, git("show", f"{rev}:{path}")) for path in paths]


def main(argv: list[str], root: Path = ROOT) -> int:
    if len(argv) > 1:
        print("usage: python tests/linecount.py [REV]", file=sys.stderr)
        return 2
    rows = [(name, *count(source)) for name, source in sources(argv[0] if argv else None, root)]
    rows.append(("total", *(sum(column) for column in zip(*(row[1:] for row in rows)))))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'wc -l':>6}  {'code':>6}  {'docstring':>9}")
    for name, lines, code, docs in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}  {docs:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
