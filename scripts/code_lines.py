"""Count code lines in Python files: blanks, comments and docstrings excluded.

Usage (from the repository root)::

    python scripts/code_lines.py src/repro/serving
    python scripts/code_lines.py --rev HEAD~1 src/repro/serving/scheduler.py

Prints the code lines of every ``.py`` file under the given paths (files
or directories; default ``src``), one per line, then the total.  With
``--rev`` the files are read from that git revision instead of the
working tree.

A code line is a line that holds at least one token other than a
comment; a multi-line token counts every line it spans.  Module, class
and function docstrings are not code: :mod:`ast` finds them and their
string tokens are skipped.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize
from typing import Dict, List, Optional

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set:
    """``(line, column)`` where each docstring's string token starts."""
    starts = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def read_sources(paths: List[str], rev: Optional[str]) -> Dict[str, str]:
    """Source text by file name, for the ``.py`` files under ``paths``."""
    if rev is not None:
        names = _git("ls-tree", "-r", "--name-only", rev, "--", *paths)
        return {
            name: _git("show", f"{rev}:./{name}")
            for name in names.split()
            if name.endswith(".py")
        }
    names = []
    for path in paths:
        if os.path.isfile(path):
            names.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            names += [os.path.join(root, f) for f in files if f.endswith(".py")]
    sources = {}
    for name in names:
        with open(name, encoding="utf-8") as handle:
            sources[name] = handle.read()
    return sources


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"])
    parser.add_argument(
        "--rev", help="git revision to read (default: the working tree)"
    )
    args = parser.parse_args(argv)
    total = 0
    for name, source in sorted(read_sources(args.paths, args.rev).items()):
        count = code_lines(source)
        total += count
        print(f"{count:7d}  {name}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
