"""Count code lines per package: no blanks, comments or docstrings.

A line counts when it holds at least one token that is neither a comment
nor part of a docstring (the string literal that opens a module, class or
function body).  This is the size measure ROADMAP.md and CHANGES.md quote;
unlike ``wc -l`` it does not reward deleting documentation.

Usage::

    python tools/code_lines.py              # per-package table for src/repro
    python tools/code_lines.py --files      # ... plus one row per module
    python tools/code_lines.py path/a path/b.py

Prints only; the exit status is 0 whatever the counts are.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SKIP = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                   tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
                   tokenize.ENCODING})


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIP:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in docstrings:
                lines.add(line)
    return len(lines)


def count(paths) -> dict[pathlib.Path, int]:
    """``{module path: code lines}`` for every ``.py`` file under ``paths``."""
    counts = {}
    for path in paths:
        path = pathlib.Path(path)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            counts[file] = code_lines(file.read_text(encoding="utf-8"))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=pathlib.Path,
                        default=[ROOT / "src" / "repro"])
    parser.add_argument("--files", action="store_true",
                        help="also print one row per module")
    args = parser.parse_args(argv)
    counts = count(args.paths)
    packages: dict[str, int] = {}
    for file, lines in counts.items():
        base = next((p for p in args.paths if p in (file, *file.parents)),
                    file.parent)
        relative = file.relative_to(base) if base.is_dir() else file
        package = (relative.parts[0] if len(relative.parts) > 1
                   else "(top level)")
        packages[package] = packages.get(package, 0) + lines
    for package, lines in sorted(packages.items(), key=lambda kv: -kv[1]):
        print(f"{package:<24} {lines:>7}")
    print(f"{'total':<24} {sum(counts.values()):>7}")
    if args.files:
        print()
        for file, lines in sorted(counts.items(), key=lambda kv: -kv[1]):
            print(f"{str(file):<60} {lines:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
