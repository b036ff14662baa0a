"""Count the code lines of ``src/distkaczmarz``, one module a row.

A code line holds at least one token other than a comment; blank lines,
comment lines and the lines of module, class and function docstrings are
left out.  Run from the repository root::

    python tools/code_lines.py [package directory] [--against REV]

It prints each module's count, ascending by name, then the total.  With
``--against REV`` it prints each module's count at the git revision REV
(read through ``git show``), the count here and the difference; a module
missing on one side counts 0 there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], stdout=subprocess.PIPE, text=True, check=True).stdout


def _counts_at(rev: str, package: Path) -> dict[str, int]:
    """Each module's count in ``package`` at git revision ``rev``, keyed by module name."""
    tree = f"{rev}:./{package.as_posix()}"
    names = [n for n in _git("ls-tree", "--name-only", tree).split() if n.endswith(".py")]
    return {Path(n).stem: code_lines(_git("show", f"{tree}/{n}")) for n in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of a package's modules.")
    parser.add_argument("package", nargs="?", default="src/distkaczmarz", type=Path)
    parser.add_argument("--against", metavar="REV", help="also count at this git revision")
    args = parser.parse_args(argv)
    here = {p.stem: code_lines(p.read_text(encoding="utf-8"))
            for p in sorted(args.package.glob("*.py"))}
    if args.against is None:
        for name, count in here.items():
            print(f"{name:<12} {count:>6,}")
        print(f"{'total':<12} {sum(here.values()):>6,}")
        return 0
    try:
        then = _counts_at(args.against, args.package)
    except subprocess.CalledProcessError:  # git has named the cause on stderr
        parser.error(f"cannot read {args.package} at {args.against!r}")
    print(f"{'module':<12} {args.against[:12]:>12} {'here':>6} {'delta':>6}")
    for name in sorted(then.keys() | here.keys()) + ["total"]:
        a, b = (sum(c.values()) if name == "total" else c.get(name, 0) for c in (then, here))
        print(f"{name:<12} {a:>12,} {b:>6,} {b - a:>+6,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
