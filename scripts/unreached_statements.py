"""List the statements of planeflow that no reference command executes.

Usage: python scripts/unreached_statements.py

A line tracer (``sys.settrace``) starts before ``planeflow`` is imported,
then every command of ``scripts/reference_outputs.py`` runs in this
process through ``planeflow.cli.run_cli``, in a temporary directory, with
its output discarded.  The script prints ``path:line: text`` for each
statement of ``src/planeflow/*.py`` that none of them executed, then the
count.  Docstrings are not statements here.  A compound statement (``if``,
``for``, ``def``, ``try`` ...) counts as executed when a line of its header
or any statement inside it ran.  It runs the ``src/`` tree of the checkout
it sits in, uses only the standard library, and is a report: it exits 0
whatever it finds.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
PACKAGE = SCRIPTS.parent / "src" / "planeflow"


def _trace(files: dict):
    """A global trace function adding (path, line) to ``files[path]`` for
    every line run in one of those files."""

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    return global_trace


def _is_docstring(node, parent) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node is parent.body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _children(node):
    """The statements directly inside a statement (or a module), in order."""
    for name in ("body", "handlers", "orelse", "finalbody", "cases"):
        for child in getattr(node, name, ()):
            if isinstance(child, (ast.ExceptHandler, ast.match_case)):
                yield from child.body
            else:
                yield child


def unreached(source: str, ran: set) -> list:
    """Line numbers of the statements of source, in order, whose lines are
    not in ran; a compound statement is reached when one of its header lines
    is in ran or any statement inside it is reached."""
    out = []

    def walk(node) -> bool:
        start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        end = min([c.lineno for c in _children(node)], default=node.end_lineno + 1) - 1
        mark = len(out)
        inner = [walk(c) for c in _children(node) if not _is_docstring(c, node)]
        reached = any(inner) or any(line in ran for line in range(start, end + 1))
        if not reached:
            out.insert(mark, node.lineno)
        return reached

    tree = ast.parse(source)
    for stmt in tree.body:
        if not _is_docstring(stmt, tree):
            walk(stmt)
    return out


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    files = {str(p): set() for p in paths}
    sys.settrace(_trace(files))
    sys.path.insert(0, str(PACKAGE.parent))
    sys.path.insert(0, str(SCRIPTS))
    from planeflow.cli import run_cli
    from reference_outputs import COMMANDS

    home = os.getcwd()
    for _, args in COMMANDS:
        with tempfile.TemporaryDirectory() as run_dir:
            os.chdir(run_dir)
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    run_cli([*args, *(["--out", "."] if args != ["demo"] else [])])
            finally:
                os.chdir(home)
    sys.settrace(None)

    total = 0
    for path in paths:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        missed = unreached(source, files[str(path)])
        for lineno in missed:
            print(f"{path.relative_to(SCRIPTS.parent).as_posix()}:{lineno}: {lines[lineno - 1].strip()}")
        total += len(missed)
    print(f"{total} statements unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
