"""List and count planeflow's settable values.

Usage: python scripts/settable_values.py

A settable value is a parameter with a default of a callable that a
``planeflow`` module exports in ``__all__`` (so each field with a default
of a config dataclass such as ``IntegratorConfig`` counts), or a flag of
a ``planeflow`` subcommand.  Each independent value doubles the
configurations that tests and benchmarks could have to cover.  The
script prints one line per value and then the total; comparing the totals
of two commits shows whether a change added or removed options.  It runs
the ``src/`` tree of the checkout it sits in and uses only ``inspect`` and
``argparse`` from the standard library.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def library_values():
    """``module.callable(name=default)`` for every defaulted parameter."""
    import planeflow

    seen = set()
    for info in sorted(pkgutil.iter_modules(planeflow.__path__), key=lambda m: m.name):
        module = importlib.import_module(f"planeflow.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj) or id(obj) in seen:
                continue
            seen.add(id(obj))
            try:
                params = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):  # no Python signature, e.g. a typing alias
                continue
            for p in params:
                if p.default is not inspect.Parameter.empty:
                    yield f"{module.__name__}.{name}({p.name}={p.default!r})"


def cli_values():
    """``planeflow SUBCOMMAND --flag`` for every flag a subcommand takes."""
    from planeflow.cli import _build_parser

    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, p in sub.choices.items():
        for action in p._actions:
            if not isinstance(action, argparse._HelpAction):
                yield f"planeflow {command} {max(action.option_strings, key=len)}"


def main() -> int:
    sys.path.insert(0, str(SRC))
    values = [*library_values(), *cli_values()]
    for line in values:
        print(line)
    print(f"total: {len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
