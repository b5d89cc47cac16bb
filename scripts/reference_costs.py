"""Count the calls each reference command makes into planeflow, for a diff
against another commit.

Usage: python scripts/reference_costs.py OUTDIR
       python scripts/reference_costs.py --diff BASE NEW

The first form runs every command of ``scripts/reference_outputs.py`` (the
copy next to this script) through the ``src/`` tree of the checkout this
script sits in.  Each runs in a fresh interpreter, in its own temporary
directory, with a ``sys.setprofile`` hook installed before ``planeflow`` is
imported: in one process a second command would find the compile caches
warm and count less.  Its output is discarded.  The script writes
``OUTDIR/<name>.json``, the calls counted by code name: ``module:function``
for a function defined in ``src/planeflow/*.py`` and
``<generated>:function`` for the code the package generates.  Names in
angle brackets (``<listcomp>``, ``<genexpr>``, ``<lambda>``, ``<module>``)
are not counted: Python 3.12 inlines comprehensions (PEP 709), so their
counts would differ across versions.  The files hold no times, so two
runs of one commit give the same bytes.

What one call of a generated counter costs:

- ``<generated>:step``: one DP5(4) step attempt, accepted or rejected, with
  six evaluations of the field inlined (six calls of a plain callable);
- ``<generated>:f``: one evaluation of a compiled expression, and
  ``<generated>:point`` one of a field with a post-operation;
- ``<generated>:reciprocal``: one evaluation of 1/f on scaled numbers;
- ``<generated>:newton``: one level-curve corrector solve, with up to
  max_iter + 1 evaluations of G and of g inlined;
- ``<generated>:jet``: one Taylor jet of an expression, and ``mul`` and
  ``exp_jet`` one product or exponential of two jets inside it;
- ``<generated>:path``: one Rubel pass over a traced path, its jets inlined.

The counts are calls, not work: an evaluation made cheaper inside
generated code (a smaller derivative tree, ``z`` where it was ``z ** 1``)
moves no ``<generated>`` count, only the ``expr:`` counters of building
that tree.

The second form prints, for each command whose counts differ between two
such directories, one line per counter that differs, ``name: counter
base -> new``, and a line for a command found on one side only.  Both
forms are reports: they exit 0 whatever the counts are, and 2 on a usage
error.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
SRC = SCRIPTS.parent / "src"

# run in the child interpreter: argv is SRC, the output file, then the command
_CHILD = """\
import json, os, sys
src, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, src)
pkg = os.path.join(src, "planeflow", "")
counts = {}

def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        name = code.co_name
        if name[0] != "<":
            path = code.co_filename
            if path == "<generated>":
                key = path + ":" + name
            elif path.startswith(pkg):
                key = path[len(pkg):-3] + ":" + name
            else:
                return
            counts[key] = counts.get(key, 0) + 1

sys.setprofile(hook)
from planeflow.cli import run_cli
code = run_cli(argv)
sys.setprofile(None)
with open(out, "w", encoding="utf-8") as fh:
    json.dump({"exit_code": code, "calls": dict(sorted(counts.items()))}, fh, indent=1)
    fh.write("\\n")
"""


def record(root: Path, commands) -> None:
    """Write ``root/<name>.json`` for each (name, args) of commands, and print
    each command's total; a command whose interpreter fails gets no file."""
    root.mkdir(parents=True, exist_ok=True)
    for name, args in commands:
        argv = [*args, *(["--out", "."] if args != ["demo"] else [])]
        out = (root / f"{name}.json").resolve()
        with tempfile.TemporaryDirectory() as work:
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, str(SRC), str(out), *argv],
                cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
        if proc.returncode:
            print(f"{name}: not counted, its interpreter exited {proc.returncode}")
        else:
            print(f"{name}: {sum(json.loads(out.read_text(encoding='utf-8'))['calls'].values())} calls")


def _load(root: Path) -> dict:
    return {p.stem: json.loads(p.read_text(encoding="utf-8"))["calls"] for p in sorted(root.glob("*.json"))}


def diff(base: Path, new: Path) -> list:
    """The report lines: per command, each counter whose count differs."""
    old, cur = _load(base), _load(new)
    lines = []
    for name in sorted(old.keys() | cur.keys()):
        if name not in old or name not in cur:
            lines.append(f"{name}: only in {'NEW' if name in cur else 'BASE'}")
            continue
        a, b = old[name], cur[name]
        lines += [f"{name}: {key} {a.get(key, 0)} -> {b.get(key, 0)}" for key in sorted(a.keys() | b.keys())
                  if a.get(key, 0) != b.get(key, 0)]
    return lines


def main(argv) -> int:
    if len(argv) == 1:
        sys.path.insert(0, str(SCRIPTS))
        from reference_outputs import COMMANDS

        record(Path(argv[0]), COMMANDS)
        return 0
    if len(argv) == 3 and argv[0] == "--diff" and all(Path(a).is_dir() for a in argv[1:]):
        lines = diff(Path(argv[1]), Path(argv[2]))
        print("\n".join(lines) if lines else "no count differs")
        return 0
    print("\n".join(__doc__.splitlines()[3:5]), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
