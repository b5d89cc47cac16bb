"""Check that two reference-output trees differ exactly where intended.

Usage: python scripts/compare_outputs.py BASE NEW

BASE and NEW are directories that ``scripts/reference_outputs.py`` wrote,
one subdirectory per command.  A command's outputs differ when a file
under ``BASE/<name>`` and ``NEW/<name>`` differs in its bytes or exists on
one side only.  Exits 0 when the differing commands are exactly the names
listed in ``intended_output_changes.txt`` next to this script (one a line;
blank lines and ``#`` comments are ignored), and 1 otherwise, naming each
unintended change and each listed command that did not change.
"""

from __future__ import annotations

import sys
from pathlib import Path

INTENDED = Path(__file__).resolve().parent / "intended_output_changes.txt"


def _files(root: Path) -> dict:
    """Relative path -> bytes of every file under root; empty if it is absent."""
    if not root.is_dir():
        return {}
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def changed_commands(base: Path, new: Path) -> dict:
    """Command name -> sorted relative paths of its differing files."""
    names = {p.name for root in (base, new) for p in root.iterdir() if p.is_dir()}
    out = {}
    for name in sorted(names):
        old, cur = _files(base / name), _files(new / name)
        paths = sorted(k for k in old.keys() | cur.keys() if old.get(k) != cur.get(k))
        if paths:
            out[name] = paths
    return out


def intended_changes() -> set:
    lines = (line.split("#", 1)[0].strip() for line in INTENDED.read_text(encoding="utf-8").splitlines())
    return {line for line in lines if line}


def main(argv) -> int:
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    changed = changed_commands(Path(argv[0]), Path(argv[1]))
    intended = intended_changes()
    for name, paths in changed.items():
        print(f"{name}: {'intended' if name in intended else 'UNINTENDED'} change in {', '.join(paths)}")
    for name in sorted(intended - changed.keys()):
        print(f"{name}: listed as intended but unchanged")
    return 0 if changed.keys() == intended else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
