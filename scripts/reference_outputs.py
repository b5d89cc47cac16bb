"""Run the reference CLI commands and record everything they produce.

Usage: python scripts/reference_outputs.py OUTDIR

Each command runs through the ``src/`` tree of the checkout this script
sits in, with ``--out .`` and its working directory set to its own empty
``OUTDIR/<name>/files``.  Its stdout, stderr and exit code go to
``stdout.txt``, ``stderr.txt`` and ``exit_code.txt`` in ``OUTDIR/<name>``.
To check that a change keeps the outputs byte-identical, run the script
in a checkout of each commit and compare with ``diff -r OLD NEW``.

Exits 1 when any command exits non-zero, so a documented command that
stops working fails the run.  ``planeflow demo`` is not among them; it
is run on its own.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

COMMANDS = (
    ("simulate-exp", ["simulate", "--f", "-exp(-z)", "--z0", "0", "--kind", "holo", "--svg", "--csv", "--json"]),
    ("simulate-square", ["simulate", "--f", "z^2", "--z0", "1", "--radius", "100", "--csv", "--json"]),
    ("simulate-antiholo", ["simulate", "--g", "z^2", "--z0", "1,1", "--kind", "antiholo", "--svg", "--json"]),
    ("simulate-reversed", ["simulate", "--f", "i*z", "--z0", "1", "--reversed", "--svg", "--csv"]),
    ("simulate-antiholo-reversed", [
        "simulate", "--g", "exp(-z) + 1", "--z0", "-1,3.14159", "--kind", "antiholo", "--reversed", "--csv", "--json",
    ]),
    ("classify-square", ["classify", "--f", "z^2", "--z0", "1", "--radius", "100", "--json"]),
    ("classify-exp", ["classify", "--f", "-exp(-z)", "--z0", "0", "--json"]),
    ("classify-near-miss", ["classify", "--f", "z^2", "--z0", "(0.99990001-0.0099990001i)"]),
    ("classify-antiholo", ["classify", "--g", "z^3", "--kind", "antiholo", "--z0", "1", "--json"]),
    ("level-trace", ["level-trace", "--G", "z^2 / 2", "--start", "1", "--Xmax", "50", "--svg", "--csv", "--json"]),
    ("transit", ["transit", "--G", "z^3 * (1/3)", "--start", "1", "--Xmax", "1e6", "--json"]),
    ("transit-mixed", ["transit", "--G", "0.5*z^2 + 0.3*exp(-z)", "--start", "1+0.5i", "--Xmax", "1e4", "--json"]),
    ("measure", [
        "measure", "--f", "-exp(-z)", "--z0", "0", "--delta", "1", "--N", "300", "--seed", "7", "--svg", "--json",
    ]),
    ("rubel", ["rubel", "--f", "exp(z)", "--D", "0", "--seed-point", "2", "--t-end", "1e45", "--json"]),
    ("poly-summary", ["poly-summary", "--coeffs", "0,0,1", "--kind", "antiholo", "--json"]),
)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if root.exists() and any(root.iterdir()):
        print(f"{root} is not empty", file=sys.stderr)
        return 2
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    failed = []
    for name, args in COMMANDS:
        run_dir = root / name
        files = run_dir / "files"
        files.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "planeflow.cli", *args, "--out", "."],
            cwd=files, env=env, capture_output=True,
        )
        (run_dir / "stdout.txt").write_bytes(proc.stdout)
        (run_dir / "stderr.txt").write_bytes(proc.stderr)
        (run_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
        if proc.returncode != 0:
            failed.append(name)
        print(f"{name}: exit {proc.returncode}")
    if failed:
        print(f"non-zero exit: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
