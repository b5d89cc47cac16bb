"""Run the thirty-two reference CLI commands and record everything they produce.

Usage: python scripts/reference_outputs.py OUTDIR

Each command runs through the ``src/`` tree of the checkout this script
sits in, with its working directory set to its own empty
``OUTDIR/<name>/files``, and with ``--out .`` unless it is ``demo``, which
writes no files.  Its stdout, stderr and exit code go to
``stdout.txt``, ``stderr.txt`` and ``exit_code.txt`` in ``OUTDIR/<name>``.
To check that a change keeps the outputs byte-identical, run the script
in a checkout of each commit and compare with ``diff -r OLD NEW``, or with
``scripts/compare_outputs.py OLD NEW``, which passes when the commands
whose outputs differ are exactly those listed as intended changes.

Exits 1 when any command exits with another code than it should: 0, or
the code ``EXPECTED_EXITS`` gives it: 2 for an input rejected at the
edge, 3 for a numerical failure.  So a documented command that stops
working fails the run.
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
    # the seed starts beyond the radius and its first step stays there: crossed at t = 0
    ("classify-outside", ["classify", "--f", "z^2", "--z0", "20", "--radius", "10", "--json"]),
    ("classify-near-miss", ["classify", "--f", "z^2", "--z0", "(0.99990001-0.0099990001i)"]),
    # e^z = e^(z0) - t: the singular time e^(i 1e-6) is not real, and the note names its Im
    ("classify-exp-near-miss", ["classify", "--f", "-exp(-z)", "--z0", "1e-6i"]),
    # a loose tolerance widens the error bar
    ("classify-square-tol", ["classify", "--f", "z^2", "--z0", "1", "--tol", "1e-3"]),
    ("classify-antiholo", ["classify", "--g", "z^3", "--kind", "antiholo", "--z0", "1", "--json"]),
    # a general polynomial from a seed off the real axis: the level line's chart
    ("classify-antiholo-complex", ["classify", "--g", "z^2 + 1", "--kind", "antiholo", "--z0", "1,1", "--json"]),
    # f has no zero, so no orbit can close and no seed return is watched
    ("classify-zero-free", ["classify", "--f", "0.5*exp(z)^2", "--z0", "0", "--json"]),
    # exp(z) overflows inside a sum on the ray: T = log(1 + e^-1)
    ("classify-exp-sum", ["classify", "--f", "exp(z) + 1", "--z0", "1"]),
    # the run exhausts the time resolution of doubles before the radius: T = (sqrt(pi)/2) erfc(0.3)
    ("classify-underflow", ["classify", "--f", "exp(z^2)", "--z0", "0.3"]),
    ("level-trace", ["level-trace", "--G", "z^2 / 2", "--start", "1", "--Xmax", "50", "--svg", "--json"]),
    ("transit", ["transit", "--G", "z^3 * (1/3)", "--start", "1", "--Xmax", "1e6"]),
    ("transit-mixed", ["transit", "--G", "0.5*z^2 + 0.3*exp(-z)", "--start", "1+0.5i", "--Xmax", "1e4"]),
    ("measure", [
        "measure", "--f", "-exp(-z)", "--z0", "0", "--delta", "1", "--N", "300", "--seed", "7", "--svg",
    ]),
    # every sample lies below the first step of its segment trace (delta
    # 0.01 < 0.02); the 300 FiniteTimeBlowup verdicts are today's output,
    # not an expectation (ROADMAP item 1)
    ("measure-square", [
        "measure", "--f", "z^2", "--z0", "1", "--delta", "1e-2", "--N", "300", "--seed", "7", "--svg",
    ]),
    # a curved segment: its polyline is read from the side traces of a
    # non-exponential f
    ("measure-mixed", [
        "measure", "--f", "0.5*z^2 + 0.3*exp(-z)", "--z0", "1+0.5i", "--delta", "0.5", "--N", "40", "--seed", "9",
        "--tol", "1e-3", "--svg",
    ]),
    ("rubel", ["rubel", "--f", "exp(z)", "--D", "0", "--seed-point", "2", "--t-end", "1e45"]),
    # f^(m)/f varies along the path and f' is not f; three exponents c
    ("rubel-mixed", [
        "rubel", "--f", "exp(z^2)", "--D", "0", "--seed-point", "1.5", "--t-end", "1e30", "--m-max", "4",
        "--c", "0.25", "--c", "1", "--c", "2",
    ]),
    # past t ~ 1.3e154 t*t overflows, and the window's end terms underflow
    ("rubel-long", ["rubel", "--f", "exp(z)", "--D", "0", "--seed-point", "2", "--t-end", "1e200"]),
    # near the top of the double range: the trace's corrector tolerance and
    # the window's node at T/2 are computed without overflowing
    ("rubel-top", ["rubel", "--f", "exp(z)", "--D", "0", "--seed-point", "2", "--t-end", "1.7e308"]),
    ("poly-summary", ["poly-summary", "--coeffs", "0,0,1", "--kind", "antiholo"]),
    # the ten acceptance criteria, one of them a run that starts on its radius
    ("demo", ["demo"]),
    # a finite point whose modulus overflows
    ("simulate-overflow-point", ["simulate", "--f", "z", "--z0", "1.3e308,1.3e308"]),
    # a constant part of f that overflows
    ("simulate-overflow-constant", ["simulate", "--f", "exp(1000)*z", "--z0", "1"]),
    # a finite point whose first step overflows: reported at the given point
    ("simulate-overflow-step", ["simulate", "--f", "z", "--z0", "1e308,1e308"]),
    # a plot window so narrow that its pixel scale overflows: rejected at the edge
    ("simulate-window-narrow", ["simulate", "--f", "z", "--z0", "1", "--tmax", "1", "--svg", "--window", "0,0,1e-320"]),
)
EXPECTED_EXITS = {
    "simulate-overflow-point": 2, "simulate-overflow-constant": 2, "simulate-overflow-step": 3, "simulate-window-narrow": 2,
}


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
            [sys.executable, "-m", "planeflow.cli", *args, *(["--out", "."] if args != ["demo"] else [])],
            cwd=files, env=env, capture_output=True,
        )
        (run_dir / "stdout.txt").write_bytes(proc.stdout)
        (run_dir / "stderr.txt").write_bytes(proc.stderr)
        (run_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
        if proc.returncode != EXPECTED_EXITS.get(name, 0):
            failed.append(name)
        print(f"{name}: exit {proc.returncode}")
    if failed:
        print(f"unexpected exit code: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
