"""Run the fifty-eight reference CLI commands and record everything they produce.

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

The script's own stdout gets one line per command: its exit code and its
wall time.  The times never go into OUTDIR, so two runs' trees compare
byte for byte.

Exits 1 when any command exits with another code than it should: 0, or
the code ``EXPECTED_EXITS`` gives it: 2 for an input rejected at the
edge, 3 for a numerical failure.  So a documented command that stops
working fails the run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

COMMANDS = (
    ("simulate-exp", ["simulate", "--f", "-exp(-z)", "--z0", "0", "--kind", "holo", "--svg", "--csv", "--json"]),
    ("simulate-square", ["simulate", "--f", "z^2", "--z0", "1", "--radius", "100", "--csv", "--json"]),
    ("simulate-antiholo", ["simulate", "--g", "z^2", "--z0", "1,1", "--kind", "antiholo", "--svg", "--json"]),
    ("simulate-reversed", ["simulate", "--f", "i*z", "--z0", "1", "--reversed", "--svg", "--csv"]),
    ("simulate-antiholo-reversed", [
        "simulate", "--g", "exp(-z) + 1", "--z0", "-1,3.14159", "--kind", "antiholo", "--reversed", "--csv", "--json",
    ]),
    # the run settles on the zero of f: a FixedPointApproach
    ("simulate-fixed-point", ["simulate", "--f", "-z", "--z0", "1", "--json"]),
    ("classify-square", ["classify", "--f", "z^2", "--z0", "1", "--radius", "100", "--json"]),
    ("classify-exp", ["classify", "--f", "-exp(-z)", "--z0", "0", "--json"]),
    # the seed starts beyond the radius and its first step stays there: crossed at t = 0
    ("classify-outside", ["classify", "--f", "z^2", "--z0", "20", "--radius", "10", "--json"]),
    ("classify-near-miss", ["classify", "--f", "z^2", "--z0", "(0.99990001-0.0099990001i)"]),
    # e^z = e^(z0) - t: the singular time e^(i 1e-6) is not real, and the note names its Im
    ("classify-exp-near-miss", ["classify", "--f", "-exp(-z)", "--z0", "1e-6i"]),
    # -exp(-z) has no zero, so its value below the fixed-point bar is none: T = e^35
    ("classify-exp-far", ["classify", "--f", "-exp(-z)", "--z0", "35", "--json"]),
    # e^-800 underflows to 0, which gives the ray no direction: no estimate
    ("classify-exp-underflow", ["classify", "--f", "-exp(-z)", "--z0", "800", "--json"]),
    # a loose tolerance widens the error bar
    ("classify-square-tol", ["classify", "--f", "z^2", "--z0", "1", "--tol", "1e-3"]),
    ("classify-antiholo", ["classify", "--g", "z^3", "--kind", "antiholo", "--z0", "1", "--json"]),
    # a general polynomial from a seed off the real axis: the level line's chart
    ("classify-antiholo-complex", ["classify", "--g", "z^2 + 1", "--kind", "antiholo", "--z0", "1,1", "--json"]),
    # f has no zero, so no orbit can close and no seed return is watched
    ("classify-zero-free", ["classify", "--f", "0.5*exp(z)^2", "--z0", "0", "--json"]),
    # exp(z) overflows inside a sum on the ray: T = log(1 + e^-1)
    ("classify-exp-sum", ["classify", "--f", "exp(z) + 1", "--z0", "1"]),
    # radius 10 lies inside r_safe = 62, so the run continues out to r_safe before the ray:
    # T = atanh(sqrt(30)/6)/sqrt(30)
    ("classify-continued", ["classify", "--f", "z^2 - 30", "--z0", "6", "--json"]),
    # the run exhausts the time resolution of doubles before the radius: T = (sqrt(pi)/2) erfc(0.3)
    ("classify-underflow", ["classify", "--f", "exp(z^2)", "--z0", "0.3"]),
    # a steep polynomial underflows short of the radius too: T = 1.5^-19 / 19 by the ray ...
    ("classify-steep-poly", ["classify", "--f", "z^20", "--z0", "1.5", "--json"]),
    # ... and by the level chart of the conjugate flow
    ("classify-steep-poly-antiholo", ["classify", "--g", "z^20", "--kind", "antiholo", "--z0", "1.5", "--json"]),
    ("level-trace", ["level-trace", "--G", "z^2 / 2", "--start", "1", "--Xmax", "50", "--svg", "--json"]),
    # the tracer's dz/dX predictor: a start on G = 0 ...
    ("level-trace-from-zero", ["level-trace", "--G", "z", "--start", "0", "--Xmax", "10"]),
    # ... and a step across X = 0 on the level Im G = 0
    ("level-trace-across-zero", ["level-trace", "--G", "z + 0.5*z^2", "--start", "-0.5", "--Xmax", "5"]),
    ("transit", ["transit", "--G", "z^3 * (1/3)", "--start", "1", "--Xmax", "1e6"]),
    ("transit-mixed", ["transit", "--G", "0.5*z^2 + 0.3*exp(-z)", "--start", "1+0.5i", "--Xmax", "1e4"]),
    # G = z grows too slowly for a finite transit: the slow-growth criterion fires
    ("transit-criterion", ["transit", "--G", "z", "--start", "1", "--Xmax", "700"]),
    # the range holds the critical point 0 of z^3/3: the integrand diverges there
    ("transit-divergent", ["transit", "--G", "z^3*(1/3)", "--start", "-1", "--Xmax", "1"]),
    # |z| grows only twofold: the slow-growth criterion cannot decide
    ("transit-short", ["transit", "--G", "z^2*(1/2)", "--start", "1", "--Xmax", "2"]),
    # the direct run's first step crosses X_max at a step fraction near 1e-311
    ("transit-tiny-range", ["transit", "--G", "z", "--start", "1e-313", "--Xmax", "2e-313"]),
    # past X ~ 1e154 the chart's s is computed without overflowing: 1 - 1e-200
    ("transit-exp-far", ["transit", "--G", "exp(z)", "--start", "0", "--Xmax", "1e200"]),
    # near the top of the double range a node retries from the chord in s ~ log X: 1 - 1/1.7e308
    ("transit-exp-top", ["transit", "--G", "exp(z)", "--start", "0", "--Xmax", "1.7e308"]),
    # off the real axis: X_max / |beta| overflows, and the chart's s is a sum of logarithms: 0.5 / sin 0.5
    ("transit-exp-top-offset", ["transit", "--G", "exp(z)", "--start", "0.5i", "--Xmax", "1.7e308"]),
    # one step of a quarter of the cap spans the Gaussian's tract: a corrected point far from
    # its prediction lies on the branch where G ~ z and is refused
    ("transit-branch", [
        "transit", "--G", "exp(-z^2) + z", "--start", "(1.472387408715436-3.2575546477714203i)", "--Xmax", "1e4",
    ]),
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
    # from z = 700 every term t^(-c) / |f'| underflows to 0 though t^(-c) does not:
    # the tails are taken from logarithms there
    ("rubel-underflow", ["rubel", "--f", "exp(z)", "--seed-point", "700", "--t-end", "1e306"]),
    # a class-B path beyond exp(z): z e^z grows past every power of |z|
    ("rubel-times-exp", ["rubel", "--f", "z*exp(z)", "--D", "0", "--seed-point", "2", "--t-end", "1e48"]),
    # class B: exp(z^2) grows past every power of |z| within |z| ~ 10
    ("rubel-gaussian", ["rubel", "--f", "exp(z^2)", "--D", "0", "--seed-point", "2", "--t-end", "1e45"]),
    # class B: sin z from pi/2 + i, above its critical point pi/2
    ("rubel-sine", [
        "rubel", "--f", "(exp(i*z)-exp(-i*z))*(-0.5i)", "--D", "0", "--seed-point", "1.5707963267948966+1i",
        "--t-end", "1e45",
    ]),
    # not class B (its critical values -1 + (2k+1) pi i are unbounded): reported, not claimed
    ("rubel-exp-plus-z", ["rubel", "--f", "exp(z)+z", "--D", "0", "--seed-point", "2", "--t-end", "1e45"]),
    # sin z from 2 meets its critical point pi/2 at t = 1: no path, so no tail verdicts
    ("rubel-stopped", ["rubel", "--f", "(exp(i*z)-exp(-i*z))*(-0.5i)", "--D", "0", "--seed-point", "2", "--t-end", "1e45"]),
    # f' = 4e-9 at the seed, below the level tracer's threshold: no path
    ("rubel-critical-seed", ["rubel", "--f", "z^2 + 1", "--seed-point", "2e-9", "--t-end", "10"]),
    # |f''| = 2e-300: the walk's term |f''|^(-2) / |f'| overflows, so no tails
    ("rubel-term-overflow", [
        "rubel", "--f", "z + 1e-300*z^2", "--seed-point", "2", "--t-end", "1e6", "--m-max", "2", "--c", "2",
    ]),
    # |f''/f| underflows to 0 and has no logarithm: no tails either
    ("rubel-quotient-underflow", [
        "rubel", "--f", "z+1e-300*z^2", "--seed-point", "2", "--t-end", "1e40", "--m-max", "2", "--c", "0.5",
        "--radius", "1e300",
    ]),
    ("poly-summary", ["poly-summary", "--coeffs", "0,0,1", "--kind", "antiholo"]),
    # a holomorphic cubic: its escape directions
    ("poly-summary-holo", ["poly-summary", "--coeffs", "0,0,0,1", "--kind", "holo"]),
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
    "rubel-stopped": 3, "rubel-critical-seed": 3, "rubel-term-overflow": 3, "rubel-quotient-underflow": 3,
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
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "planeflow.cli", *args, *(["--out", "."] if args != ["demo"] else [])],
            cwd=files, env=env, capture_output=True,
        )
        (run_dir / "stdout.txt").write_bytes(proc.stdout)
        (run_dir / "stderr.txt").write_bytes(proc.stderr)
        (run_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
        if proc.returncode != EXPECTED_EXITS.get(name, 0):
            failed.append(name)
        print(f"{name}: exit {proc.returncode} in {time.perf_counter() - start:.2f} s")
    if failed:
        print(f"unexpected exit code: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
