"""Command-line front end: every experiment as a subcommand.

Outputs are plain files (CSV trajectories, JSON reports, static SVG
scenes) written to --out; runs with identical arguments and seeds
produce byte-identical files.  Exit codes: 0 success, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import errno
import math
import os
import statistics
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from .errors import ParseError, PlaneflowError
from .escape import escape_measure, poly_flow_summary, rubel_path, transverse_segment
from .expr import constant_value, is_constant, parse_expr, poly_coeffs, to_text
from .flow import (
    ANTIHOLOMORPHIC,
    FORWARD,
    HOLOMORPHIC,
    REVERSED,
    FlowSpec,
    IntegratorConfig,
    Trajectory,
    antiholo_invariants,
    blowup_time_estimate,
    classify,
    conformal_clock_residual,
    integrate,
)
from .jets import _MAX_JET_ORDER
from .level import infinite_time_criterion, trace_level, transit_time
from .reports import dumps_report
from .svg import _scale, render_svg

__all__ = ["main", "run_cli"]


def parse_complex(text: str) -> complex:
    """Accept 're,im' pairs or expression-style literals like '1+2i'; a
    point that is not finite, or whose modulus overflows, is a ParseError."""
    if "," in text:
        z = complex(*map(float, text.split(",", 1)))
    else:
        expr = parse_expr(text)
        if not is_constant(expr):
            raise ValueError(f"{text!r} is not a constant")
        z = constant_value(expr)
    if not math.isfinite(math.hypot(z.real, z.imag)):  # where abs(z) would raise OverflowError
        raise ParseError(f"point {text!r} is not finite", 0)
    return z


def _config(args) -> IntegratorConfig:
    cfg = IntegratorConfig()
    overrides = {}
    # a subcommand that reads only some of these fields registers only their flags
    for flag, field in (("tol", "rel_tol"), ("tmax", "t_max"), ("radius", "escape_radius")):
        if getattr(args, flag, None) is not None:
            overrides[field] = getattr(args, flag)
    return replace(cfg, **overrides) if overrides else cfg


def _int_at_least(least: int, most: float = math.inf):
    """argparse type for an integer >= least (and <= most)."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text}")
        if n > most:
            raise argparse.ArgumentTypeError(f"must be an integer <= {most}, got {text}")
        return n

    return parse


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return x


def _positive_float(text: str) -> float:
    x = _finite_float(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return x


def _window(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"must be 'cx,cy,halfwidth', got {text}")
    cx, cy, hw = (_finite_float(v) for v in parts)
    try:
        _scale(hw)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"{err}, got {text}") from None
    return complex(cx, cy), hw


def _out_dir(text: str) -> Path:
    """argparse type for --out: a directory, or a path that can become one."""
    path = Path(text)
    # the nearest path that exists, --out itself or an ancestor, must be a directory
    found = next((p for p in (path, *path.parents) if os.path.exists(p)), None)
    if found is not None and not os.path.isdir(found):
        raise argparse.ArgumentTypeError(f"must name a directory, but {found} exists and is not one")
    return path


# every flag of every subcommand, defined once; a subcommand's row in
# _COMMANDS names the flags it reads and marks a required one with '!'
_FLAGS = {
    "f": dict(help="holomorphic flow expression"),
    "g": dict(help="antiholomorphic flow expression"),
    "z0": dict(help="start point 're,im' or 'a+bi'"),
    "kind": dict(choices=("holo", "antiholo"), default="holo"),
    "reversed": dict(action="store_true", help="reverse time"),
    "G": dict(help="potential whose level curve is traced"),
    "start": dict(help="start point"),
    "Xmax": dict(type=_finite_float, help="target Re G"),
    "tol": dict(type=_finite_float, default=None, help="relative tolerance override"),
    "tmax": dict(type=float, default=None, help="integration time budget"),
    "radius": dict(type=float, default=None, help="escape radius"),
    "out": dict(type=_out_dir, default=Path("."), help="output directory, created when absent"),
    "json": dict(action="store_true", help="write a JSON report"),
    "svg": dict(action="store_true", help="write an SVG scene"),
    "csv": dict(action="store_true", help="write a CSV table"),
    "window": dict(type=_window, default=None, help="plot window as 'cx,cy,halfwidth' (default: fit to data)"),
    "delta": dict(type=_finite_float, default=1.0),
    "N": dict(type=_int_at_least(1), default=1000, help="number of samples"),
    "keep": dict(type=_int_at_least(0), default=40, help="trajectories kept for the SVG"),
    "seed": dict(type=int, default=0, help="RNG seed"),
    "D": dict(type=_finite_float, default=0.0),
    "seed-point": dict(help="seed inside the large-|f| tract"),
    "t-end": dict(type=_finite_float),
    "m-max": dict(type=_int_at_least(0, _MAX_JET_ORDER), default=3),
    "c": dict(type=_positive_float, action="append", default=None,
              help="exponent for the reciprocal tail integral (repeatable)"),
    "coeffs": dict(help="ascending coefficients 'a0,a1,...'"),
}


def _spec_from_args(args) -> FlowSpec:
    """The flow of --f for --kind holo or of --g for --kind antiholo; the
    other expression flag is a usage error."""
    holo = args.kind == "holo"
    text, other, flag = (args.f, args.g, "--g") if holo else (args.g, args.f, "--f")
    if other is not None:
        raise ValueError(f"{flag} does not apply to --kind {args.kind} (--f for holo, --g for antiholo)")
    if text is None:
        raise ValueError("an expression is required (--f for holo, --g for antiholo)")
    direction = REVERSED if args.reversed else FORWARD
    return FlowSpec(HOLOMORPHIC if holo else ANTIHOLOMORPHIC, parse_expr(text), direction)


def _write_files(out: Path, files: dict) -> None:
    """The one writer of output files: each text to out/name as UTF-8 with
    '\\n' line ends, creating out.  All are written or none: each goes to a
    temporary directory first, and out is made and the files renamed into it
    only after the last write.  A failed write is a usage error and leaves
    out as it was."""
    path = out
    try:
        # in out's nearest existing directory, so that a failed write makes no directory
        near = next(p for p in (out, *out.parents) if p.is_dir())
        with tempfile.TemporaryDirectory(prefix=".partial-", dir=near) as tmp:
            for name, text in files.items():
                path = out / name
                if path.is_dir():  # no rename can replace it
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                Path(tmp, name).write_text(text, encoding="utf-8", newline="\n")
            out.mkdir(parents=True, exist_ok=True)
            for name in files:
                os.replace(Path(tmp, name), path := out / name)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def _trajectory_csv(traj: Trajectory) -> str:
    rows = ((t, z.real, z.imag, abs(z), err) for (t, z), err in zip(traj.samples, traj.errors))
    return _csv("t,re_z,im_z,abs_z,step_error", rows)


def _svg(args, polylines, seed, legend, zeros=()) -> str:
    """The scene of (points, css class) polylines, drawn in order, the seed and
    zero markers and the legend lines, in --window or fit to the polylines."""
    points = [z for line, _ in polylines for z in line]
    window = args.window or (0j, 5.0)
    if not args.window and points:
        res, ims = [p.real for p in points], [p.imag for p in points]
        center = complex(0.5 * (min(res) + max(res)), 0.5 * (min(ims) + max(ims)))
        window = center, 0.55 * max(max(res) - min(res), max(ims) - min(ims), 1e-6)
    markers = [(seed, "seed"), *((root, "zero") for root in zeros)]
    return render_svg(*window, polylines, markers, legend)


def _poly_roots(spec: FlowSpec, iters=200):
    """Durand-Kerner roots of the flow's function when ``poly_coeffs`` reads
    it as a polynomial (ascending, last coefficient nonzero); else none."""
    c = [complex(v) for v in poly_coeffs(spec.func) or ()]
    n = len(c) - 1
    if n < 1:
        return []
    lead = c[-1]
    mon = [v / lead for v in c]
    roots = [(0.4 + 0.9j) ** k for k in range(1, n + 1)]
    for _ in range(iters):
        moved = 0.0
        for i in range(n):
            p = 0j
            for v in reversed(mon):
                p = p * roots[i] + v
            q = mon[-1]
            for j in range(n):
                if j != i:
                    q *= roots[i] - roots[j]
            if q == 0:
                continue
            step = p / q
            roots[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-13:
            break
    return roots


def _termination_line(term) -> str:
    kind = term.name
    if kind == "FiniteTimeBlowup":
        return f"FiniteTimeBlowup T≈{term.t_est:.4f}"
    if kind == "ReachedRadius":
        return f"ReachedRadius t_exit≈{term.t_exit:.4f}"
    if kind == "Periodic":
        return f"Periodic period≈{term.period:.4f}"
    if kind == "FixedPointApproach":
        z = term.z_star
        return f"FixedPointApproach z*≈{z.real:.6g}{z.imag:+.6g}i"
    return kind


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    cfg = _config(args)
    spec = _spec_from_args(args)
    z0 = parse_complex(args.z0)
    traj = integrate(spec, z0, cfg)
    term = classify(traj, cfg)
    traj = replace(traj, termination=term)
    print(_termination_line(term))
    if args.csv or not (args.json or args.svg):
        args.files["trajectory.csv"] = _trajectory_csv(traj)
    if args.json:
        args.files["trajectory.json"] = dumps_report(traj)
    if args.svg:
        line = ([z for _, z in traj.samples], _css(term.name))
        legend = (f"dz/dt = {_rhs_text(spec)}", _termination_line(term))
        args.files["trajectory.svg"] = _svg(args, [line], z0, legend, _poly_roots(spec))
    return 0


def _css(termination: str) -> str:
    return "blowup" if termination == "FiniteTimeBlowup" else "trajectory"


def _rhs_text(spec: FlowSpec) -> str:
    body = to_text(spec.func)
    inner = body if spec.kind == HOLOMORPHIC else f"conj({body})"
    return inner if spec.time_direction == FORWARD else f"-({inner})"


def _cmd_classify(args) -> int:
    cfg = _config(args)
    spec = _spec_from_args(args)
    z0 = parse_complex(args.z0)
    traj = integrate(spec, z0, cfg)
    est = blowup_time_estimate(traj, cfg)
    print(_termination_line(classify(traj, cfg)))
    if est.conclusive:
        print(f"  escape time {est.t_est!r} ± {est.t_err:.3g} ({est.method})")
    else:
        print(f"  no finite escape time concluded: {est.note}")
    for r, t in est.exit_times:
        print(f"  radius {r:g} crossed at t={t!r}")
    if args.json:
        args.files["classify.json"] = dumps_report(est)
    return 0


def _cmd_level_trace(args) -> int:
    cfg = _config(args)
    big_g = parse_expr(args.G)
    z0 = parse_complex(args.start)
    curve = trace_level(big_g, z0, args.Xmax, cfg)
    print(
        f"level curve: {len(curve)} samples, Im G = {curve.beta!r}, "
        f"X in [{curve.x_start!r}, {curve.x_end!r}], stop: {curve.stop_reason}"
    )
    args.files["level.csv"] = _csv("x,re_z,im_z", ((x, z.real, z.imag) for x, z in curve.samples))
    if args.json:
        args.files["level.json"] = dumps_report(curve)
    if args.svg:
        legend = (f"Im G = {curve.beta:.6g}, G = {to_text(big_g)}",)
        args.files["level.svg"] = _svg(args, [(curve.zs, "level")], z0, legend)
    return 0


def _cmd_transit(args) -> int:
    cfg = _config(args)
    big_g = parse_expr(args.G)
    z0 = parse_complex(args.start)
    curve = trace_level(big_g, z0, args.Xmax, cfg)
    report = transit_time(curve, cfg)
    crit = infinite_time_criterion(curve)
    if not math.isfinite(report.quadrature_time):
        print(f"transit integrand diverges near X={report.divergence_witness!r}")
    else:
        lo, hi = report.x_range
        check = f"flow {report.ode_time!r}, relative gap {report.relative_gap:.3g}"
        if not math.isfinite(report.ode_time):  # the cross-check could not be run to the far end
            check = f"the direct run did not reach Re G = {hi:.6g}"
        print(f"transit over X in [{lo:.6g}, {hi:.6g}]: quadrature {report.quadrature_time!r}, {check}")
    if crit.fires:
        print("slow-growth criterion fires: transit to infinity is infinite")
    elif not crit.conclusive:
        print(f"slow-growth criterion inconclusive: {crit.note}")
    args.files["transit.json"] = dumps_report(report)
    return 0


def _cmd_measure(args) -> int:
    cfg = _config(args)
    f = parse_expr(args.f)
    z0 = parse_complex(args.z0)
    report = escape_measure(f, z0, args.delta, args.N, cfg, seed=args.seed, collect=args.keep if args.svg else 0)
    print(
        f"{args.N} samples on the transverse segment (delta={args.delta:g}, seed={args.seed}): "
        f"finite-time fraction {report.finite_time_fraction!r}"
    )
    for name in sorted(report.counts):
        print(f"  {name}: {report.counts[name]}")
    args.files["measure.json"] = dumps_report(report)
    if args.svg:
        lines = [([z for _, z in traj.samples], _css(name)) for _, traj, name in report.trajectories]
        lines.append(([z for _, z in transverse_segment(f, z0, args.delta, 64, cfg)], "segment"))
        legend = (f"finite-time fraction {report.finite_time_fraction:.4g}",)
        args.files["measure.svg"] = _svg(args, lines, z0, legend)
    return 0


def _cmd_rubel(args) -> int:
    cfg = _config(args)
    f = parse_expr(args.f)
    seed_pt = parse_complex(args.seed_point)
    report = rubel_path(f, args.D, seed_pt, args.t_end, cfg, m_max=args.m_max, c_values=tuple(args.c or (0.5, 1.0)))
    print(
        f"path traced to t={report.samples[-1][0]:.6g} "
        f"(|z| up to {abs(report.samples[-1][1]):.6g}); "
        f"Re f strictly increasing: {report.monotone}"
    )
    for m, points in sorted(report.growth_ratios.items()):
        if points:
            r, q = points[-1]
            print(f"  m={m}: log|f^({m})|/log|z| = {q:.3f} at |z|={r:.4g}")
    for t in report.tail_integrals:
        print(f"  m={t.m} c={t.c:g}: partial {t.partial_sum:.6g}, "
              f"window ratio {t.window_ratio:.4f}, finite: {t.finite}")
    args.files["rubel.json"] = dumps_report(report)
    return 0


def _cmd_poly_summary(args) -> int:
    kind = HOLOMORPHIC if args.kind == "holo" else ANTIHOLOMORPHIC
    coeffs = [parse_complex(v) for v in args.coeffs.split(",")]
    summary = poly_flow_summary(coeffs, kind)
    if kind == HOLOMORPHIC:
        if summary.degree >= 2:
            dirs = ", ".join(f"{a:.6g}" for a in summary.finite_time_directions)
            print(f"degree {summary.degree}: {summary.degree - 1} finite-time escape direction(s) at arg z = {dirs}")
        else:
            print("degree 1: no finite-time escape directions")
    else:
        verdict = "finite" if summary.finite_transit else "infinite"
        print(f"degree {summary.degree}: transit time to infinity is {verdict}")
    args.files["poly_summary.json"] = dumps_report(summary)
    return 0


def _cmd_demo(args) -> int:
    passed = 0
    for name, claim, fn in _DEMOS:
        try:
            ok, detail = fn()
        except PlaneflowError as exc:
            ok, detail = False, f"error: {exc}"
        passed += bool(ok)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {claim}\n       {detail}")
    print(f"\n{passed}/{len(_DEMOS)} demos passed")
    return 0 if passed == len(_DEMOS) else 3


# ---------------------------------------------------------------------------
# built-in demo suite: one function per acceptance criterion, returning (ok, detail); ok
# is the criterion's only rule, `demo` prints it and tests/test_acceptance.py asserts it


def _demo_closed_form_escape():
    cfg = IntegratorConfig()
    traj = integrate(FlowSpec(HOLOMORPHIC, parse_expr("-exp(-z)")), 0.0, cfg)
    sup = max(abs(cmath.exp(z) - (1.0 - t)) for t, z in traj.samples if t <= 0.99)
    est = blowup_time_estimate(traj, cfg)
    ok = sup <= 1e-6 and est.conclusive and abs(est.t_est - 1.0) <= 1e-4
    return ok, f"exp(z(t)) = exp(z0) - t: sup dev {sup:.2e}, escape T={est.t_est:.6f}"


def _demo_quadratic_blowup():
    cfg = IntegratorConfig(escape_radius=100.0)
    spec = FlowSpec(HOLOMORPHIC, parse_expr("z^2"))
    ests = {want: blowup_time_estimate(integrate(spec, z0, cfg), cfg) for z0, want in ((1.0, 1.0), (2.0, 0.5))}
    ok = all(e.conclusive and e.method == "ray" and abs(e.t_est - w) <= 1e-4 for w, e in ests.items())
    dev = max(abs(e.t_est - w) for w, e in ests.items())
    return ok, f"dz/dt = z^2: T(1)=1, T(2)=0.5 within {dev:.2e}"


def _demo_conformal_clock():
    cases = [
        ("z", (1.0, 1j, 1 + 1j, -2 + 0.5j, 0.3 - 0.7j)),
        ("z^2 - 1", (0.5j, 2.0, -0.3 + 0.8j, 0.2 - 0.6j, 1.5 + 0.5j)),
        ("exp(z)", (0.0, 0.5j, -1.0, 0.3 - 0.2j, -0.5 + 0.4j)),
    ]
    res = []
    for text, seeds in cases:
        spec = FlowSpec(HOLOMORPHIC, parse_expr(text))
        res.extend(conformal_clock_residual(integrate(spec, z0, IntegratorConfig(t_max=3.0))) for z0 in seeds)
    return all(r <= 1e-5 for r in res), f"clock integral of dz/f tracks t: worst residual {max(res):.2e}"


def _demo_antiholo_dichotomy():
    spec1 = FlowSpec(ANTIHOLOMORPHIC, parse_expr("z"))
    radii = (10.0, 100.0, 1000.0, 10000.0)
    runs = [integrate(spec1, 1.0, IntegratorConfig(escape_radius=r, t_max=100.0)) for r in radii]
    slope = statistics.linear_regression([math.log(r) for r in radii], [traj.t_end for traj in runs]).slope
    cfg2 = IntegratorConfig(escape_radius=1e6, t_max=10.0)
    t2 = integrate(FlowSpec(ANTIHOLOMORPHIC, parse_expr("z^2")), 1.0, cfg2).t_end
    reached = all(traj.termination.name == "ReachedRadius" for traj in runs)
    ok = reached and abs(slope - 1.0) <= 0.05 and 0.99 <= t2 <= 1.0
    return ok, f"deg 1: time-to-R slope vs ln R = {slope:.4f}; deg 2: time to 1e6 = {t2:.6f}"


def _demo_transit_gap():
    gaps = [
        transit_time(trace_level(parse_expr(text), 1.0, x_max, cfg), cfg).relative_gap
        for text, x_max, cfg in (
            ("z^2 / 2", 50.0, IntegratorConfig(escape_radius=100.0)),
            ("z^3 / 3", 1e18 / 3.0, IntegratorConfig(escape_radius=1e7, t_max=10.0)),
        )
    ]
    ok = all(g <= 1e-3 for g in gaps)
    return ok, f"transit quadrature vs flow time: gaps {', '.join(f'{g:.2e}' for g in gaps)}"


def _demo_tract():
    # g(z) = exp(-z) + 1: from -1 + i*pi the flow runs along the invariant line Im z = pi into the
    # left half-plane and escapes in finite time; from 1 it crawls through the right half-plane at
    # speed between 1 and 2, so the time to radius R grows like R (infinite-time evidence)
    cfg = IntegratorConfig()
    spec = FlowSpec(ANTIHOLOMORPHIC, parse_expr("exp(-z) + 1"))
    left = integrate(spec, complex(-1.0, math.pi), cfg)
    est = blowup_time_estimate(left, cfg)
    times_ok, drift = True, antiholo_invariants(left).im_drift
    for radius in (10.0, 100.0, 1000.0):
        cfg_r = replace(cfg, escape_radius=radius, t_max=max(cfg.t_max, 3.0 * radius))
        right = integrate(spec, complex(1.0, 0.0), cfg_r)
        times_ok &= right.t_end >= radius - 2.0
        drift = max(drift, antiholo_invariants(right).im_drift)
    want = -math.log(1.0 - math.exp(-1.0))
    ok = (
        classify(left, cfg).name == "FiniteTimeBlowup" and abs(est.t_est - want) <= 1e-3
        and not blowup_time_estimate(right, cfg_r).conclusive and classify(right, cfg_r).name == "ReachedRadius"
        and drift <= 1e-6 and times_ok
    )
    return ok, (
        f"exp(-z)+1: left escape T={est.t_est:.5f} (target {want:.5f}), "
        f"right escape needs t >= R-2 at R=10,100,1000: {times_ok}"
    )


def _demo_measure_zero(n_samples=2000):
    cfg = IntegratorConfig(escape_radius=10.0, t_max=50.0)
    rep = escape_measure(parse_expr("-exp(-z)"), 0.0, 1.0, n_samples, cfg, seed=20260808)
    ok = sum(rep.counts.values()) == n_samples and rep.finite_time_fraction <= 0.01
    return ok, f"finite-time set on the segment: fraction {rep.finite_time_fraction!r} of {n_samples}"


def _demo_rubel():
    cfg = IntegratorConfig(escape_radius=1e9)
    ok, detail = True, []
    for d in (0.0, 5.0):
        seed = 2.0 if d == 0.0 else cmath.log(10 + 1j * d)
        rep = rubel_path(parse_expr("exp(z)"), d, seed, math.exp(110.0), cfg)
        tails_finite = all(t.finite for t in rep.tail_integrals)
        ok &= (
            rep.monotone and set(rep.growth_ratios) >= {0, 1, 2, 3} and tails_finite
            and {t.c for t in rep.tail_integrals} == {0.5, 1.0}
        )
        for points in rep.growth_ratios.values():
            decade = [q for r, q in points if r >= points[-1][0] / 10.0]
            ok &= min((q for r, q in points if r >= 100.0), default=-math.inf) > 20.0
            ok &= all(a < b for a, b in zip(decade, decade[1:]))
        detail.append(f"D={d:g}: monotone {rep.monotone}, tails finite {tails_finite}")
    return ok, "; ".join(detail)


def _demo_criterion():
    cfg = IntegratorConfig(escape_radius=1e4)
    reps = [
        infinite_time_criterion(trace_level(parse_expr(text), 1.0, x_max, cfg))
        for text, x_max in (("z", 700.0), ("z^2 / 2", 2e5), ("z^3 / 3", 601.0**3 / 3.0))
    ]
    fired, flat, grow = (r.fires for r in reps)
    ok = fired and not flat and not grow and all(r.witnesses for r in reps)
    return ok, f"|G|/|z|^2 test: fires(G=z)={fired}, fires(z^2/2)={flat}, fires(z^3/3)={grow}"


def _demo_properties():
    returns = []
    for kind, text, z0 in (
        (HOLOMORPHIC, "z^2 - 1", 0.5j),
        (HOLOMORPHIC, "-exp(-z)", 0.3 + 0.2j),
        (ANTIHOLOMORPHIC, "z^2", 1 + 1j),
    ):
        traj = integrate(FlowSpec(kind, parse_expr(text)), z0, IntegratorConfig(t_max=1.5))
        rev = FlowSpec(kind, parse_expr(text), REVERSED)
        returns.append(abs(integrate(rev, traj.z_end, IntegratorConfig(t_max=traj.t_end)).z_end - z0))
    drifts = []
    for text, z0 in (("z", 1.0), ("z^2", 1 + 1j), ("exp(-z) + 1", complex(-1, math.pi))):
        traj = integrate(FlowSpec(ANTIHOLOMORPHIC, parse_expr(text)), z0, IntegratorConfig(t_max=2.0))
        drifts.append(antiholo_invariants(traj).im_drift)
    term = classify(integrate(FlowSpec(HOLOMORPHIC, parse_expr("i*z")), 1.0, IntegratorConfig()))
    period_dev = abs(term.period - 2.0 * math.pi) if term.name == "Periodic" else math.inf
    ok = all(r <= 1e-5 for r in returns) and period_dev <= 1e-4 and all(d <= 1e-6 for d in drifts)
    return ok, f"reversal return {max(returns):.2e}; period dev {period_dev:.2e}; Im G drift {max(drifts):.2e}"


_DEMOS = (
    ("closed-form-escape", "exp(z(t)) = exp(z0) - t forces escape at T = Re exp(z0)", _demo_closed_form_escape),
    ("quadratic-blowup", "dz/dt = z^2 escapes at T = 1/z0 (ray check)", _demo_quadratic_blowup),
    ("conformal-clock", "integral of dz/f along a trajectory equals elapsed time", _demo_conformal_clock),
    ("antiholo-dichotomy", "conj-flow transit: infinite for degree 1, finite for degree >= 2", _demo_antiholo_dichotomy),
    ("transit-quadrature", "transit time integral of |dz/dX|^2 dX matches the flow", _demo_transit_gap),
    ("tract-demo", "exp(-z)+1: finite-time escape left, infinite-time right", _demo_tract),
    ("measure-zero", "finite-time escape set on a transverse segment has tiny measure", _demo_measure_zero),
    ("rubel-growth", "path where f and derivatives outgrow every power, reciprocals integrable", _demo_rubel),
    ("slow-growth-criterion", "|G(z)| = o(|z|^2) along the curve forces infinite transit", _demo_criterion),
    ("property-suite", "time reversal, rotation period, Im G conservation", _demo_properties),
)


# ---------------------------------------------------------------------------
# argument parsing


# one row per subcommand: name, help, the _FLAGS it reads ('!' marks a
# required one), the function that runs it, and its defaults
_COMMANDS = (
    ("simulate", "integrate one trajectory and classify it",
     "f g z0! kind reversed tol tmax radius out json svg csv window", _cmd_simulate, {}),
    ("classify", "integrate and report escape-time analysis",
     "f g z0! kind reversed tol tmax radius out json", _cmd_classify, {}),
    ("level-trace", "trace a level curve of Im G",
     "G! start! Xmax! radius out json svg window", _cmd_level_trace, dict(radius=1e9)),
    ("transit", "transit time along a level curve",
     "G! start! Xmax! tol tmax radius out", _cmd_transit, dict(radius=1e9)),
    ("measure", "Monte Carlo escape measure on a transverse segment",
     "f! delta N keep seed z0! tol tmax radius out svg window", _cmd_measure, {}),
    ("rubel", "trace a growth path where f - iD is real increasing",
     "f! D seed-point! t-end! m-max c radius out", _cmd_rubel, dict(radius=1e9)),
    ("poly-summary", "predicted escape structure of a polynomial flow", "coeffs! kind out", _cmd_poly_summary, {}),
    ("demo", "run the built-in example suite and print pass/fail", "", _cmd_demo, {}),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planeflow",
        description="simulate plane flows of entire functions and their escape behavior",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags, fn, defaults in _COMMANDS:
        # flags match by full name only: as a prefix, `rubel --seed` would set --seed-point
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags.split():
            key = flag.rstrip("!")
            p.add_argument(f"--{key}", required=key != flag, **_FLAGS[key])
        p.set_defaults(fn=fn, **defaults)
    return parser


# every flag that takes a value, which may begin with '-' (an expression, a
# point, or a number such as -1e-3 that argparse would read as an option)
_VALUE_OPTS = {f"--{key}" for key, spec in _FLAGS.items() if spec.get("action") != "store_true"}


def _join_values(argv):
    """argv with each value flag and the token after it joined as --flag=value."""
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_OPTS:
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    args.files = {}
    try:
        code = args.fn(args)
        if args.files:  # a command that writes no file leaves --out uncreated
            _write_files(args.out, args.files)
        return code
    except PlaneflowError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        # a malformed expression or point is a usage error, as a malformed flag is
        return 2 if isinstance(exc, ParseError) else 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # the same bytes on stdout and stderr in every locale
    sys.stdout.reconfigure(encoding="utf-8")
    sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
