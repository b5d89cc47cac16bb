"""Command-line front end: every experiment as a subcommand.

Outputs are plain files (CSV trajectories, JSON reports, static SVG
scenes) written to --out; runs with identical arguments and seeds
produce byte-identical files.  Exit codes: 0 success, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import replace
from functools import partial
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
from .reports import write_report
from .svg import SvgScene, _scale, render_svg

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
    if args.tol is not None:
        overrides["rel_tol"] = args.tol
    if args.tmax is not None:
        overrides["t_max"] = args.tmax
    if args.radius is not None:
        overrides["escape_radius"] = args.radius
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


# flags shared by several subcommands; each subcommand registers the ones it reads
_FLAGS = {
    "f": dict(help="holomorphic flow expression"),
    "g": dict(help="antiholomorphic flow expression"),
    "z0": dict(required=True, help="start point 're,im' or 'a+bi'"),
    "kind": dict(choices=("holo", "antiholo"), default="holo"),
    "reversed": dict(action="store_true", help="reverse time"),
    "G": dict(required=True, help="potential whose level curve is traced"),
    "start": dict(required=True, help="start point"),
    "Xmax": dict(type=_finite_float, required=True, help="target Re G"),
    "tol": dict(type=_finite_float, default=None, help="relative tolerance override"),
    "tmax": dict(type=float, default=None, help="integration time budget"),
    "radius": dict(type=float, default=None, help="escape radius"),
    "out": dict(type=Path, default=Path("."), help="output directory"),
    "json": dict(action="store_true", help="write a JSON report"),
    "svg": dict(action="store_true", help="write an SVG scene"),
    "csv": dict(action="store_true", help="write a CSV table"),
    "window": dict(type=_window, default=None, help="plot window as 'cx,cy,halfwidth' (default: fit to data)"),
}


def _add_flags(p: argparse.ArgumentParser, names: str) -> None:
    for name in names.split():
        p.add_argument(f"--{name}", **_FLAGS[name])


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


def write_trajectory_csv(traj: Trajectory, path) -> None:
    lines = ["t,re_z,im_z,abs_z,step_error"]
    for (t, z), err in zip(traj.samples, traj.errors):
        lines.append(f"{t!r},{z.real!r},{z.imag!r},{abs(z)!r},{err!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _scene_window(args, points):
    if args.window:
        return args.window
    if not points:
        return 0j, 5.0
    re_lo = min(p.real for p in points)
    re_hi = max(p.real for p in points)
    im_lo = min(p.imag for p in points)
    im_hi = max(p.imag for p in points)
    center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
    hw = 0.55 * max(re_hi - re_lo, im_hi - im_lo, 1e-6)
    return center, hw


def _poly_roots(coeffs, iters=200):
    """Durand-Kerner roots of an ascending-coefficient polynomial whose
    last coefficient is nonzero, as ``poly_coeffs`` returns them."""
    c = [complex(v) for v in coeffs]
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
    args.out.mkdir(parents=True, exist_ok=True)
    if args.csv or not (args.json or args.svg):
        write_trajectory_csv(traj, args.out / "trajectory.csv")
    if args.json:
        write_report(traj, args.out / "trajectory.json")
    if args.svg:
        scene = SvgScene(*_scene_window(args, [z for _, z in traj.samples]))
        css = "blowup" if term.name == "FiniteTimeBlowup" else "trajectory"
        scene.add_polyline([z for _, z in traj.samples], css)
        scene.add_marker(z0, "seed")
        for root in _poly_roots_of(spec):
            scene.add_marker(root, "zero")
        scene.add_legend(f"dz/dt = {_rhs_text(spec)}")
        scene.add_legend(_termination_line(term))
        (args.out / "trajectory.svg").write_text(render_svg(scene))
    return 0


def _poly_roots_of(spec: FlowSpec):
    coeffs = poly_coeffs(spec.func)
    return _poly_roots(coeffs) if coeffs else []


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
    args.out.mkdir(parents=True, exist_ok=True)
    if args.json:
        write_report(est, args.out / "classify.json")
    if args.csv:
        write_trajectory_csv(traj, args.out / "trajectory.csv")
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
    args.out.mkdir(parents=True, exist_ok=True)
    lines = ["x,re_z,im_z"]
    for x, z in curve.samples:
        lines.append(f"{x!r},{z.real!r},{z.imag!r}")
    (args.out / "level.csv").write_text("\n".join(lines) + "\n")
    if args.json:
        write_report(curve, args.out / "level.json")
    if args.svg:
        scene = SvgScene(*_scene_window(args, list(curve.zs)))
        scene.add_polyline(curve.zs, "level")
        scene.add_marker(z0, "seed")
        scene.add_legend(f"Im G = {curve.beta:.6g}, G = {to_text(big_g)}")
        (args.out / "level.svg").write_text(render_svg(scene))
    return 0


def _cmd_transit(args) -> int:
    cfg = _config(args)
    big_g = parse_expr(args.G)
    z0 = parse_complex(args.start)
    curve = trace_level(big_g, z0, args.Xmax, cfg)
    report = transit_time(curve, cfg)
    crit = infinite_time_criterion(curve)
    if math.isfinite(report.quadrature_time):
        print(
            f"transit over X in [{report.x_range[0]:.6g}, {report.x_range[1]:.6g}]: "
            f"quadrature {report.quadrature_time!r}, flow {report.ode_time!r}, "
            f"relative gap {report.relative_gap:.3g}"
        )
    else:
        print(f"transit integrand diverges near X={report.divergence_witness!r}")
    if crit.fires:
        print("slow-growth criterion fires: transit to infinity is infinite")
    args.out.mkdir(parents=True, exist_ok=True)
    write_report(report, args.out / "transit.json")
    return 0


def _cmd_measure(args) -> int:
    cfg = _config(args)
    f = parse_expr(args.f)
    z0 = parse_complex(args.z0)
    collect = args.keep if args.svg else 0
    report = escape_measure(
        f, z0, args.delta, args.N, cfg, seed=args.seed, collect=collect
    )
    print(
        f"{args.N} samples on the transverse segment (delta={args.delta:g}, seed={args.seed}): "
        f"finite-time fraction {report.finite_time_fraction!r}"
    )
    for name in sorted(report.counts):
        print(f"  {name}: {report.counts[name]}")
    args.out.mkdir(parents=True, exist_ok=True)
    write_report(report, args.out / "measure.json")
    if args.svg:
        seg = transverse_segment(f, z0, args.delta, 64, cfg)
        points = [z for _, z in seg]
        for _, traj, _ in report.trajectories:
            points.extend(z for _, z in traj.samples)
        scene = SvgScene(*_scene_window(args, points))
        for _, traj, name in report.trajectories:
            css = "blowup" if name == "FiniteTimeBlowup" else "trajectory"
            scene.add_polyline([z for _, z in traj.samples], css)
        scene.add_polyline([z for _, z in seg], "segment")
        scene.add_marker(z0, "seed")
        scene.add_legend(f"finite-time fraction {report.finite_time_fraction:.4g}")
        (args.out / "measure.svg").write_text(render_svg(scene))
    return 0


def _cmd_rubel(args) -> int:
    cfg = _config(args)
    f = parse_expr(args.f)
    seed_pt = parse_complex(args.seed_point)
    report = rubel_path(
        f,
        args.D,
        seed_pt,
        args.t_end,
        cfg,
        m_max=args.m_max,
        c_values=tuple(args.c or (0.5, 1.0)),
    )
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
        print(
            f"  m={t.m} c={t.c:g}: partial {t.partial_sum:.6g}, "
            f"window ratio {t.window_ratio:.4f}, finite: {t.finite}"
        )
    args.out.mkdir(parents=True, exist_ok=True)
    write_report(report, args.out / "rubel.json")
    return 0


def _cmd_poly_summary(args) -> int:
    kind = HOLOMORPHIC if args.kind == "holo" else ANTIHOLOMORPHIC
    coeffs = [parse_complex(v) for v in args.coeffs.split(",")]
    summary = poly_flow_summary(coeffs, kind)
    if kind == HOLOMORPHIC:
        if summary.degree >= 2:
            dirs = ", ".join(f"{a:.6g}" for a in summary.finite_time_directions)
            print(
                f"degree {summary.degree}: {summary.degree - 1} finite-time escape "
                f"direction(s) at arg z = {dirs}"
            )
        else:
            print("degree 1: no finite-time escape directions")
    else:
        verdict = "finite" if summary.finite_transit else "infinite"
        print(f"degree {summary.degree}: transit time to infinity is {verdict}")
    args.out.mkdir(parents=True, exist_ok=True)
    write_report(summary, args.out / "poly_summary.json")
    return 0


def _cmd_demo(args) -> int:
    results = run_demo_suite()
    failed = [name for name, ok, _ in results if not ok]
    print()
    print(f"{len(results) - len(failed)}/{len(results)} demos passed")
    return 0 if not failed else 3


# ---------------------------------------------------------------------------
# built-in demo suite: one function per acceptance criterion, returning (ok, detail, measured
# values); `demo` prints ok and detail, tests/test_acceptance.py asserts on the values


def _demo_closed_form_escape():
    cfg = IntegratorConfig()
    traj = integrate(FlowSpec(HOLOMORPHIC, parse_expr("-exp(-z)")), 0.0, cfg)
    sup = max(abs(cmath.exp(z) - (1.0 - t)) for t, z in traj.samples if t <= 0.99)
    est = blowup_time_estimate(traj, cfg)
    ok = sup <= 1e-6 and est.conclusive and abs(est.t_est - 1.0) <= 1e-4
    return ok, f"exp(z(t)) = exp(z0) - t: sup dev {sup:.2e}, escape T={est.t_est:.6f}", dict(sup=sup, estimate=est)


def _demo_quadratic_blowup():
    cfg = IntegratorConfig(escape_radius=100.0)
    spec = FlowSpec(HOLOMORPHIC, parse_expr("z^2"))
    ests = {want: blowup_time_estimate(integrate(spec, z0, cfg), cfg) for z0, want in ((1.0, 1.0), (2.0, 0.5))}
    ok = all(e.conclusive and e.method == "ray" and abs(e.t_est - w) <= 1e-4 for w, e in ests.items())
    dev = max(abs(e.t_est - w) for w, e in ests.items())
    return ok, f"dz/dt = z^2: T(1)=1, T(2)=0.5 within {dev:.2e}", dict(estimates=ests)


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
    ok = all(r <= 1e-5 for r in res)
    return ok, f"clock integral of dz/f tracks t: worst residual {max(res):.2e}", dict(residuals=res)


def _demo_antiholo_dichotomy():
    spec1 = FlowSpec(ANTIHOLOMORPHIC, parse_expr("z"))
    radii = (10.0, 100.0, 1000.0, 10000.0)
    runs = [integrate(spec1, 1.0, IntegratorConfig(escape_radius=r, t_max=100.0)) for r in radii]
    pts = [(math.log(r), traj.t_end) for r, traj in zip(radii, runs)]
    sx = sum(x for x, _ in pts) / len(pts)
    sy = sum(y for _, y in pts) / len(pts)
    slope = sum((x - sx) * (y - sy) for x, y in pts) / sum((x - sx) ** 2 for x, _ in pts)
    cfg2 = IntegratorConfig(escape_radius=1e6, t_max=10.0)
    t2 = integrate(FlowSpec(ANTIHOLOMORPHIC, parse_expr("z^2")), 1.0, cfg2).t_end
    names = [traj.termination.name for traj in runs]
    ok = all(n == "ReachedRadius" for n in names) and abs(slope - 1.0) <= 0.05 and 0.99 <= t2 <= 1.0
    detail = f"deg 1: time-to-R slope vs ln R = {slope:.4f}; deg 2: time to 1e6 = {t2:.6f}"
    return ok, detail, dict(terminations=names, slope=slope, t_deg2=t2)


def _demo_transit_gap():
    gaps = []
    for text, x_max, cfg in (
        ("z^2 / 2", 50.0, IntegratorConfig(escape_radius=100.0)),
        ("z^3 / 3", 1e18 / 3.0, IntegratorConfig(escape_radius=1e7, t_max=10.0)),
    ):
        gaps.append(transit_time(trace_level(parse_expr(text), 1.0, x_max, cfg), cfg).relative_gap)
    ok = all(g <= 1e-3 for g in gaps)
    return ok, f"transit quadrature vs flow time: gaps {', '.join(f'{g:.2e}' for g in gaps)}", dict(gaps=gaps)


def _demo_tract():
    # g(z) = exp(-z) + 1: from -1 + i*pi the flow runs along the invariant line Im z = pi into the
    # left half-plane and escapes in finite time; from 1 it crawls through the right half-plane at
    # speed between 1 and 2, so the time to radius R grows like R (infinite-time evidence)
    cfg = IntegratorConfig()
    spec = FlowSpec(ANTIHOLOMORPHIC, parse_expr("exp(-z) + 1"))
    traj = integrate(spec, complex(-1.0, math.pi), cfg)
    est = blowup_time_estimate(traj, cfg)
    finite = dict(
        termination=classify(traj, cfg).name, conclusive=est.conclusive,
        t_est=est.t_est, t_err=est.t_err, im_drift=antiholo_invariants(traj).im_drift,
    )
    times, drift = [], 0.0
    for radius in (10.0, 100.0, 1000.0):
        cfg_r = replace(cfg, escape_radius=radius, t_max=max(cfg.t_max, 3.0 * radius))
        traj = integrate(spec, complex(1.0, 0.0), cfg_r)
        times.append((radius, traj.t_end))
        est = blowup_time_estimate(traj, cfg_r)
        drift = max(drift, antiholo_invariants(traj).im_drift)
    infinite = dict(
        termination=classify(traj, cfg_r).name, conclusive=est.conclusive,
        im_drift=drift, times_to_radius=times,
    )
    want = -math.log(1.0 - math.exp(-1.0))
    times_ok = all(t >= r - 2.0 for r, t in times)
    ok = (
        finite["termination"] == "FiniteTimeBlowup" and abs(finite["t_est"] - want) <= 1e-3
        and finite["im_drift"] <= 1e-6
        and infinite["termination"] == "ReachedRadius" and not infinite["conclusive"]
        and infinite["im_drift"] <= 1e-6 and times_ok
    )
    return ok, (
        f"exp(-z)+1: left escape T={finite['t_est']:.5f} (target {want:.5f}), "
        f"right escape needs t >= R-2 at R=10,100,1000: {times_ok}"
    ), dict(finite=finite, infinite=infinite)


def _demo_measure_zero(n_samples=2000):
    cfg = IntegratorConfig(escape_radius=10.0, t_max=50.0)
    rep = escape_measure(parse_expr("-exp(-z)"), 0.0, 1.0, n_samples, cfg, seed=20260808)
    ok = sum(rep.counts.values()) == n_samples and rep.finite_time_fraction <= 0.01
    detail = f"finite-time set on the segment: fraction {rep.finite_time_fraction!r} of {n_samples}"
    return ok, detail, dict(counts=rep.counts, fraction=rep.finite_time_fraction)


def _demo_rubel():
    cfg = IntegratorConfig(escape_radius=1e9)
    paths = {}
    for d in (0.0, 5.0):
        seed = 2.0 if d == 0.0 else cmath.log(10 + 1j * d)
        rep = rubel_path(parse_expr("exp(z)"), d, seed, math.exp(110.0), cfg)
        at_100, rising = [], True
        for points in rep.growth_ratios.values():
            at_100.append(min((q for r, q in points if r >= 100.0), default=-math.inf))
            decade = [q for r, q in points if r >= points[-1][0] / 10.0]
            rising &= all(a < b for a, b in zip(decade, decade[1:]))
        paths[d] = dict(
            monotone=rep.monotone, orders=set(rep.growth_ratios), ratio_at_100=min(at_100), rising=rising,
            tail_c={t.c for t in rep.tail_integrals}, tails_finite=all(t.finite for t in rep.tail_integrals),
        )
    ok = all(
        p["monotone"] and p["orders"] >= {0, 1, 2, 3} and p["ratio_at_100"] > 20.0 and p["rising"]
        and p["tail_c"] == {0.5, 1.0} and p["tails_finite"]
        for p in paths.values()
    )
    detail = "; ".join(f"D={d:g}: monotone {p['monotone']}, tails finite {p['tails_finite']}" for d, p in paths.items())
    return ok, detail, dict(paths=paths)


def _demo_criterion():
    cfg = IntegratorConfig(escape_radius=1e4)
    reps = [
        infinite_time_criterion(trace_level(parse_expr(text), 1.0, x_max, cfg))
        for text, x_max in (("z", 700.0), ("z^2 / 2", 2e5), ("z^3 / 3", 601.0**3 / 3.0))
    ]
    fired, flat, grow = (r.fires for r in reps)
    ok = fired and not flat and not grow and all(r.witnesses for r in reps)
    detail = f"|G|/|z|^2 test: fires(G=z)={fired}, fires(z^2/2)={flat}, fires(z^3/3)={grow}"
    return ok, detail, dict(zip(("z", "z^2/2", "z^3/3"), reps))


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
    detail = f"reversal return {max(returns):.2e}; period dev {period_dev:.2e}; Im G drift {max(drifts):.2e}"
    return ok, detail, dict(returns=returns, drifts=drifts, termination=term)


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


def run_demo_suite():
    results = []
    for name, claim, fn in _DEMOS:
        try:
            ok, detail, _ = fn()
        except PlaneflowError as exc:
            ok, detail = False, f"error: {exc}"
        results.append((name, ok, detail))
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {claim}")
        print(f"       {detail}")
    return results


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planeflow",
        description="simulate plane flows of entire functions and their escape behavior",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags match by full name only: as a prefix, `rubel --seed` would set --seed-point
    command = partial(sub.add_parser, allow_abbrev=False)

    p = command("simulate", help="integrate one trajectory and classify it")
    _add_flags(p, "f g z0 kind reversed tol tmax radius out json svg csv window")
    p.set_defaults(fn=_cmd_simulate)

    p = command("classify", help="integrate and report escape-time analysis")
    _add_flags(p, "f g z0 kind reversed tol tmax radius out json csv")
    p.set_defaults(fn=_cmd_classify)

    p = command("level-trace", help="trace a level curve of Im G")
    _add_flags(p, "G start Xmax tol tmax radius out json svg window")
    p.set_defaults(fn=_cmd_level_trace, radius=1e9)

    p = command("transit", help="transit time along a level curve")
    _add_flags(p, "G start Xmax tol tmax radius out")
    p.set_defaults(fn=_cmd_transit, radius=1e9)

    p = command("measure", help="Monte Carlo escape measure on a transverse segment")
    p.add_argument("--f", required=True)
    p.add_argument("--delta", type=_finite_float, default=1.0)
    p.add_argument("--N", type=_int_at_least(1), default=1000, help="number of samples")
    p.add_argument("--keep", type=_int_at_least(0), default=40, help="trajectories kept for the SVG")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_flags(p, "z0 tol tmax radius out svg window")
    p.set_defaults(fn=_cmd_measure)

    p = command("rubel", help="trace a growth path where f - iD is real increasing")
    p.add_argument("--f", required=True)
    p.add_argument("--D", type=_finite_float, default=0.0)
    p.add_argument("--seed-point", required=True, help="seed inside the large-|f| tract")
    p.add_argument("--t-end", type=_finite_float, required=True)
    p.add_argument("--m-max", type=_int_at_least(0, _MAX_JET_ORDER), default=3)
    p.add_argument("--c", type=_positive_float, action="append", default=None,
                   help="exponent for the reciprocal tail integral (repeatable)")
    _add_flags(p, "tol tmax radius out")
    p.set_defaults(fn=_cmd_rubel, radius=1e9)

    p = command("poly-summary", help="predicted escape structure of a polynomial flow")
    p.add_argument("--coeffs", required=True, help="ascending coefficients 'a0,a1,...'")
    _add_flags(p, "kind out")
    p.set_defaults(fn=_cmd_poly_summary)

    p = command("demo", help="run the built-in example suite and print pass/fail")
    p.set_defaults(fn=_cmd_demo)

    return parser


# options whose values are expressions or points and may begin with '-'
_VALUE_OPTS = ("--f", "--g", "--G", "--z0", "--start", "--seed-point", "--coeffs", "--window")


def _join_expression_values(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_OPTS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_expression_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except PlaneflowError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        # a malformed expression or point is a usage error, as a malformed flag is
        return 2 if isinstance(exc, ParseError) else 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
