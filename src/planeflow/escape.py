"""Escape experiments: transverse sampling, Monte Carlo measure of
finite-time escape, the polynomial transit dichotomy, and paths on
which a function and its derivatives all grow.

The transverse segment through z0 is the preimage of the imaginary
axis segment (-i*delta, i*delta) under the local clock primitive
F(z) = integral of du/f, traced by integrating dz/dy = i*f(z); uniform
sampling in y then matches the measure statement being tested.
"""

from __future__ import annotations

import bisect
import cmath
import math
import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .errors import PlaneflowError, SegmentTruncated, TractViolation
from .expr import FuncExpr, compile_fn, derivative, to_text
from .flow import (
    ANTIHOLOMORPHIC,
    HOLOMORPHIC,
    Event,
    Field,
    FlowSpec,
    IntegratorConfig,
    antiholo_invariants,
    blowup_time_estimate,
    classify,
    drive_field,
    integrate,
    upgraded,
)
from .jets import _MAX_JET_ORDER, eval_jet
from .level import _newton, point_on_level, trace_level

__all__ = [
    "EscapeMeasureReport",
    "PolyFlowSummary",
    "RubelPathReport",
    "TailIntegral",
    "TractDemoReport",
    "TractRun",
    "TransverseSegment",
    "demo_antiholo_tract",
    "escape_measure",
    "poly_flow_summary",
    "rubel_path",
    "transverse_segment",
]


# ---------------------------------------------------------------------------
# transverse segment


@dataclass(frozen=True)
class TransverseSegment:
    func: FuncExpr
    z0: complex
    delta: float
    samples: tuple  # (y, z) with y ascending, z(0) = z0


def _segment_point(fe, fields, z_a, y_a, dy, cfg) -> complex:
    """Point of the transverse segment at parameter y_a + dy, traced from
    its point z_a at y_a along the fields of ``_traced_segment``; fe computes f."""
    if dy == 0.0:
        return complex(z_a)
    sgn = 1.0 if dy > 0 else -1.0
    rhs = fields[dy < 0]
    near_zero = Event(lambda z: 1e-9 * (1.0 + abs(z)) - abs(fe(z)))
    res = drive_field(rhs, z_a, cfg, t_stop=abs(dy), events=(near_zero,))
    if res.status == "event":
        t, z = res.samples[-1]
        raise SegmentTruncated(abs(y_a + sgn * t), z)
    if res.status != "t_stop":
        raise PlaneflowError(f"segment tracing stopped early ({res.status})")
    return res.samples[-1][1]


def transverse_segment(
    f: FuncExpr,
    z0: complex,
    delta: float,
    n: int,
    cfg: Optional[IntegratorConfig] = None,
) -> TransverseSegment:
    """Trace the segment crossing the trajectory through z0 at right angles.

    Samples n+1 equispaced parameter values on [-delta, delta]; n must
    be even so the grid contains y = 0 (where the segment passes through
    z0 exactly).  Meeting a zero of f raises SegmentTruncated with the
    parameter span that was achieved.
    """
    samples = _traced_segment(f, z0, delta, n, cfg or IntegratorConfig())[2]
    return TransverseSegment(f, complex(z0), delta, samples)


def _traced_segment(f, z0, delta, n, cfg):
    """transverse_segment's checks and samples, and the fe and fields that traced them."""
    if not 0 < delta < math.inf:
        raise ValueError("delta must be a positive finite number")
    if n < 2 or n % 2:
        raise ValueError("n must be an even integer >= 2")
    z0 = complex(z0)
    fe = compile_fn(f)
    if abs(fe(z0)) <= 1e-15 * (1.0 + abs(z0)):
        raise ValueError("f vanishes at z0; the segment is undefined")
    half = n // 2
    step = delta / half
    fields = tuple(Field(f, "k * {}", sgn * 1j) for sgn in (1.0, -1.0))  # dz/dy = i f, y up and y down
    out = {0: z0}
    for sgn in (1, -1):
        z = z0
        for k in range(1, half + 1):
            z = _segment_point(fe, fields, z, sgn * (k - 1) * step, sgn * step, cfg)
            out[sgn * k] = z
    return fe, fields, tuple((k * step, out[k]) for k in range(-half, half + 1))


# ---------------------------------------------------------------------------
# escape-measure Monte Carlo


@dataclass(frozen=True)
class EscapeMeasureReport:
    delta: float
    n_samples: int
    seed: int
    counts: dict
    finite_time_fraction: float
    trajectories: tuple = ()  # (y, Trajectory, classified-name) when collected


def escape_measure(
    f: FuncExpr,
    z0: complex,
    delta: float,
    n_samples: int,
    cfg: Optional[IntegratorConfig] = None,
    *,
    seed: int = 0,
    collect: int = 0,
) -> EscapeMeasureReport:
    """Sample the transverse segment uniformly and tabulate trajectory fates.

    Deterministic for a fixed seed.  Per-sample failures land in an
    ``error`` bucket instead of aborting the sweep; the reported
    fraction counts only conclusive finite-time escapes.  An empty
    sweep reports fraction 0; a negative ``n_samples`` raises ValueError.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    cfg = cfg or IntegratorConfig()
    # validates the preconditions (f nonzero on a coarse version of the segment)
    fe, fields, _ = _traced_segment(f, z0, delta, 16, cfg)
    spec = FlowSpec(HOLOMORPHIC, f)
    rng = random.Random(seed)
    counts: dict = {}
    kept = []
    for i in range(n_samples):
        y = rng.uniform(-delta, delta)
        try:
            zy = _segment_point(fe, fields, z0, 0.0, y, cfg)
            traj = integrate(spec, zy, cfg)
            term = classify(traj, cfg)
            name = term.name
        except PlaneflowError:
            name = "error"
            traj = None
        counts[name] = counts.get(name, 0) + 1
        if traj is not None and len(kept) < collect:
            kept.append((y, traj, name))
    fraction = counts.get("FiniteTimeBlowup", 0) / n_samples if n_samples else 0.0
    return EscapeMeasureReport(delta, n_samples, seed, counts, fraction, tuple(kept))


# ---------------------------------------------------------------------------
# polynomial dichotomy


@dataclass(frozen=True)
class PolyFlowSummary:
    kind: str
    degree: int
    finite_time_directions: tuple  # escape angles (holomorphic, degree >= 2)
    finite_transit: Optional[bool]  # antiholomorphic verdict


def poly_flow_summary(coeffs: Sequence[complex], kind: str) -> PolyFlowSummary:
    """Predicted escape structure of a polynomial flow.

    Holomorphic, degree n >= 2: n-1 rays of finite-time escape, along
    the angles where the leading term a_n e^{i(n-1)theta} is real and
    positive (dominant balance of dz/dt = a_n z^n).  Antiholomorphic:
    the transit to infinity is finite exactly when n >= 2.
    """
    if kind not in (HOLOMORPHIC, ANTIHOLOMORPHIC):
        raise ValueError(f"unknown flow kind {kind!r}")
    c = [complex(a) for a in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    degree = len(c) - 1
    if degree < 1:
        raise ValueError("polynomial degree must be at least 1")
    if kind == ANTIHOLOMORPHIC:
        return PolyFlowSummary(kind, degree, (), degree >= 2)
    if degree == 1:
        return PolyFlowSummary(kind, degree, (), None)
    a_n = c[-1]
    base = -cmath.phase(a_n) / (degree - 1)
    tau = 2.0 * math.pi
    directions = sorted(
        (base + tau * k / (degree - 1)) % tau for k in range(degree - 1)
    )
    return PolyFlowSummary(kind, degree, tuple(directions), None)


# ---------------------------------------------------------------------------
# growth paths (f and all derivatives large, with integrable reciprocals)


@dataclass(frozen=True)
class TailIntegral:
    m: int
    c: float
    partial_sum: float
    window_ratio: float
    tail_bound: float
    finite: bool


@dataclass(frozen=True)
class RubelPathReport:
    func: FuncExpr
    d_shift: float
    samples: tuple  # (t, z) with f(z) = t + i*d_shift
    monotone: bool
    im_deviation: float
    growth_ratios: dict  # m -> tuple of (|z|, log|f^(m)(z)| / log|z|)
    tail_integrals: tuple


def rubel_path(
    f: FuncExpr,
    d_shift: float,
    z_seed: complex,
    t_end: float,
    cfg: Optional[IntegratorConfig] = None,
    *,
    m_max: int = 3,
    c_values: Sequence[float] = (0.5, 1.0),
) -> RubelPathReport:
    """Trace the path on which f(z) = t + i*d_shift with t increasing.

    The seed must already satisfy the tract conditions (f - i*d_shift
    approximately real positive, f' nonzero); tracing follows
    dz/dt = 1/f'(z) with Newton correction of Im f back to d_shift.
    Growth log|f^(m)|/log|z| uses the quotient f^(m)/f so only log|f|
    (exact on the path) is large; one jet and one speed |f'| per node
    serve the growth ratios and every (m, c).  Tail integrals of
    |f^(m)|^(-c) |dz| report a partial sum plus a geometric bound from
    the dyadic-window decay ratio, never a bare claim of convergence;
    each c must be positive and finite.
    """
    if not 0 <= m_max <= _MAX_JET_ORDER:
        raise ValueError(f"m_max must be in 0..{_MAX_JET_ORDER}, got {m_max!r}")
    # for c <= 0, |f^(m)|^(-c) |dz| does not decay along the path
    if not all(0 < c < math.inf for c in c_values):
        raise ValueError(f"each tail exponent c must be positive and finite, got {tuple(c_values)!r}")
    cfg = cfg or IntegratorConfig()
    z_seed = complex(z_seed)
    fe = compile_fn(f)
    df = derivative(f)
    fpe = compile_fn(df)
    v = fe(z_seed)
    if abs(v.imag - d_shift) > 1e-6 * (1.0 + abs(v)):
        raise TractViolation(
            f"seed is off the level line: Im f = {v.imag!r}, expected {d_shift!r}"
        )
    if v.real <= 0:
        raise TractViolation("seed must have Re f > 0 (f - iD real positive)")
    if abs(fpe(z_seed)) < 1e-10 * (1.0 + abs(v)):
        raise TractViolation("f' vanishes at the seed")
    if t_end <= v.real:
        raise ValueError("t_end must exceed Re f at the seed")

    curve = trace_level(f, z_seed, t_end, cfg)
    if curve.stop_reason == "critical_point":
        raise TractViolation("f' vanished along the path")

    ts, zs = curve.xs, curve.zs
    vs = [fe(z) for z in zs]
    im_dev = max(abs(w.imag - d_shift) for w in vs)
    monotone = all(b.real > a.real for a, b in zip(vs, vs[1:])) and all(
        w.real > 0 for w in vs
    )

    factorials = [math.factorial(m) for m in range(m_max + 1)]
    newton = _newton(f, df)

    def node(t, z):
        # one jet and one speed per node, read by the growth ratios and every
        # (m, c); log|f^(m)| = log|f^(m)/f| + log|f|, and on the path |f| = |t + iD|
        coeffs = eval_jet(f, z, m_max)
        log_f = 0.5 * math.log(t * t + d_shift * d_shift)
        return [
            math.log(abs(a * k / coeffs[0])) + log_f if a != 0 else -math.inf
            for a, k in zip(coeffs, factorials)
        ], abs(fpe(z))

    at_samples = [node(t, z) for t, z in zip(ts, zs)]
    last = len(zs) - 1
    marks = []
    next_mark = abs(zs[0])
    for i, z in enumerate(zs):
        r = abs(z)
        if r >= next_mark and r > 1.0:
            marks.append(i)
            next_mark = r * 1.3
    if last not in marks[-1:] and abs(zs[last]) > 1.0:
        marks.append(last)
    growth = {
        m: tuple((abs(zs[i]), at_samples[i][0][m] / math.log(abs(zs[i]))) for i in marks)
        for m in range(m_max + 1)
    }

    # Simpson panels: the sample records at both ends and one record at
    # the corrector-refined midpoint
    at_mids = [
        node(0.5 * (ta + tb), point_on_level(newton, 0.5 * (ta + tb), d_shift, 0.5 * (za + zb)))
        for (ta, za), (tb, zb) in zip(curve.samples, curve.samples[1:])
    ]

    # decay diagnostics on the exact last dyadic window [T/2, T]: uniform
    # composite-Simpson nodes refined onto the path
    t_hi = ts[-1]
    t_lo = 0.5 * t_hi
    n_sub = 16
    diag_nodes = []
    for k in range(n_sub + 1):
        t = t_lo + (t_hi - t_lo) * k / n_sub
        i = min(bisect.bisect_left(ts, t), last)
        diag_nodes.append(node(t, point_on_level(newton, t, d_shift, zs[i])))

    tails = []
    for m in range(m_max + 1):
        for c in c_values:
            # each node's term once: 1 * term at the samples, 4 * term at the midpoints
            qs = [math.exp(-c * logs[m]) / speed for logs, speed in at_samples]
            q4s = [4.0 * math.exp(-c * logs[m]) / speed for logs, speed in at_mids]
            partial = 0.0
            for qa, q4, qb, ta, tb in zip(qs, q4s, qs[1:], ts, ts[1:]):
                partial += (qa + q4 + qb) * (tb - ta) / 6.0
            vals = [math.exp(-c * logs[m]) / speed for logs, speed in diag_nodes]
            h = (t_hi - t_lo) / n_sub
            w_last = (h / 3.0) * (
                vals[0]
                + vals[-1]
                + 4.0 * sum(vals[1:-1:2])
                + 2.0 * sum(vals[2:-1:2])
            )
            # for a tail ~ t^(-p) this equals the dyadic window ratio 2^(1-p)
            ratio = (vals[-1] * t_hi) / (vals[0] * t_lo) if vals[0] > 0 else math.inf
            finite = math.isfinite(partial) and ratio < 1.0
            bound = w_last * ratio / (1.0 - ratio) if finite else math.inf
            tails.append(TailIntegral(m, c, partial, ratio, bound, finite))

    return RubelPathReport(
        f, d_shift, curve.samples, monotone, im_dev, growth, tuple(tails)
    )


# ---------------------------------------------------------------------------
# built-in tract demonstration for g(z) = exp(-z) + 1


@dataclass(frozen=True)
class TractRun:
    start: complex
    termination: str
    conclusive: bool
    t_est: float
    t_err: float
    im_drift: float
    times_to_radius: tuple  # (radius, time) pairs


@dataclass(frozen=True)
class TractDemoReport:
    g_text: str
    finite_run: TractRun
    infinite_run: TractRun


def demo_antiholo_tract(cfg: Optional[IntegratorConfig] = None) -> TractDemoReport:
    """Both escape regimes of the antiholomorphic flow of g(z) = exp(-z) + 1.

    From -1 + i*pi the flow runs along the invariant line Im z = pi into
    the left half-plane and escapes in finite time; from 1 it crawls
    through the right half-plane at speed between 1 and 2, so the time
    to radius R grows like R (infinite-time evidence).
    """
    from .expr import parse_expr

    cfg = cfg or IntegratorConfig()
    g = parse_expr("exp(-z) + 1")
    spec = FlowSpec(ANTIHOLOMORPHIC, g)

    z_fin = complex(-1.0, math.pi)
    traj_fin = integrate(spec, z_fin, cfg)
    est = blowup_time_estimate(traj_fin, cfg)
    term_fin = upgraded(traj_fin.termination, est)
    inv_fin = antiholo_invariants(traj_fin)
    finite_run = TractRun(
        z_fin,
        term_fin.name,
        est.conclusive,
        est.t_est,
        est.t_err,
        inv_fin.im_drift,
        tuple((r, t) for r, t in est.exit_times),
    )

    z_inf = complex(1.0, 0.0)
    times = []
    drift = 0.0
    last_term = "TimeBudgetExhausted"
    last_conclusive = False
    for radius in (10.0, 100.0, 1000.0):
        cfg_r = replace(cfg, escape_radius=radius, t_max=max(cfg.t_max, 3.0 * radius))
        traj = integrate(spec, z_inf, cfg_r)
        times.append((radius, traj.t_end))
        est_r = blowup_time_estimate(traj, cfg_r)
        last_term = upgraded(traj.termination, est_r).name
        last_conclusive = est_r.conclusive
        drift = max(drift, antiholo_invariants(traj).im_drift)
    infinite_run = TractRun(
        z_inf,
        last_term,
        last_conclusive,
        math.nan,
        math.nan,
        drift,
        tuple(times),
    )
    return TractDemoReport(to_text(g), finite_run, infinite_run)
