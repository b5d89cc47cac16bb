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
from dataclasses import dataclass
from types import FunctionType
from typing import Optional, Sequence

from .errors import PlaneflowError, SegmentTruncated, TractViolation
from .expr import FuncExpr, Scale, _bind, _emit_body, _function_code, compile_fn, derivative
from .flow import (
    ANTIHOLOMORPHIC,
    HOLOMORPHIC,
    Event,
    Field,
    FlowSpec,
    IntegratorConfig,
    classify,
    drive_field,
    integrate,
)
from .jets import _MAX_JET_ORDER, _jet_body
from .level import _newton, point_on_level, trace_level

# points placed by one pair of side traces; each stop's result holds a
# copy of its trace, so more points trace the sides again
_SIDE_STOPS = 1024

__all__ = [
    "EscapeMeasureReport",
    "PolyFlowSummary",
    "RubelPathReport",
    "TailIntegral",
    "escape_measure",
    "poly_flow_summary",
    "rubel_path",
    "transverse_segment",
]


# ---------------------------------------------------------------------------
# transverse segment


def _segment_end(res):
    """The last point of a segment trace from z0, or the error that stopped it."""
    if res.status == "event":
        return SegmentTruncated(*res.samples[-1])
    if res.status == "t_stop":
        return res.samples[-1][1]
    return PlaneflowError(f"segment tracing stopped early ({res.status})")


def _checked(z) -> complex:
    """A segment point; the error that stopped its trace is raised."""
    if isinstance(z, PlaneflowError):
        raise z
    return z


def _segment_points(f, z0, delta, ys, cfg):
    """Yield (y, point) for each y in ys, |y| <= delta: the segment's point at y,
    or the PlaneflowError that stopped its trace.  dz/dy = i f is traced once per
    side to delta and read at the stops |y|; delta and f(z0) are checked at the
    call, and each side trace raises before any of its points is yielded."""
    if not 0 < delta < math.inf:
        raise ValueError("delta must be a positive finite number")
    z0 = complex(z0)
    fe = compile_fn(f)
    if abs(fe(z0)) <= 1e-15 * (1.0 + abs(z0)):
        raise ValueError("f vanishes at z0; the segment is undefined")
    near_zero = Event(lambda z: 1e-9 * (1.0 + abs(z)) - abs(fe(z)))
    fields = tuple(Field(Scale(sgn * 1j, f)) for sgn in (1.0, -1.0))

    def chunks():
        # no y at all still checks the segment
        for first in range(0, max(len(ys), 1), _SIDE_STOPS):
            chunk = ys[first : first + _SIDE_STOPS]
            ends = {}  # y -> the side trace's result at |y|
            for sgn in (1.0, -1.0):
                side = [y for y in chunk if y * sgn > 0.0]
                res = drive_field(fields[sgn < 0], z0, cfg, t_stop=delta, events=(near_zero,), stops=[abs(y) for y in side])
                _checked(_segment_end(res))
                ends.update(zip(side, res.at_stops))
            yield from ((y, _segment_end(ends[y]) if y else z0) for y in chunk)

    return chunks()


def transverse_segment(
    f: FuncExpr,
    z0: complex,
    delta: float,
    n: int,
    cfg: Optional[IntegratorConfig] = None,
) -> tuple:
    """Trace the segment crossing the trajectory through z0 at right angles.

    Returns the (y, z) samples at n+1 equispaced parameter values y on
    [-delta, delta], y ascending; n must be even so the grid contains
    y = 0 (where the segment passes through z0 exactly), read from one
    trace per side as ``escape_measure`` reads its samples.  Meeting a
    zero of f raises SegmentTruncated with the parameter span achieved.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be an even integer >= 2")
    half = n // 2
    ys = [k * (delta / half) for k in range(-half, half + 1)]
    # traced to the grid's own end, which can pass delta by an ulp; no stop may pass t_stop
    return tuple((y, _checked(z)) for y, z in _segment_points(f, z0, ys[-1], ys, cfg or IntegratorConfig()))


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

    Deterministic for a fixed seed.  The sample points are read from one
    trace per side, which raises for a zero of f before any sample is
    integrated; each equals the sample's own trace from z0.  Per-sample
    failures land in an ``error`` bucket instead of aborting the sweep;
    the reported fraction counts only conclusive finite-time escapes.  An
    empty sweep reports fraction 0; a negative ``n_samples`` raises ValueError.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    cfg = cfg or IntegratorConfig()
    rng = random.Random(seed)
    ys = [rng.uniform(-delta, delta) for _ in range(n_samples)]
    points = _segment_points(f, z0, delta, ys, cfg)
    spec = FlowSpec(HOLOMORPHIC, f)
    counts, kept = {}, []
    for y, zy in points:
        try:
            traj = integrate(spec, _checked(zy), cfg)
            name = classify(traj, cfg).name
        except PlaneflowError:
            name, traj = "error", None
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
    (exact on the path) is large.  Each node, a curve sample, a refined
    panel midpoint or a window node, is one call of a function generated
    per path (:func:`_rubel_node`): one jet and one speed |f'| serve the
    growth ratios and every (m, c).  Tail integrals of |f^(m)|^(-c) |dz|
    report a partial sum plus a geometric bound from the dyadic-window
    decay ratio, never a bare claim of convergence; where a window end
    term underflows to 0 the ratio is taken from the end nodes'
    logarithms.  Each c must be positive and finite.
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

    newton = _newton(f, df)
    node = _rubel_node(f, df, d_shift, m_max, c_values)
    at_samples = [node(t, z, 1.0) for t, z in zip(ts, zs)]
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
    # the corrector-refined midpoint, halved before the sum so that it
    # stays finite where ta + tb overflows
    at_mids = [
        node(0.5 * ta + 0.5 * tb, point_on_level(newton, 0.5 * ta + 0.5 * tb, d_shift, 0.5 * (za + zb)), 4.0)
        for (ta, za), (tb, zb) in zip(curve.samples, curve.samples[1:])
    ]

    # decay diagnostics on the exact last dyadic window [T/2, T]: uniform
    # composite-Simpson nodes refined onto the path; k / n_sub is exact, so
    # no product passes the double range and the bits are those of * k / n_sub
    t_hi = ts[-1]
    t_lo = 0.5 * t_hi
    n_sub = 16
    diag_nodes = []
    for k in range(n_sub + 1):
        t = t_lo + (t_hi - t_lo) * (k / n_sub)
        i = min(bisect.bisect_left(ts, t), last)
        diag_nodes.append(node(t, point_on_level(newton, t, d_shift, zs[i]), 1.0))

    (logs_lo, _, s_lo), (logs_hi, _, s_hi) = diag_nodes[0], diag_nodes[-1]
    pairs = [(m, c) for m in range(m_max + 1) for c in c_values]
    tails = []
    # one column per (m, c): 1 * term at the samples, 4 * term at the midpoints
    for (m, c), qs, q4s, vals in zip(
        pairs, _columns(at_samples, pairs), _columns(at_mids, pairs), _columns(diag_nodes, pairs)
    ):
        partial = 0.0
        for qa, q4, qb, ta, tb in zip(qs, q4s, qs[1:], ts, ts[1:]):
            partial += (qa + q4 + qb) * (tb - ta) / 6.0
        h = (t_hi - t_lo) / n_sub
        w_last = (h / 3.0) * (
            vals[0]
            + vals[-1]
            + 4.0 * sum(vals[1:-1:2])
            + 2.0 * sum(vals[2:-1:2])
        )
        # for a tail ~ t^(-p) this equals the dyadic window ratio 2^(1-p)
        ratio = (vals[-1] * t_hi) / (vals[0] * t_lo) if vals[0] > 0 else math.inf
        if 0.0 in (vals[0], vals[-1]) and math.isfinite(logs_lo[m]) and math.isfinite(logs_hi[m]):
            # an end term underflowed: the same quotient from the end nodes' logarithms
            x = (-c * logs_hi[m] - math.log(s_hi) + math.log(t_hi)) - (
                -c * logs_lo[m] - math.log(s_lo) + math.log(t_lo)
            )
            ratio = math.exp(x) if x < 709.0 else math.inf
        finite = math.isfinite(partial) and ratio < 1.0
        bound = w_last * ratio / (1.0 - ratio) if finite else math.inf
        tails.append(TailIntegral(m, c, partial, ratio, bound, finite))

    return RubelPathReport(
        f, d_shift, curve.samples, monotone, im_dev, growth, tuple(tails)
    )


def _columns(nodes, pairs) -> list:
    """The tail terms of every node, one column per (m, c) pair."""
    return list(zip(*(terms for _, terms, _ in nodes))) or [()] * len(pairs)


def _rubel_node(f: FuncExpr, df: FuncExpr, d_shift: float, m_max: int, c_values: Sequence[float]):
    """The function ``node(t, z, w)`` of one Rubel-path node z, where f(z) = t + iD.

    It returns the tuple of log|f^(m)| for m = 0..m_max; the tuple of the
    tail terms w * |f^(m)|^(-c) / |f'|, one per (m, c) with c varying
    fastest; and |f'|.  log|f^(m)| = log|f^(m)/f| + log|f| keeps the large
    part exact: on the path |f| = |t + iD|, taken as log(hypot(t, D)) only
    where t*t + D*D overflows.  The statements are those of f's jet to
    order m_max (as :func:`eval_jet` runs them) and then of f' (as
    :func:`compile_fn` runs them), so values and exceptions are theirs.
    Constants and nodes are bound as globals, never written into the source.
    """
    env = {
        "complex": complex, "exp": cmath.exp, "log": math.log, "hypot": math.hypot, "exp_real": math.exp, "inf": math.inf,
    }
    jet, coeffs = _jet_body(f, m_max, env)
    lines = [
        "def node(t, z0, w):",
        "    z = complex(z0)",
        *jet,
        f"    tt = t * t + {_bind(env, 'c', d_shift * d_shift)}",
        f"    lf = 0.5 * log(tt) if tt < inf else log(hypot(t, {_bind(env, 'c', d_shift)}))",
    ]
    a0 = coeffs[0]
    lines += [
        f"    L{m} = log(abs({a} * {math.factorial(m)} / {a0})) + lf if {a} != 0 else -inf"
        for m, a in enumerate(coeffs)
    ]
    body, fp, env = _emit_body(df, env, root="droot", temp="d")
    cs = [_bind(env, "c", c) for c in c_values]
    terms = [f"w * exp_real(-{c} * L{m}) / s" for m in range(m_max + 1) for c in cs]
    lines += [
        body,
        f"    s = abs({fp})",
        f"    return ({', '.join(f'L{m}' for m in range(m_max + 1))},), ({', '.join(terms)},), s",
    ]
    return FunctionType(_function_code("\n".join(lines)), env)
