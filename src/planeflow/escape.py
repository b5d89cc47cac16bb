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
import sys
from contextlib import closing
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import PlaneflowError, SegmentTruncated, TractViolation
from .expr import FuncExpr, Scale, _generated, _kept, compile_fn
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
from .jets import _JET_GLOBALS, _MAX_JET_ORDER, _jet_body
from .level import _G_MIN, _kernels, point_on_level, trace_level

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


def _segment_end(status, sample) -> complex:
    """The last point of a segment trace from z0; the error that stopped it is raised."""
    if status == "event":
        raise SegmentTruncated(*sample)
    if status != "t_stop":
        raise PlaneflowError(f"segment tracing stopped early ({status})")
    return sample[1]


def _segment_points(f, z0, delta, ys, cfg):
    """The (y, end) pairs for the ys, |y| <= delta, in order: the (status, last
    sample) of the segment traced to y, which :func:`_segment_end` reads.  dz/dy =
    i f is traced once per side to delta and read at the stops |y|; delta and f(z0)
    are checked first, and a side trace that stops short of delta raises."""
    if not 0 < delta < math.inf:
        raise ValueError("delta must be a positive finite number")
    z0 = complex(z0)
    # f's point function and the Fields of i f and -i f, kept on f
    fe, fields = _kept(f, "_segment", compile_fn, lambda: (compile_fn(f), (Field(Scale(1j, f)), Field(Scale(-1j, f)))))
    if abs(fe(z0)) <= 1e-15 * (1.0 + abs(z0)):
        raise ValueError("f vanishes at z0; the segment is undefined")
    near_zero = Event(lambda z: 1e-9 * (1.0 + abs(z)) - abs(fe(z)))
    ends = {0.0: ("t_stop", (0.0, z0))}  # y -> (status, last sample) of its side's trace run to |y|
    # no y at all still checks the segment
    for sgn in (1.0, -1.0):
        side = [y for y in ys if y * sgn > 0.0]
        res = drive_field(fields[sgn < 0], z0, cfg, t_stop=delta, events=(near_zero,), stops=[abs(y) for y in side])
        _segment_end(res.status, res.samples[-1])
        ends.update(zip(side, res.at_stops))
    return [(y, ends[y]) for y in ys]


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
    return tuple((y, _segment_end(*end)) for y, end in _segment_points(f, z0, ys[-1], ys, cfg or IntegratorConfig()))


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
    empty sweep reports fraction 0; a negative ``n_samples``, or a delta
    whose segment is wider than the largest double, raises ValueError.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    if math.inf > delta > sys.float_info.max / 2:  # rng.uniform(-delta, delta) would overflow
        raise ValueError(f"delta must be at most half the largest double, {sys.float_info.max / 2!r}, got {delta!r}")
    cfg = cfg or IntegratorConfig()
    rng = random.Random(seed)
    ys = [rng.uniform(-delta, delta) for _ in range(n_samples)]
    points = _segment_points(f, z0, delta, ys, cfg)
    spec = FlowSpec(HOLOMORPHIC, f)
    counts, kept = {}, []
    for y, end in points:
        try:
            traj = integrate(spec, _segment_end(*end), cfg)
            name = classify(traj, cfg).name
        except PlaneflowError:
            name, traj = "error", None
        counts[name] = counts.get(name, 0) + 1
        if traj is not None and len(kept) < collect:
            kept.append((y, traj, name))
    fraction = counts.get("FiniteTimeBlowup", 0) / n_samples if n_samples else 0.0
    return EscapeMeasureReport(float(delta), int(n_samples), int(seed), counts, fraction, tuple(kept))


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
    partial_err: float  # |full - half| pair of steps by pair; inf for 2 samples or an infinite tail


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
    dz/dt = 1/f'(z) with Newton correction of Im f back to d_shift; a trace
    that stops short of t_end raises TractViolation, so no tail is judged.
    One walk of the samples and a window node at T/2 (:data:`_PASS`, one jet
    each) gives the growth ratios log|f^(m)|/log|z|, through the quotient
    f^(m)/f so only log|f| (exact on the path) is large, and the tail
    integrals of |f^(m)|^(-c) |dz|: a partial sum in log t plus a geometric
    bound from the last dyadic window [T/2, T] and its decay ratio, never a
    bare claim of convergence; where a term t |f^(m)|^(-c) / |f'| underflows
    to 0 it is taken from its logarithms, and where a window end term does, so
    is the ratio.  The partial sum is the Richardson value full + (full -
    half)/15 of the end-corrected trapezoid rule over the samples (full) and
    over every other sample (half), whose errors go as the fourth power of the
    step; ``partial_err`` is |full - half| taken pair of steps by pair, about
    15 times the full rule's error where the pairs agree in sign, and never
    cancelled where they do not.  It is inf for a path of 2 samples, where the
    two rules are one, and for an infinite tail.  A walk whose terms leave the
    double range raises TractViolation too.  Each c must be positive and
    finite, and D finite.  The seed checks, the trace and the T/2 node use the
    level kernels kept on f (``level._kernels``); the pass, kept on f per
    (m_max, number of c), takes each call's D and c as arguments.
    """
    if not 0 <= m_max <= _MAX_JET_ORDER:
        raise ValueError(f"m_max must be in 0..{_MAX_JET_ORDER}, got {m_max!r}")
    # for c <= 0, |f^(m)|^(-c) |dz| does not decay along the path
    if not all(0 < c < math.inf for c in c_values):
        raise ValueError(f"each tail exponent c must be positive and finite, got {tuple(c_values)!r}")
    if not math.isfinite(d_shift):
        raise ValueError(f"d_shift must be finite, got {d_shift!r}")
    cfg = cfg or IntegratorConfig()
    z_seed = complex(z_seed)
    fe, fpe, newton, _ = _kernels(f)
    v = fe(z_seed)
    if abs(v.imag - d_shift) > 1e-6 * (1.0 + abs(v)):
        raise TractViolation(f"seed is off the level line: Im f = {v.imag!r}, expected {d_shift!r}")
    if v.real <= 0:
        raise TractViolation("seed must have Re f > 0 (f - iD real positive)")
    if abs(fpe(z_seed)) < _G_MIN:  # the tracer's own threshold
        raise TractViolation("f' vanishes at the seed")
    if not t_end > v.real:
        raise ValueError("t_end must exceed Re f at the seed")

    curve = trace_level(f, z_seed, t_end, cfg)
    if curve.stop_reason != "target":
        raise TractViolation(f"path stopped ({curve.stop_reason}) at t = {curve.x_end!r}, short of t_end = {t_end!r}")

    ts, zs = curve.xs, curve.zs
    t_hi, t_lo = ts[-1], 0.5 * ts[-1]
    first = bisect.bisect_right(ts, t_lo)

    def nodes():
        yield from zip(ts, zs)
        # the last dyadic window [T/2, T] starts at one node placed on the path at T/2
        yield t_lo, point_on_level(newton, t_lo, d_shift, zs[first])[0]

    path = _kept(f, f"_rubel_{m_max}_{len(c_values)}", compile_fn, lambda: _rubel_pass(f, m_max, len(c_values)))
    args = d_shift, d_shift * d_shift, *c_values
    with closing(nodes()) as walk:  # drawn to its end by the walk, or closed here if the walk raises
        try:
            im_dev, monotone, marks, sums, (logs_lo, s_lo), (logs_hi, s_hi) = path(walk, len(ts), first, *args)
        except (OverflowError, ValueError) as exc:  # exp of a term, or log of a quotient that underflowed to 0
            raise TractViolation(f"a term of the walk left the double range ({exc})") from None
    growth = {m: tuple((r, ratios[m]) for r, ratios in marks) for m in range(m_max + 1)}

    pairs = [(m, c) for m in range(m_max + 1) for c in c_values]
    tails = []
    for (m, c), (full, diff, spread, w_last, q_lo, q_hi) in zip(pairs, sums):
        # diff = full - half is about 15 times the full rule's error; 2 samples give one rule
        err = spread if len(ts) > 2 and math.isfinite(full) and math.isfinite(spread) else math.inf
        partial = full + diff / 15.0 if err < math.inf else full
        # for a tail ~ t^(-p) this equals the dyadic window ratio 2^(1-p); inf if f^(m) = 0 at an end
        ratio = (q_hi * t_hi) / (q_lo * t_lo) if 0 < q_lo < math.inf and q_hi < math.inf else math.inf
        if 0.0 in (q_lo, q_hi) and math.isfinite(logs_lo[m]) and math.isfinite(logs_hi[m]):
            # an end term underflowed: the same quotient from the end nodes' logarithms
            x = -c * logs_hi[m] - math.log(s_hi) + math.log(t_hi)
            x -= -c * logs_lo[m] - math.log(s_lo) + math.log(t_lo)
            ratio = math.exp(x) if x < 709.0 else math.inf
        # a margin for rounding: a ratio of 1 - 2e-16 is a divergent log tail
        finite = math.isfinite(partial) and ratio < 1.0 - 1e-12
        bound = w_last * ratio / (1.0 - ratio) if finite else math.inf
        tails.append(TailIntegral(m, float(c), partial, ratio, bound, finite, err))

    return RubelPathReport(f, float(d_shift), curve.samples, monotone, im_dev, growth, tuple(tails))


# The body of ``path(nodes, n, first, D, DD, C0, ..)``, one walk of a Rubel
# path: ``nodes`` yields the n samples (t, z), f(z) = t + iD, a_k the
# coefficients of f's jet there, then the window node at T/2, drawn only
# after every sample's statements have run, and is drawn to its end; DD = D*D
# and C{c} is the c-th exponent.  A line with {m} is written for m = 0..m_max:
# log|f^(m)| = log|f^(m)/f| + log|f| keeps the large part exact, |f| =
# |t + iD| on the path (hypot only where t*t + D*D overflows).  A line with
# {j} is written for each (m, c) slot j, c = C{c} varying fastest: the tail
# term q = |f^(m)|^(-c) / |f'|, |f'| = |a_1|, and its slope dlog(t q)/dlog t,
# 1 - Re(f''/f' * t/f') - c Re(f^(m+1)/f^(m) * t/f') as dz/dt = 1/f' (the
# quotient read as 0 where f^(m) = 0).  Over the samples it keeps
# max |Im f - D|; whether Re f is positive and increasing, f being a_0 (which
# can differ from the compiled f in the sign of a zero part, and for an
# IntPower above 100 in the last bits); log|f^(m)|/log|z| where |z| > 1
# first, then has grown by 1.3, and at the last sample; and the steps X{j} =
# h/2 (F_a + F_b) + h^2/12 (F_a d_a - F_b d_b) in s = log t of the
# end-corrected trapezoid rule on F = t q, d the slopes.  Where t q underflows
# to 0, F is exp(log t - c log|f^(m)| - log|f'|): for exp(z), q = t^(-c-1) is
# 0 past t ~ 6e161 at c = 1 while t q = t^(-c) is a double.  A tail is the
# running sum T{j} of the steps over the samples, added in their order from
# 0.0; the step at sample 0 is no step, and the sums are set to 0.0 after it.
# I{j} is the last sample where F is inf, which makes the tail inf.  The
# window's sum W{j} over [T/2, T] adds, from 0.0, the step from the T/2 node
# to ``first``, the first sample past T/2, then the steps past ``first``, kept
# in ``win`` until the T/2 node is drawn; an inf F at or past ``first`` or at
# the T/2 node makes it inf.  At each even sample i the walk also takes the same
# rule's one step from sample i - 2, with F and d kept in R{j}, U{j} and s in
# sq; the two full steps to i (the earlier one held in V{j}) less that step
# are added to A{j}, full - half, where half is the rule over samples 0, 2,
# 4, .. closed by the last full step, and their absolute value to B{j}, the
# bar.  No sum calls builtin sum() or math.fsum: from Python 3.12 on, sum()
# of floats compensates, and the bytes would differ between Pythons.
_PASS = """\
    mono, prev, marks, mark, sp, sq, win, tails = True, -inf, [], 0.0, 0.0, 0.0, [], []
    T{j}, A{j}, B{j}, I{j}, P{j}, Q{j}, R{j}, U{j}, V{j} = 0.0, 0.0, 0.0, -1, 0.0, 0.0, 0.0, 0.0, 0.0
    for i, (t, z0) in enumerate(nodes):
        z = complex(z0)
{jet}
        tt = t * t + DD
        lf = 0.5 * log(tt) if tt < inf else log(hypot(t, D))
        u = t / {a[1]}
        k = 1.0 - (2 * {a[2]} / {a[1]} * u).real
        L{m} = log(abs({am} * {f} / {a[0]})) + lf if {am} != 0 else -inf
        e{m} = ({m1} * {am1} / {am} * u).real if {am} != 0 else 0.0
        s = abs({a[1]})
        q{j} = exp(-C{c} * L{m}) / s
        F{j} = t * q{j} or exp(log(t) - C{c} * L{m} - log(s))
        G{j} = F{j} * (k - C{c} * e{m})
        if i == n: continue
        sl = log(t)
        h = sl - sp
        h2, h12 = h / 2.0, h * h / 12.0
        X{j} = h2 * (P{j} + F{j}) + h12 * (Q{j} - G{j})
        T{j} += X{j}
        if F{j} == inf: I{j} = i
        if not i & 1:
            h = sl - sq
            h2, h12 = h / 2.0, h * h / 12.0
            Y{j} = V{j} + X{j} - (h2 * (R{j} + F{j}) + h12 * (U{j} - G{j}))
            A{j} += Y{j}
            B{j} += abs(Y{j})
            R{j}, U{j} = F{j}, G{j}
            sq = sl
        dv = abs({a[0]}.imag - D)
        if i == 0:
            dev = dv
            T{j}, A{j}, B{j} = 0.0, 0.0, 0.0
        elif dv > dev: dev = dv
        mono = mono and {a[0]}.real > prev and {a[0]}.real > 0
        prev = {a[0]}.real
        r = abs(z)
        if r > 1.0 and (r >= mark or i == n - 1):
            marks.append((r, {ratios}))
            mark = r * 1.3
        if i == n - 1: hi = {logs}, s, {qs}
        if i > first: win.append({xs})
        elif i == first:
            sw = sl
            Fw{j}, Gw{j} = F{j}, G{j}
        sp = sl
        P{j}, Q{j}, V{j} = F{j}, G{j}, X{j}
    h = sw - log(t)
    h2, h12 = h / 2.0, h * h / 12.0
    W{j} = 0.0 + (h2 * (F{j} + Fw{j}) + h12 * (G{j} - Gw{j}))
    for x in win: W{j} += x[{j}]
    tails.append((inf if I{j} >= 0 else T{j}, A{j}, B{j}, inf if F{j} == inf or I{j} >= first else W{j}, q{j}, hi[2][{j}]))
    return dev, mono, marks, tails, ({logs}, s), hi[:2]"""


# The globals of every Rubel pass: f's jet runs in it, as eval_jet runs it, and exp is math.exp.
_RUBEL_GLOBALS = {**_JET_GLOBALS, "log": math.log, "hypot": math.hypot, "exp": math.exp, "inf": math.inf}


def _rubel_pass(f: FuncExpr, m_max: int, n_c: int):
    """``path(nodes, n, first, D, DD, C0, ..)`` of :data:`_PASS` for m_max and n_c exponents: f's jet
    to order max(m_max + 1, 2) at {jet}, as :func:`eval_jet` runs it, |f'| read from its a_1.  Constants,
    nodes and jet kernels are bound by :func:`expr._generated`; the globals are ``_RUBEL_GLOBALS``."""
    env = dict(_RUBEL_GLOBALS)
    jet, a = _jet_body(f, max(m_max + 1, 2), env)
    slots = [dict(j=j, m=j // n_c, c=j % n_c) for j in range((m_max + 1) * n_c)]
    ms = [dict(m=m, m1=m + 1, f=math.factorial(m), am=a[m], am1=a[m + 1]) for m in range(m_max + 1)]
    fill = {
        "a": a, "jet": "\n".join("    " + line for line in jet),
        "logs": f"[{', '.join(f'L{m}' for m in range(m_max + 1))}]",
        "qs": f"[{', '.join(f'q{j}' for j in range(len(slots)))}]",
        "xs": f"[{', '.join(f'X{j}' for j in range(len(slots)))}]",
        "ratios": f"[{', '.join(f'L{m} / log(r)' for m in range(m_max + 1))}]",
    }
    source = "\n".join(
        line.format(**fill, **each)
        for line in _PASS.split("\n")
        for each in (slots if "{j}" in line else ms if "{m}" in line else [{}])
    )
    params = ["nodes", "n", "first", "D", "DD", *(f"C{c}" for c in range(n_c))]
    return _generated("path", params, [source], env, _RUBEL_GLOBALS)
