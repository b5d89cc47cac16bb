"""Level curves of Im G and transit times along them.

An antiholomorphic trajectory is a level curve of Im G traversed with
X = Re G increasing, so X itself is the natural curve parameter.  A step
from X to X + dx is predicted in the chart w = log G, where the curve is
nearly straight on a tract of G (the logarithmic change of variable of
Eremenko and Lyubich): the midpoint rule for dz/dw = G/g (g = G'), with
G = e^w on the curve, exact on the levels of G = c e^(az).  A step that
starts on G = 0 or crosses X = 0 at beta = 0 has no such chart and
follows dz/dX = 1/g instead.  A Newton corrector then pins G(z) to
X + i*beta, with at least one step.  The corrector is generated per
G: one straight-line Newton loop with the statements that compute G and g
inlined, as the flow integrator inlines f into its step.  Parametrizing by
X makes the transit time a one-dimensional integral of 1/|g|^2 over
[X1, X2]: Gauss-Kronrod in the chart X = b sinh(s), s = log|G| + O(1),
on corrector-placed nodes, cross-checked against direct integration.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, replace
from typing import Optional

from .errors import CorrectorDivergence, EvaluationOverflow
from .expr import _POINT_GLOBALS, FuncExpr, _emit_body, _generated, _kept, compile_fn, derivative
from .flow import Event, Field, IntegratorConfig, drive_field
from .quadrature import QuadratureDiverged, gauss_kronrod

__all__ = [
    "CriterionReport",
    "LevelCurve",
    "TransitReport",
    "infinite_time_criterion",
    "trace_level",
    "transit_time",
]

_G_MIN = 1e-8  # tracing stops here: critical points are infinitely far in time
_NEWTON_GLOBALS = {**_POINT_GLOBALS, "G_MIN": _G_MIN}  # the globals of every corrector
_POINT_TOL = 1e-12  # relative tolerance of point_on_level's corrector
_TRANSIT_REL_TOL = 1e-7  # transit quadrature tolerance, relative to the whole integral
# the direct-flow cross-check's rel_tol: a hundredth of the quadrature's, the ratio
# IntegratorConfig.abs_tol takes to rel_tol, so its per-step error stays inside the quadrature's
_FLOW_REL_TOL = _TRANSIT_REL_TOL * 1e-2
_SLOW_RATIO = 0.01  # the slow-growth criterion's threshold on |G(z)|/|z|^2 ...
_SLOW_RUN = 3  # ... which must hold and keep decreasing across this many radii
# a tracing step dx/|g| is at most this times (1 + |z|); the Rubel pass's
# extrapolated sum and its bar, not this cap, carry its tails' accuracy
_STEP_SCALE = 0.2


@dataclass(frozen=True)
class LevelCurve:
    """Ordered samples of {Im G = beta} with strictly increasing Re G."""

    big_g: FuncExpr
    beta: float
    xs: tuple
    zs: tuple
    stop_reason: str  # "target" | "critical_point" | "radius"

    @property
    def samples(self):
        return tuple(zip(self.xs, self.zs))

    @property
    def x_start(self) -> float:
        return self.xs[0]

    @property
    def x_end(self) -> float:
        return self.xs[-1]

    @property
    def z_end(self) -> complex:
        return self.zs[-1]

    def __len__(self) -> int:
        return len(self.xs)


def _newton(big_g: FuncExpr, dg: FuncExpr):
    """The Newton corrector ``(target, z_guess, tol, max_iter)`` of G = big_g
    with g = dg = G', generated as one function; see :func:`_corrector`.

    It accepts a point only after its first step, so a guess that already
    meets ``tol`` is still refined: on a level t + iD with t far above D,
    ``tol`` exceeds D, and only the step gives Im G its relative precision.
    Each iteration runs the statements :func:`compile_fn` would run for G
    and then for g, inlined, so values and exceptions are those of calling
    the two compiled functions: an overflow in G ends the solve, one in g
    propagates.  g runs at the accepted point too and is returned with it;
    a solve that runs out of iterations returns None before g runs there.
    When g is G (``exp(z)``: equal reprs, which tell every constant's bits
    apart), G's value serves as g and its statements run once an iteration;
    g then cannot raise, as it could only where G already ended the solve.
    Constants and nodes are bound by :func:`expr._generated`, never written
    into the source (Constant(0.0) == Constant(-0.0), yet their bits differ).
    """
    big_body, v, env = _emit_body(big_g, pad=" " * 12)
    if repr(dg) == repr(big_g):
        body, g = "", v
    else:
        body, g, env = _emit_body(dg, env, root="droot", temp="d", pad=" " * 8)
    lines = _newton_source(big_body, v, body, g)
    return _generated("newton", ["target", "z0", "tol", "max_iter"], lines, env, _NEWTON_GLOBALS)


def _newton_source(big_body: str, v: str, body: str, g: str) -> list:
    """Body lines of a Newton loop that runs ``big_body`` for v = G(z) and
    ``body`` for g = g(z), with ``z0`` the point as given and ``z`` as
    complex; an empty ``body`` reads g from ``big_body``.  The bodies come
    indented for the try block and the loop, 12 and 8 spaces."""
    return [
        "    z = complex(z0)",
        "    for it in range(max_iter + 1):",
        "        try:",
        big_body,
        "        except EvaluationOverflow:",
        "            return None",
        f"        done = it and abs({v} - target) <= tol",
        "        if not done and it == max_iter:",
        "            return None",
        body,
        "        if done:",
        f"            return z0, it, {g}",
        f"        if abs({g}) < G_MIN:",
        "            return None",
        f"        z0 = z = z - ({v} - target) / {g}",
    ]


def _corrector(newton, target, z_guess, tol, max_iter=8):
    """Newton solve G(z) = target from z_guess with the corrector ``newton``
    of G (see :func:`_newton`), at least one step; returns (z, iterations,
    g(z)) or None."""
    return newton(target, z_guess, tol, max_iter)


def point_on_level(newton, x, beta, z_guess):
    """Corrector-refined curve point z at Re G = x, and g(z) there (shared by the quadratures)."""
    target = complex(x, beta)
    tol = _POINT_TOL * (1.0 + abs(target))
    got = _corrector(newton, target, z_guess, tol, max_iter=12)
    if got is None:
        raise CorrectorDivergence("level-curve corrector diverged", z_guess)
    return got[0], got[2]


def _kernels(big_g: FuncExpr):
    """G's and g = G''s point functions, the corrector and the Field of conj(g),
    kept on the tree under ``_level`` (:func:`expr._kept`)."""

    def build():
        dg = derivative(big_g)
        return compile_fn(big_g), compile_fn(dg), _newton(big_g, dg), Field(dg, "{}.conjugate()")

    return _kept(big_g, "_level", compile_fn, build)


def trace_level(
    big_g: FuncExpr,
    z_start: complex,
    x_target: float,
    cfg: Optional[IntegratorConfig] = None,
) -> LevelCurve:
    """Trace {Im G = Im G(z_start)} from z_start toward larger Re G.

    Each step from X to X + dx is a midpoint predictor, then the corrector.
    The predictor follows dz/dw = G/g in w = log G, from log(X + i*beta)
    to log(X + dx + i*beta), with G = e^w on the curve; where the ratio
    (X + dx + i*beta)/(X + i*beta) is 0 or has real part <= 0 (a start on
    G = 0, or a step across X = 0 at beta = 0) it follows dz/dX = 1/g.
    The stop reason is decided here, once: ``target`` when X reaches
    x_target, ``radius`` when |z| leaves the configured radius, and
    ``critical_point`` when |g| < ``_G_MIN`` (a critical point of G, which
    the flow cannot reach in finite time anyway).  A step that cannot
    advance X and 60 failed halvings are one stall: ``critical_point``
    where |g| < 1e3 ``_G_MIN``, else it raises CorrectorDivergence.
    The step is kept as the spatial step h = dx/|g|: it starts at a
    quarter of the cap _STEP_SCALE*(1+|z|), grows by 1.5 after a point
    that took at most 3 Newton steps, up to the cap, and halves on a
    failed step.  Halving ``_STEP_SCALE`` retraces the same curve, finer.
    A corrected point z with |z - z_pred| > |step|/2 + 1e-12(1 + |z|) is
    refused and halves the step as a failed solve does (steplength control
    by the corrector's distance from the predictor, Allgower and Georg
    1990): the predictor's error on the curve is O(|step|^3), so a point
    that far off lies on another branch of the level set, as where one
    step of ``exp(-z^2) + z`` spans the Gaussian's tract and Newton lands
    on the branch where G ~ z.  The floor is the rounding of z, for a step
    clamped to the target whose predicted step is below it.
    The cap is 0.2: the transit quadrature places its own nodes, and
    :func:`escape.rubel_path` extrapolates its tails from the samples and
    bars them with the rule over every other sample.
    G's kernels (:func:`_kernels`) are built at the first call on a tree object and
    kept on it until ``compile_fn`` is rebound; g at each point comes from the corrector.
    """
    cfg = cfg or IntegratorConfig()
    big_ge, ge, newton, _ = _kernels(big_g)
    z = complex(z_start)
    v0 = big_ge(z)
    beta = v0.imag
    x = v0.real
    if not x_target > x:
        raise ValueError("x_target must exceed Re G at the start point")
    g = ge(z)
    g_abs = abs(g)  # |g| at the last accepted point, taken once per point
    if g_abs < _G_MIN:
        raise ValueError("start point lies at a critical point of G")

    xs = [x]
    zs = [z]
    stop = "target"
    h = 0.25 * _STEP_SCALE * (1.0 + abs(z))
    fails = 0
    steps = 0
    while x < x_target:
        steps += 1
        if steps > 200_000:
            raise CorrectorDivergence("level tracing did not finish", z)
        dx = min(h * g_abs, x_target - x)
        # x + (x_target - x) > x for every double x < x_target, so a step that
        # cannot advance X falls short of the target: a stall
        stuck = x + dx == x
        got = None
        if not stuck:
            here, target = complex(x, beta), complex(x + dx, beta)
            ratio = target / here if here else 0j
            try:
                if ratio.real > 0:
                    # midpoint rule for dz/dw = G/g in w = log G, where G = e^w on the curve
                    dw = cmath.log(ratio)
                    g_half = ge(z + 0.5 * dw * (here / g))
                    step = dw * (here * cmath.sqrt(ratio) / g_half)
                else:
                    # from G = 0, or across X = 0 at beta = 0: midpoint rule for dz/dX = 1/g
                    g_half = ge(z + 0.5 * dx / g)
                    step = dx / g_half
                z_pred = z + step if abs(g_half) >= _G_MIN else None
            except EvaluationOverflow:
                z_pred = None
            if z_pred is not None:
                # tolerance scales with the step so points near a critical value of G
                # (|target| tiny) are still resolved to full relative precision; past
                # the double range the sum is halved first, to the same bits where finite
                span = abs(target) + dx
                tol = 1e-12 * span if span < math.inf else 2e-12 * (0.5 * abs(target) + 0.5 * dx)
                got = _corrector(newton, target, z_pred, tol)
                if got is not None:
                    r = abs(got[0])  # |z| at the new point, read again below
                    if abs(got[0] - z_pred) > 0.5 * abs(step) + 1e-12 * (1.0 + r):
                        got = None  # a point on another branch of the level set
        h = dx / g_abs  # the spatial step just tried, dx clamped to the target
        if got is None:
            fails += 1
            h *= 0.5
            if stuck or fails > 60:
                # a stall with g collapsing is the curve running into a
                # critical point, not a tracer defect
                if g_abs < 1e3 * _G_MIN:
                    stop = "critical_point"
                    break
                raise CorrectorDivergence("level tracing stalled", z)
            continue
        fails = 0
        z, iters, g = got
        g_abs = abs(g)
        x = x + dx
        xs.append(x)
        zs.append(z)
        if g_abs < _G_MIN:
            stop = "critical_point"
            break
        if r > cfg.escape_radius:
            stop = "radius"
            break
        h = min(h * (1.5 if iters <= 3 else 1.0), _STEP_SCALE * (1.0 + r))
    return LevelCurve(big_g, beta, tuple(xs), tuple(zs), stop)


@dataclass(frozen=True)
class TransitReport:
    """Transit time over an X-range, by quadrature and by direct flow, and
    whether the two agree within ``gap_bar``; ``agree`` is None, and the gap
    and its bar infinite, when either time is (no decision)."""

    x_range: tuple
    quadrature_time: float  # math.inf when the integrand diverges
    ode_time: float  # math.inf when the direct run stops short of the far end
    relative_gap: float
    gap_bar: float  # |quad - ode| within which the two agree
    agree: Optional[bool]
    divergence_witness: Optional[float] = None


def transit_time(
    curve: LevelCurve,
    cfg: Optional[IntegratorConfig] = None,
) -> TransitReport:
    """Compare the level-curve transit integral with direct integration.

    quadrature_time integrates 1/|g(z(X))|^2 over the curve's X-range by
    :func:`gauss_kronrod` to ``_TRANSIT_REL_TOL`` of the whole, in the chart
    X = b sinh(s), b = |beta| (at least 1e-12 max|X|, capped at |x0| for a
    range nearest 0 at x0 != 0): |G| = b cosh(s) there, so where 1/|g|^2 is
    a power of |G| the integrand b cosh(s)/|g|^2 is smooth in s (for G = z^k/k,
    a constant times cosh(s)^((2-k)/k)).  Each node is corrected onto the
    curve from the chord of its bracketing samples in X, and once more from
    their chord in w = log(X + i*beta) if that fails on a step traced in w.
    ode_time integrates dz/dt = conj(g(z)) from the curve start until
    Re G reaches the far end, at rel_tol ``_FLOW_REL_TOL``, whatever
    ``cfg.rel_tol`` is: derived from ``_TRANSIT_REL_TOL`` by the ratio that
    :attr:`IntegratorConfig.abs_tol` uses, so it adds no setting.  Of ``cfg``
    only ``t_max`` is read, as the run's time budget where the integrand
    diverges.  The two agree when |quad - ode| <= gap_bar =
    ``_TRANSIT_REL_TOL``*quad + ``_FLOW_REL_TOL``*steps*(1 + ode), the
    quadrature's tolerance plus the flow's per accepted step, as
    :func:`flow.blowup_time_estimate` bars its runs.  When the integrand grows
    like c/X near an interior point (a zero of g on or next to the curve) the
    quadrature reports +inf with a witness abscissa X instead of a number; so
    does a node where |g| < ``_G_MIN`` or the corrector fails.  Both take G's
    kernels from :func:`_kernels`, kept on ``curve.big_g``.
    """
    cfg = cfg or IntegratorConfig()
    x1, x2 = curve.xs[0], curve.xs[-1]
    if x2 <= x1:
        return TransitReport((x1, x2), 0.0, 0.0, 0.0, 0.0, True)
    big_ge, _, newton, field = _kernels(curve.big_g)
    xs, zs, beta = curve.xs, curve.zs, curve.beta
    # the chart X = b sinh(s + asinh(x0/b)) takes s = 0 at x0, the X of the range
    # nearest 0, so that far from X = 0 neither its nodes nor its s-range cancel
    x0 = min(max(x1, 0.0), x2)
    # > 0 for a subnormal X-range too; a floor above |x0| > 0 would hide the range's start from the quadrature
    b = max(abs(beta), min(1e-12 * max(abs(x1), abs(x2)), abs(x0) or math.inf), 1e-300)
    w, hw = x0 / b, math.hypot(1.0, x0 / b)

    def chart(s):
        return x0 * math.cosh(s) + b * hw * math.sinh(s)

    def reach(x):  # the s of chart(s) = x: sinh(s) = u hw - w hu, h. = sqrt(1 + .^2), rationalized
        u = x / b
        r = (x - x0) / b * (u + w) / (u * hw + w * math.hypot(1.0, u) or 1.0)
        if not math.isfinite(r):
            # past u ~ 1e154 the products overflow: the same quotient with u divided out
            q = (1.0 + w / u) / (hw + w * math.hypot(1.0 / u, 1.0))
            r = (x - x0) / b * q
            if not math.isfinite(r):
                # past the double range asinh(r) = log 2r to double precision: a sum of logarithms
                return math.copysign(math.log(2.0 * q) + math.log(abs(x - x0)) - math.log(b), x - x0)
        return math.asinh(r)

    def integrand(s):
        x = chart(s)
        i = min(max(bisect.bisect(xs, x), 1), len(xs) - 1)
        xa, xb, za, zb = xs[i - 1], xs[i], zs[i - 1], zs[i]
        try:
            g = abs(point_on_level(newton, x, beta, za + (x - xa) / (xb - xa) * (zb - za))[1])
        except CorrectorDivergence:
            try:
                # once more from the chord in w = log(X + i beta) on a step the tracer took in w
                # (the ratio of its ends' X + i beta has Re > 0), where the step is straight
                if not xa * xb + beta * beta > 0:
                    raise  # the first failure stands
                u = cmath.log(complex(x, beta) / (here := complex(xa, beta))) / (cmath.log(complex(xb, beta) / here) or 1.0)
                g = abs(point_on_level(newton, x, beta, za + u * (zb - za))[1])
            except CorrectorDivergence:
                # the corrector cannot pin the curve: a critical value of G is in the X-range
                raise QuadratureDiverged(s) from None
        if g < _G_MIN:
            raise QuadratureDiverged(s)
        return math.hypot(x, b) / (g * g)  # dX/ds = b cosh(s + asinh(x0/b))

    try:
        quad, witness = gauss_kronrod(integrand, reach(x1), reach(x2), _TRANSIT_REL_TOL).real, None
    except QuadratureDiverged as exc:
        quad, witness = math.inf, chart(exc.witness)

    t_budget = cfg.t_max if not math.isfinite(quad) else max(1.0, 4.0 * quad)
    event = Event(lambda z: big_ge(z).real - x2)
    res = drive_field(field, curve.zs[0], replace(cfg, rel_tol=_FLOW_REL_TOL), t_stop=t_budget, events=(event,))
    ode = res.samples[-1][0] if res.status == "event" else math.inf
    if not (math.isfinite(quad) and math.isfinite(ode)):
        return TransitReport((x1, x2), quad, ode, math.inf, math.inf, None, witness)
    bar = _TRANSIT_REL_TOL * quad + _FLOW_REL_TOL * (len(res.samples) - 1) * (1.0 + ode)
    gap = abs(quad - ode)
    return TransitReport((x1, x2), quad, ode, gap / abs(ode), bar, gap <= bar, witness)


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the slow-growth sufficient test for infinite transit."""

    fires: bool
    conclusive: bool
    witnesses: tuple  # (z, |G(z)|/|z|^2) at dyadic radii
    note: str = ""


def infinite_time_criterion(curve: LevelCurve) -> CriterionReport:
    """Sufficient (not necessary) test that the transit to infinity is infinite.

    Samples the curve at dyadic radii and fires when |G(z)|/|z|^2 drops
    below ``_SLOW_RATIO`` and keeps strictly decreasing across at
    least ``_SLOW_RUN`` consecutive radii.  The threshold is calibrated
    so that a constant ratio (quadratic growth of G) never fires.
    """
    r_head = abs(curve.zs[0])
    r_tail = abs(curve.zs[-1])
    if r_tail < 10.0 * max(r_head, 1e-12):
        return CriterionReport(False, False, (), "curve too short: |z| must grow tenfold")
    witnesses = []
    radius = max(r_head, 1e-12)
    idx = 0
    n = len(curve.zs)
    while radius <= r_tail:
        while idx < n and abs(curve.zs[idx]) < radius:
            idx += 1
        if idx >= n:
            break
        z = curve.zs[idx]
        ratio = math.hypot(curve.xs[idx], curve.beta) / (abs(z) * abs(z))
        witnesses.append((z, ratio))
        radius *= 2.0
    ratios = [w[1] for w in witnesses]
    runs = (ratios[j : j + _SLOW_RUN] for j in range(len(ratios) - _SLOW_RUN + 1))
    fires = any(all(r < _SLOW_RATIO for r in run) and all(a > b for a, b in zip(run, run[1:])) for run in runs)
    return CriterionReport(fires, True, tuple(witnesses))
