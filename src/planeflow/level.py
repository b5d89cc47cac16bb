"""Level curves of Im G and transit times along them.

An antiholomorphic trajectory is a level curve of Im G traversed with
X = Re G increasing, so X itself is the natural curve parameter: the
predictor follows dz/dX = 1/g(z) (g = G') and a Newton corrector pins
G(z) back to X + i*beta after every step.  The corrector is generated per
G: one straight-line Newton loop with the statements that compute G and g
inlined, as the flow integrator inlines f into its step.  Parametrizing by
X makes the transit time a one-dimensional integral of 1/|g|^2 over
[X1, X2]: Gauss-Kronrod in the chart X = b sinh(s), s = log|G| + O(1),
on corrector-placed nodes, cross-checked against direct integration.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from types import FunctionType
from typing import Optional

from .errors import CorrectorDivergence, EvaluationOverflow
from .expr import FuncExpr, _emit_body, _function_code, compile_fn, derivative
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
_POINT_TOL = 1e-12  # relative tolerance of point_on_level's corrector
_TRANSIT_REL_TOL = 1e-7  # transit quadrature tolerance, relative to the whole integral
_SLOW_RATIO = 0.01  # the slow-growth criterion's threshold on |G(z)|/|z|^2 ...
_SLOW_RUN = 3  # ... which must hold and keep decreasing across this many radii
_STEP_SCALE = 0.1  # a tracing step moves z at most this times (1 + |z|)


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

    Each iteration runs the statements :func:`compile_fn` would run for G
    and then for g, inlined, so values and exceptions are those of calling
    the two compiled functions: an overflow in G ends the solve, one in g
    propagates.  When g is G (``exp(z)``: equal reprs, which tell every
    constant's bits apart), G's value serves as g and its statements run
    once an iteration; g then cannot raise, as it could only where G already
    ended the solve.  Constants and nodes are bound as globals, never written
    into the source (Constant(0.0) == Constant(-0.0), yet their bits differ).
    """
    big_body, v, env = _emit_body(big_g, pad=" " * 12)
    if repr(dg) == repr(big_g):
        body, g = "", v
    else:
        body, g, env = _emit_body(dg, env, root="droot", temp="d", pad=" " * 8)
    return FunctionType(_function_code(_newton_source(big_body, v, body, g)), {**env, "G_MIN": _G_MIN})


def _newton_source(big_body: str, v: str, body: str, g: str) -> str:
    """Source of a Newton loop that runs ``big_body`` for v = G(z) and ``body``
    for g = g(z), with ``z0`` the point as given and ``z`` as complex; an
    empty ``body`` reads g from ``big_body``.  The bodies come indented for
    the try block and the loop, 12 and 8 spaces."""
    return "\n".join([
        "def newton(target, z0, tol, max_iter):",
        "    z = complex(z0)",
        "    for it in range(max_iter + 1):",
        "        try:",
        big_body,
        "        except EvaluationOverflow:",
        "            return None",
        f"        if abs({v} - target) <= tol:",
        "            return z0, it",
        "        if it == max_iter:",
        "            return None",
        body,
        f"        if abs({g}) < G_MIN:",
        "            return None",
        f"        z0 = z = z - ({v} - target) / {g}",
    ])


def _corrector(newton, target, z_guess, tol, max_iter=8):
    """Newton solve G(z) = target from z_guess with the corrector ``newton``
    of G (see :func:`_newton`); returns (z, iterations) or None."""
    return newton(target, z_guess, tol, max_iter)


def point_on_level(newton, x, beta, z_guess):
    """Corrector-refined curve point at Re G = x (shared by the quadratures)."""
    target = complex(x, beta)
    tol = _POINT_TOL * (1.0 + abs(target))
    got = _corrector(newton, target, z_guess, tol, max_iter=12)
    if got is None:
        raise CorrectorDivergence("level-curve corrector diverged", z_guess)
    return got[0]


def trace_level(
    big_g: FuncExpr,
    z_start: complex,
    x_target: float,
    cfg: Optional[IntegratorConfig] = None,
) -> LevelCurve:
    """Trace {Im G = Im G(z_start)} from z_start toward larger Re G.

    Stops at x_target, when |z| leaves the configured radius, or when
    |g| < ``_G_MIN`` (approaching a critical point of G, which the flow
    cannot reach in finite time anyway).  ``_STEP_SCALE`` bounds the
    spatial step to _STEP_SCALE*(1+|z|); halving it retraces the same
    curve with finer sampling.
    """
    cfg = cfg or IntegratorConfig()
    big_ge = compile_fn(big_g)
    dg = derivative(big_g)
    ge = compile_fn(dg)
    newton = _newton(big_g, dg)
    z = complex(z_start)
    v0 = big_ge(z)
    beta = v0.imag
    x = v0.real
    if x_target <= x:
        raise ValueError("x_target must exceed Re G at the start point")
    g = ge(z)
    if abs(g) < _G_MIN:
        raise ValueError("start point lies at a critical point of G")

    xs = [x]
    zs = [z]
    stop = "target"
    dx = _STEP_SCALE * (1.0 + abs(z)) * abs(g)
    fails = 0
    steps = 0
    while x < x_target:
        steps += 1
        if steps > 200_000:
            raise CorrectorDivergence("level tracing did not finish", z)
        dx = min(dx, x_target - x)
        if x + dx == x:
            break  # remaining span below double resolution at this X
        step = _pc_step(newton, ge, z, g, x, dx, beta)
        if step is None:
            fails += 1
            dx *= 0.5
            if fails > 60:
                # a persistent failure with g collapsing is the curve
                # running into a critical point, not a tracer defect
                if abs(g) < 1e3 * _G_MIN:
                    stop = "critical_point"
                    break
                raise CorrectorDivergence("level tracing stalled", z)
            continue
        fails = 0
        z, iters = step
        x = x + dx
        xs.append(x)
        zs.append(z)
        g = ge(z)
        if abs(g) < _G_MIN:
            stop = "critical_point"
            break
        if abs(z) > cfg.escape_radius:
            stop = "radius"
            break
        cap = _STEP_SCALE * (1.0 + abs(z)) * abs(g)
        dx = min(dx * (1.6 if iters <= 3 else 1.0), cap)
    return LevelCurve(big_g, beta, tuple(xs), tuple(zs), stop)


def _pc_step(newton, ge, z, g0, x, dx, beta):
    """Midpoint predictor from z, where g(z) = g0, then the corrector."""
    target = complex(x + dx, beta)
    try:
        z_half = z + 0.5 * dx / g0
        g_half = ge(z_half)
        if abs(g_half) < _G_MIN:
            return None
        z_pred = z + dx / g_half
    except EvaluationOverflow:
        return None
    # tolerance scales with the step so points near a critical value of G
    # (|target| tiny) are still resolved to full relative precision; past
    # the double range the sum is halved first, to the same bits where finite
    span = abs(target) + dx
    tol = 1e-12 * span if span < math.inf else 2e-12 * (0.5 * abs(target) + 0.5 * dx)
    return _corrector(newton, target, z_pred, tol)


@dataclass(frozen=True)
class TransitReport:
    """Transit time over an X-range, by quadrature and by direct flow."""

    x_range: tuple
    quadrature_time: float  # math.inf when the integrand diverges
    ode_time: float
    relative_gap: float
    divergence_witness: Optional[float] = None


def transit_time(
    curve: LevelCurve,
    cfg: Optional[IntegratorConfig] = None,
) -> TransitReport:
    """Compare the level-curve transit integral with direct integration.

    quadrature_time integrates 1/|g(z(X))|^2 over the curve's X-range by
    :func:`gauss_kronrod` to ``_TRANSIT_REL_TOL`` of the whole, in the chart
    X = b sinh(s), b = |beta| (at least 1e-12 max|X|): |G| = b cosh(s) there,
    so where 1/|g|^2 is a power of |G| the integrand b cosh(s)/|g|^2 is
    smooth in s (for G = z^k/k, a constant times cosh(s)^((2-k)/k)).  Each
    node is corrected onto the curve from the chord of its bracketing samples.
    ode_time integrates dz/dt = conj(g(z)) from the curve start until
    Re G reaches the far end.  When the integrand grows like c/X near an
    interior point (a zero of g on or next to the curve) the quadrature
    reports +inf with a witness abscissa X instead of a number; so does a
    node where |g| < ``_G_MIN`` or the corrector fails.
    """
    cfg = cfg or IntegratorConfig()
    x1, x2 = curve.xs[0], curve.xs[-1]
    if x2 <= x1:
        return TransitReport((x1, x2), 0.0, 0.0, 0.0)
    big_ge = compile_fn(curve.big_g)
    dg = derivative(curve.big_g)
    ge = compile_fn(dg)
    newton = _newton(curve.big_g, dg)
    xs, zs, beta = curve.xs, curve.zs, curve.beta
    b = max(abs(beta), 1e-12 * max(abs(x1), abs(x2)), 1e-300)  # > 0 for a subnormal X-range too
    # the chart X = b sinh(s + asinh(x0/b)) takes s = 0 at x0, the X of the range
    # nearest 0, so that far from X = 0 neither its nodes nor its s-range cancel
    x0 = min(max(x1, 0.0), x2)
    w, hw = x0 / b, math.hypot(1.0, x0 / b)

    def chart(s):
        return x0 * math.cosh(s) + b * hw * math.sinh(s)

    def reach(x):  # the s of chart(s) = x: sinh(s) = u hw - w hu, h. = sqrt(1 + .^2), rationalized
        u = x / b
        return math.asinh((x - x0) / b * (u + w) / (u * hw + w * math.hypot(1.0, u) or 1.0))

    def integrand(s):
        x = chart(s)
        i = min(max(bisect.bisect(xs, x), 1), len(xs) - 1)
        xa, xb, za, zb = xs[i - 1], xs[i], zs[i - 1], zs[i]
        try:
            z = point_on_level(newton, x, beta, za + (x - xa) / (xb - xa) * (zb - za))
        except CorrectorDivergence:
            # the corrector cannot pin the curve: a critical value of G is in the X-range
            raise QuadratureDiverged(s) from None
        g = abs(ge(z))
        if g < _G_MIN:
            raise QuadratureDiverged(s)
        return math.hypot(x, b) / (g * g)  # dX/ds = b cosh(s + asinh(x0/b))

    try:
        quad, witness = gauss_kronrod(integrand, reach(x1), reach(x2), _TRANSIT_REL_TOL).real, None
    except QuadratureDiverged as exc:
        quad, witness = math.inf, chart(exc.witness)

    t_budget = cfg.t_max if not math.isfinite(quad) else max(1.0, 4.0 * quad)
    event = Event(lambda z: big_ge(z).real - x2)
    res = drive_field(Field(dg, "{}.conjugate()"), curve.zs[0], cfg, t_stop=t_budget, events=(event,))
    ode = res.samples[-1][0] if res.status == "event" else math.inf
    gap = abs(quad - ode) / abs(ode) if math.isfinite(quad) and math.isfinite(ode) else math.inf
    return TransitReport((x1, x2), quad, ode, gap, witness)


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
