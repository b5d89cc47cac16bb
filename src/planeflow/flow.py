"""Adaptive integration of plane flows driven by entire functions.

Two flow kinds share one integrator:

* holomorphic      dz/dt = f(z)
* antiholomorphic  dz/dt = conj(g(z))

The stepper is the Dormand-Prince 5(4) embedded pair.  Runge-Kutta
weights are real, so advancing the complex state is arithmetic
identical to advancing the real 2-vector (Re z, Im z); complex
arithmetic is used only inside the right-hand side.

Escape handling is deliberately two-tier.  Reaching the configured
radius is recorded as ReachedRadius; an actual finite blowup time is
only claimed by :func:`classify` / :func:`blowup_time_estimate`, either
from the w = 1/z chart (polynomials of degree >= 2, where the residual
transit time is a regular quadrature in the chart) or from geometric
extrapolation of exit times through dyadic radii.  When neither
applies, the negative result is reported as evidence, never proof.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from types import CodeType, FunctionType
from typing import Callable, Optional, Sequence

from .errors import EvaluationOverflow, PlaneflowError
from .expr import FuncExpr, _code_of, _emit_body, antiderivative, compile_fn, is_constant, poly_coeffs
from .quadrature import QuadratureDiverged, adaptive_gauss

__all__ = [
    "ANTIHOLOMORPHIC",
    "AntiholoInvariants",
    "BlowupEstimate",
    "Event",
    "FORWARD",
    "Field",
    "FiniteTimeBlowup",
    "FixedPointApproach",
    "FlowSpec",
    "HOLOMORPHIC",
    "IntegratorConfig",
    "OdeResult",
    "Periodic",
    "REVERSED",
    "ReachedRadius",
    "StepUnderflow",
    "Termination",
    "TimeBudgetExhausted",
    "Trajectory",
    "antiholo_invariants",
    "blowup_time_estimate",
    "classify",
    "conformal_clock_residual",
    "drive_field",
    "integrate",
    "sample_at",
    "upgraded",
]

HOLOMORPHIC = "holomorphic"
ANTIHOLOMORPHIC = "antiholomorphic"
FORWARD = "forward"
REVERSED = "reversed"

_EPS = sys.float_info.epsilon

_MAX_STEPS = 2_000_000  # accepted or rejected steps one drive_field run may take
_FIXED_POINT_RADIUS = 1e-3  # tail drift below which a stalled run is a fixed point
_PERIODIC_RETURN_TOL = 1e-6  # how close a return through the seed's section must pass
_DYADIC_WINDOW = 4  # exit times at r0, 2r0, 4r0, 8r0 feed the extrapolation
_CLOCK_QUAD_TOL = 1e-12  # absolute tolerance of each conformal-clock panel


@dataclass(frozen=True)
class FlowSpec:
    """Which flow to integrate: the function, its role, and time direction."""

    kind: str
    func: FuncExpr
    time_direction: str = FORWARD

    def __post_init__(self):
        if self.kind not in (HOLOMORPHIC, ANTIHOLOMORPHIC):
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if self.time_direction not in (FORWARD, REVERSED):
            raise ValueError(f"unknown time direction {self.time_direction!r}")
        if is_constant(self.func):
            raise ValueError("flow function must be nonconstant")

    def __getstate__(self):  # the kept Field holds generated functions
        return {k: v for k, v in self.__dict__.items() if k != "_rhs"}


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_max: float = 1e6
    escape_radius: float = 10.0
    t_max: float = 100.0

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "h_max", "escape_radius", "t_max"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ValueError(f"{name} must be positive")
        # an infinite tolerance accepts every step; the budgets may be infinite
        for name in ("rel_tol", "abs_tol"):
            if getattr(self, name) == math.inf:
                raise ValueError(f"{name} must be finite")
        if self.rel_tol < 1e-14:
            raise ValueError("rel_tol below 1e-14 is not resolvable in doubles")


class Termination:
    """Base class for trajectory termination records."""

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class ReachedRadius(Termination):
    t_exit: float


@dataclass(frozen=True)
class FiniteTimeBlowup(Termination):
    t_est: float
    t_err: float


@dataclass(frozen=True)
class FixedPointApproach(Termination):
    z_star: complex


@dataclass(frozen=True)
class Periodic(Termination):
    period: float


@dataclass(frozen=True)
class TimeBudgetExhausted(Termination):
    pass


@dataclass(frozen=True)
class StepUnderflow(Termination):
    pass


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped samples of one flow line, immutable once built."""

    spec: FlowSpec
    z0: complex
    samples: tuple
    errors: tuple
    termination: Termination

    @property
    def t_end(self) -> float:
        return self.samples[-1][0]

    @property
    def z_end(self) -> complex:
        return self.samples[-1][1]

    def __len__(self) -> int:
        return len(self.samples)


# The post-operations a Field may apply to f's value, each written as the
# code that computes it from the value ``{}``; ``k`` is the Field's factor.
_POSTS = ("{}", "-{}", "{}.conjugate()", "-{}.conjugate()", "k * {}")


@dataclass(frozen=True, eq=False)
class Field:
    """The right-hand side post(f(z)): a compiled tree f followed by one
    fixed post-operation from ``_POSTS``.

    Calling a Field evaluates it at a point.  :func:`drive_field` inlines
    f and the post-operation into each stage of its Dormand-Prince step,
    with the same operations in the same order as calling the Field, so
    both give the same values and raise the same EvaluationOverflow.
    """

    func: FuncExpr
    post: str = "{}"
    factor: Optional[complex] = None

    def __post_init__(self):
        if self.post not in _POSTS:
            raise ValueError(f"unknown post-operation {self.post!r}")
        f = compile_fn(self.func)
        if self.post != "{}":
            f = FunctionType(_point_code(self.post), {"f": f, "k": self.factor})
        object.__setattr__(self, "_point", f)

    def __call__(self, z):
        return self._point(z)

    @cached_property
    def step(self):
        """The DP5(4) step ``(y, h, k1) -> (y_new, err, k7)`` with f inlined."""
        body, out, env = _emit_body(self.func)
        code = _step_code(body, self.post.format(out))
        return FunctionType(code, {**_TABLEAU, **env, "k": self.factor})


@lru_cache(maxsize=None)
def _point_code(post: str) -> CodeType:
    return _code_of(f"def point(z):\n    return {post.format('f(z)')}", "<Field>")


def _rhs(spec: FlowSpec) -> Field:
    """The Field of ``spec``'s flow, kept on the spec object, never found by
    equality (Constant(0.0) == Constant(-0.0), yet their bits differ), and
    built again once ``compile_fn`` is rebound, as bench/tracing.py does."""
    kept = spec.__dict__.get("_rhs")
    if kept is None or kept[0] is not compile_fn:
        post = "{}" if spec.kind == HOLOMORPHIC else "{}.conjugate()"
        kept = compile_fn, Field(spec.func, post if spec.time_direction == FORWARD else "-" + post)
        object.__setattr__(spec, "_rhs", kept)
    return kept[1]


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) pair

_TABLEAU = dict(
    A21=1 / 5,
    A31=3 / 40, A32=9 / 40,
    A41=44 / 45, A42=-56 / 15, A43=32 / 9,
    A51=19372 / 6561, A52=-25360 / 2187, A53=64448 / 6561, A54=-212 / 729,
    A61=9017 / 3168, A62=-355 / 33, A63=46732 / 5247, A64=49 / 176, A65=-5103 / 18656,
    B1=35 / 384, B3=500 / 1113, B4=125 / 192, B5=-2187 / 6784, B6=11 / 84,
    # difference between the 5th and the embedded 4th order weights
    E1=71 / 57600, E3=-71 / 16695, E4=71 / 1920, E5=-17253 / 339200, E6=22 / 525, E7=-1 / 40,
)

# inputs of stages 2..7; the last is the 5th-order update.  Coefficients
# multiply from the right: CPython then skips a failed float
# multiplication, and products commute bit for bit.
_STAGE_INPUTS = (
    "y + (k1 * A21) * h",
    "y + (k1 * A31 + k2 * A32) * h",
    "y + (k1 * A41 + k2 * A42 + k3 * A43) * h",
    "y + (k1 * A51 + k2 * A52 + k3 * A53 + k4 * A54) * h",
    "y + (k1 * A61 + k2 * A62 + k3 * A63 + k4 * A64 + k5 * A65) * h",
    "y_new = y + (k1 * B1 + k3 * B3 + k4 * B4 + k5 * B5 + k6 * B6) * h",
)


@lru_cache(maxsize=256)
def _step_code(body: str, value: str) -> CodeType:
    """Code of a DP5(4) step whose stage n runs ``body`` and sets kn to
    ``value``, both reading the stage input as ``z`` and ``z0``."""
    lines = ["def step(y, h, k1):"]
    for n, stage_input in enumerate(_STAGE_INPUTS, 2):
        lines += [f"    z0 = z = {stage_input}", body, f"    k{n} = {value}"]
    lines += [
        "    err = abs(h) * abs(k1 * E1 + k3 * E3 + k4 * E4 + k5 * E5 + k6 * E6 + k7 * E7)",
        "    return y_new, err, k7",
    ]
    return _code_of("\n".join(lines), "<drive_field>")


def _stepper(rhs: Callable[[complex], complex]):
    """The DP5(4) step for rhs: f inlined for a Field, one call per stage
    for any other callable."""
    if isinstance(rhs, Field):
        return rhs.step
    return FunctionType(_step_code("", "rhs(z)"), {**_TABLEAU, "rhs": rhs})


def _hermite(z0, d0, z1, d1, h, theta):
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2 * t3 - 3 * t2 + 1) * z0
        + (t3 - 2 * t2 + theta) * (h * d0)
        + (-2 * t3 + 3 * t2) * z1
        + (t3 - t2) * (h * d1)
    )


def _bisect_theta(fn, lo=0.0, hi=1.0, iters=60):
    """Bisect fn over [lo, hi] assuming fn(lo) < 0 <= fn(hi)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


class Event:
    """A zero crossing of g(z) watched by :func:`drive_field`.

    The event fires when g rises from negative to nonnegative across an
    accepted step.  An event whose g is nonnegative at the start
    therefore fires only after g has gone negative, unless
    ``start_below`` counts g as negative before the first step.  The
    crossing is located by bisection on the step's cubic Hermite
    interpolant.  A terminal event then ends the run; any other records
    its crossing and is retired.
    """

    def __init__(self, g: Callable[[complex], float], terminal: bool = True, *, start_below: bool = False):
        self.g = g
        self.terminal = terminal
        self.start_below = start_below

    def veto(self, path, z_new) -> bool:
        """True dismisses a rise onto z_new before it is refined; ``path``
        holds the (t, z) samples accepted so far."""
        return False

    def rejects(self, z_cross) -> bool:
        """True dismisses a refined crossing; the event stays watched."""
        return False


class _SeedReturn(Event):
    """First return through the seed point's cross-section, in the seed's
    direction of travel."""

    def __init__(self, z0, f0, rhs, tol):
        super().__init__(self._section)
        self.z0 = z0
        self.f0 = f0
        self.u_conj = (f0 / abs(f0)).conjugate()
        self.rhs = rhs
        self.tol = tol
        self.arm_dist = max(100.0 * tol, 1e-6 * (1.0 + abs(z0)))

    def _section(self, z):
        return ((z - self.z0) * self.u_conj).real

    def veto(self, path, z_new):
        # armed once an earlier accepted point left the seed's neighbourhood
        z0 = self.z0
        if not any(abs(z - z0) > self.arm_dist for _, z in islice(path, 1, None)):
            return True
        z_old = path[-1][1]
        return min(abs(z_old - z0), abs(z_new - z0)) > 4.0 * abs(z_new - z_old) + 10.0 * self.tol

    def rejects(self, z_cross):
        if abs(z_cross - self.z0) > self.tol:
            return True
        fc = self.rhs(z_cross)
        denom = abs(fc) * abs(self.f0)
        return denom == 0 or (fc * self.f0.conjugate()).real / denom < 0.999


@dataclass
class OdeResult:
    samples: list
    errors: list
    crossings: list  # (event, t, z) in the order the events fired
    status: str  # t_stop | event | underflow | overflow
    exception: Optional[BaseException] = None


def drive_field(
    rhs: Callable[[complex], complex],
    z0: complex,
    cfg: IntegratorConfig,
    *,
    t0: float = 0.0,
    t_stop: float,
    events: Sequence[Event] = (),
) -> OdeResult:
    """Advance dz/dt = rhs(z) adaptively until a stop condition.

    Stops at t_stop, when a terminal event fires (status "event"; it is
    the last entry of ``crossings`` and its crossing the last sample), or
    when the step size underflows the time resolution.  Events that fire
    in the same step are taken in the order given.  A :class:`Field` rhs
    is inlined into the step; any other callable is called once a stage.
    Its step-size clamps are comparisons that pick the same operand as
    ``min``/``max`` do: the first, unless a later one wins strictly.
    """
    t, z = t0, complex(z0)
    samples = [(t, z)]
    errors = [0.0]
    crossings = []

    k1 = rhs(z)
    watch = [[ev, -math.inf if ev.start_below else ev.g(z)] for ev in events]
    h = min(cfg.h_max, max(t_stop - t, 0.0) or 1.0, 0.01 * (1.0 + abs(z)) / max(abs(k1), 1e-12))
    h = max(h, 1e-300)
    step = _stepper(rhs)
    h_max, abs_tol, rel_tol, inf, size = cfg.h_max, cfg.abs_tol, cfg.rel_tol, math.inf, abs(z)
    add_sample, add_error = samples.append, errors.append

    for _ in range(_MAX_STEPS):
        if t >= t_stop:
            break
        h = h_max if h_max < h else h
        h = t_stop - t if t_stop - t < h else h
        try:
            z_new, err, k7 = step(z, h, k1)
            if not err < inf:
                raise EvaluationOverflow(None, at=z)
        except EvaluationOverflow as exc:
            h *= 0.1
            if h < max(1000.0 * _EPS * abs(t), 1e-300):
                return OdeResult(samples, errors, crossings, "overflow", exception=exc)
            continue
        size_new = abs(z_new)
        sc = abs_tol + rel_tol * (size_new if size_new > size else size)
        if err > sc:
            h *= g if (g := 0.9 * (sc / err) ** 0.2) > 0.1 else 0.1
            if h < 1000.0 * _EPS * abs(t):
                return OdeResult(samples, errors, crossings, "underflow")
            continue

        t_new = t + h
        if t_new == t:
            return OdeResult(samples, errors, crossings, "underflow")

        for entry in watch:
            ev, g_old = entry
            g_new = entry[1] = ev.g(z_new)
            if not (g_old < 0.0 <= g_new) or ev.veto(samples, z_new):
                continue
            theta = _bisect_theta(lambda s: ev.g(_hermite(z, k1, z_new, k7, h, s)))
            zc = _hermite(z, k1, z_new, k7, h, theta)
            if ev.rejects(zc):
                continue
            tc = t + theta * h
            crossings.append((ev, tc, zc))
            if ev.terminal:
                # sample times stay strictly increasing
                add_sample((max(tc, math.nextafter(t, math.inf)), zc))
                add_error(err)
                return OdeResult(samples, errors, crossings, "event")
            # retired; the loop goes on over the list it started with
            watch = [other for other in watch if other is not entry]

        t, z, k1, size = t_new, z_new, k7, size_new
        add_sample((t, z))
        add_error(err)
        g = 0.9 * (sc / err) ** 0.2 if err else 5.0
        h *= (g if g < 5.0 else 5.0) if g > 0.2 else 0.2
    if not t >= t_stop:
        raise PlaneflowError(f"step budget exceeded ({_MAX_STEPS} steps) at t={t!r}")
    return OdeResult(samples, errors, crossings, "t_stop")


# ---------------------------------------------------------------------------
# public operations


def integrate(spec: FlowSpec, z0: complex, cfg: Optional[IntegratorConfig] = None) -> Trajectory:
    """Integrate the flow from z0 until the first termination condition.

    A seed sitting on a zero of the driving function returns immediately
    as FixedPointApproach (the trajectory is constant).  Evaluation
    overflow inside the right-hand side propagates to the caller.
    """
    cfg = cfg or IntegratorConfig()
    z0 = complex(z0)
    rhs = _rhs(spec)
    f0 = rhs(z0)
    if abs(f0) <= 1e-15 * (1.0 + abs(z0)):
        return Trajectory(spec, z0, ((0.0, z0),), (0.0,), FixedPointApproach(z0))

    # a seed beyond the radius reaches it at the first step that ends there
    radius = Event(lambda z, r=cfg.escape_radius: abs(z) - r, start_below=True)
    events = (radius, _SeedReturn(z0, f0, rhs, _PERIODIC_RETURN_TOL))
    res = drive_field(rhs, z0, cfg, t_stop=cfg.t_max, events=events)
    if res.status == "overflow":
        raise res.exception

    if res.status == "event":
        t_end = res.samples[-1][0]
        term: Termination = ReachedRadius(t_end) if res.crossings[-1][0] is radius else Periodic(t_end)
    elif res.status == "underflow":
        term = StepUnderflow()
    else:  # t_stop
        fp = _fixed_point_from_tail(res.samples, rhs)
        term = fp if fp is not None else TimeBudgetExhausted()
    return Trajectory(spec, z0, tuple(res.samples), tuple(res.errors), term)


def _fixed_point_from_tail(samples, rhs) -> Optional[FixedPointApproach]:
    """FixedPointApproach when the driving function stayed numerically zero
    and the state barely drifted over the trailing stretch of the run."""
    t_end, z_end = samples[-1]
    span = t_end - samples[0][0]
    window_start = t_end - 0.05 * span
    tail = [s for s in samples[-64:] if s[0] >= window_start]
    if len(tail) < 2:
        tail = list(samples[-2:])
    for _, z in tail:
        if abs(rhs(z)) >= 1e-12 * (1.0 + abs(z)):
            return None
    drift = max(abs(z - z_end) for _, z in tail)
    if drift < _FIXED_POINT_RADIUS:
        return FixedPointApproach(z_end)
    return None


def sample_at(traj: Trajectory, t: float) -> complex:
    """State at an arbitrary time inside the trajectory's span.

    Uses cubic Hermite interpolation on the bracketing accepted step,
    with end derivatives recomputed from the right-hand side.
    """
    samples = traj.samples
    if not samples[0][0] <= t <= samples[-1][0]:
        raise ValueError(f"t={t!r} outside trajectory span")
    lo, hi = 0, len(samples) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if samples[mid][0] <= t:
            lo = mid
        else:
            hi = mid
    ta, za = samples[lo]
    tb, zb = samples[hi]
    if t == ta:
        return za
    if t == tb:
        return zb
    rhs = _rhs(traj.spec)
    h = tb - ta
    return _hermite(za, rhs(za), zb, rhs(zb), h, (t - ta) / h)


# ---------------------------------------------------------------------------
# blowup-time estimation and classification


@dataclass(frozen=True)
class BlowupEstimate:
    """Finite-escape-time estimate with an explicit evidence flag.

    ``conclusive`` False means the exit-time series did not converge
    (infinite-time evidence); t_est / t_err are NaN in that case.
    """

    t_est: float
    t_err: float
    conclusive: bool
    method: str  # "w_chart" | "dyadic" | "time_resolution" | "none"
    exit_times: tuple
    note: str = ""


def _inconclusive(note, exit_times=()):
    return BlowupEstimate(math.nan, math.nan, False, "none", tuple(exit_times), note)


def blowup_time_estimate(traj: Trajectory, cfg: Optional[IntegratorConfig] = None) -> BlowupEstimate:
    """Estimate the finite escape time of an escaping trajectory.

    Polynomial f of degree >= 2 (holomorphic kind): continue past the
    zero-free radius, switch to the w = 1/z chart and integrate the
    remaining transit dt = -dw / (w^2 f(1/w)) along the chart segment to
    w = 0; the imaginary part of that integral is a built-in consistency
    check since the true remaining time is real.  A chart quadrature
    that does not converge within its budget gives an inconclusive
    estimate.  Otherwise: continue through dyadic radii R, 2R, 4R, ...
    and accept a finite limit only when the exit-time increments decay
    geometrically (ratio <= 0.75).
    """
    cfg = cfg or IntegratorConfig()
    if not isinstance(traj.termination, ReachedRadius):
        return _inconclusive("not an escape candidate")
    rhs = _rhs(traj.spec)
    if traj.spec.kind == HOLOMORPHIC:
        coeffs = poly_coeffs(traj.spec.func)
        if coeffs is not None and len(coeffs) >= 3:
            if traj.spec.time_direction == REVERSED:
                coeffs = [-c for c in coeffs]
            est = _poly_chart_estimate(rhs, coeffs, traj, cfg)
            if est is not None:
                return est
    return _dyadic_estimate(rhs, traj, cfg)


def _poly_chart_estimate(rhs, coeffs, traj, cfg) -> Optional[BlowupEstimate]:
    n = len(coeffs) - 1
    a_n = coeffs[-1]
    root_bound = 1.0 + max(abs(c / a_n) for c in coeffs[:-1])
    r_safe = 2.0 * root_bound
    t_far, z_far = traj.samples[-1]
    if abs(z_far) < r_safe:
        out = Event(lambda z: abs(z) - r_safe)
        res = drive_field(rhs, z_far, cfg, t0=t_far, t_stop=t_far + cfg.t_max, events=(out,))
        if res.status != "event":
            return None
        t_far, z_far = res.samples[-1]
    w_far = 1.0 / z_far
    rev = coeffs[::-1]  # q(w) = w^2 f(1/w) / w^(2-n); q(0) = a_n

    def q(w):
        acc = 0j
        for c in rev[::-1]:
            acc = acc * w + c
        return acc

    def integrand(s):
        w = w_far * (1.0 - s)
        return w_far * w ** (n - 2) / q(w)

    exit_times = ((abs(traj.z_end), traj.t_end),)
    try:
        t_rem = adaptive_gauss(integrand, 0.0, 1.0, tol=1e-14 * (1.0 + abs(w_far)))
    except QuadratureDiverged as exc:
        return _inconclusive(f"w-chart quadrature did not converge ({exc})", exit_times)
    t_est = t_far + t_rem.real
    # the true remaining transit is real; an imaginary residue means the
    # chart ray is not homotopic to the trajectory tail (not a blowup)
    if t_rem.real <= 0 or abs(t_rem.imag) > max(1e-8 * (1.0 + abs(t_est)), 4.0 * _EPS * abs(t_far)):
        return None
    t_err = abs(t_rem.imag) + 1e-10 * (1.0 + abs(t_est))
    return BlowupEstimate(t_est, t_err, True, "w_chart", exit_times)


def _dyadic_estimate(rhs, traj, cfg) -> BlowupEstimate:
    t_exit, z_exit = traj.samples[-1]
    r0 = abs(z_exit)
    radii = [r0 * 2.0**k for k in range(1, _DYADIC_WINDOW)]
    marks = [Event((lambda z, r=r: abs(z) - r), terminal=r == radii[-1]) for r in radii]
    res = drive_field(rhs, z_exit, cfg, t0=t_exit, t_stop=t_exit + cfg.t_max, events=marks)
    # radii are crossed in ascending order, the outermost ending the run
    times = [(r0, t_exit)] + [(r, t) for r, (_, t, _) in zip(radii, res.crossings)]

    if len(times) < 3:
        # genuine blowups can exhaust the time resolution of doubles
        # before crossing the next dyadic radius
        if res.status == "underflow":
            t_end, z_end = res.samples[-1]
            speed = abs(rhs(z_end)) if cmath.isfinite(z_end) else math.inf
            if speed * max(_EPS * abs(t_end), sys.float_info.min) * 1e3 >= 1.0:
                t_err = 1e3 * _EPS * (1.0 + abs(t_end))
                return BlowupEstimate(t_end, t_err, True, "time_resolution", tuple(times))
        return _inconclusive("too few dyadic exit times", times)

    ts = [t for _, t in times]
    deltas = [b - a for a, b in zip(ts, ts[1:])]
    positive = [d for d in deltas if d > 0.0]
    if len(positive) < len(deltas):
        # trailing increments collapsed to zero: the exit times agree to
        # the last representable digit
        t_est = ts[-1]
        return BlowupEstimate(
            t_est,
            max(1e3 * _EPS * (1.0 + abs(t_est)), min(positive) if positive else 0.0),
            True,
            "time_resolution",
            tuple(times),
        )
    ratios = [b / a for a, b in zip(deltas, deltas[1:])]
    if not ratios or max(ratios) > 0.75:
        return _inconclusive("exit-time increments not geometrically decreasing", times)
    rho = ratios[-1]
    t_est = ts[-1] + deltas[-1] * rho / (1.0 - rho)
    if not math.isfinite(t_est):
        return _inconclusive("extrapolated limit not finite", times)
    if len(ratios) >= 2:
        rho_p = ratios[-2]
        t_prev = ts[-2] + deltas[-2] * rho_p / (1.0 - rho_p)
        t_err = abs(t_est - t_prev) + 4.0 * _EPS * (1.0 + abs(t_est))
    else:
        t_err = deltas[-1] * rho / (1.0 - rho) + 4.0 * _EPS * (1.0 + abs(t_est))
    return BlowupEstimate(t_est, t_err, True, "dyadic", tuple(times))


def classify(traj: Trajectory, cfg: Optional[IntegratorConfig] = None) -> Termination:
    """Refine a trajectory's termination.

    ReachedRadius upgrades to FiniteTimeBlowup exactly when the exit-time
    analysis of :func:`blowup_time_estimate` converges; periodic and
    fixed-point terminations are detected during integration and pass
    through unchanged.  Classification is total: it never raises for a
    well-formed trajectory.
    """
    cfg = cfg or IntegratorConfig()
    term = traj.termination
    if isinstance(term, ReachedRadius):
        try:
            return upgraded(term, blowup_time_estimate(traj, cfg))
        except PlaneflowError:
            return term
    return term


def upgraded(term: Termination, est: BlowupEstimate) -> Termination:
    """The termination that the estimate supports: ReachedRadius becomes
    FiniteTimeBlowup when the estimate is conclusive; the rest pass through."""
    if isinstance(term, ReachedRadius) and est.conclusive:
        return FiniteTimeBlowup(est.t_est, est.t_err)
    return term


# ---------------------------------------------------------------------------
# flow invariants


def conformal_clock_residual(traj: Trajectory) -> float:
    """Worst deviation of the quadrature clock from integration time.

    Along a holomorphic-flow trajectory the primitive of 1/f advances
    exactly like time, so the line integral of dz/f accumulated over the
    sampled path should reproduce t - t0.  Panels are straight chords
    between consecutive samples (1/f is analytic nearby, so chords are
    exact up to quadrature error).  A vanishing f inside a panel makes
    the clock meaningless; that, and a panel whose quadrature does not
    converge, is reported as an infinite residual.
    """
    if traj.spec.kind != HOLOMORPHIC:
        raise ValueError("conformal clock applies to holomorphic flows only")
    fe = compile_fn(traj.spec.func)
    samples = traj.samples
    if len(samples) < 2:
        return 0.0
    sign = -1.0 if traj.spec.time_direction == REVERSED else 1.0
    t0 = samples[0][0]
    acc = 0j
    worst = 0.0
    for (ta, za), (tb, zb) in zip(samples, samples[1:]):
        dz = zb - za
        try:
            seg = adaptive_gauss(lambda s: 1.0 / fe(za + s * dz), 0.0, 1.0, tol=_CLOCK_QUAD_TOL)
        except (ZeroDivisionError, QuadratureDiverged):
            return math.inf
        acc += seg * dz
        worst = max(worst, abs(acc - sign * (tb - t0)))
    return worst


@dataclass(frozen=True)
class AntiholoInvariants:
    im_drift: float
    monotone: bool
    speed_residual: float


def antiholo_invariants(traj: Trajectory) -> AntiholoInvariants:
    """Check the conserved quantities of an antiholomorphic run.

    Im G is constant along trajectories and Re G increases at speed
    |g|^2; the residual compares finite differences of Re G against the
    squared speed at the Hermite midpoint of each step.
    """
    if traj.spec.kind != ANTIHOLOMORPHIC:
        raise ValueError("antiholomorphic invariants need an antiholomorphic trajectory")
    g = traj.spec.func
    big_g = antiderivative(g)
    ge = compile_fn(g)
    big_ge = compile_fn(big_g)
    sign = -1.0 if traj.spec.time_direction == REVERSED else 1.0
    samples = traj.samples
    vs = [big_ge(z) for _, z in samples]
    v0 = vs[0]
    im_drift = max(abs(v.imag - v0.imag) for v in vs)
    monotone = all(
        sign * (vb.real - va.real) > 0.0 for va, vb in zip(vs, vs[1:])
    )
    speed_residual = 0.0
    for (ta, za), (tb, zb), va, vb in zip(samples, samples[1:], vs, vs[1:]):
        dt = tb - ta
        if dt <= 0:
            continue
        da = sign * ge(za).conjugate()
        db = sign * ge(zb).conjugate()
        z_mid = _hermite(za, da, zb, db, dt, 0.5)
        speed_residual = max(
            speed_residual, abs(sign * (vb.real - va.real) / dt - abs(ge(z_mid)) ** 2)
        )
    return AntiholoInvariants(im_drift, monotone, speed_residual)
