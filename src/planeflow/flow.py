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
only claimed by :func:`classify` / :func:`blowup_time_estimate`, as one
quadrature of the time left out to infinity: of dz/f along a ray for a
holomorphic flow, of dX / |g|^2 along a level line for the conjugate
flow of a polynomial g; for any other g, exit times through dyadic radii
are extrapolated.  When no estimate is conclusive, the negative result
is reported as evidence, never proof.

Every stop short of the time budget is an :class:`Event`: a zero
crossing of a real function g, refined by bisection on the accepted
step's cubic Hermite interpolant.  Radii are events too, built with
:meth:`Event.at_radius`; the integrator reads their g from the |z| each
step already holds.  An event may name a quiet radius, inside which its
g is negative; a step that starts and ends inside every quiet radius
checks no event, so g is never called at an accepted point there.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Callable, Optional, Sequence

from .errors import EvaluationOverflow, PlaneflowError
from .expr import (
    Add, Constant, Exp, FuncExpr, IntPower, Mul, Negate, Scale, Variable,
    _POINT_GLOBALS, _emit_body, _generated, _kept, _Node, antiderivative, compile_fn, is_constant,
    poly_coeffs,
)
from .quadrature import QuadratureDiverged, gauss_kronrod

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
]

HOLOMORPHIC = "holomorphic"
ANTIHOLOMORPHIC = "antiholomorphic"
FORWARD = "forward"
REVERSED = "reversed"

_EPS = sys.float_info.epsilon
_LOG_MAX = math.log(sys.float_info.max)

_MAX_STEPS = 2_000_000  # accepted or rejected steps one drive_field run may take
_H_MAX = 1e6  # largest time step drive_field takes
_FIXED_POINT_RADIUS = 1e-3  # tail drift below which a stalled run is a fixed point
_PERIODIC_RETURN_TOL = 1e-6  # how close a return through the seed's section must pass
_DYADIC_WINDOW = 4  # exit times at r0, 2r0, 4r0, 8r0 feed the extrapolation
_CLOCK_QUAD_TOL = 1e-12  # relative tolerance of each conformal-clock chord
_CHART_NEWTON_MAX = 32  # Newton steps for one node's root in the level chart


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


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    escape_radius: float = 10.0
    t_max: float = 100.0

    def __post_init__(self):
        for name in ("rel_tol", "escape_radius", "t_max"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ValueError(f"{name} must be positive")
        # an infinite tolerance accepts every step; the budgets may be infinite
        if self.rel_tol == math.inf:
            raise ValueError("rel_tol must be finite")
        if self.rel_tol < 1e-14:
            raise ValueError("rel_tol below 1e-14 is not resolvable in doubles")

    @property
    def abs_tol(self) -> float:
        """The error floor near z = 0: a hundredth of ``rel_tol``."""
        return self.rel_tol * 1e-2


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
class Trajectory(_Node):
    """Time-stamped samples of one flow line, immutable once built; its kept
    estimate stays out of a pickle, as a tree's kept values do."""

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


# The post-operations a Field may apply to f's value, one per flow kind and
# time direction, each written as the code that computes it from the value ``{}``.
_POSTS = ("{}", "-{}", "{}.conjugate()", "-{}.conjugate()")


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

    def __post_init__(self):
        if self.post not in _POSTS:
            raise ValueError(f"unknown post-operation {self.post!r}")
        f = compile_fn(self.func)
        if self.post != "{}":
            f = _generated("point", ["z"], [f"    return {self.post.format('f(z)')}"], {"f": f}, _POINT_GLOBALS)
        object.__setattr__(self, "_point", f)

    def __call__(self, z):
        return self._point(z)

    @cached_property
    def step(self):
        """The DP5(4) step ``(y, h, k1) -> (y_new, err, k7)`` with f inlined."""
        body, out, env = _emit_body(self.func)
        return _generated("step", ["y", "h", "k1"], _step_source(body, self.post.format(out)), env, _STEP_GLOBALS)

    @cached_property
    def reciprocal(self):
        """The point function of 1 / self, f's own statements run on :class:`_Scaled`
        numbers: it raises EvaluationOverflow only where 1/f has no double value."""
        body, out, env = _emit_body(self.func)
        lines = ["    z = scaled(z0)", body, f"    return {self.post.format(f'inverse({out})')}"]
        return _generated("reciprocal", ["z0"], lines, env, _RECIPROCAL_GLOBALS)


class _Scaled:
    """The number v e^s, s real, 1e-100 <= |v| <= 1e100 unless v is 0 (s = -inf)
    or NaN.  Products add the scales, a sum rescales to the larger (terms that
    cancel leave a small v), exp(u) is (e^(i Im u), Re u), and an integer power
    multiplies the scale.  None raises: a NaN v meets f's finiteness check."""

    __slots__ = ("v", "s")

    def __init__(self, v, s=0.0):
        m = abs(v)
        if m == 0:
            s = -math.inf
        elif not 1e-100 <= m <= 1e100 and m < math.inf:
            v, s = v / m, s + math.log(m)
        self.v, self.s = v, s

    def __add__(self, other):  # two infinite scales give NaN
        other = other if type(other) is _Scaled else _Scaled(other)
        a, b = (self, other) if self.s <= other.s else (other, self)
        return _Scaled(b.v + a.v * math.exp(a.s - b.s), b.s) if a.v else b

    def __mul__(self, other):
        other = other if type(other) is _Scaled else _Scaled(other)
        return _Scaled(self.v * other.v, self.s + other.s)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return _Scaled(-self.v, self.s)

    def __pow__(self, n):
        m = abs(self.v)
        return _Scaled((self.v / m) ** n, n * (math.log(m) + self.s)) if m else _Scaled(self.v**n)

    @staticmethod
    def exp(u):
        if type(u) is _Scaled:  # its parts, +-inf past the double range
            e = math.exp(u.s) if u.s <= _LOG_MAX else math.inf
            u = complex(u.v.real * e if u.v.real else 0.0, u.v.imag * e if u.v.imag else 0.0)
        if u.real == math.inf:  # then 1/exp(u) is 0 whatever its phase
            return _Scaled(1 + 0j, math.inf)
        return _Scaled(cmath.exp(complex(0.0, u.imag)) if math.isfinite(u.imag) else complex(math.nan), u.real)


def _inverse(x):
    """1/x, x a _Scaled or complex, with an infinite part past the double range."""
    v, s = (x.v, x.s) if type(x) is _Scaled else (x, 0.0)
    return (math.exp(-s) if -s <= _LOG_MAX else math.inf) / v


# The globals of every Field's reciprocal: f's statements run on _Scaled numbers.
_RECIPROCAL_GLOBALS = {
    **_POINT_GLOBALS, "scaled": _Scaled, "exp": _Scaled.exp, "inverse": _inverse,
    "isfinite": lambda x: cmath.isfinite(_inverse(x)),
}


def _rhs(spec: FlowSpec) -> Field:
    """The Field of ``spec``'s flow, kept on its tree by :func:`expr._kept`,
    one per post-operation, under ``_field0`` .. ``_field3`` (``_POSTS``' order)."""
    post = "{}" if spec.kind == HOLOMORPHIC else "{}.conjugate()"
    post = post if spec.time_direction == FORWARD else "-" + post
    return _kept(spec.func, f"_field{_POSTS.index(post)}", compile_fn, lambda: Field(spec.func, post))


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) pair

_TABLEAU = {k: complex(v) for k, v in dict(
    A21=1 / 5,
    A31=3 / 40, A32=9 / 40,
    A41=44 / 45, A42=-56 / 15, A43=32 / 9,
    A51=19372 / 6561, A52=-25360 / 2187, A53=64448 / 6561, A54=-212 / 729,
    A61=9017 / 3168, A62=-355 / 33, A63=46732 / 5247, A64=49 / 176, A65=-5103 / 18656,
    B1=35 / 384, B3=500 / 1113, B4=125 / 192, B5=-2187 / 6784, B6=11 / 84,
    # difference between the 5th and the embedded 4th order weights
    E1=71 / 57600, E3=-71 / 16695, E4=71 / 1920, E5=-17253 / 339200, E6=22 / 525, E7=-1 / 40,
).items()}

# inputs of stages 2..7; the last is the 5th-order update.  Coefficients are
# complex, on the right: CPython 3.10-3.13 multiplies a complex by a float c as
# by (c, 0.0), so the bits stay, without a failed float multiply or a conversion.
_STAGE_INPUTS = (
    "y + (k1 * A21) * h",
    "y + (k1 * A31 + k2 * A32) * h",
    "y + (k1 * A41 + k2 * A42 + k3 * A43) * h",
    "y + (k1 * A51 + k2 * A52 + k3 * A53 + k4 * A54) * h",
    "y + (k1 * A61 + k2 * A62 + k3 * A63 + k4 * A64 + k5 * A65) * h",
    "y_new = y + (k1 * B1 + k3 * B3 + k4 * B4 + k5 * B5 + k6 * B6) * h",
)

# The globals of every generated DP5(4) step, f inlined or called.
_STEP_GLOBALS = {**_POINT_GLOBALS, **_TABLEAU}


def _step_source(body: str, value: str) -> list:
    """Body lines of a DP5(4) step ``step(y, h, k1, ..)`` whose stage n runs
    ``body`` and sets kn to ``value``, both reading the stage input as ``z``
    and ``z0``; what they take from a tree is bound by :func:`expr._generated`."""
    lines = []
    for n, stage_input in enumerate(_STAGE_INPUTS, 2):
        lines += [f"    z0 = z = {stage_input}", body, f"    k{n} = {value}"]
    return lines + [
        "    err = abs(h) * abs(k1 * E1 + k3 * E3 + k4 * E4 + k5 * E5 + k6 * E6 + k7 * E7)",
        "    return y_new, err, k7",
    ]


def _stepper(rhs: Callable[[complex], complex]):
    """The DP5(4) step for rhs: f inlined for a Field, one call per stage
    for any other callable."""
    if isinstance(rhs, Field):
        return rhs.step
    return _generated("step", ["y", "h", "k1"], _step_source("", "rhs(z)"), {"rhs": rhs}, _STEP_GLOBALS)


def _hermite(z0, d0, z1, d1, h, theta):
    t2 = theta * theta
    t3 = t2 * theta
    return (
        z0 * (2.0 * t3 - 3.0 * t2 + 1.0)
        + (d0 * h) * (t3 - 2.0 * t2 + theta)
        + z1 * (-2.0 * t3 + 3.0 * t2)
        + (d1 * h) * (t3 - t2)
    )


def _crossing_theta(g, z0, d0, z1, d1, h):
    """The theta in (0, 1] where g turns nonnegative along the step's
    cubic Hermite interpolant, bisected assuming g < 0 at theta = 0.

    The cubic is ``_hermite``'s, with the same operations in the same
    order, complex operands on the left: that skips a failed float
    multiplication, and IEEE products and sums commute bit for bit.  The
    halvings go on until the midpoint equals an end, so ``lo`` and ``hi``
    are adjacent doubles and theta is exact for every step fraction: at
    most 1074 tests of g, the last where ``hi`` is the least subnormal.
    """
    hd0, hd1 = d0 * h, d1 * h
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        t2 = mid * mid
        t3 = t2 * mid
        zm = (
            z0 * (2.0 * t3 - 3.0 * t2 + 1.0)
            + hd0 * (t3 - 2.0 * t2 + mid)
            + z1 * (-2.0 * t3 + 3.0 * t2)
            + hd1 * (t3 - t2)
        )
        if g(zm) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


class Event:
    """A zero crossing of g(z) watched by :func:`drive_field`.

    The event fires when g rises from negative to nonnegative across an
    accepted step.  An event whose g is nonnegative at the start
    therefore fires only after g has gone negative, unless
    ``start_below`` counts g as negative before the first step; if g is
    nonnegative at both ends of that step, the crossing is the start.  The
    crossing is located by bisection on the step's cubic Hermite
    interpolant, which takes g to be deterministic: the same point
    always gives the same value.  A terminal event then ends the run;
    any other records its crossing and is retired.

    :meth:`at_radius` builds the event of reaching a radius r, whose g
    is |z| - r; on each step :func:`drive_field` computes that value
    from the |z| it already holds, with the same bits as calling g.

    ``quiet``, when set, is a radius inside which g is negative: g(z) < 0
    wherever |z| < quiet, as the caller vouches (a wrong bound drops
    crossings).  :func:`drive_field` calls g at no accepted point inside
    that disk.  A radius event's quiet radius is r itself.
    """

    radius: Optional[float] = None  # set by at_radius
    quiet: Optional[float] = None  # set by at_radius, or by the caller who bounds g

    def __init__(self, g: Callable[[complex], float], terminal: bool = True, *, start_below: bool = False):
        self.g = g
        self.terminal = terminal
        self.start_below = start_below

    @classmethod
    def at_radius(cls, r: float, terminal: bool = True, *, start_below: bool = False) -> "Event":
        """The event of |z| reaching r."""
        ev = cls(lambda z: abs(z) - r, terminal, start_below=start_below)
        ev.radius = ev.quiet = r
        return ev

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
        u_conj = (f0 / abs(f0)).conjugate()
        # a closure, not a bound method: the event holds no reference to itself
        super().__init__(lambda z: ((z - z0) * u_conj).real)
        self.z0 = z0
        self.f0 = f0
        self.rhs = rhs
        self.tol = tol
        self.arm_dist = max(100.0 * tol, 1e-6 * (1.0 + abs(z0)))

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
    at_stops: tuple = field(default=(), init=False)  # (status, last sample) per stop given to drive_field


def drive_field(
    rhs: Callable[[complex], complex],
    z0: complex,
    cfg: IntegratorConfig,
    *,
    t0: float = 0.0,
    t_stop: float,
    events: Sequence[Event] = (),
    stops: Sequence[float] = (),
) -> OdeResult:
    """Advance dz/dt = rhs(z) adaptively until a stop condition.

    Stops at t_stop, when a terminal event fires (status "event"; it is
    the last entry of ``crossings`` and its crossing the last sample), or
    when the step size underflows the time resolution.  Events that fire
    in the same step are taken in the order given.  A :class:`Field` rhs
    is inlined into the step; any other callable is called once a stage.
    Its step-size clamps are comparisons that pick the same operand as
    ``min``/``max`` do: the first, unless a later one wins strictly.
    ``t0`` must be finite and ``t_stop`` not NaN; ``t_stop`` may be
    infinite.

    Each of ``stops`` must lie in (t0, t_stop].  The result's
    ``at_stops`` holds, in the given order, the ``(status, last sample)``
    of ``drive_field(..., t_stop=s)`` per stop: up to its first clamped
    step, a run to s makes the same attempts as this one, so at the first
    attempt whose step reaches past s the state goes on to s, and the
    samples it adds are dropped again.  A stop the run never reaches gets
    the run's own.

    A step that starts and ends below the smallest quiet radius watched
    (:attr:`Event.quiet`; -inf for an event without one) makes no event
    checks, and a start inside an event's quiet radius does not call its
    g: only the sign of the g kept from the last check is read, and every
    g skipped is negative.  The step that enters the disk is checked and
    keeps a negative g, so the run keeps every bit of one that checks each
    step; a crossing is bisected with g wherever its probes fall.

    A ``start_below`` event whose g is nonnegative at z0 and at the end
    of the first accepted step (a run that starts on or beyond its radius
    and stays there) is crossed at the start: its crossing is (event, t0,
    z0), and a terminal one ends the run on its one sample (t0, z0) with
    status "event".  A first step that overflows still ends the run in
    "overflow", and one that ends below g = 0 fires nothing.
    """
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0!r}")
    if math.isnan(t_stop):
        raise ValueError("t_stop must not be NaN")
    for s in stops:
        if not t0 < s <= t_stop:  # also rejects NaN
            raise ValueError(f"each stop must lie in (t0, t_stop], got {s!r}")
    z = complex(z0)
    k1 = rhs(z)
    size = abs(z)
    watch = [
        [ev, -math.inf if ev.start_below or ev.quiet is not None and size < ev.quiet else ev.g(z), ev.radius]
        for ev in events
    ]
    h = min(_H_MAX, max(t_stop - t0, 0.0) or 1.0, 0.01 * (1.0 + size) / max(abs(k1), 1e-12))
    done = {}
    res = _advance(
        _stepper(rhs), cfg, t0, z, k1, max(h, 1e-300), watch, [(t0, z)], [0.0], [], t_stop, _MAX_STEPS,
        sorted(set(stops), reverse=True), done,
    )
    res.at_stops = tuple(done.get(s) or (res.status, res.samples[-1]) for s in stops)
    return res


def _nearest_radius(watch) -> float:
    """The smallest quiet radius watched, -inf if an event has none; a
    step that starts and ends below it can fire no event."""
    return min((-math.inf if entry[0].quiet is None else entry[0].quiet for entry in watch), default=math.inf)


def _advance(step, cfg, t, z, k1, h, watch, samples, errors, crossings, t_stop, budget, pending, done):
    """The loop of :func:`drive_field` from the state t, z, k1, h and watch,
    extending the lists accepted so far, for at most ``budget`` attempts.
    Each stop s of ``pending``, smallest last, that the attempt's step
    reaches past gets ``done[s]``: the status and last sample of this loop
    run to s from the state.
    Stops lie at or before t_stop, so an attempt whose step reaches past
    neither the nearest stop nor t_stop skips both checks."""
    h_max, abs_tol, rel_tol, inf, size = _H_MAX, cfg.abs_tol, cfg.rel_tol, math.inf, abs(z)
    add_sample, add_error = samples.append, errors.append
    edge = pending[-1] if pending else t_stop
    nearest = _nearest_radius(watch)

    for n in range(budget):
        if t >= t_stop:
            break
        h = h_max if h_max < h else h
        if edge - t < h:
            while pending and pending[-1] - t < h:
                s = pending.pop()
                # the continuation extends this run's samples, which vetoes read, and is cut off again
                k = len(samples)
                end = _advance(step, cfg, t, z, k1, h, [list(e) for e in watch], samples, [], [], s, budget - n, [], done)
                done[s] = end.status, samples[-1]
                del samples[k:]
            edge = pending[-1] if pending else t_stop
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

        # a NaN |z| fails both tests and takes the full loop
        if not (size < nearest and size_new < nearest):
            for entry in watch:
                ev, g_old, r = entry
                g_new = entry[1] = ev.g(z_new) if r is None else size_new - r
                if not (g_old < 0.0 <= g_new) or ev.veto(samples, z_new):
                    continue
                # a start_below event on or beyond its g = 0 at the start is crossed there
                at_start = ev.start_below and len(samples) == 1 and ev.g(z) >= 0.0
                if at_start:
                    tc, zc = t, z
                else:
                    theta = _crossing_theta(ev.g, z, k1, z_new, k7, h)
                    tc, zc = t + theta * h, _hermite(z, k1, z_new, k7, h, theta)
                if ev.rejects(zc):
                    continue
                crossings.append((ev, tc, zc))
                if ev.terminal:
                    if not at_start:
                        # sample times stay strictly increasing
                        add_sample((max(tc, math.nextafter(t, math.inf)), zc))
                        add_error(err)
                    return OdeResult(samples, errors, crossings, "event")
                # retired; the loop goes on over the list it started with
                watch = [other for other in watch if other is not entry]
                nearest = _nearest_radius(watch)

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
    as FixedPointApproach (the trajectory is constant); where f is
    zero-free by its tree (:func:`_zero_free`), a value that underflows is
    no zero, and no run reads FixedPointApproach.  The return through
    the seed's cross-section (Periodic) is watched only where an orbit can
    close: for a holomorphic flow whose f may vanish (:func:`_may_close`).
    Evaluation overflow inside the right-hand side propagates to the
    caller, at the run's last accepted point when the point it names is
    not finite (a Dormand-Prince stage point past the double range).
    """
    cfg = cfg or IntegratorConfig()
    z0 = complex(z0)
    rhs = _rhs(spec)
    f0 = rhs(z0)
    zero_free = _zero_free(spec.func)
    if not zero_free and abs(f0) <= 1e-15 * (1.0 + abs(z0)):
        return Trajectory(spec, z0, ((0.0, z0),), (0.0,), FixedPointApproach(z0))

    # a seed on or beyond the radius whose first step stays there reaches it at t = 0
    radius = Event.at_radius(cfg.escape_radius, start_below=True)
    events = (radius, _SeedReturn(z0, f0, rhs, _PERIODIC_RETURN_TOL)) if _may_close(spec, zero_free) else (radius,)
    res = drive_field(rhs, z0, cfg, t_stop=cfg.t_max, events=events)
    if res.status == "overflow":
        exc = res.exception
        if not cmath.isfinite(exc.at):
            raise EvaluationOverflow(exc.node, at=res.samples[-1][1]) from exc
        raise exc

    if res.status == "event":
        t_end = res.samples[-1][0]
        term: Termination = ReachedRadius(t_end) if res.crossings[-1][0] is radius else Periodic(t_end)
    elif res.status == "underflow":
        term = StepUnderflow()
    else:  # t_stop
        fp = None if zero_free else _fixed_point_from_tail(res.samples, rhs)
        term = fp if fp is not None else TimeBudgetExhausted()
    return Trajectory(spec, z0, tuple(res.samples), tuple(res.errors), term)


def _may_close(spec: FlowSpec, zero_free: bool) -> bool:
    """Whether the flow can have a closed orbit.  A closed orbit of a plane
    vector field encloses a zero of it (index theory), so a holomorphic
    flow whose f is ``zero_free`` by its tree (:func:`_zero_free`) has none; along an
    antiholomorphic flow Re G rises at speed |g|^2, so it never returns.
    Nor does f = a z^n, a != 0, n >= 2: along a closed orbit of period T
    the integral of dz/f is T != 0, yet 1/(a z^n) has residue 0 at its
    only pole, so it integrates to 0 around any loop."""
    return spec.kind == HOLOMORPHIC and not zero_free and (_leaf_power(spec.func, Variable) or 0) < 2


def _zero_free(expr: FuncExpr) -> bool:
    """True when the tree has no zero: a nonzero constant times Exps."""
    return _leaf_power(expr, Exp) is not None


def _leaf_power(expr: FuncExpr, leaf: type) -> Optional[int]:
    """n when the tree is a Negate, IntPower, Mul or nonzero Scale of n factors
    of type ``leaf``, nonzero Constants and sums of two Constants (the
    parser's ``(a+bi)``): a nonzero constant times n leaves.  Else None."""
    n, stack = 0, [(expr, 1)]
    while stack:
        node, k = stack.pop()
        if isinstance(node, Mul):
            stack += ((node.left, k), (node.right, k))
        elif isinstance(node, (Negate, IntPower)) or isinstance(node, Scale) and node.factor != 0:
            stack.append((node.arg, k * node.power if isinstance(node, IntPower) else k))
        elif isinstance(node, leaf):
            n += k
        elif isinstance(node, Constant):
            if node.value == 0:
                return None
        elif isinstance(node, Add) and isinstance(node.left, Constant) and isinstance(node.right, Constant):
            if node.left.value + node.right.value == 0:
                return None
        else:
            return None
    return n


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


# ---------------------------------------------------------------------------
# blowup-time estimation and classification


@dataclass(frozen=True)
class BlowupEstimate:
    """Finite-escape-time estimate with an explicit evidence flag.

    ``conclusive`` False means no finite escape time was concluded
    (infinite-time evidence, named in ``note``); t_est / t_err are NaN in
    that case.
    """

    t_est: float
    t_err: float
    conclusive: bool
    # "ray" (holomorphic) | "w_chart" (antiholomorphic polynomial) | "dyadic" | "time_resolution" | "none"
    method: str
    exit_times: tuple
    note: str = ""


def _inconclusive(note, exit_times=()):
    return BlowupEstimate(math.nan, math.nan, False, "none", tuple(exit_times), note)


def blowup_time_estimate(traj: Trajectory, cfg: Optional[IntegratorConfig] = None) -> BlowupEstimate:
    """Estimate the finite escape time of an escaping trajectory.

    Holomorphic flows integrate dt = dz/f out to infinity along the tangent
    ray z + s u, u = f(z) / |f(z)|, s >= 0 (method "ray", past f's overflow
    by ``Field.reciprocal``), from the exit re-stepped onto the trajectory,
    for a polynomial continued past its zero-free radius.  Conjugate flows
    of a polynomial g integrate dX / |g|^2 along the level line to X = inf
    in its w = 1/z chart (method "w_chart").  A run that ends in
    StepUnderflow while |z| and |f| rise is timed as one that reached its
    radius, from its last sample, when its flow has one of these transits.
    Degree <= 1 is inconclusive: every solution is global.  Where no
    transit can be formed (:class:`_NoTransit`), a polynomial's run that
    reached its radius falls back on the dyadic rule and any other run is
    inconclusive.  Any other g: continue from the radius R through dyadic
    radii 2R, 4R, ... and accept a finite limit only when the exit-time
    increments decay geometrically (ratio <= 0.75), with the transits'
    step term in its bar.

    The estimate is kept on ``traj`` with ``cfg``: a call with an equal
    config returns it, another config replaces it, a raise keeps nothing.
    """
    cfg = cfg or IntegratorConfig()
    return _kept(traj, "_estimate", cfg, lambda: _estimate(traj, cfg))


def _estimate(traj, cfg) -> BlowupEstimate:
    rhs = _rhs(traj.spec)
    reached = isinstance(traj.termination, ReachedRadius)
    if not (reached or _underflow_escape(traj, rhs)):
        return _inconclusive("not an escape candidate")
    exit_times = ((abs(traj.z_end), traj.t_end),) if reached else ()
    antiholo = traj.spec.kind == ANTIHOLOMORPHIC
    coeffs = poly_coeffs(traj.spec.func)
    if coeffs is None and antiholo:
        # no level chart: only the dyadic rule, which starts from a radius crossing
        return _dyadic_estimate(rhs, traj, cfg) if reached else _inconclusive("not an escape candidate")
    if coeffs is not None and len(coeffs) < 3:  # z' = a z + b or its conjugate: a linear system, every solution global
        return _inconclusive("degree < 2: no finite escape", exit_times)
    # beyond r_safe, twice the Cauchy bound 1 + max |c_k / c_n| on the roots,
    # no zero lies between the trajectory's tail and the transit's path; a
    # monomial a z^n needs none: 1/f has residue 0 at its one pole, so t* does
    # not depend on the path, and its level chart's Q is constant
    r_safe = 2.0 * (1.0 + max(abs(c / coeffs[-1]) for c in coeffs[:-1])) if coeffs and any(coeffs[:-1]) else 0.0
    try:
        start = _transit_start(rhs, traj, cfg, r_safe)
        if antiholo:
            reverse = traj.spec.time_direction == REVERSED
            return _level_chart_estimate([-c for c in coeffs] if reverse else coeffs, start, exit_times, cfg)
        return _ray_estimate(rhs, start, exit_times, cfg)
    except _NoTransit as exc:
        # the dyadic rule keeps the z^2 near-miss verdict that the benchmark's smoke run pins
        return _dyadic_estimate(rhs, traj, cfg) if coeffs and reached else _inconclusive(str(exc), exit_times)


def _underflow_escape(traj, rhs) -> bool:
    """Whether a run ended in StepUnderflow with |z| and |f| rising over its last two samples."""
    if not isinstance(traj.termination, StepUnderflow) or len(traj) < 2:
        return False
    (_, za), (_, zb) = traj.samples[-2:]
    return abs(za) < abs(zb) and abs(rhs(za)) < abs(rhs(zb))


class _NoTransit(Exception):
    """No transit time: a continuation short of r_safe, a level-chart node that
    Newton misses, or a t* that is not a real forward time; the message is a note."""


def _transit_estimate(method, integrand, point, start, exit_times, cfg) -> BlowupEstimate:
    """The estimate t + Re t_rem, ``start`` = (t, z, steps), t_rem the
    integral over [0, 1) of ``integrand``, dt from z out to infinity.  A
    quadrature that does not converge (its note names ``point(x)``, the
    plane point or X) and an integrand without a value are inconclusive; a
    t_rem that is not positive and real, which means a path not homotopic
    to the trajectory's tail, raises _NoTransit.  The bar is the residue
    plus the quadrature tolerance plus rel_tol (1 + T) per accepted step:
    on closed forms (a z^n, n = 2..5, exponentials, rel_tol 1e-12 to 1e-3)
    the error stayed below 0.017 of it, on conjugate flows of z^n below 0.1."""
    t_far, _, steps = start
    where = "ray" if method == "ray" else "level-chart"
    try:
        t_rem = gauss_kronrod(integrand, 0.0, 1.0, 1e-14)
    except QuadratureDiverged as exc:
        why = f"integrand appears divergent near {point(exc.witness)!r}"
        return _inconclusive(f"{where} quadrature did not converge ({why})", exit_times)
    except ZeroDivisionError as exc:
        return _inconclusive(f"{where} quadrature did not converge ({exc})", exit_times)
    except (EvaluationOverflow, OverflowError) as exc:
        return _inconclusive(f"1/f has no value on the {where} ({exc})", exit_times)
    t_est = t_far + t_rem.real
    if t_rem.real <= 0 or abs(t_rem.imag) > max(1e-8 * (1.0 + abs(t_est)), 4.0 * _EPS * abs(t_far)):
        im, re = t_rem.imag, t_rem.real
        raise _NoTransit(f"{where} transit not a real forward time: Im t* = {im:.6g}, Re t* - t_exit = {re:.6g}")
    t_err = abs(t_rem.imag) + 1e-14 * (1.0 + abs(t_far)) + cfg.rel_tol * steps * (1.0 + abs(t_est))
    return BlowupEstimate(t_est, t_err, True, method, exit_times)


def _exit_point(rhs, samples):
    """The last sample of a run as a point on the trajectory: a radius event
    places it on the crossing step's cubic Hermite interpolant, off by about
    h^4 where the step is off by h^5, so one Dormand-Prince step from the
    sample before gives its z.  A lone sample (a run that started on its
    radius), and one whose step overflows, are returned as they are."""
    if len(samples) < 2:
        return samples[-1]
    (t, z), (t_exit, _) = samples[-2], samples[-1]
    try:
        return t_exit, _stepper(rhs)(z, t_exit - t, rhs(z))[0]
    except EvaluationOverflow:
        return samples[-1]


def _transit_start(rhs, traj, cfg, r_safe=0.0):
    """Where a transit starts, as (t, z, steps): the exit re-stepped onto the
    trajectory (``_exit_point``), continued out to ``r_safe`` when it lies
    inside; ``steps`` counts the accepted steps of the run and of that
    continuation.  Raises _NoTransit when that ends short of r_safe."""
    t_far, z_far = _exit_point(rhs, traj.samples)
    steps = len(traj) - 1
    if abs(z_far) < r_safe:
        res = drive_field(rhs, z_far, cfg, t0=t_far, t_stop=t_far + cfg.t_max, events=(Event.at_radius(r_safe),))
        if res.status != "event":
            raise _NoTransit(f"continuation ended short of radius {r_safe:g}")
        t_far, z_far = _exit_point(rhs, res.samples)
        steps += len(res.samples) - 1
    return t_far, z_far, steps


def _ray_estimate(rhs, start, exit_times, cfg) -> BlowupEstimate:
    """The transit from ``start`` = (t, z, steps) along the tangent ray z + s u,
    u = rhs(z) / |rhs(z)|, s = |z| x / (1 - x) for x in [0, 1).  Where f
    overflows on the ray, 1/f is ``rhs.reciprocal``.  Inconclusive where f
    underflows to 0 at z, which gives the ray no direction."""
    _, z_far, _ = start
    f_far = rhs(z_far)
    if f_far == 0:
        return _inconclusive("f underflows to 0 at the ray's start", exit_times)
    ru = f_far * (abs(z_far) / abs(f_far))

    def integrand(x):
        y = 1.0 - x
        z = z_far + ru * (x / y)
        try:
            return ru / (y * y * rhs(z))
        except EvaluationOverflow:
            return ru * rhs.reciprocal(z) / (y * y)

    return _transit_estimate("ray", integrand, lambda x: z_far + ru * (x / (1.0 - x)), start, exit_times, cfg)


def _level_chart_estimate(coeffs, start, exit_times, cfg) -> BlowupEstimate:
    """The transit from ``start`` = (t, z, steps) of an antiholomorphic flow
    z' = conj(g(z)), g the polynomial of ``coeffs`` (degree n >= 2,
    m = n + 1), in the w = 1/z chart of its level line.  W = G(z), G' = g,
    G(0) = 0, runs along Im W = const at speed |g|^2, so the time left is
    the integral of dX / |g|^2, X = Re W, from the exit out to infinity.  With
    L = |W_exit|, C = W_exit - L and s = 1 - x for x in [0, 1),
    X = X_exit + L (s^-m - 1) and z = 1 / (nu s), where nu solves
    nu^m (L + C s^m) = Q(nu s), Q(w) = w^m G(1/w); then
    dt/dx = m L |nu|^2n s^(n-2) / |q(nu s)|^2, q(w) = w^n g(1/w), smooth
    on [0, 1].  Raises _NoTransit when Newton misses a node's root."""
    _, z_far, _ = start
    n = len(coeffs) - 1
    m = n + 1
    big_g = [c / (k + 1) for k, c in enumerate(coeffs)]  # big_g[k] multiplies z^(k+1) in G
    big_w = 0j
    for b in reversed(big_g):
        big_w = big_w * z_far + b
    big_w *= z_far
    l_exit = abs(big_w)
    c_exit = big_w - l_exit
    nu_exit = 1.0 / z_far

    def integrand(x):
        s = 1.0 - x
        nu = _chart_root(big_g, m, l_exit, c_exit, nu_exit, s)
        if nu is None:
            raise _NoTransit("Newton missed a level-chart node")
        w = nu * s
        q = 0j
        for c in coeffs:
            q = q * w + c
        return m * l_exit * abs(nu) ** (2 * n) * s ** (n - 2) / abs(q) ** 2

    def chart(x):  # the X of x, inf where (1 - x)^m underflows
        return big_w.real + l_exit * (1.0 / ((1.0 - x) ** m or 5e-324) - 1.0)

    return _transit_estimate("w_chart", integrand, chart, start, exit_times, cfg)


def _chart_root(big_g, m, l_exit, c_exit, nu_exit, s) -> Optional[complex]:
    """The root nu of nu^m (L + C s^m) = Q(nu s), Q(w) the polynomial
    sum of big_g[k] w^(m-1-k), by Newton from nu_exit ((L + C) / (L + C s^m))^(1/m),
    exact when Q is constant.  A step below 1e-9 |nu| ends the iteration:
    Newton's error after it is of the order of its square, and rounding
    keeps later steps near the double resolution, so the test is met
    whatever the last bits do.  None when no step is that small within
    ``_CHART_NEWTON_MAX`` steps, when a division by zero stops it, or when
    nu lies farther from the guess than half the spacing between the
    m-th roots, |nu| sin(pi / m): then it may be another root's."""
    try:
        a = l_exit + c_exit * s**m
        nu = guess = nu_exit * ((l_exit + c_exit) / a) ** (1.0 / m)
        for _ in range(_CHART_NEWTON_MAX):
            w = nu * s
            p = dp = 0j
            for b in big_g:
                dp = dp * w + p
                p = p * w + b
            pw = nu ** (m - 1)
            step = (pw * nu * a - p) / (m * pw * a - s * dp)
            nu -= step
            if abs(step) <= 1e-9 * abs(nu):
                return nu if abs(nu - guess) <= abs(nu) * math.sin(math.pi / m) else None
    except ZeroDivisionError:
        pass
    return None


def _dyadic_estimate(rhs, traj, cfg) -> BlowupEstimate:
    """Exit times through the dyadic radii 2R, 4R, 8R past the exit at R,
    extrapolated geometrically.  Each bar adds rel_tol (1 + T) for each
    accepted step of the run and of its continuation, as the transits'
    bars do."""
    t_exit, z_exit = traj.samples[-1]
    r0 = abs(z_exit)
    radii = [r0 * 2.0**k for k in range(1, _DYADIC_WINDOW)]
    marks = [Event.at_radius(r, terminal=r == radii[-1]) for r in radii]
    res = drive_field(rhs, z_exit, cfg, t0=t_exit, t_stop=t_exit + cfg.t_max, events=marks)
    # radii are crossed in ascending order, the outermost ending the run
    times = [(r0, t_exit)] + [(r, t) for r, (_, t, _) in zip(radii, res.crossings)]
    steps = len(traj) + len(res.samples) - 2

    def estimate(t_est, t_err, method):
        return BlowupEstimate(t_est, t_err + cfg.rel_tol * steps * (1.0 + abs(t_est)), True, method, tuple(times))

    if len(times) < 3:
        # genuine blowups can exhaust the time resolution of doubles
        # before crossing the next dyadic radius
        if res.status == "underflow":
            t_end, z_end = res.samples[-1]
            speed = abs(rhs(z_end)) if cmath.isfinite(z_end) else math.inf
            if speed * max(_EPS * abs(t_end), sys.float_info.min) * 1e3 >= 1.0:
                return estimate(t_end, 1e3 * _EPS * (1.0 + abs(t_end)), "time_resolution")
        return _inconclusive("too few dyadic exit times", times)

    ts = [t for _, t in times]
    deltas = [b - a for a, b in zip(ts, ts[1:])]
    positive = [d for d in deltas if d > 0.0]
    if len(positive) < len(deltas):
        # trailing increments collapsed to zero: the exit times agree to
        # the last representable digit
        t_est = ts[-1]
        t_err = max(1e3 * _EPS * (1.0 + abs(t_est)), min(positive) if positive else 0.0)
        return estimate(t_est, t_err, "time_resolution")
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
    return estimate(t_est, t_err, "dyadic")


def classify(traj: Trajectory, cfg: Optional[IntegratorConfig] = None) -> Termination:
    """Refine a trajectory's termination.

    ReachedRadius and StepUnderflow upgrade to FiniteTimeBlowup exactly
    when the estimate of :func:`blowup_time_estimate`, the one kept on traj
    for an equal cfg if any, is conclusive; other terminations pass through
    unchanged.
    Classification is total: it never raises for a well-formed trajectory.
    """
    term = traj.termination
    if isinstance(term, (ReachedRadius, StepUnderflow)):
        try:
            est = blowup_time_estimate(traj, cfg)
        except PlaneflowError:
            return term
        if est.conclusive:
            return FiniteTimeBlowup(est.t_est, est.t_err)
    return term


# ---------------------------------------------------------------------------
# flow invariants


def conformal_clock_residual(traj: Trajectory) -> float:
    """Worst deviation of the quadrature clock from integration time.

    Along a holomorphic-flow trajectory the primitive of 1/f advances
    exactly like time, so the line integral of dz/f accumulated over the
    sampled path should reproduce t - t0 (f is the run's Field: -f for a
    reversed run).  Panels are straight chords between consecutive
    samples (1/f is analytic nearby, so chords are exact up to quadrature
    error).  A vanishing f inside a panel makes
    the clock meaningless; that, and a panel whose quadrature does not
    converge, is reported as an infinite residual.
    """
    if traj.spec.kind != HOLOMORPHIC:
        raise ValueError("conformal clock applies to holomorphic flows only")
    rhs = _rhs(traj.spec)
    samples = traj.samples
    if len(samples) < 2:
        return 0.0
    t0 = samples[0][0]
    acc = 0j
    worst = 0.0
    for (ta, za), (tb, zb) in zip(samples, samples[1:]):
        dz = zb - za
        try:
            seg = gauss_kronrod(lambda s: 1.0 / rhs(za + s * dz), 0.0, 1.0, _CLOCK_QUAD_TOL)
        except (ZeroDivisionError, QuadratureDiverged):
            return math.inf
        acc += seg * dz
        worst = max(worst, abs(acc - (tb - t0)))
    return worst


@dataclass(frozen=True)
class AntiholoInvariants:
    im_drift: float
    monotone: bool


def antiholo_invariants(traj: Trajectory) -> AntiholoInvariants:
    """Check the conserved quantities of an antiholomorphic run: Im G is
    constant along trajectories and Re G increases (decreases in reversed
    time) from sample to sample."""
    if traj.spec.kind != ANTIHOLOMORPHIC:
        raise ValueError("antiholomorphic invariants need an antiholomorphic trajectory")
    big_ge = compile_fn(antiderivative(traj.spec.func))
    sign = -1.0 if traj.spec.time_direction == REVERSED else 1.0
    vs = [big_ge(z) for _, z in traj.samples]
    im_drift = max(abs(v.imag - vs[0].imag) for v in vs)
    monotone = all(sign * (vb.real - va.real) > 0.0 for va, vb in zip(vs, vs[1:]))
    return AntiholoInvariants(im_drift, monotone)
