import cmath
import gc
import math
import pickle
import random
import re
import sys
import weakref

import pytest

from planeflow import expr as expr_module
from planeflow import flow as flow_module
from planeflow.errors import EvaluationOverflow, PlaneflowError
from planeflow.expr import (
    Add, Constant, Exp, IntPower, Mul, Negate, Scale, Variable, compile_fn, is_constant, parse_expr,
)
from planeflow.flow import (
    ANTIHOLOMORPHIC,
    FORWARD,
    HOLOMORPHIC,
    REVERSED,
    Event,
    Field,
    FiniteTimeBlowup,
    FixedPointApproach,
    FlowSpec,
    IntegratorConfig,
    Periodic,
    ReachedRadius,
    TimeBudgetExhausted,
    antiholo_invariants,
    blowup_time_estimate,
    classify,
    conformal_clock_residual,
    drive_field,
    integrate,
)
from planeflow.quadrature import QuadratureDiverged, gauss_kronrod

from conftest import random_expr, tame_random_expr


def holo(text, direction="forward"):
    return FlowSpec(HOLOMORPHIC, parse_expr(text), direction)


def anti(text, direction="forward"):
    return FlowSpec(ANTIHOLOMORPHIC, parse_expr(text), direction)


class TestFlowSpecValidation:
    def test_constant_rhs_rejected(self):
        with pytest.raises(ValueError):
            FlowSpec(HOLOMORPHIC, parse_expr("3 + 1"))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            FlowSpec("elliptic", parse_expr("z"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=1e-16)
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=-1.0)

    @pytest.mark.parametrize(
        "name, value",
        [pytest.param(n, math.nan, id=n) for n in ("rel_tol", "escape_radius", "t_max")]
        # an infinite tolerance accepts every step
        + [pytest.param("rel_tol", math.inf, id="rel_tol-inf")],
    )
    def test_nan_rejected(self, name, value):
        with pytest.raises(ValueError):
            IntegratorConfig(**{name: value})

    def test_infinite_budgets_still_accepted(self):
        cfg = IntegratorConfig(t_max=math.inf, escape_radius=math.inf)
        assert cfg.t_max == math.inf


class TestIntegrate:
    def test_linear_flow_exponential(self):
        traj = integrate(holo("z"), 1.0, IntegratorConfig(t_max=1.0))
        assert isinstance(traj.termination, TimeBudgetExhausted)
        assert abs(traj.z_end - math.e) <= 1e-8

    def test_exponential_closed_form(self):
        # z(t) = log(1 - t) for dz/dt = -exp(-z) from 0
        traj = integrate(holo("-exp(-z)"), 0.0, IntegratorConfig(t_max=0.5))
        assert abs(traj.z_end - math.log(0.5)) <= 1e-6

    def test_quadratic_spiral_to_fixed_point(self):
        cfg = IntegratorConfig(t_max=4e6)
        traj = integrate(holo("z^2"), 1j, cfg)
        assert isinstance(traj.termination, FixedPointApproach)
        assert abs(traj.termination.z_star) <= 1e-5
        # the approach consumed the whole budget: zeros are infinitely far
        assert traj.t_end == pytest.approx(cfg.t_max)

    def test_seed_on_zero_returns_immediately(self):
        # exp(-z) + 1 vanishes at z = i*pi
        traj = integrate(anti("exp(-z) + 1"), complex(0.0, math.pi))
        assert isinstance(traj.termination, FixedPointApproach)
        assert len(traj) == 1

    def test_time_strictly_increasing_and_errors_bounded(self):
        cfg = IntegratorConfig()
        traj = integrate(holo("z^2 - 1"), 0.3 + 0.2j, IntegratorConfig(t_max=3.0))
        ts = [t for t, _ in traj.samples]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        for (t, z), err in zip(traj.samples, traj.errors):
            assert err <= cfg.abs_tol + cfg.rel_tol * max(1.0, abs(z)) * 1.0000001

    def test_overflow_at_seed_propagates(self):
        with pytest.raises(EvaluationOverflow):
            integrate(holo("exp(z^2)"), 30.0, IntegratorConfig())

    def test_seed_outside_radius_has_reached_it(self):
        # 1/z = 1/20 - t: blowup at T = 0.05, and the seed is already outside
        cfg = IntegratorConfig(escape_radius=10.0)
        traj = integrate(holo("z^2"), 20.0, cfg)
        assert isinstance(traj.termination, ReachedRadius)
        assert traj.termination.t_exit <= 1e-12
        term = classify(traj, cfg)
        assert isinstance(term, FiniteTimeBlowup)
        assert abs(term.t_est - 0.05) <= 1e-12

    def test_doubly_exponential_blowup_underflows_steps(self):
        # exp(z^2) reaches speeds beyond the time resolution of doubles
        # almost immediately; that is a termination, not a failure
        cfg = IntegratorConfig(escape_radius=1e4, t_max=10.0)
        traj = integrate(holo("exp(z^2)"), 1.0, cfg)
        assert traj.termination.name == "StepUnderflow"

    @pytest.mark.parametrize("z0", [complex(1e308, 1e308), complex(1e308, 0.0)])
    def test_overflowing_first_step_reported_at_the_seed(self, z0):
        # the first step's stage sums overflow, and the run names the NaN
        # stage point after them; integrate names the last accepted point
        res = drive_field(Field(parse_expr("z")), z0, IntegratorConfig(), t_stop=100.0)
        assert res.status == "overflow" and cmath.isnan(res.exception.at)
        with pytest.raises(EvaluationOverflow) as err:
            integrate(holo("z"), z0)
        assert err.value.node == Variable() and repr(err.value.at) == repr(z0)
        assert "nan" not in str(err.value)

    def test_finite_overflow_point_propagates_as_it_is(self):
        # exp overflows at a finite stage point past the last accepted one
        cfg = IntegratorConfig(rel_tol=1e-4, escape_radius=math.inf, t_max=2.0)
        with pytest.raises(EvaluationOverflow) as err:
            integrate(holo("exp(z)"), 0.0, cfg)
        res = drive_field(Field(parse_expr("exp(z)")), 0j, cfg, t_stop=2.0, events=(Event.at_radius(math.inf),))
        assert repr(err.value.at) == repr(res.exception.at) and cmath.isfinite(err.value.at)
        assert err.value.at != res.samples[-1][1]


def _zero_free_or_antiholo_specs(rng, n):
    """Seeded flows with no closed orbit: zero-free wrappings of random
    trees (exponent damped as conftest.random_expr damps its own) and
    antiholomorphic flows of random trees, in either time direction."""
    points = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]

    def damped_exp():
        c = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        return Exp(Scale(c, tame_random_expr(rng, points, depth=rng.randint(1, 3))))

    specs = []
    while len(specs) < n:
        shape = rng.choice(("scale", "product", "negate", "power", "anti"))
        if shape == "scale":
            kind, tree = HOLOMORPHIC, Scale(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), damped_exp())
        elif shape == "product":
            kind, tree = HOLOMORPHIC, Mul(Scale(rng.choice((1j, -1.5)), damped_exp()), damped_exp())
        elif shape == "negate":
            kind, tree = HOLOMORPHIC, Negate(damped_exp())
        elif shape == "power":
            kind, tree = HOLOMORPHIC, IntPower(damped_exp(), rng.randint(1, 3))
        else:
            kind, tree = ANTIHOLOMORPHIC, tame_random_expr(rng, points, depth=rng.randint(1, 4))
        if is_constant(tree):
            continue
        spec = FlowSpec(kind, tree, rng.choice((FORWARD, REVERSED)))
        z0 = rng.choice(points)
        if abs(flow_module._rhs(spec)(z0)) <= 1e-6:  # too near a fixed point for a seed direction
            continue
        specs.append((spec, z0))
    return specs


def _monomial_specs(rng, n):
    """Seeded flows of a z^k, k >= 2, in the tree forms the parser makes,
    in either time direction, seeded off the origin."""
    specs = []
    for _ in range(n):
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        power = IntPower(Variable(), rng.randint(2, 5))
        tree = rng.choice((power, Mul(Constant(c), power), Scale(c, power), Negate(power)))
        z0 = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        specs.append((FlowSpec(HOLOMORPHIC, tree, rng.choice((FORWARD, REVERSED))), z0))
    return specs


def _same_runs_as_watching_the_return(rng, specs):
    """Check that integrate's run of each (spec, z0) with no closed orbit,
    under a seeded config, is the run that also watches the seed's return;
    return the terminations' names."""
    names = set()
    for spec, z0 in specs:
        assert not flow_module._may_close(spec)
        cfg = IntegratorConfig(rel_tol=rng.choice((1e-10, 1e-6)), escape_radius=rng.choice((3.0, 10.0)),
                               t_max=rng.uniform(1.0, 5.0))
        want = _watching_return_outcome(spec, z0, cfg)
        assert _integrate_outcome(spec, z0, cfg) == want, (spec, z0, cfg)
        names.add(want[0])
    return names


def _integrate_outcome(spec, z0, cfg):
    """(termination name, repr of integrate's samples, errors and
    termination), or ("overflow", repr of the node it raised at)."""
    try:
        traj = integrate(spec, z0, cfg)
    except EvaluationOverflow as exc:
        return "overflow", repr(exc.node)
    return traj.termination.name, repr((traj.samples, traj.errors, traj.termination))


def _watching_return_outcome(spec, z0, cfg):
    """_integrate_outcome of a run that also watches the seed's return: one
    drive_field run with the radius and the return, as integrate made it
    for every flow."""
    rhs = flow_module._rhs(spec)
    events = _integrate_events(rhs, z0, cfg.escape_radius)
    res = drive_field(rhs, z0, cfg, t_stop=cfg.t_max, events=events)
    if res.status == "overflow":
        return "overflow", repr(res.exception.node)
    t_end = res.samples[-1][0]
    if res.status == "event":
        term = ReachedRadius(t_end) if res.crossings[-1][0] is events[0] else Periodic(t_end)
    elif res.status == "underflow":
        term = flow_module.StepUnderflow()
    else:
        term = flow_module._fixed_point_from_tail(res.samples, rhs) or TimeBudgetExhausted()
    return term.name, repr((tuple(res.samples), tuple(res.errors), term))


class TestClosedOrbitWatch:
    @pytest.mark.parametrize("kind, text, direction, may_close", [
        (ANTIHOLOMORPHIC, "z^2", FORWARD, False),
        (ANTIHOLOMORPHIC, "z^2", REVERSED, False),
        (ANTIHOLOMORPHIC, "exp(-z) + 1", FORWARD, False),
        (ANTIHOLOMORPHIC, "exp(-z) + 1", REVERSED, False),
        (HOLOMORPHIC, "-exp(-z)", FORWARD, False),
        (HOLOMORPHIC, "-exp(-z)", REVERSED, False),
        (HOLOMORPHIC, "0.5*exp(z)^2", FORWARD, False),
        (HOLOMORPHIC, "(2-1i)*exp(z^2)*exp(-z)", FORWARD, False),
        (HOLOMORPHIC, "exp(z)/3", FORWARD, False),
        (HOLOMORPHIC, "z", FORWARD, True),
        (HOLOMORPHIC, "z", REVERSED, True),
        (HOLOMORPHIC, "i*z", FORWARD, True),
        (HOLOMORPHIC, "z^2 - 1", FORWARD, True),
        (HOLOMORPHIC, "exp(z) - 1", FORWARD, True),
        (HOLOMORPHIC, "z*exp(z)", FORWARD, True),
        (HOLOMORPHIC, "z^2", FORWARD, False),
        (HOLOMORPHIC, "z^2", REVERSED, False),
        (HOLOMORPHIC, "3*z^5", FORWARD, False),
        (HOLOMORPHIC, "(1+2i)*z^5", REVERSED, False),
        (HOLOMORPHIC, "z^2/3", FORWARD, False),
        (HOLOMORPHIC, "z^2/3", REVERSED, False),
        (HOLOMORPHIC, "-z^3", FORWARD, False),
        (HOLOMORPHIC, "-z^3", REVERSED, False),
        (HOLOMORPHIC, "z*z", FORWARD, False),
        (HOLOMORPHIC, "(2*z)^3 * (-0.25)", REVERSED, False),
        (HOLOMORPHIC, "(0.5i)*z", FORWARD, True),
        (HOLOMORPHIC, "z^2 + 1", FORWARD, True),
        (HOLOMORPHIC, "z^2 + z", FORWARD, True),
        (HOLOMORPHIC, "(z+1)^2", FORWARD, True),
    ])
    def test_may_close_table(self, kind, text, direction, may_close):
        assert flow_module._may_close(FlowSpec(kind, parse_expr(text), direction)) is may_close

    def test_zero_parts_may_vanish(self):
        exp_z = Exp(Variable())
        for tree in (
            Mul(Constant(0.0), exp_z),
            Scale(0.0, exp_z),
            Add(Constant(1.0), Constant(-1.0)),
            Add(exp_z, exp_z),
            IntPower(Variable(), 0),
            Negate(Mul(exp_z, Variable())),
        ):
            assert not flow_module._zero_free(tree), tree
        for tree in (Constant(2.0), Add(Constant(1.0), Constant(1j)), IntPower(exp_z, 0), Scale(1j, Negate(exp_z))):
            assert flow_module._zero_free(tree), tree

    def test_monomial_degree_by_parts(self):
        z = Variable()
        for tree, n in (
            (Scale(2j, IntPower(z, 3)), 3),
            (Negate(Mul(z, z)), 2),
            (Mul(IntPower(Mul(Constant(2.0), z), 2), IntPower(z, 3)), 5),
            (Mul(IntPower(z, 0), z), 1),
            (Mul(Add(Constant(1.0), Constant(1j)), z), 1),
            (Mul(Constant(0.0), IntPower(z, 2)), None),
            (Scale(0.0, IntPower(z, 3)), None),
            (Mul(Add(Constant(1.0), Constant(-1.0)), IntPower(z, 2)), None),
            (Mul(Exp(z), IntPower(z, 2)), None),
            (IntPower(Add(z, z), 2), None),
        ):
            assert flow_module._leaf_power(tree, Variable) == n, tree

    def test_one_seed_return_only_where_an_orbit_can_close(self, monkeypatch):
        built = []

        class Counted(flow_module._SeedReturn):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(flow_module, "_SeedReturn", Counted)
        cfg = IntegratorConfig(t_max=2.0)
        for spec, z0, watched in (
            (holo("i*z"), 1.0, 1),
            (holo("z^2 - 1", REVERSED), 0.5j, 1),
            (holo("3*z^5", REVERSED), 0.5j, 0),
            (holo("-exp(-z)"), 0.0, 0),
            (holo("exp(z)/3", REVERSED), 0.2j, 0),
            (anti("z^2"), 1 + 1j, 0),
            (anti("exp(-z) + 1", REVERSED), complex(-1.0, 3.0), 0),
        ):
            built.clear()
            integrate(spec, z0, cfg)
            assert len(built) == watched, spec

    def test_same_run_as_watching_the_return(self):
        rng = random.Random(20261020)
        names = _same_runs_as_watching_the_return(rng, _zero_free_or_antiholo_specs(rng, 40))
        assert {"ReachedRadius", "TimeBudgetExhausted"} <= names

    def test_monomial_same_run_as_watching_the_return(self):
        rng = random.Random(20261019)
        names = _same_runs_as_watching_the_return(rng, _monomial_specs(rng, 20))
        assert {"ReachedRadius", "TimeBudgetExhausted"} <= names

    def test_seed_return_is_freed_without_the_cycle_collector(self):
        rhs = Field(parse_expr("i*z"))
        event = flow_module._SeedReturn(1 + 0j, rhs(1 + 0j), rhs, flow_module._PERIODIC_RETURN_TOL)
        ref = weakref.ref(event)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del event
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestClassify:
    def test_quadratic_blowup_from_one(self):
        cfg = IntegratorConfig(escape_radius=100.0)
        traj = integrate(holo("z^2"), 1.0, cfg)
        term = classify(traj, cfg)
        assert isinstance(term, FiniteTimeBlowup)
        assert abs(term.t_est - 1.0) <= 1e-4

    def test_rotation_is_periodic(self):
        traj = integrate(holo("i*z"), 1.0)
        term = classify(traj)
        assert isinstance(term, Periodic)
        assert abs(term.period - 2 * math.pi) <= 1e-4

    def test_linear_growth_stays_reached_radius(self):
        cfg = IntegratorConfig(escape_radius=10.0)
        traj = integrate(holo("z"), 1.0, cfg)
        assert abs(traj.t_end - math.log(10.0)) <= 1e-6
        term = classify(traj, cfg)
        assert isinstance(term, ReachedRadius)

    def test_classification_is_total_on_budget_exhaustion(self):
        traj = integrate(anti("z"), -1.0, IntegratorConfig(t_max=1.0, escape_radius=1e6))
        assert classify(traj).name in ("TimeBudgetExhausted", "FixedPointApproach")


class TestBlowupEstimate:
    def test_quadratic_from_two(self):
        cfg = IntegratorConfig(escape_radius=100.0)
        est = blowup_time_estimate(integrate(holo("z^2"), 2.0, cfg), cfg)
        assert est.conclusive and est.method == "ray"
        assert abs(est.t_est - 0.5) <= 1e-4

    def test_cubic_quarter_time(self):
        # dz/dt = z^3: 1/z^2 = 1/z0^2 - 2t, so T = 1/(2 z0^2)
        cfg = IntegratorConfig(escape_radius=100.0)
        est = blowup_time_estimate(integrate(holo("z^3"), 1.0, cfg), cfg)
        assert est.conclusive
        assert abs(est.t_est - 0.5) <= 1e-6

    def test_transcendental_dyadic(self):
        est = blowup_time_estimate(integrate(holo("-exp(-z)"), 0.0))
        assert est.conclusive
        assert abs(est.t_est - 1.0) <= 1e-4

    def test_linear_inconclusive(self):
        est = blowup_time_estimate(integrate(holo("z"), 1.0))
        assert not est.conclusive
        assert math.isnan(est.t_est)
        assert est.note == "degree < 2: no finite escape"

    def test_slow_transcendental_escape_inconclusive(self, monkeypatch):
        # f ~ z on the negative axis: dz/f diverges logarithmically along the
        # ray, and the quadrature gives up where its nodes round onto x = 1,
        # before s = x / (1 - x) divides by zero there
        traj = integrate(holo("z + 0.001*exp(z)"), -1.0)
        xs = []
        kronrod = flow_module.gauss_kronrod
        monkeypatch.setattr(flow_module, "gauss_kronrod", lambda fn, *a: kronrod(lambda x: xs.append(x) or fn(x), *a))
        est = blowup_time_estimate(traj)
        assert not est.conclusive and est.method == "none"
        assert est.note.startswith("ray quadrature did not converge (integrand appears divergent near")
        assert len(xs) < 2000 and max(xs) < 1.0

    def test_non_escaping_inconclusive(self):
        est = blowup_time_estimate(integrate(holo("i*z"), 1.0))
        assert not est.conclusive

    def test_quadratic_near_miss_not_blowup(self):
        # a seed just off the escape ray exits the radius but re-enters;
        # the estimate must reject it
        cfg = IntegratorConfig(escape_radius=50.0, t_max=400.0)
        traj = integrate(holo("z^2"), 1.0 / (0.015 + 0.012j), cfg)
        assert isinstance(traj.termination, ReachedRadius)
        est = blowup_time_estimate(traj, cfg)
        assert not est.conclusive

    def test_reversed_direction_polynomial(self):
        # reversed flow of -z^2 is the forward flow of z^2
        cfg = IntegratorConfig(escape_radius=100.0)
        traj = integrate(holo("-(z^2)", REVERSED), 1.0, cfg)
        est = blowup_time_estimate(traj, cfg)
        assert est.conclusive
        assert abs(est.t_est - 1.0) <= 1e-4

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-6, 1e-3])
    @pytest.mark.parametrize(
        "spec, z0, want, method",
        [
            # -exp(-z): e^z = e^(z0) - t; 0.5 exp(z)^2: e^(-2z) = e^(-2 z0) - t
            (holo("-exp(-z)"), -0.8, math.exp(-0.8), "ray"),
            (holo("-exp(-z)"), 0.0, 1.0, "ray"),
            (holo("-exp(-z)"), 1.7, math.exp(1.7), "ray"),
            (holo("exp(-z)", REVERSED), 0.0, 1.0, "ray"),
            (holo("0.5*exp(z)^2"), 0.0, 1.0, "ray"),
            (holo("z^2"), 1.0, 1.0, "ray"),
            # seeds inside radius 10 that exit within a few steps; the radius
            # crossing on the cubic interpolant was off by up to 3.8 bars
            (holo("z^2"), 8.5, 1.0 / 8.5, "ray"),
            (holo("z^2"), 9.5, 1.0 / 9.5, "ray"),
            (holo("z^2"), 9.9, 1.0 / 9.9, "ray"),
            (holo("-exp(-z)"), -9.9, math.exp(-9.9), "ray"),
            (holo("0.5*exp(z)^2"), 9.9, math.exp(-19.8), "ray"),
            # z^2, past the overflow of exp(z) on the ray; the integral of
            # dz / (z e^z) from 1 is E1(1)
            (holo("z^2*exp(z)*exp(-z)"), 1.0, 1.0, "ray"),
            (holo("z*exp(z)"), 1.0, 0.21938393439552029, "ray"),
            # z' = z^2 - c^2, c^2 = 30: T = ln((z0 + c) / (z0 - c)) / (2 c) = atanh(c / z0) / c;
            # the exit at radius 10 lies inside r_safe = 62, so the run continues to r_safe first
            (holo("z^2 - 30"), 6.0, math.atanh(math.sqrt(30.0) / 6.0) / math.sqrt(30.0), "ray"),
        ],
    )
    def test_closed_form_within_bar(self, spec, z0, want, method, rel_tol):
        cfg = IntegratorConfig(rel_tol=rel_tol)
        est = blowup_time_estimate(integrate(spec, z0, cfg), cfg)
        assert est.conclusive and est.method == method
        assert abs(est.t_est - want) <= est.t_err <= 500.0 * rel_tol * (1.0 + want)

    @pytest.mark.parametrize("text, z0, want", [("z^2", 1e153, 1e-153), ("z^5", 1e60, 1.0 / (4.0 * 1e60**4))])
    def test_ray_past_polynomial_overflow(self, text, z0, want):
        # seeds beyond the radius: z^n overflows on the ray, where 1/f must
        # be w^n / q(w), not 1 / (q(w) / w^n), which reads 0 there; T is far
        # below the bar's 1e-14 floor, so its bits are held to 1e-12 too
        est = blowup_time_estimate(integrate(holo(text), z0))
        assert est.conclusive and est.method == "ray"
        assert abs(est.t_est - want) <= min(est.t_err, 1e-12 * want)

    def test_exit_step_that_overflows_keeps_the_crossing(self, monkeypatch):
        traj = integrate(holo("-exp(-z)"), 0.0)

        def overflowing(rhs):
            def step(y, h, k1):
                raise EvaluationOverflow(None, at=y)

            return step

        monkeypatch.setattr(flow_module, "_stepper", overflowing)
        est = blowup_time_estimate(traj)
        assert est.conclusive and est.method == "ray" and abs(est.t_est - 1.0) <= est.t_err

    @pytest.mark.parametrize(
        "text, z0, want",
        [
            # e^-z = (1 + e^-z0) e^-t - 1: T = log(1 + e^-z0), where exp(z)
            # overflows inside the sum on the ray
            ("exp(z) + 1", 1.0, math.log(1.0 + math.exp(-1.0))),
            ("exp(z) + 1", 0.5, math.log(1.0 + math.exp(-0.5))),
            # exponentials that cancel leave z^2
            ("exp(z) - exp(z) + z^2", 1.0, 1.0),
            ("exp(z) + z", 1.0, None),
            ("z^2 + exp(z)", 1.0, None),
        ],
    )
    def test_overflow_inside_a_sum_is_timed(self, text, z0, want):
        traj = integrate(holo(text), z0)
        est = blowup_time_estimate(traj)
        assert isinstance(traj.termination, ReachedRadius) and est.conclusive and est.method == "ray"
        assert want is None or abs(est.t_est - want) <= est.t_err

    @pytest.mark.parametrize(
        "text, z0, want",
        [
            # the integral of dx/f from x0 out to infinity: (sqrt(pi)/2) erfc(x0), and E1(1)
            ("exp(z^2)", 0.3, 0.5 * math.sqrt(math.pi) * math.erfc(0.3)),
            ("exp(z^2)", 0.8, 0.5 * math.sqrt(math.pi) * math.erfc(0.8)),
            ("exp(exp(z))", 0.0, 0.21938393439552029),
        ],
    )
    def test_step_underflow_escape_takes_the_ray(self, text, z0, want):
        # a fast-growing f exhausts the time resolution of doubles before the radius
        traj = integrate(holo(text), z0)
        est = blowup_time_estimate(traj)
        assert traj.termination.name == "StepUnderflow" and est.conclusive and est.method == "ray"
        assert abs(est.t_est - want) <= est.t_err and est.exit_times == ()
        assert classify(traj) == FiniteTimeBlowup(est.t_est, est.t_err)

    def test_other_step_underflow_left_alone(self):
        # |z| falls over the last two samples: not an escape
        spec = holo("exp(z^2)")
        traj = flow_module.Trajectory(spec, 2.0, ((0.0, 2.0), (1e-3, 1.9)), (0.0, 0.0), flow_module.StepUnderflow())
        assert blowup_time_estimate(traj).note == "not an escape candidate"
        assert classify(traj) == traj.termination

    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_exponential_near_miss_names_im_t(self, eps):
        # e^z = e^(z0) - t: from z0 = i eps the singular time e^(i eps) is off
        # the real axis by sin eps.  Re z bottoms out near log(eps), so the run
        # from 1e-4i crosses radius 5 but never radius 10
        cfg = IntegratorConfig(escape_radius=5.0)
        traj = integrate(holo("-exp(-z)"), complex(0.0, eps), cfg)
        assert isinstance(traj.termination, ReachedRadius) and classify(traj, cfg) == traj.termination
        note = blowup_time_estimate(traj, cfg).note
        im_t = float(re.search(r"Im t\* = (\S+),", note).group(1))
        assert abs(im_t - math.sin(eps)) <= 0.01 * math.sin(eps)

    @staticmethod
    def _monomial_level_time(n, z0):
        """T for z' = conj(z^n) from z0 off the real axis: G = z^m / m, m = n + 1,
        runs along Im G = beta at speed |z|^2n = (m^2 (X^2 + beta^2))^(n/m), so T
        is the integral of that speed's reciprocal over X from Re G(z0) on.  With
        X = |beta| sinh u it is c times the integral of cosh(u)^-p, p = (n-1)/m:
        Simpson's rule out to u0 + 30, extrapolated from two step sizes, plus
        the tail, 2^p e^(-p u) / p up to a relative e^(-2 u)."""
        m = n + 1
        w0 = z0**m / m
        beta = abs(w0.imag)
        p = (n - 1) / m
        u0 = math.asinh(w0.real / beta)
        u1 = u0 + 30.0

        def simpson(k):
            h = (u1 - u0) / k
            ys = [math.cosh(u0 + j * h) ** -p for j in range(k + 1)]
            return h / 3.0 * (ys[0] + ys[-1] + 4.0 * sum(ys[1:-1:2]) + 2.0 * sum(ys[2:-1:2]))

        coarse, fine = simpson(1024), simpson(2048)
        body = fine + (fine - coarse) / 15.0
        return beta ** (1.0 - 2.0 * n / m) * m ** (-2.0 * n / m) * (body + 2.0**p * math.exp(-p * u1) / p)

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-6, 1e-3])
    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("z0", [0.6, 1.7, 1 + 0.5j, -0.6 + 0.9j, 0.8 - 1.3j])
    def test_antiholo_chart_within_bar(self, monkeypatch, z0, n, direction, rel_tol):
        # reversed, -z^n drives the same flow as z^n forward
        spec = anti(f"z^{n}" if direction == FORWARD else f"-(z^{n})", direction)
        want = z0 ** (1 - n) / (n - 1) if z0.imag == 0 else self._monomial_level_time(n, complex(z0))
        cfg = IntegratorConfig(rel_tol=rel_tol)
        traj = integrate(spec, z0, cfg)
        runs = []
        drive = flow_module.drive_field
        monkeypatch.setattr(flow_module, "drive_field", lambda *a, **k: runs.append(a) or drive(*a, **k))
        est = blowup_time_estimate(traj, cfg)
        # the exit at radius 10 lies beyond r_safe = 2: no continuation
        assert est.conclusive and est.method == "w_chart" and not runs
        assert abs(est.t_est - want) <= est.t_err <= 500.0 * rel_tol * (1.0 + want)

    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    @pytest.mark.parametrize("z0", [1 + 1j, 2 - 0.5j, -1.5 + 0.2j])
    def test_antiholo_chart_agrees_with_dyadic(self, z0, direction):
        spec = anti("z^2 + 1" if direction == FORWARD else "-(z^2 + 1)", direction)
        cfg = IntegratorConfig()
        traj = integrate(spec, z0, cfg)
        chart = blowup_time_estimate(traj, cfg)
        dyadic = flow_module._dyadic_estimate(flow_module._rhs(spec), traj, cfg)
        assert chart.method == "w_chart" and dyadic.method == "dyadic"
        assert abs(chart.t_est - dyadic.t_est) <= chart.t_err + dyadic.t_err

    def test_antiholo_chart_newton_miss_falls_back(self, monkeypatch):
        monkeypatch.setattr(flow_module, "_chart_root", lambda *args: None)
        est = blowup_time_estimate(integrate(anti("z^3"), 1.0))
        assert est.conclusive and est.method == "dyadic" and abs(est.t_est - 0.5) <= est.t_err

    def test_antiholo_linear_inconclusive(self):
        est = blowup_time_estimate(integrate(anti("2*z + 1"), 1.0))
        assert not est.conclusive and est.note == "degree < 2: no finite escape"

    @pytest.mark.parametrize(
        "spec, z0, want",
        [
            # x' = e^x: e^-x = e^-x0 - t; the tract's line Im z = pi: x' = 1 - e^-x
            (anti("exp(z)"), 0.0, 1.0),
            (anti("exp(-z) + 1"), complex(-1.0, math.pi), -math.log(1.0 - math.exp(-1.0))),
        ],
    )
    def test_dyadic_bar_counts_the_steps(self, spec, z0, want):
        est = blowup_time_estimate(integrate(spec, z0))
        assert est.conclusive and est.method == "time_resolution"
        assert abs(est.t_est - want) <= est.t_err


# The former holomorphic polynomial chart, kept as the reference for the
# ray's transit on polynomials: from the same start, the integral of
# dt = -dw / (w^2 f(1/w)) along the chart segment from w = 1/z to 0.


def _reference_w_chart(traj, cfg):
    coeffs = expr_module.poly_coeffs(traj.spec.func)
    rhs = flow_module._rhs(traj.spec)
    r_safe = 2.0 * (1.0 + max(abs(c / coeffs[-1]) for c in coeffs[:-1]))
    t_far, z_far, _ = flow_module._transit_start(rhs, traj, cfg, r_safe)
    n = len(coeffs) - 1
    w_far = 1.0 / z_far

    def q(w):  # q(w) = w^2 f(1/w) / w^(2-n) = sum of coeffs[k] w^(n-k); q(0) = a_n
        acc = 0j
        for c in coeffs:
            acc = acc * w + c
        return acc

    def integrand(s):
        w = w_far * (1.0 - s)
        return w_far * w ** (n - 2) / q(w)

    return t_far + gauss_kronrod(integrand, 0.0, 1.0, 1e-14).real


def _verdicts_monomials(rng, count):
    """(spec, z0) of a z^n blowups, n = 2..5, drawn as the benchmark's
    verdicts workload draws them: each seed on one of a z^n's escape rays."""
    cases = []
    for k in range(count):
        n = 2 + k % 4
        a = complex(round(rng.uniform(-2, 2), 6), round(rng.uniform(-2, 2), 6))
        while abs(a) < 0.5:
            a = complex(round(rng.uniform(-2, 2), 6), round(rng.uniform(-2, 2), 6))
        ray = (-cmath.phase(a) + 2.0 * math.pi * rng.randrange(n - 1)) / (n - 1)
        cases.append((holo(f"({a.real:.6f}{a.imag:+.6f}i)*z^{n}"), cmath.rect(rng.uniform(0.5, 2.0), ray)))
    return cases


class TestRayOnPolynomials:
    @pytest.mark.parametrize(
        "spec, z0",
        _verdicts_monomials(random.Random(25), 200)
        + [(holo("z^2 - 30"), 6.0), (holo("z^3 + 1000*z"), 40.0), (holo("z^5 - z + 1"), 2.0)],
    )
    def test_ray_matches_the_chart(self, spec, z0):
        cfg = IntegratorConfig()
        traj = integrate(spec, z0, cfg)
        est, chart = blowup_time_estimate(traj, cfg), _reference_w_chart(traj, cfg)
        assert est.method == "ray" and est.conclusive
        assert abs(est.t_est - chart) <= 2e-15 * abs(chart)


class TestKeptEstimate:
    def _count_runs(self, monkeypatch):
        runs = []
        drive = flow_module.drive_field
        monkeypatch.setattr(flow_module, "drive_field", lambda *a, **k: runs.append(a) or drive(*a, **k))
        return runs

    @pytest.mark.parametrize(
        "spec, z0, radius, method, made",
        [
            # both ends of the dyadic continuation, and the polynomial ray's:
            # z^2 at radius 1.5 continues to its zero-free radius 2 before the
            # ray; the ray from beyond r_safe, and the level chart too, are one
            # quadrature each and run no continuation at all
            (anti("exp(-z) + 1"), complex(-1.0, math.pi), 8.0, "dyadic", 1),
            (anti("exp(z)"), 0.0, 10.0, "time_resolution", 1),
            (holo("z^2"), 1.0, 1.5, "ray", 1),
            (anti("z^3"), 1.0, 10.0, "w_chart", 0),
            (holo("-exp(-z)"), 0.0, 10.0, "ray", 0),
        ],
    )
    def test_classify_after_estimate_runs_nothing(self, monkeypatch, spec, z0, radius, method, made):
        cfg = IntegratorConfig(escape_radius=radius)
        traj = integrate(spec, z0, cfg)
        runs = self._count_runs(monkeypatch)
        est = blowup_time_estimate(traj, cfg)
        assert est.conclusive and est.method == method and len(runs) == made
        assert classify(traj, cfg) == FiniteTimeBlowup(est.t_est, est.t_err)
        assert blowup_time_estimate(traj, IntegratorConfig(escape_radius=radius)) is est
        assert len(runs) == made

    def test_other_config_computes_again(self, monkeypatch):
        spec, cfg = anti("exp(z)"), IntegratorConfig()
        traj = integrate(spec, 0.0, cfg)
        blowup_time_estimate(traj, cfg)
        runs = self._count_runs(monkeypatch)
        other = IntegratorConfig(escape_radius=20.0)
        est = blowup_time_estimate(traj, other)
        assert len(runs) == 1 and traj.__dict__["_estimate"] == (other, est)
        assert est == blowup_time_estimate(integrate(spec, 0.0, cfg), other)

    def test_estimate_that_raises_keeps_nothing(self, monkeypatch):
        cfg = IntegratorConfig()
        traj = integrate(anti("exp(z)"), 0.0, cfg)

        def failing(*args):
            raise PlaneflowError("continuation failed")

        monkeypatch.setattr(flow_module, "_dyadic_estimate", failing)
        with pytest.raises(PlaneflowError):
            blowup_time_estimate(traj, cfg)
        assert "_estimate" not in traj.__dict__
        assert classify(traj, cfg) == traj.termination
        monkeypatch.undo()
        assert classify(traj, cfg).name == "FiniteTimeBlowup"

    def test_trajectory_pickles_without_its_estimate(self):
        cfg = IntegratorConfig()
        traj = integrate(holo("-exp(-z)"), 0.0, cfg)
        blowup_time_estimate(traj, cfg)
        back = pickle.loads(pickle.dumps(traj))
        assert back == traj and "_estimate" not in back.__dict__
        assert "_estimate" in traj.__dict__


def _reference_clock_residual(traj):
    """The former conformal_clock_residual: f compiled again, and the
    elapsed time signed by the run's direction."""
    fe = compile_fn(traj.spec.func)
    samples = traj.samples
    sign = -1.0 if traj.spec.time_direction == REVERSED else 1.0
    t0 = samples[0][0]
    acc = 0j
    worst = 0.0
    for (ta, za), (tb, zb) in zip(samples, samples[1:]):
        dz = zb - za
        try:
            seg = gauss_kronrod(lambda s: 1.0 / fe(za + s * dz), 0.0, 1.0, flow_module._CLOCK_QUAD_TOL)
        except (ZeroDivisionError, QuadratureDiverged):
            return math.inf
        acc += seg * dz
        worst = max(worst, abs(acc - sign * (tb - t0)))
    return worst


class TestConformalClock:
    @pytest.mark.parametrize("text,z0", [
        ("z", 1.0),
        ("z^2 - 1", 0.5j),
        ("-exp(-z)", 0.0),
        ("exp(z)", 0.0),
    ])
    def test_clock_tracks_time(self, text, z0):
        traj = integrate(holo(text), z0, IntegratorConfig(t_max=3.0))
        assert conformal_clock_residual(traj) <= 1e-6

    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    @pytest.mark.parametrize("text,z0", [
        ("z", 1.0),
        ("z^2 - 1", 0.5j),
        ("-exp(-z)", 0.0),
        ("exp(z)", 0.0),
        ("i*z", 1.0),
        ("z^2", 0.3 + 0.2j),
        ("(0.3-2i)*z^3 + z", 0.4),
        ("exp(z) + z", -1.0 + 0.5j),
        ("z*exp(-z)", 0.7j),
        ("z^2 + 1", 0.2 - 0.1j),
        ("-exp(-z) + 0.1*z", 0.5),
        ("(1+i)*z^4 - 2", 0.3j),
    ])
    def test_clock_keeps_the_former_bits(self, text, z0, direction):
        # the kept Field's -f for a reversed run: IEEE negation is exact
        traj = integrate(holo(text, direction), z0, IntegratorConfig(t_max=1.0))
        assert repr(conformal_clock_residual(traj)) == repr(_reference_clock_residual(traj))

    def test_empty_span(self):
        traj = integrate(anti("exp(-z) + 1"), complex(0.0, math.pi))
        single = integrate(holo("z"), 1.0)
        from dataclasses import replace

        stub = replace(single, samples=single.samples[:1], errors=single.errors[:1])
        assert conformal_clock_residual(stub) == 0.0

    def test_antiholomorphic_rejected(self):
        traj = integrate(anti("z"), 1.0, IntegratorConfig(t_max=1.0))
        with pytest.raises(ValueError):
            conformal_clock_residual(traj)


class TestAntiholoInvariants:
    def test_real_axis_run(self):
        traj = integrate(anti("z"), 1.0, IntegratorConfig(t_max=2.0))
        inv = antiholo_invariants(traj)
        assert inv.im_drift <= 1e-8
        assert inv.monotone

    def test_quadratic_from_complex_seed(self):
        traj = integrate(anti("z^2"), 1 + 1j, IntegratorConfig(t_max=2.0))
        inv = antiholo_invariants(traj)
        assert inv.im_drift <= 1e-6
        assert inv.monotone

    def test_invariant_line_of_shifted_exponential(self):
        traj = integrate(anti("exp(-z) + 1"), complex(-1.0, math.pi))
        inv = antiholo_invariants(traj)
        assert inv.im_drift <= 1e-6
        assert inv.monotone

    def test_holomorphic_rejected(self):
        traj = integrate(holo("z"), 1.0)
        with pytest.raises(ValueError):
            antiholo_invariants(traj)


class TestTimeReversal:
    @pytest.mark.parametrize("kind,text,z0", [
        (HOLOMORPHIC, "z^2 - 1", 0.5j),
        (HOLOMORPHIC, "-exp(-z)", 0.3 + 0.2j),
        (ANTIHOLOMORPHIC, "z^2", 1 + 1j),
    ])
    def test_return_to_seed(self, kind, text, z0):
        spec = FlowSpec(kind, parse_expr(text))
        traj = integrate(spec, z0, IntegratorConfig(t_max=1.5))
        back_spec = FlowSpec(kind, parse_expr(text), REVERSED)
        back = integrate(back_spec, traj.z_end, IntegratorConfig(t_max=traj.t_end))
        assert abs(back.z_end - z0) <= 1e-5


class TestDriver:
    def test_step_underflow_on_discontinuous_field(self):
        # tolerance can never be met across a jump: the step size dies
        def rhs(z):
            return 1.0 if z.real < 1.0 else 1e8 + 0j

        res = drive_field(rhs, 0.0, IntegratorConfig(), t_stop=5.0)
        assert res.status == "underflow"

    def test_event_refinement(self):
        res = drive_field(
            lambda z: 1.0 + 0j,
            0.0,
            IntegratorConfig(),
            t_stop=10.0,
            events=(Event(lambda z: z.real - 2.0),),
        )
        assert res.status == "event"
        t, z = res.samples[-1]
        assert abs(z.real - 2.0) <= 1e-9

    @staticmethod
    def radius_marks(radii):
        return [Event((lambda z, r=r: abs(z) - r), terminal=r == radii[-1]) for r in radii]

    def test_radius_marks_recorded_in_order(self, monkeypatch):
        monkeypatch.setattr(flow_module, "_H_MAX", 0.5)
        radii = (2.0, 4.0, 8.0)
        marks = self.radius_marks(radii)
        res = drive_field(
            lambda z: z,
            1.0,
            IntegratorConfig(),
            t_stop=10.0,
            events=marks,
        )
        assert res.status == "event"
        assert [ev for ev, _, _ in res.crossings] == marks
        times = [t for _, t, _ in res.crossings]
        for r, t in zip(radii, times):
            assert abs(t - math.log(r)) <= 1e-6

    def test_marks_passed_at_start_not_recorded(self, monkeypatch):
        monkeypatch.setattr(flow_module, "_H_MAX", 0.5)
        radii = (2.0, 4.0, 8.0, 16.0)
        marks = self.radius_marks(radii)
        res = drive_field(
            lambda z: z,
            5.0,
            IntegratorConfig(),
            t_stop=10.0,
            events=marks,
        )
        assert [ev for ev, _, _ in res.crossings] == marks[2:]
        for r, (_, t, _) in zip(radii[2:], res.crossings):
            assert abs(t - math.log(r / 5.0)) <= 1e-6

    def test_event_nonnegative_at_start_fires_after_going_negative(self):
        # g is 1 at the start, negative for 1 < Re z < 5
        res = drive_field(
            lambda z: 1.0 + 0j,
            0.0,
            IntegratorConfig(),
            t_stop=10.0,
            events=(Event(lambda z: abs(z.real - 3.0) - 2.0),),
        )
        assert res.status == "event"
        t, z = res.samples[-1]
        assert abs(z.real - 5.0) <= 1e-9
        assert abs(t - 5.0) <= 1e-9

    def test_start_below_event_beyond_it_fires_at_t0(self):
        # bisection would cross at t0 + 5e-324 h, not at t0
        ev = Event.at_radius(10.0, start_below=True)
        res = drive_field(Field(parse_expr("z^2")), 20 + 0j, IntegratorConfig(), t0=0.5, t_stop=1.0, events=(ev,))
        assert (res.status, res.samples, res.errors) == ("event", [(0.5, 20 + 0j)], [0.0])
        assert [(e is ev, repr(t), z) for e, t, z in res.crossings] == [(True, "0.5", 20 + 0j)]
        traj = integrate(FlowSpec(HOLOMORPHIC, parse_expr("z^2")), 20 + 0j, IntegratorConfig(escape_radius=10.0))
        assert repr(traj.termination) == "ReachedRadius(t_exit=0.0)"
        assert traj.samples == ((0.0, 20 + 0j),)

    def test_non_terminal_start_below_event_on_it_retires_at_t0(self):
        on, far = Event.at_radius(1.0, terminal=False, start_below=True), Event.at_radius(2.0)
        res = drive_field(Field(parse_expr("z")), 1 + 0j, IntegratorConfig(), t_stop=5.0, events=(on, far))
        assert res.status == "event"
        assert [ev for ev, _, _ in res.crossings] == [on, far]
        assert res.crossings[0][1:] == (0.0, 1 + 0j)
        assert abs(res.crossings[1][1] - math.log(2.0)) <= 1e-8

    def test_start_below_event_on_it_heading_inside_is_not_crossed(self):
        # a run started on its radius by the refined crossing of a run outward
        ev = Event.at_radius(1.0, start_below=True)
        res = drive_field(Field(parse_expr("-z")), 1 + 0j, IntegratorConfig(), t_stop=2.0, events=(ev,))
        assert (res.status, res.crossings) == ("t_stop", [])

    def test_radius_event(self):
        ev = Event.at_radius(3.0, terminal=False, start_below=True)
        assert (ev.radius, ev.terminal, ev.start_below) == (3.0, False, True)
        assert ev.g(3 + 4j) == 2.0
        assert Event(ev.g).radius is None

    def test_two_radii_in_one_step_fire_in_the_order_given(self):
        events = _two_radii_in_one_step()
        res = drive_field(Field(parse_expr("z")), 1 + 0j, IntegratorConfig(), t_stop=5.0, events=events)
        assert res.status == "event"
        assert [ev for ev, _, _ in res.crossings] == list(events)
        (_, t1, _), (_, t2, _) = res.crossings
        # both after the last accepted sample: crossed in the same step
        assert res.samples[-2][0] < t1 <= t2 == res.samples[-1][0]
        assert abs(t1 - math.log(2.0)) <= 1e-8

    @pytest.mark.parametrize(
        "times, name",
        [
            pytest.param({"t_stop": math.nan}, "t_stop", id="t_stop-nan"),
            pytest.param({"t0": math.nan, "t_stop": 1.0}, "t0", id="t0-nan"),
            pytest.param({"t0": -math.inf, "t_stop": 1.0}, "t0", id="t0-inf"),
        ],
    )
    def test_nan_time_rejected_before_any_step(self, times, name):
        # a NaN t_stop ran -exp(-z) into "underflow" and i*z into the step budget
        calls = []

        def rhs(z):
            calls.append(z)
            return 1j * z

        with pytest.raises(ValueError, match=name):
            drive_field(rhs, 1 + 0j, IntegratorConfig(), **times)
        assert calls == []

    def test_infinite_t_stop_accepted(self):
        res = drive_field(
            Field(parse_expr("z")), 1 + 0j, IntegratorConfig(), t_stop=math.inf, events=(Event.at_radius(10.0),)
        )
        assert res.status == "event"
        assert abs(res.samples[-1][0] - math.log(10.0)) <= 1e-8


# The former flow._dp_step and its tableau, kept as the reference for the
# generated step.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40


def _reference_dp_step(rhs, z, h, k1):
    k2 = rhs(z + h * (_A21 * k1))
    k3 = rhs(z + h * (_A31 * k1 + _A32 * k2))
    k4 = rhs(z + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = rhs(z + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = rhs(z + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
    z_new = z + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
    k7 = rhs(z_new)
    err = abs(h) * abs(
        _E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7
    )
    return z_new, err, k7


def _outcome(step, *args, root=None):
    """repr of the step's result, or the node and point of its overflow.

    An overflow at a ``root`` that is Scale(k, f) is named by f, as the
    reference k * f(z) names it."""
    try:
        return repr(step(*args))
    except EvaluationOverflow as exc:
        node = exc.node.arg if isinstance(root, Scale) and exc.node is root else exc.node
        return ("overflow", node, repr(exc.at))


def _reference_rhs(tree, post, k):
    """The point function for each Field post-operation, and for the
    segment field k * f, as the flow integrator wrote its right-hand
    sides before Field."""
    f = compile_fn(tree)
    return {
        "{}": f,
        "-{}": lambda z: -f(z),
        "{}.conjugate()": lambda z: f(z).conjugate(),
        "-{}.conjugate()": lambda z: -f(z).conjugate(),
        "k * {}": lambda z: k * f(z),
    }[post]


# Python 3.14 multiplies a complex by a float component-wise, not as by
# (c, 0.0), so there a complex tableau may give zero parts of other signs
# than the float one.
_COMPLEX_TABLEAU_KEEPS_BITS = sys.version_info < (3, 14)


def _signed_zeros(rng, w):
    """w with its real part, its imaginary part or both made 0.0 or -0.0."""
    which = rng.randrange(3)
    re = w.real if which == 1 else rng.choice((0.0, -0.0))
    im = w.imag if which == 0 else rng.choice((0.0, -0.0))
    return complex(re, im)


class TestGeneratedStep:
    def test_matches_reference_step_bit_for_bit(self):
        rng = random.Random(20261018)
        zeros = random.Random(20261019)  # apart, so the uniform draws stay as they were
        for _ in range(300):
            tree = random_expr(rng, depth=rng.randint(1, 4))
            for post in (*flow_module._POSTS, "k * {}"):
                factor = rng.choice((1.0, -1.0)) * 1j if post == "k * {}" else None
                rhs = Field(Scale(factor, tree)) if factor else Field(tree, post)
                ref = _reference_rhs(tree, post, factor)
                for _ in range(2):
                    z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    h = rng.choice((1e-3, 0.05, 0.4)) * rng.uniform(0.5, 1.0)
                    k1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    cases = [(z, k1)]
                    if _COMPLEX_TABLEAU_KEEPS_BITS:
                        cases.append((_signed_zeros(zeros, z), _signed_zeros(zeros, k1)))
                    for z, k1 in cases:
                        assert _outcome(rhs, z, root=rhs.func) == _outcome(ref, z), (tree, post, z)
                        want = _outcome(_reference_dp_step, ref, z, h, k1)
                        assert _outcome(rhs.step, z, h, k1, root=rhs.func) == want, (tree, post, z, h, k1)

    def test_opaque_callable_matches_reference_step(self):
        rng = random.Random(7)
        for rhs in (lambda z: z * z - 1.0, lambda z: 1.0 if z.real < 1.0 else 1e8 + 0j):
            step = flow_module._stepper(rhs)
            for _ in range(50):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                h = rng.uniform(1e-3, 0.5)
                k1 = rhs(z)
                assert repr(step(z, h, k1)) == repr(_reference_dp_step(rhs, z, h, k1))

    @pytest.mark.parametrize("text,h,k1,stage", [
        ("exp(z)", 5000.0, 1.0, 2),
        ("exp(z)", 1.69, 1.0, 7),
        ("2 * exp(z)", 0.77, 2.0, 7),
        ("z^2 * z^2 * z^2", 2.197, 1.0, 7),
    ])
    def test_overflow_matches_reference(self, text, h, k1, stage):
        rhs = Field(parse_expr(text))
        calls = []

        def counted(z):
            calls.append(z)
            return rhs(z)

        with pytest.raises(EvaluationOverflow) as want:
            _reference_dp_step(counted, 0j, h, complex(k1))
        assert len(calls) == stage - 1
        with pytest.raises(EvaluationOverflow) as got:
            rhs.step(0j, h, complex(k1))
        assert got.value.node is want.value.node
        assert repr(got.value.at) == repr(want.value.at)
        assert str(got.value) == str(want.value)

    def test_signed_constants_share_step_code_not_values(self):
        pos = Field(Add(Variable(), Constant(0.0)))
        neg = Field(Add(Variable(), Constant(-0.0)))
        assert pos.step.__code__ is neg.step.__code__
        z = complex(-0.0, -0.0)
        assert repr(pos(z)) != repr(neg(z))
        for rhs in (pos, neg):
            args = (z, 0.25, rhs(z))
            assert repr(rhs.step(*args)) == repr(_reference_dp_step(rhs, *args))

    def test_exp_without_value_is_overflow(self):
        tree = parse_expr("exp(1 + i*z^2*z^2)")
        rhs = Field(tree)
        with pytest.raises(EvaluationOverflow) as point:
            rhs(1e80)
        assert point.value.node is tree
        with pytest.raises(EvaluationOverflow) as step:
            rhs.step(1e80 + 0j, 1e-3, 1 + 0j)
        assert step.value.node is tree

    def test_unknown_post_operation_rejected(self):
        with pytest.raises(ValueError):
            Field(parse_expr("z"), "2 * {}")


class TestFieldPerSpec:
    def test_one_field_per_spec_object(self, monkeypatch):
        seen = []
        point = Field.__call__
        monkeypatch.setattr(Field, "__call__", lambda self, z: seen.append(self) or point(self, z))
        spec, cfg = holo("-exp(-z)"), IntegratorConfig()
        traj = integrate(spec, 0.0, cfg)
        users = [len(seen)]
        blowup_time_estimate(traj, cfg)
        users.append(len(seen))
        assert classify(traj, cfg).name == "FiniteTimeBlowup"
        users.append(len(seen))
        # classify reads the estimate kept on traj
        assert 0 < users[0] < users[1] == users[2]
        fresh = integrate(spec, 0.0, cfg)
        users.append(len(seen))
        assert classify(fresh, cfg).name == "FiniteTimeBlowup"
        assert len(seen) > users[3]
        assert all(rhs is flow_module._rhs(spec) for rhs in seen)

    def test_equal_specs_keep_their_own_fields(self):
        # equal trees, different bits: a cache keyed on equality would
        # hand one of them the other's field
        pos = FlowSpec(HOLOMORPHIC, Add(Variable(), Constant(0.0)))
        neg = FlowSpec(HOLOMORPHIC, Add(Variable(), Constant(-0.0)))
        assert pos == neg
        assert flow_module._rhs(pos) is not flow_module._rhs(neg)
        assert repr(flow_module._rhs(pos)(-0.0)) != repr(flow_module._rhs(neg)(-0.0))

    def test_one_tree_keeps_a_field_per_post(self):
        # the four (kind, direction) pairs of one tree: four Fields, one per post-operation
        tree, cfg = parse_expr("z^2"), IntegratorConfig(t_max=1.0)
        specs = [FlowSpec(kind, tree, d) for kind in (HOLOMORPHIC, ANTIHOLOMORPHIC) for d in (FORWARD, REVERSED)]
        for spec in specs:
            integrate(spec, 0.5, cfg)
        kept = [pair[1] for name, pair in tree.__dict__.items() if name.startswith("_")]
        assert sorted(field.post for field in kept) == sorted(flow_module._POSTS)
        assert sorted(map(id, kept)) == sorted(id(flow_module._rhs(spec)) for spec in specs)

    def test_spec_pickles_without_its_field(self):
        spec = holo("z^2")
        traj = integrate(spec, 1.0)
        back = pickle.loads(pickle.dumps(traj))
        assert "_field0" in spec.func.__dict__
        assert back == traj and list(back.spec.func.__dict__) == ["arg", "power"]
        assert integrate(back.spec, 1.0) == traj

    def test_tree_emitted_per_spec_not_per_call(self, monkeypatch):
        calls = []
        emit = expr_module._emit_body

        def counted(tree):
            calls.append(tree)
            return emit(tree)

        for module in (expr_module, flow_module):
            monkeypatch.setattr(module, "_emit_body", counted)
        spec, cfg = holo("-exp(-z)"), IntegratorConfig(t_max=5.0)
        traj = integrate(spec, 0.0, cfg)
        # once for the point function (through compile_fn), once for the step
        assert calls == [spec.func, spec.func]
        integrate(spec, 0.5, cfg)
        classify(traj, cfg)
        # the ray meets exp(-z)'s overflow: once more for the kept Field's
        # reciprocal, and never again for this spec
        assert calls == [spec.func, spec.func, spec.func]
        classify(integrate(spec, 0.5, cfg), cfg)
        assert len(calls) == 3

    def test_kept_field_follows_a_rebound_compile_fn(self, monkeypatch):
        # bench/tracing.py wraps flow.compile_fn to count evaluations; a
        # spec whose Field was built before must not bypass the wrapper
        spec, cfg = holo("-exp(-z)"), IntegratorConfig(t_max=5.0)
        traj = integrate(spec, 0.0, cfg)
        kept = flow_module._rhs(spec)
        points = []

        def counting(tree):
            f = compile_fn(tree)
            return lambda z: points.append(z) or f(z)

        monkeypatch.setattr(flow_module, "compile_fn", counting)
        assert integrate(spec, 0.0, cfg) == traj
        assert points and flow_module._rhs(spec) is not kept
        assert flow_module._rhs(spec) is flow_module._rhs(spec)


# The former flow._bisect_theta and drive_field loop, kept as the references
# for drive_field's crossing refinement, clamps and budget.


def _bisect_theta(fn, lo=0.0, hi=1.0):
    """Bisect fn over [lo, hi] assuming fn(lo) < 0 <= fn(hi), until lo and
    hi are adjacent doubles."""
    while 0.5 * (lo + hi) not in (lo, hi):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _reference_drive_field(rhs, z0, cfg, *, t0=0.0, t_stop, events=()):
    """The drive_field loop as it was written with min/max, a step
    counter, g called for every event and 60 bisection halvings; a
    start_below event whose g is nonnegative at z0 and after the first
    accepted step is crossed at (t0, z0)."""
    _EPS, _MAX_STEPS, _H_MAX = flow_module._EPS, flow_module._MAX_STEPS, flow_module._H_MAX
    _stepper, _hermite = flow_module._stepper, flow_module._hermite
    OdeResult = flow_module.OdeResult
    t, z = t0, complex(z0)
    samples = [(t, z)]
    errors = [0.0]
    crossings = []

    k1 = rhs(z)
    watch = [[ev, -math.inf if ev.start_below else ev.g(z)] for ev in events]
    h = min(_H_MAX, max(t_stop - t, 0.0) or 1.0, 0.01 * (1.0 + abs(z)) / max(abs(k1), 1e-12))
    h = max(h, 1e-300)
    steps = steps_accepted = 0
    step = _stepper(rhs)

    while True:
        if t >= t_stop:
            return OdeResult(samples, errors, crossings, "t_stop")
        steps += 1
        if steps > _MAX_STEPS:
            raise PlaneflowError(f"step budget exceeded ({_MAX_STEPS} steps) at t={t!r}")
        h = min(h, _H_MAX, t_stop - t)
        floor = 1000.0 * _EPS * abs(t)
        try:
            z_new, err, k7 = step(z, h, k1)
            if not math.isfinite(err):
                raise EvaluationOverflow(None, at=z)
        except EvaluationOverflow as exc:
            h *= 0.1
            if h < max(floor, 1e-300):
                return OdeResult(samples, errors, crossings, "overflow", exception=exc)
            continue
        sc = cfg.abs_tol + cfg.rel_tol * max(abs(z), abs(z_new))
        if err > sc:
            h *= max(0.1, 0.9 * (sc / err) ** 0.2)
            if h < floor:
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
            if ev.start_below and steps_accepted == 0 and ev.g(z) >= 0.0:
                if ev.rejects(z):
                    continue
                crossings.append((ev, t, z))
                if ev.terminal:
                    return OdeResult(samples, errors, crossings, "event")
                watch = [other for other in watch if other is not entry]
                continue
            theta = _bisect_theta(lambda s: ev.g(_hermite(z, k1, z_new, k7, h, s)))
            zc = _hermite(z, k1, z_new, k7, h, theta)
            if ev.rejects(zc):
                continue
            tc = t + theta * h
            crossings.append((ev, tc, zc))
            if ev.terminal:
                # sample times stay strictly increasing
                samples.append((max(tc, math.nextafter(t, math.inf)), zc))
                errors.append(err)
                return OdeResult(samples, errors, crossings, "event")
            # retired; the loop goes on over the list it started with
            watch = [other for other in watch if other is not entry]

        t, z, k1 = t_new, z_new, k7
        samples.append((t, z))
        errors.append(err)
        steps_accepted += 1
        h = min(_H_MAX, h * (5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (sc / err) ** 0.2))))


def _run_outcome(drive, rhs, z0, cfg, t_stop, events=()):
    """repr of everything a drive_field run returns, or of what it raised."""
    try:
        res = drive(rhs, z0, cfg, t_stop=t_stop, events=events)
    except PlaneflowError as exc:
        return repr(("raised", type(exc).__name__, str(exc)))
    return _result_outcome(res, events)


def _result_outcome(res, events):
    """repr of every field of a drive_field result but ``at_stops``."""
    crossings = [(events.index(ev), t, z) for ev, t, z in res.crossings]
    exc = res.exception
    raised = exc and (type(exc).__name__, str(exc), exc.node, repr(exc.at))
    return repr((res.samples, res.errors, crossings, res.status, raised))


def _integrate_events(rhs, z0, radius):
    """The events integrate() watches: its radius and the seed's return."""
    return (
        Event.at_radius(radius, start_below=True),
        flow_module._SeedReturn(z0, rhs(z0), rhs, flow_module._PERIODIC_RETURN_TOL),
    )


def _integrate_case(text, z0, radius, t_stop=20.0):
    """The run integrate() starts for the holomorphic flow of text."""
    rhs = Field(parse_expr(text))
    return rhs, z0, IntegratorConfig(), t_stop, _integrate_events(rhs, z0, radius)


def _dyadic_marks(z0, n=3):
    radii = [abs(z0) * 2.0**k for k in range(1, n + 1)]
    return tuple(Event.at_radius(r, terminal=r == radii[-1]) for r in radii)


def _called_marks(z0, n=3):
    """Dyadic marks whose g drive_field must call on every step."""
    radii = [abs(z0) * 2.0**k for k in range(1, n + 1)]
    return tuple(Event((lambda z, r=r: abs(z) - r), terminal=r == radii[-1]) for r in radii)


def _two_radii_in_one_step():
    return Event.at_radius(2.0, terminal=False), Event.at_radius(2.0 + 1e-9)


def _retired_on_circle():
    return Event(lambda z: -z.imag, terminal=False), Event(lambda z: z.real, terminal=False, start_below=True)


def _retired_below_radius():
    return Event(lambda z: -z.imag, terminal=False), Event.at_radius(2.0)


def _stuck_above_one(z):
    # speed 1 towards a wall at Re z = 1 where the field has no value
    if z.real >= 1.0:
        raise EvaluationOverflow(None, at=z)
    return 1.0 + 0j


def _unchecked_cube(z):
    # no overflow check: a stage may return inf and the error turn non-finite
    return z * z * z


def _drive_cases():
    """(h_max, rhs, z0, cfg, t_stop, events) covering every exit and branch
    of drive_field, with seeded random fields from the conftest generators;
    h_max is the value of flow._H_MAX for the run."""
    cfg = IntegratorConfig()
    cases = [
        # t_stop, and t_stop before the first step
        (Field(parse_expr("-exp(-z)")), 0j, cfg, 0.7, ()),
        (Field(parse_expr("-exp(-z)")), 0j, cfg, 0.0, ()),
        # integrate's events: periodic return of i*z (veto before the
        # event arms, then a crossing), spirals whose returns are vetoed
        # or rejected, and a radius reached
        _integrate_case("i*z", 1 + 0j, 10.0),
        _integrate_case("(0.1 + i)*z", 1 + 0j, 1e3),
        _integrate_case("(0.000001 + i)*z", 1 + 0j, 1e3),
        _integrate_case("-exp(-z)", 0j, 10.0, t_stop=50.0),
        # dyadic marks: non-terminal crossings, then the terminal one
        (Field(parse_expr("z^2")), 10 + 0j, cfg, 10.0, _dyadic_marks(10 + 0j)),
        (Field(parse_expr("z^3"), "{}.conjugate()"), 10 + 0j, cfg, 10.0, _dyadic_marks(10 + 0j)),
        (Field(parse_expr("z^2")), 10 + 0j, cfg, 10.0, _called_marks(10 + 0j)),
        # two radii crossed in one step, the non-terminal given first; a
        # start_below radius from beyond it (crossed at t0 after one step);
        # an infinite radius, never reached
        (Field(parse_expr("z")), 1 + 0j, cfg, 5.0, _two_radii_in_one_step()),
        (Field(parse_expr("z^2")), 20 + 0j, cfg, 1.0, (Event.at_radius(10.0, start_below=True),)),
        (Field(parse_expr("z")), 1 + 0j, cfg, 3.0, (Event.at_radius(math.inf, start_below=True),)),
        # non-terminal events retired on a circle that crosses them again,
        # one of them start_below on its far side, so crossed at t0
        (Field(parse_expr("i*z")), 1 + 0j, cfg, 10.0, _retired_on_circle()),
        # a radius met from beyond it without start_below: the circle
        # |z - 1| = 1.5 dips below it, with steps below every radius, and
        # must fire on the way out; then the same after a non-radius event
        # retires inside it
        (Field(parse_expr("i*z - i")), 2.5 + 0j, cfg, 10.0, (Event.at_radius(2.0),)),
        (Field(parse_expr("i*z - i")), 2.5 + 0j, cfg, 10.0, _retired_below_radius()),
        # two non-terminal radii, the outer given first, retired in turn
        (Field(parse_expr("z")), 1 + 0j, cfg, 2.0, (Event.at_radius(4.0, False), Event.at_radius(2.0, False))),
        # overflow retries: recovered on the way, then ending in overflow,
        # raised by the field or by a non-finite error estimate
        (_stuck_above_one, 0j, cfg, 5.0, ()),
        (Field(parse_expr("exp(z)")), 0j, IntegratorConfig(rel_tol=1e-4), 2.0, ()),
        (_unchecked_cube, 1e100 + 0j, IntegratorConfig(rel_tol=1e-6), 1.0, ()),
        # past the blowup of z^2: rejections shrink h below the time
        # resolution, or accepted steps stop advancing t
        (Field(parse_expr("z^2")), 1 + 0j, IntegratorConfig(rel_tol=1e-6), 2.0, ()),
        (Field(parse_expr("z^2")), 1 + 0j, cfg, 2.0, ()),
    ]
    cases = [(flow_module._H_MAX, *case) for case in cases]
    # a small h_max clamps every step
    cases.append((0.01, Field(parse_expr("i*z")), 1 + 0j, cfg, 1.0, _dyadic_marks(0.5 + 0j)))
    rng = random.Random(20261019)
    points = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
    for _ in range(40):
        tree = tame_random_expr(rng, points, depth=rng.randint(1, 4))
        post = rng.choice((*flow_module._POSTS, "k * {}"))
        rhs = Field(Scale(rng.choice((1j, -1j)), tree)) if post == "k * {}" else Field(tree, post)
        z0 = rng.choice(points)
        run_cfg = IntegratorConfig(rel_tol=rng.choice((1e-10, 1e-6)))
        h_max = rng.choice((1e6, 0.05))
        try:
            events = rng.choice(((), _dyadic_marks(z0), _integrate_events(rhs, z0, 5.0)))
        except ZeroDivisionError:  # rhs vanishes at z0: no seed direction
            events = ()
        cases.append((h_max, rhs, z0, run_cfg, rng.uniform(0.5, 5.0), events))
    return cases


class TestDriveFieldLoop:
    def test_matches_reference_loop_bit_for_bit(self, monkeypatch):
        statuses = set()
        for h_max, rhs, z0, cfg, t_stop, events in _drive_cases():
            monkeypatch.setattr(flow_module, "_H_MAX", h_max)
            want = _run_outcome(_reference_drive_field, rhs, z0, cfg, t_stop, events)
            got = _run_outcome(drive_field, rhs, z0, cfg, t_stop, events)
            assert got == want, (rhs, z0, cfg, t_stop)
            statuses.add(drive_field(rhs, z0, cfg, t_stop=t_stop, events=events).status)
        assert statuses == {"t_stop", "event", "overflow", "underflow"}

    def test_step_budget_matches_reference(self, monkeypatch):
        rhs, cfg = Field(parse_expr("-exp(-z)")), IntegratorConfig()
        # stops at and around the end of the seventh step, and far beyond
        t_stops = [t for t, _ in drive_field(rhs, 0j, cfg, t_stop=50.0).samples[5:10]] + [50.0]
        monkeypatch.setattr(flow_module, "_MAX_STEPS", 7)
        for t_stop in t_stops:
            want = _run_outcome(_reference_drive_field, rhs, 0j, cfg, t_stop)
            assert _run_outcome(drive_field, rhs, 0j, cfg, t_stop) == want
        assert "step budget exceeded (7 steps)" in _run_outcome(drive_field, rhs, 0j, cfg, 50.0)

    def test_stops_match_separate_runs_bit_for_bit(self, monkeypatch):
        rng = random.Random(20261018)
        statuses = set()
        for h_max, rhs, z0, cfg, t_stop, events in _drive_cases():
            if t_stop <= 0.0:
                continue
            monkeypatch.setattr(flow_module, "_H_MAX", h_max)
            first = min(h_max, t_stop, 0.01 * (1.0 + abs(z0)) / max(abs(rhs(z0)), 1e-12))
            # inside the span the run covers, then below the first step,
            # repeated, and t_stop itself
            reach = drive_field(rhs, z0, cfg, t_stop=t_stop, events=events).samples[-1][0]
            stops = [reach * (1.0 - rng.random()) for _ in range(rng.randint(1, 3))]
            stops += [first * (1.0 - rng.random()), stops[0], t_stop]
            rng.shuffle(stops)
            # a run crossed at its start (reach = t0 = 0) covers no span to stop inside
            stops = [s for s in stops if s > 0.0]
            res = drive_field(rhs, z0, cfg, t_stop=t_stop, events=events, stops=stops)
            assert _result_outcome(res, events) == _run_outcome(drive_field, rhs, z0, cfg, t_stop, events)
            assert len(res.at_stops) == len(stops)
            for s, got in zip(stops, res.at_stops):
                want = _run_outcome(drive_field, rhs, z0, cfg, s, events)
                assert _result_outcome(got, events) == want, (rhs, z0, cfg, t_stop, s)
                statuses.add(got.status)
        assert statuses == {"t_stop", "event", "overflow", "underflow"}

    @pytest.mark.parametrize("stop", [math.nan, 0.0, -1.0, 2.0])
    def test_stop_outside_the_run_rejected_before_any_step(self, stop):
        def no_calls(z):
            raise AssertionError("rhs evaluated")

        with pytest.raises(ValueError):
            drive_field(no_calls, 0j, IntegratorConfig(), t_stop=1.0, stops=(0.5, stop))


def _crossing_gs(rng, rhs, step):
    """The g of each event kind drive_field refines, set to cross the
    step's Hermite cubic: radii (between the ends, through a point of the
    cubic, near theta = 0 and 1, and one never negative), the seed's
    section, and the forms of the segment's near-zero and the transit's
    level event."""
    z, k1, z_new, k7, h = step
    zs = flow_module._hermite(z, k1, z_new, k7, h, rng.random())
    near_one = flow_module._hermite(z, k1, z_new, k7, h, 1.0 - 2.0**-50)
    gs = [
        Event.at_radius(rng.uniform(abs(z), abs(z_new))).g,
        Event.at_radius(abs(zs)).g,
        Event.at_radius(abs(z) * (1.0 + 1e-13)).g,
        Event.at_radius(abs(z_new)).g,
        Event.at_radius(abs(near_one)).g,
        Event.at_radius(0.0, start_below=True).g,
        flow_module._SeedReturn(zs, rhs(zs), rhs, flow_module._PERIODIC_RETURN_TOL).g,
    ]
    f_s = rhs(zs)
    gs.append(lambda q: 1e-9 * (1.0 + abs(q)) - abs(rhs(q) - f_s))
    gs.append(lambda q: rhs(q).real - f_s.real)
    return gs


def _reference_hermite(z0, d0, z1, d1, h, theta):
    """The step's cubic Hermite interpolant as flow._hermite wrote it with
    the real factor of each product on the left."""
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2 * t3 - 3 * t2 + 1) * z0
        + (t3 - 2 * t2 + theta) * (h * d0)
        + (-2 * t3 + 3 * t2) * z1
        + (t3 - t2) * (h * d1)
    )


class TestCrossingTheta:
    def test_matches_bisection_through_hermite(self):
        rng = random.Random(20261018)
        points = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
        thetas, calls, steps = [], [], 0

        def check(g, step):
            """The crossing, every point it tests and the interpolant there
            match a bisection to adjacent doubles along the reference
            interpolant."""
            seen, want_seen = [], []

            def counted(q):
                seen.append(q)
                return g(q)

            def reference(s):
                want_seen.append(_reference_hermite(*step, s))
                return g(want_seen[-1])

            want = _bisect_theta(reference)
            got = flow_module._crossing_theta(counted, *step)
            assert repr(got) == repr(want), step
            assert repr(seen) == repr(want_seen[: len(seen)]), step
            assert repr(flow_module._hermite(*step, got)) == repr(_reference_hermite(*step, got)), step
            thetas.append(got)
            calls.append(len(seen))

        while steps < 150:
            rhs = Field(tame_random_expr(rng, points, depth=rng.randint(1, 4)))
            z, h = rng.choice(points), rng.uniform(1e-3, 0.3)
            try:
                k1 = rhs(z)
                z_new, _, k7 = rhs.step(z, h, k1)
                gs = _crossing_gs(rng, rhs, (z, k1, z_new, k7, h))
            except (EvaluationOverflow, ZeroDivisionError):  # no value, or no seed direction
                continue
            steps += 1
            for g in gs:
                check(g, (z, k1, z_new, k7, h))
        # theta near 0 halves down to the least subnormal, the rest stop early
        assert 5e-324 in thetas and max(calls) == 1074
        assert sum(theta > 1.0 - 1e-12 for theta in thetas) >= 100
        assert sum(1e-15 < theta < 1e-9 for theta in thetas) >= 10
        assert min(calls) <= 55

        # ends and slopes with zero parts of either sign
        zeros = random.Random(20261019)
        rhs = Field(parse_expr("exp(z)"))
        for _ in range(100):
            step = [_signed_zeros(zeros, complex(zeros.uniform(-2, 2), zeros.uniform(-2, 2))) for _ in range(4)]
            step.append(zeros.uniform(1e-3, 0.3))
            for g in _crossing_gs(zeros, rhs, step):
                check(g, tuple(step))


class TestQuadratureBudget:
    def _diverging(self, *args, **kwargs):
        raise QuadratureDiverged(0.5)

    def test_chart_quadrature_failure_is_inconclusive(self, monkeypatch):
        traj = integrate(holo("z^2"), 1.0, IntegratorConfig(escape_radius=100.0))
        monkeypatch.setattr(flow_module, "gauss_kronrod", self._diverging)
        est = blowup_time_estimate(traj, IntegratorConfig(escape_radius=100.0))
        assert not est.conclusive
        assert "did not converge" in est.note

    def test_ray_quadrature_failure_is_inconclusive(self, monkeypatch):
        traj = integrate(holo("-exp(-z)"), 0.0)
        monkeypatch.setattr(flow_module, "gauss_kronrod", self._diverging)
        est = blowup_time_estimate(traj)
        assert not est.conclusive and est.method == "none"
        # the note names the plane point at x = 0.5: one |z_exit| out along the ray
        rhs = flow_module._rhs(traj.spec)
        _, z, _ = flow_module._transit_start(rhs, traj, IntegratorConfig())
        point = z + rhs(z) * (abs(z) / abs(rhs(z)))
        assert est.note == f"ray quadrature did not converge (integrand appears divergent near {point!r})"

    def test_chart_divergence_names_x(self, monkeypatch):
        # the conjugate flow of z^3 from 1 stays real: W = z^4 / 4 = L at the
        # exit, so X = X_exit + L (s^-4 - 1) is 4 z^4 at x = s = 0.5
        traj = integrate(anti("z^3"), 1.0)
        monkeypatch.setattr(flow_module, "gauss_kronrod", self._diverging)
        note = blowup_time_estimate(traj).note
        _, z, _ = flow_module._transit_start(flow_module._rhs(traj.spec), traj, IntegratorConfig())
        x = float(re.search(r"divergent near (\S+)\)$", note).group(1))
        assert note.startswith("level-chart quadrature did not converge") and abs(x - 4.0 * z.real**4) <= 1e-12 * x

    def test_clock_quadrature_failure_is_infinite_residual(self, monkeypatch):
        traj = integrate(holo("-exp(-z)"), 0.0, IntegratorConfig(t_max=0.5))
        monkeypatch.setattr(flow_module, "gauss_kronrod", self._diverging)
        assert conformal_clock_residual(traj) == math.inf
