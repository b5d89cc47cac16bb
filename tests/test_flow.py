import math
import pickle
import random

import pytest

from planeflow import expr as expr_module
from planeflow import flow as flow_module
from planeflow import quadrature
from planeflow.errors import EvaluationOverflow, PlaneflowError
from planeflow.expr import Add, Constant, Variable, compile_fn, parse_expr
from planeflow.flow import (
    ANTIHOLOMORPHIC,
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
    sample_at,
)
from planeflow.quadrature import QuadratureDiverged, adaptive_gauss

from conftest import random_expr, tame_random_expr


def holo(text, direction="forward"):
    return FlowSpec(HOLOMORPHIC, parse_expr(text), direction)


def anti(text):
    return FlowSpec(ANTIHOLOMORPHIC, parse_expr(text))


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
        [pytest.param(n, math.nan, id=n) for n in ("rel_tol", "abs_tol", "h_max", "escape_radius", "t_max")]
        # an infinite tolerance accepts every step
        + [pytest.param(n, math.inf, id=f"{n}-inf") for n in ("rel_tol", "abs_tol")],
    )
    def test_nan_rejected(self, name, value):
        with pytest.raises(ValueError):
            IntegratorConfig(**{name: value})

    def test_infinite_budgets_still_accepted(self):
        cfg = IntegratorConfig(h_max=math.inf, t_max=math.inf, escape_radius=math.inf)
        assert cfg.t_max == math.inf


class TestIntegrate:
    def test_linear_flow_exponential(self):
        traj = integrate(holo("z"), 1.0)
        assert isinstance(traj.termination, ReachedRadius)
        z1 = sample_at(traj, 1.0)
        assert abs(z1 - math.e) <= 1e-8

    def test_exponential_closed_form(self):
        # z(t) = log(1 - t) for dz/dt = -exp(-z) from 0
        traj = integrate(holo("-exp(-z)"), 0.0)
        z_half = sample_at(traj, 0.5)
        assert abs(z_half - math.log(0.5)) <= 1e-6

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
        assert est.conclusive and est.method == "w_chart"
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

    def test_non_escaping_inconclusive(self):
        est = blowup_time_estimate(integrate(holo("i*z"), 1.0))
        assert not est.conclusive

    def test_quadratic_near_miss_not_blowup(self):
        # a seed just off the escape ray exits the radius but re-enters;
        # the w-chart consistency check must reject it
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

    def test_radius_marks_recorded_in_order(self):
        radii = (2.0, 4.0, 8.0)
        marks = self.radius_marks(radii)
        res = drive_field(
            lambda z: z,
            1.0,
            IntegratorConfig(h_max=0.5),
            t_stop=10.0,
            events=marks,
        )
        assert res.status == "event"
        assert [ev for ev, _, _ in res.crossings] == marks
        times = [t for _, t, _ in res.crossings]
        for r, t in zip(radii, times):
            assert abs(t - math.log(r)) <= 1e-6

    def test_marks_passed_at_start_not_recorded(self):
        radii = (2.0, 4.0, 8.0, 16.0)
        marks = self.radius_marks(radii)
        res = drive_field(
            lambda z: z,
            5.0,
            IntegratorConfig(h_max=0.5),
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


def _outcome(step, *args):
    """repr of the step's result, or the node and point of its overflow."""
    try:
        return repr(step(*args))
    except EvaluationOverflow as exc:
        return ("overflow", exc.node, repr(exc.at))


def _reference_rhs(tree, post, k):
    """The point function for each Field post-operation, as the flow
    integrator wrote its right-hand sides before Field."""
    f = compile_fn(tree)
    return {
        "{}": f,
        "-{}": lambda z: -f(z),
        "{}.conjugate()": lambda z: f(z).conjugate(),
        "-{}.conjugate()": lambda z: -f(z).conjugate(),
        "k * {}": lambda z: k * f(z),
    }[post]


class TestGeneratedStep:
    def test_matches_reference_step_bit_for_bit(self):
        rng = random.Random(20261018)
        for _ in range(300):
            tree = random_expr(rng, depth=rng.randint(1, 4))
            for post in flow_module._POSTS:
                factor = rng.choice((1.0, -1.0)) * 1j if post == "k * {}" else None
                rhs = Field(tree, post, factor)
                ref = _reference_rhs(tree, post, factor)
                for _ in range(2):
                    z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    h = rng.choice((1e-3, 0.05, 0.4)) * rng.uniform(0.5, 1.0)
                    k1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    assert _outcome(rhs, z) == _outcome(ref, z), (tree, post, z)
                    want = _outcome(_reference_dp_step, ref, z, h, k1)
                    assert _outcome(rhs.step, z, h, k1) == want, (tree, post, z, h, k1)

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
        sample_at(traj, 0.5 * traj.t_end)
        users.append(len(seen))
        assert 0 < users[0] < users[1] < users[2] < users[3]
        assert all(rhs is flow_module._rhs(spec) for rhs in seen)

    def test_equal_specs_keep_their_own_fields(self):
        # equal trees, different bits: a cache keyed on equality would
        # hand one of them the other's field
        pos = FlowSpec(HOLOMORPHIC, Add(Variable(), Constant(0.0)))
        neg = FlowSpec(HOLOMORPHIC, Add(Variable(), Constant(-0.0)))
        assert pos == neg
        assert flow_module._rhs(pos) is not flow_module._rhs(neg)
        assert repr(flow_module._rhs(pos)(-0.0)) != repr(flow_module._rhs(neg)(-0.0))

    def test_spec_pickles_without_its_field(self):
        spec = holo("z^2")
        traj = integrate(spec, 1.0)
        back = pickle.loads(pickle.dumps(traj))
        assert back == traj and "_rhs" not in back.spec.__dict__
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
        assert len(calls) == 2

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


def _reference_drive_field(rhs, z0, cfg, *, t0=0.0, t_stop, events=()):
    """The drive_field loop as it was written with min/max and a step
    counter, kept as the reference for the loop's clamps and budget."""
    _EPS, _MAX_STEPS = flow_module._EPS, flow_module._MAX_STEPS
    _stepper, _bisect_theta, _hermite = flow_module._stepper, flow_module._bisect_theta, flow_module._hermite
    OdeResult = flow_module.OdeResult
    t, z = t0, complex(z0)
    samples = [(t, z)]
    errors = [0.0]
    crossings = []

    k1 = rhs(z)
    watch = [[ev, -math.inf if ev.start_below else ev.g(z)] for ev in events]
    h = min(cfg.h_max, max(t_stop - t, 0.0) or 1.0, 0.01 * (1.0 + abs(z)) / max(abs(k1), 1e-12))
    h = max(h, 1e-300)
    steps = 0
    step = _stepper(rhs)

    while True:
        if t >= t_stop:
            return OdeResult(samples, errors, crossings, "t_stop")
        steps += 1
        if steps > _MAX_STEPS:
            raise PlaneflowError(f"step budget exceeded ({_MAX_STEPS} steps) at t={t!r}")
        h = min(h, cfg.h_max, t_stop - t)
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
        h = min(cfg.h_max, h * (5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (sc / err) ** 0.2))))


def _run_outcome(drive, rhs, z0, cfg, t_stop, events=()):
    """repr of everything a drive_field run returns, or of what it raised."""
    try:
        res = drive(rhs, z0, cfg, t_stop=t_stop, events=events)
    except PlaneflowError as exc:
        return repr(("raised", type(exc).__name__, str(exc)))
    crossings = [(events.index(ev), t, z) for ev, t, z in res.crossings]
    exc = res.exception
    raised = exc and (type(exc).__name__, str(exc), exc.node, repr(exc.at))
    return repr((res.samples, res.errors, crossings, res.status, raised))


def _integrate_events(rhs, z0, radius):
    """The events integrate() watches: its radius and the seed's return."""
    return (
        Event(lambda z: abs(z) - radius, start_below=True),
        flow_module._SeedReturn(z0, rhs(z0), rhs, flow_module._PERIODIC_RETURN_TOL),
    )


def _integrate_case(text, z0, radius, t_stop=20.0):
    """The run integrate() starts for the holomorphic flow of text."""
    rhs = Field(parse_expr(text))
    return rhs, z0, IntegratorConfig(), t_stop, _integrate_events(rhs, z0, radius)


def _dyadic_marks(z0, n=3):
    radii = [abs(z0) * 2.0**k for k in range(1, n + 1)]
    return tuple(Event((lambda z, r=r: abs(z) - r), terminal=r == radii[-1]) for r in radii)


def _stuck_above_one(z):
    # speed 1 towards a wall at Re z = 1 where the field has no value
    if z.real >= 1.0:
        raise EvaluationOverflow(None, at=z)
    return 1.0 + 0j


def _unchecked_cube(z):
    # no overflow check: a stage may return inf and the error turn non-finite
    return z * z * z


def _drive_cases():
    """(rhs, z0, cfg, t_stop, events) covering every exit and branch of
    drive_field, with seeded random fields from the conftest generators."""
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
        # overflow retries: recovered on the way, then ending in overflow,
        # raised by the field or by a non-finite error estimate
        (_stuck_above_one, 0j, cfg, 5.0, ()),
        (Field(parse_expr("exp(z)")), 0j, IntegratorConfig(rel_tol=1e-4), 2.0, ()),
        (_unchecked_cube, 1e100 + 0j, IntegratorConfig(rel_tol=1e-6), 1.0, ()),
        # past the blowup of z^2: rejections shrink h below the time
        # resolution, or accepted steps stop advancing t
        (Field(parse_expr("z^2")), 1 + 0j, IntegratorConfig(rel_tol=1e-6), 2.0, ()),
        (Field(parse_expr("z^2")), 1 + 0j, cfg, 2.0, ()),
        # a small h_max clamps every step
        (Field(parse_expr("i*z")), 1 + 0j, IntegratorConfig(h_max=0.01), 1.0, _dyadic_marks(0.5 + 0j)),
    ]
    rng = random.Random(20261019)
    points = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
    for _ in range(40):
        tree = tame_random_expr(rng, points, depth=rng.randint(1, 4))
        post = rng.choice(flow_module._POSTS)
        rhs = Field(tree, post, rng.choice((1j, -1j)) if post == "k * {}" else None)
        z0 = rng.choice(points)
        run_cfg = IntegratorConfig(rel_tol=rng.choice((1e-10, 1e-6)), h_max=rng.choice((1e6, 0.05)))
        try:
            events = rng.choice(((), _dyadic_marks(z0), _integrate_events(rhs, z0, 5.0)))
        except ZeroDivisionError:  # rhs vanishes at z0: no seed direction
            events = ()
        cases.append((rhs, z0, run_cfg, rng.uniform(0.5, 5.0), events))
    return cases


class TestDriveFieldLoop:
    def test_matches_reference_loop_bit_for_bit(self):
        statuses = set()
        for rhs, z0, cfg, t_stop, events in _drive_cases():
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


class TestQuadratureBudget:
    def test_near_pole_stops_at_budget(self):
        calls = []

        def near_pole(s):
            calls.append(s)
            return 1.0 / (s - 0.5 + 1e-9j)

        with pytest.raises(QuadratureDiverged) as err:
            adaptive_gauss(near_pole, 0.0, 1.0, 1e-14)
        assert len(calls) <= quadrature._GAUSS_MAX_EVALS
        assert abs(err.value.witness - 0.5) < 0.1

    def _diverging(self, *args, **kwargs):
        raise QuadratureDiverged(0.5)

    def test_chart_quadrature_failure_is_inconclusive(self, monkeypatch):
        traj = integrate(holo("z^2"), 1.0, IntegratorConfig(escape_radius=100.0))
        monkeypatch.setattr(flow_module, "adaptive_gauss", self._diverging)
        est = blowup_time_estimate(traj, IntegratorConfig(escape_radius=100.0))
        assert not est.conclusive
        assert "did not converge" in est.note

    def test_clock_quadrature_failure_is_infinite_residual(self, monkeypatch):
        traj = integrate(holo("-exp(-z)"), 0.0, IntegratorConfig(t_max=0.5))
        monkeypatch.setattr(flow_module, "adaptive_gauss", self._diverging)
        assert conformal_clock_residual(traj) == math.inf
