import math

import pytest

from planeflow.errors import EvaluationOverflow
from planeflow.expr import parse_expr
from planeflow.flow import (
    ANTIHOLOMORPHIC,
    HOLOMORPHIC,
    REVERSED,
    Event,
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
        with pytest.raises(ValueError):
            IntegratorConfig(blowup_extrapolation_window=2)

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "h_max", "escape_radius",
                                      "t_max", "fixed_point_radius", "periodic_return_tol"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError):
            IntegratorConfig(**{name: math.nan})

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
