import bisect
import cmath
import dataclasses
import math
import random

import pytest
from conftest import reference_point_on_level, rubel_start

from planeflow.errors import PlaneflowError, SegmentTruncated, TractViolation
import planeflow.escape as escape_module
from planeflow import cli
from planeflow.escape import (
    RubelPathReport,
    TailIntegral,
    escape_measure,
    poly_flow_summary,
    rubel_path,
    transverse_segment,
)
from planeflow.expr import Scale, compile_fn, derivative, parse_expr
from planeflow.flow import (
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
from planeflow.jets import eval_jet
from planeflow.level import trace_level
from planeflow.quadrature import adaptive_gauss


class TestTransverseSegment:
    def test_exponential_segment_closed_form(self):
        # F(z) = 1 - exp(z) for f = -exp(-z), so F^{-1}(iy) = log(1 - iy)
        seg = transverse_segment(parse_expr("-exp(-z)"), 0.0, 1.0, 16)
        for y, z in seg:
            assert abs(z - cmath.log(1.0 - 1j * y)) <= 1e-9

    def test_constant_field_gives_vertical_segment(self):
        # constants are fine here even though FlowSpec rejects them
        seg = transverse_segment(parse_expr("1"), 0.0, 1.0, 8)
        for y, z in seg:
            assert abs(z - 1j * y) <= 1e-10

    def test_center_sample_is_seed(self):
        seg = transverse_segment(parse_expr("-exp(-z)"), 0.25 + 0.1j, 0.5, 8)
        ys = [y for y, _ in seg]
        assert 0.0 in ys
        assert seg[len(seg) // 2] == (0.0, 0.25 + 0.1j)

    def test_clock_inverse_residual(self):
        # F(z(y)) must equal iy; F evaluated by chord quadrature along the segment
        f = parse_expr("-exp(-z)")
        fe = lambda z: -cmath.exp(-z)
        seg = transverse_segment(f, 0.0, 1.0, 32)
        mid = len(seg) // 2
        for side in (seg[mid:], seg[mid::-1]):
            acc = 0j
            for (ya, za), (yb, zb) in zip(side, side[1:]):
                dz = zb - za
                acc += adaptive_gauss(lambda s: 1.0 / fe(za + s * dz), 0.0, 1.0, 1e-12) * dz
                assert abs(acc - 1j * yb) <= 1e-6

    def test_zero_of_f_truncates(self):
        # the segment field dz/dy = i(iz + 1) contracts onto the zero of f
        # at z = i, so |f| decays below the zero threshold at finite y
        with pytest.raises(SegmentTruncated) as err:
            transverse_segment(parse_expr("i*z + 1"), 0.0, 25.0, 16)
        assert 0.0 < err.value.achieved_delta < 25.0

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            transverse_segment(parse_expr("z"), 1.0, 0.5, 7)

    def test_seed_on_zero_rejected(self):
        with pytest.raises(ValueError):
            transverse_segment(parse_expr("z"), 0.0, 0.5, 8)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_delta_not_positive_finite_rejected(self, delta):
        # a NaN delta used to be reported as a zero of f at |y| = nan
        with pytest.raises(ValueError, match="positive finite"):
            transverse_segment(parse_expr("-exp(-z)"), 0.0, delta, 8)
        with pytest.raises(ValueError, match="positive finite"):
            escape_measure(parse_expr("-exp(-z)"), 0.0, delta, 2)


def _segment_fields(f):
    """The fields dz/dy = i f (y up) and -i f (y down) and the event of
    |f| falling to 1e-9 (1 + |z|), as the transverse segment is traced."""
    fe = compile_fn(f)
    near_zero = Event(lambda z: 1e-9 * (1.0 + abs(z)) - abs(fe(z)))
    return tuple(Field(Scale(sgn * 1j, f)) for sgn in (1.0, -1.0)), near_zero


def _reference_segment_point(f, z0, y, cfg):
    """The segment point at y traced alone, by one run from z0 to |y|."""
    if y == 0.0:
        return complex(z0)
    fields, near_zero = _segment_fields(f)
    res = drive_field(fields[y < 0], complex(z0), cfg, t_stop=abs(y), events=(near_zero,))
    if res.status != "t_stop":
        raise PlaneflowError(f"segment trace stopped ({res.status})")
    return res.samples[-1][1]


def _reference_escape_measure(f, z0, delta, n_samples, cfg, seed):
    """escape_measure as it was written: a 16-piece trace of the segment
    checks it for zeros of f, then each sample is traced from z0 alone.
    Returns the counts and every (y, samples, termination, name)."""
    transverse_segment(f, z0, delta, 16, cfg)
    spec = FlowSpec(HOLOMORPHIC, f)
    rng = random.Random(seed)
    counts, kept = {}, []
    for _ in range(n_samples):
        y = rng.uniform(-delta, delta)
        try:
            zy = _reference_segment_point(f, z0, y, cfg)
            traj = integrate(spec, zy, cfg)
            name = classify(traj, cfg).name
        except PlaneflowError:
            name = "error"
            traj = None
        counts[name] = counts.get(name, 0) + 1
        if traj is not None:
            kept.append((y, traj.samples, traj.termination, name))
    return counts, kept


_MEASURE_CASES = [
    ("-exp(-z)", 0j, 1.0),
    ("z^2", 1 + 0j, 1e-2),
    ("z^2", 1 + 0j, 0.1),
    ("z^3", 1 + 0.5j, 0.1),
    ("0.5*z^2 + 0.3*exp(-z)", 1 + 0.5j, 0.5),
]


@pytest.mark.parametrize("tol", [1e-10, 1e-3])
@pytest.mark.parametrize("text, z0, delta", _MEASURE_CASES)
def test_segment_points_match_separate_runs(text, z0, delta, tol):
    # each grid point is the one run from z0 to its |y|, as a Monte Carlo
    # sample's point is, not a chain of runs between grid points
    f = parse_expr(text)
    cfg = IntegratorConfig(rel_tol=tol, t_max=20.0)
    for n in (2, 16, 64):
        seg = transverse_segment(f, z0, delta, n, cfg)
        assert [y for y, _ in seg] == [k * (delta / (n // 2)) for k in range(-(n // 2), n // 2 + 1)]
        assert repr([z for _, z in seg]) == repr([_reference_segment_point(f, z0, y, cfg) for y, _ in seg])


class TestEscapeMeasure:
    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 1e-3])
    @pytest.mark.parametrize("text, z0, delta", _MEASURE_CASES)
    def test_matches_per_sample_reference(self, text, z0, delta, tol):
        f = parse_expr(text)
        cfg = IntegratorConfig(rel_tol=tol, t_max=20.0)
        for seed in (1, 2, 3):
            want = _reference_escape_measure(f, z0, delta, 8, cfg, seed)
            rep = escape_measure(f, z0, delta, 8, cfg, seed=seed, collect=8)
            kept = [(y, traj.samples, traj.termination, name) for y, traj, name in rep.trajectories]
            assert repr((rep.counts, kept)) == repr(want)

    def test_sweep_in_chunks_matches_per_sample_reference(self, monkeypatch):
        # eleven samples placed three at a time: four pairs of side traces
        monkeypatch.setattr(escape_module, "_SIDE_STOPS", 3)
        f, cfg = parse_expr("z^2"), IntegratorConfig(t_max=20.0)
        want = _reference_escape_measure(f, 1 + 0j, 0.1, 11, cfg, 5)
        rep = escape_measure(f, 1 + 0j, 0.1, 11, cfg, seed=5, collect=11)
        kept = [(y, traj.samples, traj.termination, name) for y, traj, name in rep.trajectories]
        assert repr((rep.counts, kept)) == repr(want)

    def test_empty_run(self):
        rep = escape_measure(parse_expr("-exp(-z)"), 0.0, 1.0, 0, IntegratorConfig())
        assert rep.counts == {}
        assert rep.finite_time_fraction == 0.0

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ValueError):
            escape_measure(parse_expr("-exp(-z)"), 0.0, 1.0, -5, IntegratorConfig())

    def test_counts_sum_and_determinism(self):
        cfg = IntegratorConfig(escape_radius=10.0, t_max=20.0)
        f = parse_expr("-exp(-z)")
        a = escape_measure(f, 0.0, 1.0, 60, cfg, seed=42)
        b = escape_measure(f, 0.0, 1.0, 60, cfg, seed=42)
        assert a.counts == b.counts
        assert sum(a.counts.values()) == 60
        c = escape_measure(f, 0.0, 1.0, 60, cfg, seed=43)
        assert sum(c.counts.values()) == 60

    def test_quadratic_field_tabulates(self):
        cfg = IntegratorConfig(escape_radius=50.0, t_max=20.0)
        rep = escape_measure(parse_expr("z^2"), 1.0, 0.1, 40, cfg, seed=11)
        assert sum(rep.counts.values()) == 40
        assert 0.0 <= rep.finite_time_fraction <= 1.0

    def test_zero_on_segment_raises_before_sampling(self, monkeypatch):
        monkeypatch.setattr(escape_module, "integrate", None)
        for n_samples in (5, 0):
            with pytest.raises(SegmentTruncated) as err:
                escape_measure(parse_expr("i*z + 1"), 0.0, 25.0, n_samples)
            # along dz/dy = i(iz + 1), |f| = e^-y falls to the 1e-9 (1 + |z|)
            # threshold near |z| = 1, at y = ln(5e8)
            assert abs(err.value.achieved_delta - math.log(5e8)) < 0.01

    def test_segment_fields_built_once(self, monkeypatch):
        calls = []
        for name in ("Field", "drive_field"):
            real = getattr(escape_module, name)
            monkeypatch.setattr(
                escape_module, name, lambda *a, name=name, real=real, **kw: calls.append(name) or real(*a, **kw)
            )
        f, cfg = parse_expr("-exp(-z)"), IntegratorConfig(t_max=5.0)
        for run in (lambda: escape_measure(f, 0.0, 1.0, 3, cfg), lambda: transverse_segment(f, 0.0, 1.0, 64, cfg)):
            calls.clear()
            run()
            # dz/dy = i f for y increasing and for y decreasing, one trace per side
            assert sorted(calls) == ["Field", "Field", "drive_field", "drive_field"]

    def test_collect_trajectories(self):
        cfg = IntegratorConfig(escape_radius=10.0, t_max=20.0)
        rep = escape_measure(parse_expr("-exp(-z)"), 0.0, 1.0, 10, cfg, seed=5, collect=4)
        assert len(rep.trajectories) == 4


class TestPolySummary:
    def test_quadratic_single_direction(self):
        s = poly_flow_summary([0, 0, 1], HOLOMORPHIC)
        assert s.degree == 2
        assert s.finite_time_directions == (0.0,)

    def test_cubic_directions(self):
        s = poly_flow_summary([0, 0, 0, 1], HOLOMORPHIC)
        assert s.finite_time_directions == (0.0, pytest.approx(math.pi))

    def test_rotated_leading_coefficient(self):
        # dz/dt = (i z)^2-style leading term: directions where a_n e^{i(n-1)t} > 0
        s = poly_flow_summary([0, 0, 1j], HOLOMORPHIC)
        (theta,) = s.finite_time_directions
        assert abs(cmath.exp(1j * theta) * 1j - abs(1j * cmath.exp(1j * theta))) <= 1e-12

    def test_linear_holomorphic_has_none(self):
        assert poly_flow_summary([1, 1], HOLOMORPHIC).finite_time_directions == ()

    def test_antiholomorphic_dichotomy(self):
        assert poly_flow_summary([0, 1], ANTIHOLOMORPHIC).finite_transit is False
        assert poly_flow_summary([0, 0, 1], ANTIHOLOMORPHIC).finite_transit is True

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_flow_summary([3.0], HOLOMORPHIC)

    def test_predicted_directions_blow_up(self):
        # along the predicted ray the flow escapes in finite time; rotated
        # by pi/n it does not (model field z^n)
        for n in (2, 3):
            coeffs = [0] * n + [1]
            s = poly_flow_summary(coeffs, HOLOMORPHIC)
            theta = s.finite_time_directions[0]
            spec = FlowSpec(HOLOMORPHIC, parse_expr("z^%d" % n))
            cfg = IntegratorConfig(escape_radius=50.0, t_max=50.0)
            on_ray = classify(integrate(spec, cmath.exp(1j * theta), cfg), cfg)
            off_ray = classify(
                integrate(spec, cmath.exp(1j * (theta + math.pi / n)), cfg), cfg
            )
            assert on_ray.name == "FiniteTimeBlowup"
            assert off_ray.name != "FiniteTimeBlowup"


def _reference_rubel_report(f, d_shift, curve, m_max=3, c_values=(0.5, 1.0)):
    """rubel_path's report from a traced curve, computed as it was before
    each node got one jet: a jet per Simpson node per panel and per growth
    mark, and log|f^(m)| per (m, c).  Also says whether the last sample
    was a growth mark."""
    fe = compile_fn(f)
    fpe = compile_fn(derivative(f))
    ts, zs = curve.xs, curve.zs
    vs = [fe(z) for z in zs]
    im_dev = max(abs(w.imag - d_shift) for w in vs)
    monotone = all(b.real > a.real for a, b in zip(vs, vs[1:])) and all(
        w.real > 0 for w in vs
    )

    def log_abs_deriv(t, jet, m):
        if jet[m] == 0:
            return -math.inf
        quotient = jet[m] * math.factorial(m) / jet[0]
        return math.log(abs(quotient)) + 0.5 * math.log(t * t + d_shift * d_shift)

    growth = {m: [] for m in range(m_max + 1)}
    next_mark = abs(zs[0])
    marked = [False] * len(zs)
    for i, (t, z) in enumerate(zip(ts, zs)):
        r = abs(z)
        if r < next_mark or r <= 1.0:
            continue
        marked[i] = True
        jet = eval_jet(f, z, m_max)
        for m in range(m_max + 1):
            growth[m].append((r, log_abs_deriv(t, jet, m) / math.log(r)))
        next_mark = r * 1.3
    if not marked[-1] and abs(zs[-1]) > 1.0:
        jet = eval_jet(f, zs[-1], m_max)
        r = abs(zs[-1])
        for m in range(m_max + 1):
            growth[m].append((r, log_abs_deriv(ts[-1], jet, m) / math.log(r)))

    panels = []
    for (ta, za), (tb, zb) in zip(curve.samples, curve.samples[1:]):
        tm = 0.5 * (ta + tb)
        zm = reference_point_on_level(fe, fpe, tm, d_shift, 0.5 * (za + zb))
        nodes = tuple(
            (t, eval_jet(f, z, m_max), abs(fpe(z)), w)
            for t, z, w in ((ta, za, 1.0), (tm, zm, 4.0), (tb, zb, 1.0))
        )
        panels.append((tb - ta, nodes))

    t_hi = ts[-1]
    t_lo = 0.5 * t_hi
    n_sub = 16
    diag_nodes = []
    for k in range(n_sub + 1):
        t = t_lo + (t_hi - t_lo) * k / n_sub
        i = min(bisect.bisect_left(ts, t), len(zs) - 1)
        z = reference_point_on_level(fe, fpe, t, d_shift, zs[i])
        diag_nodes.append((t, eval_jet(f, z, m_max), abs(fpe(z))))

    tails = []
    for m in range(m_max + 1):
        for c in c_values:
            partial = 0.0
            for width, nodes in panels:
                contrib = 0.0
                for t, jet, speed, w in nodes:
                    contrib += w * math.exp(-c * log_abs_deriv(t, jet, m)) / speed
                partial += contrib * width / 6.0
            vals = [
                math.exp(-c * log_abs_deriv(t, jet, m)) / speed
                for t, jet, speed in diag_nodes
            ]
            h = (t_hi - t_lo) / n_sub
            w_last = (h / 3.0) * (
                vals[0] + vals[-1] + 4.0 * sum(vals[1:-1:2]) + 2.0 * sum(vals[2:-1:2])
            )
            ratio = (vals[-1] * t_hi) / (vals[0] * t_lo) if vals[0] > 0 else math.inf
            finite = math.isfinite(partial) and ratio < 1.0
            bound = w_last * ratio / (1.0 - ratio) if finite else math.inf
            tails.append(TailIntegral(m, c, partial, ratio, bound, finite))

    growth_out = {m: tuple(points) for m, points in growth.items()}
    report = RubelPathReport(
        f, d_shift, curve.samples, monotone, im_dev, growth_out, tuple(tails)
    )
    return report, marked[-1]


def _rubel_cases():
    """Seeded (f, D, seed, t_end, m_max, c_values) for exp(z), exp(2z),
    exp(z^2) and exp(z) + z."""
    rng = random.Random(20261018)
    exp_z, exp_2z = parse_expr("exp(z)"), parse_expr("exp(2*z)")
    # from z = 2 the last sample is a growth mark at t_end = e^21 but not at e^60
    cases = [(exp_z, 0.0, 2.0, math.exp(t), 3, (0.5, 1.0)) for t in (21.0, 60.0)]
    for _ in range(14):
        d_shift, seed = rubel_start(rng)
        cases.append((exp_z, d_shift, seed, math.exp(rng.uniform(8.0, 80.0)), 3, (0.5, 1.0)))
    for _ in range(5):
        d_shift, seed = rubel_start(rng, 2.0)
        cases.append((exp_2z, d_shift, seed, math.exp(rng.uniform(8.0, 80.0)), 4, (0.25, 1.0, 2.0)))
    # f^(m)/f is not constant along these paths, and f' is not f; real seeds, D = 0
    exp_z2, exp_z_plus_z = parse_expr("exp(z^2)"), parse_expr("exp(z) + z")
    for _ in range(3):
        cases.append((exp_z2, 0.0, rng.uniform(1.0, 2.0), math.exp(rng.uniform(8.0, 80.0)), 4, (0.25, 1.0, 2.0)))
        cases.append((exp_z_plus_z, 0.0, rng.uniform(1.0, 3.0), math.exp(rng.uniform(8.0, 80.0)), 3, (0.5, 1.0)))
    return cases


class TestRubelPath:
    def test_real_axis_growth(self):
        cfg = IntegratorConfig(escape_radius=1e9)
        rep = rubel_path(parse_expr("exp(z)"), 0.0, 2.0, math.exp(110.0), cfg)
        assert rep.monotone
        assert rep.im_deviation <= 1e-9
        for m in range(4):
            points = rep.growth_ratios[m]
            at_100 = [q for r, q in points if r >= 100.0]
            assert at_100 and min(at_100) > 20.0
            r_end = points[-1][0]
            last_decade = [q for r, q in points if r >= r_end / 10.0]
            assert all(a < b for a, b in zip(last_decade, last_decade[1:]))

    def test_tail_integrals_match_closed_form(self):
        # on the real axis |f^(m)| = t and |dz/dt| = 1/t, so the integral
        # of |f^(m)|^-c |dz| from t0 is t0^(-c)/c
        cfg = IntegratorConfig(escape_radius=1e9)
        t0 = math.exp(2.0)
        rep = rubel_path(parse_expr("exp(z)"), 0.0, 2.0, math.exp(110.0), cfg)
        for tail in rep.tail_integrals:
            assert tail.finite
            want = t0 ** (-tail.c) / tail.c
            assert abs(tail.partial_sum + tail.tail_bound - want) <= 1e-3 * want
            assert abs(tail.window_ratio - 2.0 ** (-tail.c)) <= 1e-3

    @pytest.mark.parametrize("t_end", [1e200, 1e300, 1e308, 1.7e308])
    def test_tails_stay_finite_to_the_double_range(self, t_end):
        # past t ~ 1.3e154, t*t overflows, and the window's end terms
        # t^(-c-1) underflow to 0; the tails still match the closed form
        t0 = math.exp(2.0)
        rep = rubel_path(parse_expr("exp(z)"), 0.0, 2.0, t_end, IntegratorConfig(escape_radius=1e9))
        for tail in rep.tail_integrals:
            assert tail.finite
            assert abs(tail.window_ratio - 2.0 ** (-tail.c)) <= 1e-3
            want = t0 ** (-tail.c) / tail.c
            assert abs(tail.partial_sum + tail.tail_bound - want) <= 1e-3 * want
        assert all(math.isfinite(q) for points in rep.growth_ratios.values() for _, q in points)

    def test_shifted_level_line(self):
        cfg = IntegratorConfig(escape_radius=1e9)
        seed = cmath.log(10 + 5j)
        rep = rubel_path(parse_expr("exp(z)"), 5.0, seed, math.exp(110.0), cfg)
        assert rep.monotone
        assert rep.im_deviation <= 1e-8
        assert all(t.finite for t in rep.tail_integrals)

    def test_matches_reference_bit_for_bit(self):
        cfg = IntegratorConfig(escape_radius=1e9)
        last_marked = set()
        for f, d_shift, seed, t_end, m_max, c_values in _rubel_cases():
            rep = rubel_path(f, d_shift, seed, t_end, cfg, m_max=m_max, c_values=c_values)
            curve = trace_level(f, seed, t_end, cfg)
            want, marked = _reference_rubel_report(f, d_shift, curve, m_max, c_values)
            assert repr(rep) == repr(want), (f, d_shift, seed, t_end)
            last_marked.add(marked)
        # both ways of ending the growth record are exercised
        assert last_marked == {True, False}

    def test_one_jet_per_node(self, monkeypatch):
        real = escape_module._rubel_node
        calls = []

        def counted_node(*args):
            node = real(*args)

            def counted(t, z, w):
                calls.append(z)
                return node(t, z, w)

            return counted

        monkeypatch.setattr(escape_module, "_rubel_node", counted_node)
        cfg = IntegratorConfig(escape_radius=1e9)
        for f, d_shift, seed, t_end, m_max, c_values in _rubel_cases()[:6]:
            calls.clear()
            rep = rubel_path(f, d_shift, seed, t_end, cfg, m_max=m_max, c_values=c_values)
            # every sample, every panel midpoint and the 17 window nodes
            assert len(calls) == 2 * len(rep.samples) - 1 + 17

    @pytest.mark.parametrize("m_max", [-1, 65])
    def test_m_max_rejected_before_tracing(self, monkeypatch, m_max):
        monkeypatch.setattr(escape_module, "trace_level", None)
        with pytest.raises(ValueError, match="m_max"):
            rubel_path(parse_expr("exp(z)"), 0.0, 2.0, 100.0, m_max=m_max)

    @pytest.mark.parametrize("c_values", [(0.0,), (-400.0,), (0.5, -1.0), (math.nan,), (math.inf,)])
    def test_nonpositive_c_rejected_before_tracing(self, monkeypatch, c_values):
        # for c <= 0 the tail integrand does not decay: c = 0 is the path's
        # length, and c = -400 overflowed
        monkeypatch.setattr(escape_module, "trace_level", None)
        with pytest.raises(ValueError, match="tail exponent"):
            rubel_path(parse_expr("exp(z)"), 0.0, 2.0, 1e18, c_values=c_values)

    def test_off_level_seed_rejected(self):
        with pytest.raises(TractViolation):
            rubel_path(parse_expr("exp(z)"), 0.0, 2j, 100.0, IntegratorConfig())

    def test_negative_re_f_rejected(self):
        with pytest.raises(TractViolation):
            rubel_path(parse_expr("exp(z)"), 0.0, complex(1.0, math.pi), 100.0, IntegratorConfig())


class TestExports:
    def test_star_import(self):
        namespace = {}
        exec("from planeflow.escape import *", namespace)
        assert "RubelPathReport" in namespace


class TestTractDemo:
    def test_one_estimate_per_verdict(self, monkeypatch):
        import planeflow.flow as flow_mod

        real = flow_mod.blowup_time_estimate
        calls = []

        def counted(traj, cfg=None):
            # count only the estimates computed, not those read back from traj
            kept = traj.__dict__.get("_estimate")
            if kept is None or kept[0] != cfg:
                calls.append((traj, cfg))
            return real(traj, cfg)

        monkeypatch.setattr(flow_mod, "blowup_time_estimate", counted)
        monkeypatch.setattr(cli, "blowup_time_estimate", counted)
        _, _, m = cli._demo_tract()
        monkeypatch.undo()
        assert len(calls) == 4
        # each verdict is the one classify gives for a copy of the same run,
        # which keeps no estimate
        (traj, cfg), *_, (last_traj, last_cfg) = calls
        traj, last_traj = dataclasses.replace(traj), dataclasses.replace(last_traj)
        est = real(traj, cfg)
        finite, infinite = m["finite"], m["infinite"]
        assert finite["termination"] == classify(traj, cfg).name
        assert (finite["conclusive"], finite["t_est"], finite["t_err"]) == (est.conclusive, est.t_est, est.t_err)
        assert infinite["termination"] == classify(last_traj, last_cfg).name
        assert infinite["conclusive"] == real(last_traj, last_cfg).conclusive
