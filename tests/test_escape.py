import bisect
import cmath
import dataclasses
import math
import random
import sys
from types import FunctionType

import pytest
from conftest import reference_point_on_level, rubel_start

from planeflow.errors import PlaneflowError, SegmentTruncated, TractViolation
import planeflow.escape as escape_module
import planeflow.jets as jets_module
from planeflow import cli
from planeflow.escape import (
    RubelPathReport,
    TailIntegral,
    escape_measure,
    poly_flow_summary,
    rubel_path,
    transverse_segment,
)
from planeflow.expr import Scale, _bind, _emit_body, _function_code, compile_fn, derivative, parse_expr
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
from planeflow.jets import _jet_body, eval_jet
from planeflow.level import _newton, point_on_level, trace_level
from planeflow.quadrature import gauss_kronrod


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
                acc += gauss_kronrod(lambda s: 1.0 / fe(za + s * dz), 0.0, 1.0, 1e-12) * dz
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

    def test_delta_too_wide_to_sample_rejected(self):
        # rng.uniform(-delta, delta) takes the width 2 delta, a double only up to half the largest
        half = sys.float_info.max / 2
        with pytest.raises(ValueError, match=r"delta must be at most half the largest double, .*got 1e\+308"):
            escape_measure(parse_expr("z^2"), 1.0, 1e308, 3)
        with pytest.raises(ValueError, match="delta must be at most"):
            escape_measure(parse_expr("z^2"), 1.0, math.nextafter(half, math.inf), 3)
        # half the largest double is sampled, and its segment meets z^2's zero
        with pytest.raises(SegmentTruncated):
            escape_measure(parse_expr("z^2"), 1.0, half, 3)


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

    def test_sweep_traces_each_side_once(self, monkeypatch):
        # 2049 points, more than any fixed batch of stops, from one trace per side
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(kwargs["stops"]))
            return drive_field(*args, **kwargs)

        monkeypatch.setattr(escape_module, "drive_field", counted)
        f, cfg = parse_expr("z^2"), IntegratorConfig(t_max=20.0)
        rng = random.Random(5)
        ys = [rng.uniform(-0.1, 0.1) for _ in range(2049)]
        points = escape_module._segment_points(f, 1 + 0j, 0.1, ys, cfg)
        assert len(calls) == 2 and sum(calls) == len(ys)
        assert [y for y, _ in points] == ys
        got = [escape_module._segment_end(*end) for _, end in points]
        assert repr(got) == repr([_reference_segment_point(f, 1 + 0j, y, cfg) for y in ys])

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
        cfg = IntegratorConfig(t_max=5.0)
        runs = (lambda f: escape_measure(f, 0.0, 1.0, 3, cfg), lambda f: transverse_segment(f, 0.0, 1.0, 64, cfg))
        for first, second in (runs, runs[::-1]):
            f = parse_expr("-exp(-z)")
            for run, built in ((first, ["Field", "Field"]), (second, []), (first, [])):
                calls.clear()
                run(f)
                # dz/dy = i f for y increasing and for y decreasing, one trace per side;
                # their Fields are built at the first call on a tree and kept on it
                assert sorted(calls) == [*built, "drive_field", "drive_field"]

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


def _richardson(full, diffs, n):
    """The reported partial sum and its bar from the rule over n samples and
    the differences, pair of steps by pair, between it and the rule over every
    other sample: full + sum/15 and the sum of their absolute values, or full
    and inf where fewer than 3 samples or an infinite sum leave one rule."""
    diff = spread = 0.0
    for d in diffs:
        diff += d
    for d in diffs:
        spread += abs(d)
    if n < 3 or not (math.isfinite(full) and math.isfinite(spread)):
        return full, math.inf
    return full + diff / 15.0, spread


def _reference_rubel_report(f, d_shift, curve, m_max=3, c_values=(0.5, 1.0)):
    """rubel_path's report from a traced curve, computed without its generated
    node: a jet per node from eval_jet, |f'| and the f of the checks from the
    compiled f' and f, and the tail sums written out once per (m, c).  Also
    says whether the last sample was a growth mark."""
    fe = compile_fn(f)
    fpe = compile_fn(derivative(f))
    order = max(m_max + 1, 2)
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

    def at(t, z):
        return t, eval_jet(f, z, order), abs(fpe(z))

    def term(node, m, c):
        t, jet, speed = node
        return math.exp(-c * log_abs_deriv(t, jet, m)) / speed

    def slope(node, m, c):
        # d log(t q) / d log t on the path, where dz/dt = 1/f'
        t, jet, _ = node
        u = t / jet[1]
        k = 1.0 - (2 * jet[2] / jet[1] * u).real
        return k - c * ((m + 1) * jet[m + 1] / jet[m] * u).real

    def log_trapezoid(nodes, m, c):
        total = 0.0
        for a, b in zip(nodes, nodes[1:]):
            h = math.log(b[0]) - math.log(a[0])
            fa, fb = a[0] * term(a, m, c), b[0] * term(b, m, c)
            total += h / 2.0 * (fa + fb) + h * h / 12.0 * (fa * slope(a, m, c) - fb * slope(b, m, c))
        return total

    samples = [at(t, z) for t, z in curve.samples]
    t_hi = ts[-1]
    t_lo = 0.5 * t_hi
    first = bisect.bisect_right(ts, t_lo)
    window = [at(t_lo, reference_point_on_level(fe, fpe, t_lo, d_shift, zs[first])), *samples[first:]]

    tails = []
    for m in range(m_max + 1):
        for c in c_values:
            full = log_trapezoid(samples, m, c)
            pairs = [samples[k - 2 : k + 1] for k in range(2, len(samples), 2)]
            diffs = [log_trapezoid(p, m, c) - log_trapezoid(p[::2], m, c) for p in pairs]
            partial, err = _richardson(full, diffs, len(samples))
            w_last = log_trapezoid(window, m, c)
            lo, hi = term(window[0], m, c), term(window[-1], m, c)
            ratio = (hi * t_hi) / (lo * t_lo) if lo > 0 else math.inf
            finite = math.isfinite(partial) and ratio < 1.0
            bound = w_last * ratio / (1.0 - ratio) if finite else math.inf
            tails.append(TailIntegral(m, c, partial, ratio, bound, finite, err))

    growth_out = {m: tuple(points) for m, points in growth.items()}
    report = RubelPathReport(
        f, d_shift, curve.samples, monotone, im_dev, growth_out, tuple(tails)
    )
    return report, marked[-1]


# rubel_path's node and tail sums as they were before one generated pass
# walked the path: a function generated per node, whose lists are then
# transposed into one column per (m, c) and summed by _column_trapezoid,
# kept as the reference the pass must match repr for repr.

def _column_node(f, df, d_shift, m_max, c_values):
    env = {
        "complex": complex, "exp": cmath.exp, "log": math.log, "hypot": math.hypot, "exp_real": math.exp, "inf": math.inf,
    }
    jet, coeffs = _jet_body(f, max(m_max + 1, 2), env)
    a0, a1, a2 = coeffs[:3]
    lines = [
        "def node(t, z0):",
        "    z = complex(z0)",
        *jet,
        f"    tt = t * t + {_bind(env, 'c', d_shift * d_shift)}",
        f"    lf = 0.5 * log(tt) if tt < inf else log(hypot(t, {_bind(env, 'c', d_shift)}))",
        f"    u = t / {a1}",
        f"    k = 1.0 - (2 * {a2} / {a1} * u).real",
    ]
    for m, (a, b) in enumerate(zip(coeffs[: m_max + 1], coeffs[1:])):
        lines += [
            f"    L{m} = log(abs({a} * {math.factorial(m)} / {a0})) + lf if {a} != 0 else -inf",
            f"    e{m} = ({m + 1} * {b} / {a} * u).real if {a} != 0 else 0.0",
        ]
    body, fp, env = _emit_body(df, env, root="droot", temp="d")
    cs = [(m, _bind(env, "c", c)) for m in range(m_max + 1) for c in c_values]
    lines += [
        body,
        f"    s = abs({fp})",
        f"    return [{', '.join(f'L{m}' for m in range(m_max + 1))}], "
        f"[{', '.join(f'exp_real(-{c} * L{m}) / s' for m, c in cs)}], "
        f"[{', '.join(f'k - {c} * e{m}' for m, c in cs)}], s, {a0}",
    ]
    return FunctionType(_function_code("\n".join(lines)), env)


def _column_trapezoid(ts, ss, qs, ds):
    """The rule over the nodes, and its differences from the rule over every
    other node, pair of steps by pair."""
    fs = [t * q for t, q in zip(ts, qs)]
    if math.inf in fs:
        return math.inf, []
    nodes = [(sv, fv, fv * d) for sv, fv, d in zip(ss, fs, ds)]

    def rule(nodes):
        total = 0.0
        for (sa, fa, ga), (sb, fb, gb) in zip(nodes, nodes[1:]):
            h = sb - sa
            total += h / 2.0 * (fa + fb) + h * h / 12.0 * (ga - gb)
        return total

    pairs = [nodes[k - 2 : k + 1] for k in range(2, len(nodes), 2)]
    return rule(nodes), [rule(p) - rule(p[::2]) for p in pairs]


def _column_report(f, d_shift, curve, m_max, c_values):
    """rubel_path's report from a traced curve, by the per-node function
    and the per-column sums."""
    df = derivative(f)
    ts, zs = curve.xs, curve.zs
    node = _column_node(f, df, d_shift, m_max, c_values)
    at_samples = [node(t, z) for t, z in zip(ts, zs)]
    vs = [v for *_, v in at_samples]
    im_dev = max(abs(w.imag - d_shift) for w in vs)
    monotone = all(b.real > a.real for a, b in zip(vs, vs[1:])) and all(w.real > 0 for w in vs)

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

    t_hi = ts[-1]
    t_lo = 0.5 * t_hi
    first = bisect.bisect_right(ts, t_lo)
    window = [node(t_lo, point_on_level(_newton(f, df), t_lo, d_shift, zs[first])[0]), *at_samples[first:]]
    ss = [math.log(t) for t in ts]
    ts_w, ss_w = (t_lo, *ts[first:]), (math.log(t_lo), *ss[first:])

    (logs_lo, *_, s_lo, _), (logs_hi, *_, s_hi, _) = window[0], window[-1]
    pairs = [(m, c) for m in range(m_max + 1) for c in c_values]
    columns = [zip(*(rec[k] for rec in nodes)) for nodes in (at_samples, window) for k in (1, 2)]
    tails = []
    for (m, c), qs, ds, vals, ds_w in zip(pairs, *columns):
        partial, err = _richardson(*_column_trapezoid(ts, ss, qs, ds), len(ts))
        w_last = _column_trapezoid(ts_w, ss_w, vals, ds_w)[0]
        ratio = (vals[-1] * t_hi) / (vals[0] * t_lo) if 0 < vals[0] < math.inf and vals[-1] < math.inf else math.inf
        if 0.0 in (vals[0], vals[-1]) and math.isfinite(logs_lo[m]) and math.isfinite(logs_hi[m]):
            x = (-c * logs_hi[m] - math.log(s_hi) + math.log(t_hi)) - (
                -c * logs_lo[m] - math.log(s_lo) + math.log(t_lo)
            )
            ratio = math.exp(x) if x < 709.0 else math.inf
        finite = math.isfinite(partial) and ratio < 1.0 - 1e-12
        bound = w_last * ratio / (1.0 - ratio) if finite else math.inf
        tails.append(TailIntegral(m, c, partial, ratio, bound, finite, err))

    return RubelPathReport(f, d_shift, curve.samples, monotone, im_dev, growth, tuple(tails))


def _pass_outcome(fn):
    """repr of the report, or the exception's class and message."""
    try:
        return repr(fn())
    except Exception as exc:
        return type(exc), str(exc)


def _column_cases():
    """(f, D, seed, t_end) of class-B paths, D in {0, 3.7}, and of the edges:
    the infinite tail of z^2, the window ratio of z just under 1, t_end near
    the top of the double range, and f'' so small that a term overflows."""
    cases = []
    for text, seed in [
        ("exp(z)", 2.0), ("z*exp(z)", 2.0), ("exp(z^2)", 2.0), ("exp(2*z)", 1.0),
        ("(exp(i*z)-exp(-i*z))*(-0.5i)", complex(math.pi / 2, 1.0)),
    ]:
        f = parse_expr(text)
        fe, fpe = compile_fn(f), compile_fn(derivative(f))
        w = fe(complex(seed))
        cases.append((f, w.imag, seed, math.exp(40.0)))
        # the same t on the level Im f = 3.7, by Newton's method from the seed
        cases.append((f, 3.7, reference_point_on_level(fe, fpe, w.real, 3.7, seed), math.exp(40.0)))
    for text, t_end in [("z^2", 1e6), ("z", 1e6), ("exp(z)", 1.7e308), ("z + 1e-300*z^2", 1e6)]:
        cases.append((parse_expr(text), 0.0, 2.0, t_end))
    return cases


def _tail_integrand(f, d_shift, m_max, c_values):
    """(place, q): place(t, guess) puts a point on the path f = t + iD by
    Newton's method, and q(z) lists |f^(m)(z)|^(-c) / |f'(z)| per (m, c),
    c fastest, from the compiled symbolic derivatives of f."""
    derivs = [f]
    for _ in range(max(m_max, 1)):
        derivs.append(derivative(derivs[-1]))
    fe, fpe = compile_fn(f), compile_fn(derivs[1])
    compiled = [compile_fn(d) for d in derivs[: m_max + 1]]

    def place(t, guess):
        return reference_point_on_level(fe, fpe, t, d_shift, guess)

    def q(z):
        speed = abs(fpe(z))
        sizes = [abs(fn(z)) for fn in compiled]
        return [sizes[m] ** -c / speed for m in range(m_max + 1) for c in c_values]

    return place, q


def _simpson_partials(samples, place, q):
    """The partial sums as rubel_path took them before its tails were summed
    in log t: composite Simpson in t, one panel per pair of samples, with
    its midpoint placed on the path."""
    panels = []
    for (ta, za), (tb, zb) in zip(samples, samples[1:]):
        tm = 0.5 * ta + 0.5 * tb
        qs = zip(q(za), q(place(tm, 0.5 * (za + zb))), q(zb))
        panels.append([(qa + 4.0 * qm + qb) * (tb - ta) / 6.0 for qa, qm, qb in qs])
    return [math.fsum(col) for col in zip(*panels)]


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / dp
            x -= step
            if abs(step) < 1e-16:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return nodes, weights


def _dense_partials(samples, place, q):
    """The partial sums by a 10-point Gauss-Legendre rule in s = log t on
    two half-panels per pair of samples, every node placed on the path."""
    xs, ws = _gauss_legendre(10)
    parts = []
    for (ta, za), (tb, zb) in zip(samples, samples[1:]):
        sa, sb = math.log(ta), math.log(tb)
        sm = 0.5 * (sa + sb)
        for lo, hi in ((sa, sm), (sm, sb)):
            half = 0.5 * (hi - lo)
            for x, w in zip(xs, ws):
                t = math.exp(lo + half * (x + 1.0))
                z = place(t, za + (t - ta) / (tb - ta) * (zb - za))
                parts.append([w * half * t * v for v in q(z)])
    return [math.fsum(col) for col in zip(*parts)]


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
        assert rep.im_deviation <= 1e-12
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
            assert abs(tail.partial_sum + tail.tail_bound - want) <= 1e-4 * want
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
        assert rep.im_deviation <= 1e-12
        assert all(t.finite for t in rep.tail_integrals)

    def test_matches_reference_bit_for_bit(self):
        # the reference takes im_deviation and monotone from the compiled f,
        # where rubel_path reads f from its nodes' jets
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

    def test_tails_beat_simpson_against_a_dense_rule(self):
        # on every tail, the partial sum is nearer a dense Gauss-Legendre value
        # than the composite Simpson sum it replaced, with its placed midpoints
        cfg = IntegratorConfig(escape_radius=1e9)
        n_tails = 0
        for f, d_shift, seed, t_end, m_max, c_values in _rubel_cases():
            rep = rubel_path(f, d_shift, seed, t_end, cfg, m_max=m_max, c_values=c_values)
            place, q = _tail_integrand(f, d_shift, m_max, c_values)
            simpson = _simpson_partials(rep.samples, place, q)
            dense = _dense_partials(rep.samples, place, q)
            for tail, old, want in zip(rep.tail_integrals, simpson, dense, strict=True):
                assert abs(tail.partial_sum - want) <= abs(old - want), (f, d_shift, seed, tail)
                n_tails += 1
        assert n_tails == 272

    def test_derivatives_up_to_the_order_cap(self):
        # m_max = 64 takes the jet to order 65; every derivative of exp is exp
        cfg = IntegratorConfig(escape_radius=1e9)
        rep = rubel_path(parse_expr("exp(z)"), 0.0, 2.0, math.exp(60.0), cfg, m_max=64)
        assert sorted(rep.growth_ratios) == list(range(65))
        t0 = math.exp(2.0)
        assert len(rep.tail_integrals) == 130
        at_m0 = {tail.c: tail.partial_sum for tail in rep.tail_integrals if tail.m == 0}
        for tail in rep.tail_integrals:
            assert tail.finite
            want = t0 ** (-tail.c) / tail.c
            assert abs(tail.partial_sum + tail.tail_bound - want) <= 1e-4 * want
            assert abs(tail.partial_sum - at_m0[tail.c]) <= 1e-12 * want

    def test_vanishing_derivative_gives_an_infinite_tail(self):
        # f''' = 0 for z^2: its term is infinite at every node and its slope
        # has no value, and the tail and its bar are inf, not nan
        rep = rubel_path(parse_expr("z^2"), 0.0, 2.0, 1e6, IntegratorConfig(escape_radius=1e9))
        assert len(rep.samples) > 2
        for tail in rep.tail_integrals:
            assert math.isfinite(tail.partial_sum) == (tail.m < 3) == math.isfinite(tail.partial_err)
            assert tail.m < 3 or (tail.partial_sum == tail.partial_err == math.inf and not tail.finite)

    def test_infinite_tail_has_an_infinite_window_ratio(self):
        # both window end terms of m = 3 are inf for z^2: the ratio is inf, not inf/inf
        rep = rubel_path(parse_expr("z^2"), 0.0, 2.0, 1e6, IntegratorConfig(escape_radius=1e9))
        assert [t.window_ratio for t in rep.tail_integrals if t.m == 3] == [math.inf, math.inf]

    def test_ratio_rounded_just_under_one_is_not_finite(self):
        # m = 0, c = 1 for z is the divergent integral of |z|^(-1) |dz|; its
        # window ratio is 1 rounded down
        rep = rubel_path(parse_expr("z"), 0.0, 2.0, 1e6, IntegratorConfig(escape_radius=1e9))
        (tail,) = [t for t in rep.tail_integrals if (t.m, t.c) == (0, 1.0)]
        assert 1.0 - 1e-12 <= tail.window_ratio < 1.0
        assert not tail.finite and tail.tail_bound == math.inf

    def test_no_tail_exponents(self):
        rep = rubel_path(parse_expr("exp(z)"), 0.0, 2.0, 100.0, c_values=())
        assert rep.tail_integrals == () and len(rep.growth_ratios) == 4

    def test_one_jet_per_node(self, monkeypatch):
        # each of these f has one exp, so each jet evaluation makes one exp recurrence
        real = jets_module._kernel
        calls = []

        def counted_kernel(mul, n, live):
            fn = real(mul, n, live)
            return fn if mul else (lambda *u: calls.append(1) or fn(*u))

        monkeypatch.setattr(jets_module, "_kernel", counted_kernel)
        cfg = IntegratorConfig(escape_radius=1e9)
        for f, d_shift, seed, t_end, m_max, c_values in _rubel_cases()[:6]:
            calls.clear()
            rep = rubel_path(f, d_shift, seed, t_end, cfg, m_max=m_max, c_values=c_values)
            # every sample and the window's node at T/2
            assert len(calls) == len(rep.samples) + 1

    def test_matches_column_pass_repr_for_repr(self):
        # the one generated pass against the per-node function and per-column
        # sums it replaced: reports, and exceptions in their order
        cfg = IntegratorConfig(escape_radius=1e9)
        outcomes = []
        for f, d_shift, seed, t_end in _column_cases():
            curve = trace_level(f, seed, t_end, cfg)
            for m_max in range(5):
                for c_values in [(0.25, 0.5, 1.0, 2.0), ()] if m_max == 3 else [(0.25, 0.5, 1.0, 2.0)]:
                    got = _pass_outcome(lambda: rubel_path(f, d_shift, seed, t_end, cfg, m_max=m_max, c_values=c_values))
                    want = _pass_outcome(lambda: _column_report(f, d_shift, curve, m_max, c_values))
                    assert got == want, (f, d_shift, seed, t_end, m_max, c_values)
                    outcomes.append(want)
        # the edges are reached: an infinite tail, a ratio just under 1, and a term that overflows
        assert any("partial_sum=inf" in o for o in outcomes if isinstance(o, str))
        assert any("window_ratio=0.99999999999" in o for o in outcomes if isinstance(o, str))
        assert (OverflowError, "math range error") in outcomes

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

    @pytest.mark.parametrize("d_shift", [math.nan, math.inf, -math.inf])
    def test_nonfinite_d_shift_rejected_before_tracing(self, monkeypatch, d_shift):
        # NaN passed the seed's level check (|Im f - D| > tol is false) and the
        # whole path was traced before the T/2 node's corrector diverged
        monkeypatch.setattr(escape_module, "trace_level", None)
        with pytest.raises(ValueError, match="d_shift must be finite"):
            rubel_path(parse_expr("exp(z)"), d_shift, 2.0, 1e10, IntegratorConfig(escape_radius=1e9))

    def test_nan_t_end_rejected(self):
        # NaN compares false: a guard written as t_end <= Re f lets it through
        with pytest.raises(ValueError, match="t_end must exceed"):
            rubel_path(parse_expr("exp(z)"), 1.0, cmath.log(5 + 1j), math.nan)

    def test_off_level_seed_rejected(self):
        with pytest.raises(TractViolation):
            rubel_path(parse_expr("exp(z)"), 0.0, 2j, 100.0, IntegratorConfig())

    def test_negative_re_f_rejected(self):
        with pytest.raises(TractViolation):
            rubel_path(parse_expr("exp(z)"), 0.0, complex(1.0, math.pi), 100.0, IntegratorConfig())

    def test_near_critical_seed_rejected_at_the_tracer_threshold(self):
        # f' = 4e-9 at the seed passed a check relative to |f| and failed the
        # tracer's start check, a ValueError
        with pytest.raises(TractViolation, match="f' vanishes at the seed"):
            rubel_path(parse_expr("z^2 + 1"), 0.0, 2e-9, 10.0, IntegratorConfig())


    def test_stopped_path_gives_no_tails(self):
        # sin z from 2 meets the critical point pi/2 at t = 1: no path reaches t_end
        sine = parse_expr("(exp(i*z)-exp(-i*z))*(-0.5i)")
        with pytest.raises(TractViolation, match=r"path stopped \(critical_point\) at t = 1\.0000000000001017"):
            rubel_path(sine, 0.0, 2.0, 1e45, IntegratorConfig(escape_radius=1e9))


def _gl_integral(fn, a, b, width):
    """fn over [a, b] by the 10-point Gauss-Legendre rule on equal panels no wider than width."""
    xs, ws = _gauss_legendre(10)
    n = max(1, math.ceil((b - a) / width))
    h = (b - a) / n
    return math.fsum(w * 0.5 * h * fn(a + k * h + 0.5 * h * (x + 1.0)) for k in range(n) for x, w in zip(xs, ws))


def _exp_tail(c, d_shift, t1, t2):
    """The tail of exp(z) on exp(z) = t + iD over [t1, t2], for every m: the
    integral of |t + iD|^(-c-1) dt, in s = log t."""
    return _gl_integral(
        lambda s: math.exp(s) * (math.exp(2.0 * s) + d_shift * d_shift) ** (-0.5 * (c + 1.0)),
        math.log(t1),
        math.log(t2),
        1.0,
    )


def _gaussian_tail(m, c, x1, x2):
    """The tail of exp(z^2) on the real axis over [x1, x2]: the integral of
    |p_m(x)|^(-c) exp(-c x^2) dx, where f^(m) = p_m e^(x^2), p_(m+1) = p_m' + 2x p_m."""
    p = [1.0]
    for _ in range(m):
        p = [2.0 * a + (k + 1) * b for k, (a, b) in enumerate(zip([0.0, *p], [*p[1:], 0.0, 0.0]))]

    def integrand(x):
        return abs(sum(a * x**k for k, a in enumerate(p))) ** -c * math.exp(-c * x * x)

    return _gl_integral(integrand, x1, x2, 0.05)


def _full_rule(f, d_shift, curve, m, c):
    """The end-corrected trapezoid rule of the (m, c) tail over the samples, unextrapolated."""
    node = _column_node(f, derivative(f), d_shift, m, (c,))
    qs, ds = zip(*((q[-1], d[-1]) for _, q, d, *_ in (node(t, z) for t, z in curve.samples)))
    return _column_trapezoid(curve.xs, [math.log(t) for t in curve.xs], qs, ds)[0]


class TestPartialSumBar:
    # item 14's six m = 0 tails (f, seed, t_end, c), each with the relative error of
    # the unextrapolated rule on the samples of the tracer's former cap 0.1
    @pytest.mark.parametrize(
        "text, seed, t_end, c, old_err",
        [
            ("exp(z)", 2.0, 1e45, 0.5, 3.35e-6),
            ("exp(z)", 2.0, 1e45, 1.0, 1.73e-5),
            ("exp(z^2)", 2.0, 1e45, 0.5, 1.01e-4),
            ("exp(z^2)", 2.0, 1e45, 1.0, 4.33e-4),
            ("exp(z^2)", 1.5, 1e30, 0.5, 8.2e-5),
            ("exp(z^2)", 1.5, 1e30, 1.0, 3.0e-4),
        ],
    )
    def test_closed_forms_within_the_bar(self, text, seed, t_end, c, old_err):
        f, cfg = parse_expr(text), IntegratorConfig(escape_radius=1e9)
        rep = rubel_path(f, 0.0, seed, t_end, cfg, c_values=(c,))
        (t1, z1), (t2, z2) = rep.samples[0], rep.samples[-1]
        if text == "exp(z)":
            want = (t1**-c - t2**-c) / c
        else:
            rc = math.sqrt(c)
            want = 0.5 * math.sqrt(math.pi / c) * (math.erfc(rc * z1.real) - math.erfc(rc * z2.real))
        tail = rep.tail_integrals[0]
        err = abs(tail.partial_sum - want)
        assert err <= tail.partial_err and 8.0 * err <= old_err * want
        # |full - half| is about 2^4 - 1 times the full rule's own error
        full_err = abs(_full_rule(f, 0.0, trace_level(f, seed, t_end, cfg), 0, c) - want)
        assert 10.0 * full_err <= tail.partial_err <= 20.0 * full_err

    def test_random_exp_paths_within_the_bar(self):
        cfg = IntegratorConfig(escape_radius=1e9)
        rng = random.Random(20261020)
        f = parse_expr("exp(z)")
        for k in range(201):
            d_shift, seed = rubel_start(rng)
            t_end = math.exp((30.0, 60.0, 200.0)[k % 3])
            rep = rubel_path(f, d_shift, seed, t_end, cfg)
            t1, t2 = rep.samples[0][0], rep.samples[-1][0]
            wants = {c: _exp_tail(c, d_shift, t1, t2) for c in (0.5, 1.0)}
            for tail in rep.tail_integrals:
                assert abs(tail.partial_sum - wants[tail.c]) <= tail.partial_err, (d_shift, seed, t_end, tail)

    @pytest.mark.parametrize(
        "seed, t_end, m_max, c_values",
        [(2.0, 1e45, 3, (0.5, 1.0)), (1.5, 1e30, 4, (0.25, 1.0, 2.0))],
        ids=["rubel-gaussian", "rubel-mixed"],
    )
    def test_gaussian_paths_within_the_bar(self, seed, t_end, m_max, c_values):
        cfg = IntegratorConfig(escape_radius=1e9)
        rep = rubel_path(parse_expr("exp(z^2)"), 0.0, seed, t_end, cfg, m_max=m_max, c_values=c_values)
        x1, x2 = rep.samples[0][1].real, rep.samples[-1][1].real
        for tail in rep.tail_integrals:
            assert abs(tail.partial_sum - _gaussian_tail(tail.m, tail.c, x1, x2)) <= tail.partial_err, tail

    def test_two_samples_have_no_bar(self):
        # over two samples the rule on every other sample is the full rule: |full - half| = 0
        f, cfg = parse_expr("exp(z)"), IntegratorConfig(escape_radius=1e9)
        rep = rubel_path(f, 0.0, 2.0, 7.5, cfg)
        assert len(rep.samples) == 2
        curve = trace_level(f, 2.0, 7.5, cfg)
        for tail in rep.tail_integrals:
            assert tail.partial_err == math.inf
            assert tail.partial_sum == _full_rule(f, 0.0, curve, tail.m, tail.c)


def _class_b_path(text, seed):
    """The Rubel path of f from seed, with D = Im f(seed), traced to t = e^110."""
    f = parse_expr(text)
    d_shift = compile_fn(f)(complex(seed)).imag
    return rubel_path(f, d_shift, seed, math.exp(110.0), IntegratorConfig(escape_radius=1e9))


def _rises_over_last_decade(points):
    r_end = points[-1][0]
    decade = [q for r, q in points if r >= r_end / 10.0]
    return len(decade) > 1 and all(a < b for a, b in zip(decade, decade[1:]))


class TestClassB:
    """Rubel paths of class-B functions other than exp(z) (Eremenko-Lyubich)."""

    @pytest.mark.parametrize(
        "text, seed",
        [("z*exp(z)", 2.0), ("(exp(i*z)-exp(-i*z))*(-0.5i)", complex(math.pi / 2, 1.0))],
        ids=["z-exp-z", "sine"],
    )
    def test_growth_past_every_power(self, text, seed):
        rep = _class_b_path(text, seed)
        assert rep.monotone
        for m in range(4):
            points = rep.growth_ratios[m]
            first_past_100 = next(q for r, q in points if r >= 100.0)
            assert first_past_100 > 20.0
            assert _rises_over_last_decade(points)
        assert rep.tail_integrals and all(t.finite for t in rep.tail_integrals)

    def test_gaussian_growth(self):
        # exp(z^2) reaches t = e^110 at |z| ~ 10.5, short of |z| = 100
        rep = _class_b_path("exp(z^2)", 2.0)
        assert rep.monotone
        for m in range(4):
            points = rep.growth_ratios[m]
            assert points[-1][1] > 20.0
            assert _rises_over_last_decade(points)
        assert rep.tail_integrals and all(t.finite for t in rep.tail_integrals)


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
        ok, _ = cli._demo_tract()
        monkeypatch.undo()
        assert ok
        # one estimate per verdict, each read back by classify: the left run's
        # and the right run's at the last radius
        assert len(calls) == 2
        (traj, cfg), (last_traj, last_cfg) = calls
        # the verdict classify gives for a copy of the same run, which keeps no estimate
        assert classify(dataclasses.replace(traj), cfg).name == "FiniteTimeBlowup"
        assert classify(dataclasses.replace(last_traj), last_cfg).name == "ReachedRadius"
        assert last_cfg.escape_radius == 1000.0
