import cmath
import math
import pickle
import random
from collections import Counter
from dataclasses import replace
from textwrap import indent
from types import FunctionType

import pytest
from conftest import level_start, random_expr, reference_corrector

import planeflow.expr as expr_module
import planeflow.level as level_module
from planeflow.errors import CorrectorDivergence, EvaluationOverflow
from planeflow.escape import rubel_path
from planeflow.expr import (
    Add,
    Constant,
    Exp,
    Mul,
    Scale,
    Variable,
    _emit_body,
    _function_code,
    compile_fn,
    derivative,
    parse_expr,
)
from planeflow.flow import IntegratorConfig
from planeflow.level import (
    LevelCurve,
    infinite_time_criterion,
    trace_level,
    transit_time,
)

# 8-point Gauss-Legendre nodes and weights on [-1, 1], for a reference rule
# that shares nothing with the package's quadrature
_GL8_X = (
    -0.9602898564975363,
    -0.7966664774136267,
    -0.525532409916329,
    -0.18343464249564978,
    0.18343464249564978,
    0.525532409916329,
    0.7966664774136267,
    0.9602898564975363,
)
_GL8_W = (
    0.10122853629037626,
    0.22238103445337448,
    0.31370664587788727,
    0.362683783378362,
    0.362683783378362,
    0.31370664587788727,
    0.22238103445337448,
    0.10122853629037626,
)


def _power_curves():
    """Seeded (k, level curve) pairs of G = z^k/k, k = 1..4, short and long."""
    rng = random.Random(20261018)
    cfg = IntegratorConfig(escape_radius=1e9)
    curves = []
    for k in (1, 2, 3, 4):
        big_g = parse_expr("z" if k == 1 else f"z^{k} * (1/{k})")
        for i in range(6):
            z0 = level_start(rng, k)
            reach = (20.0, 2000.0)[i % 2]
            curves.append((k, trace_level(big_g, z0, (reach * abs(z0)) ** k / k, cfg)))
    return cfg, curves


def _power_transit(k, beta, x1, x2):
    """Integral of (k |X + i beta|)^(-2(k-1)/k) dX over [x1, x2], beta > 0: the
    transit time of G = z^k/k, where |g|^2 = |k G|^(2(k-1)/k), from no curve.

    With X = beta sinh(u) the integrand is k^-p beta^(1-p) cosh(u)^(1-p),
    p = 2(k-1)/k; composite 8-point Gauss on 256 and 512 panels must agree.
    """
    p = 2.0 * (k - 1) / k
    a, b = math.asinh(x1 / beta), math.asinh(x2 / beta)

    def composite(n):
        h = (b - a) / n
        return h / 2 * math.fsum(
            w * math.cosh(a + (i + 0.5 + 0.5 * x) * h) ** (1.0 - p) for i in range(n) for x, w in zip(_GL8_X, _GL8_W)
        )

    coarse, fine = composite(256), composite(512)
    assert abs(fine - coarse) <= 1e-13 * fine
    return k**-p * beta ** (1.0 - p) * fine


def _critical_value_curve():
    # synthetic curve whose X-range walks through the critical value
    # of G = z^2/2 at 0: the 1/|g|^2 integrand has a c/X singularity
    xs, zs = [], []
    for x in (-0.5, -0.3, -0.1, 0.1, 0.3, 0.5):
        if x < 0:
            zs.append(1j * math.sqrt(-2.0 * x))
        else:
            zs.append(complex(math.sqrt(2.0 * x), 0.0))
        xs.append(x)
    return LevelCurve(parse_expr("z^2 / 2"), 0.0, tuple(xs), tuple(zs), "target")


def _outcome(fn):
    """repr of the result, or the exception's class, args, node and point."""
    try:
        return repr(fn())
    except EvaluationOverflow as exc:
        return type(exc), exc.args, id(exc.node), repr(exc.at)


class TestCorrector:
    def test_matches_reference_bit_for_bit(self):
        rng = random.Random(20261018)
        zero, neg_zero = Constant(0j), Constant(-0j)
        trees = [Add(Variable(), zero), Add(Variable(), neg_zero)]
        for _ in range(60):
            tree = random_expr(rng, 4)
            trees += [tree, Add(tree, zero), Mul(Add(neg_zero, Variable()), tree)]
        cases = []
        for big_g in trees:
            big_ge = compile_fn(big_g)
            cases.append((big_g, 0j, complex(1.0, -0.0), 0.0, 1))
            for _ in range(6):
                z_true = cmath.rect(10 ** rng.uniform(-1, 3), rng.uniform(-math.pi, math.pi))
                try:
                    target = big_ge(z_true)
                except EvaluationOverflow:
                    target = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                guess = z_true * complex(1 + rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
                cases.append((big_g, target, guess, 1e-12 * (1 + abs(target)), rng.choice((8, 12))))
        # G scaled to near the top of the double range where |g| > 4|G|:
        # at the guess G is finite and g overflows
        scaled = 0
        while scaled < 20:
            tree, z = random_expr(rng, 4), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                a, b = abs(compile_fn(tree)(z)), abs(compile_fn(derivative(tree))(z))
            except EvaluationOverflow:
                continue
            if 1 <= a and 4 * a < b:
                cases.append((Scale(1e308 / a, tree), 0j, z, 0.0, 8))
                scaled += 1
        raised = nones = solved = 0
        for big_g, target, guess, tol, max_iter in cases:
            dg = derivative(big_g)
            newton = level_module._newton(big_g, dg)
            big_ge, ge = compile_fn(big_g), compile_fn(dg)
            want = _outcome(lambda: reference_corrector(big_ge, ge, target, guess, tol, max_iter))
            got = _outcome(lambda: level_module._corrector(newton, target, guess, tol, max_iter))
            assert got == want, (big_g, target, guess, tol, max_iter)
            raised += isinstance(want, tuple)
            nones += want == "None"
            solved += isinstance(want, str) and want != "None"
        # both ways out of a failed solve are exercised, and solves that return g at their point
        assert raised >= 20 and nones >= 20 and solved >= 100

    def test_signed_zero_constants_kept_apart(self):
        # Constant(0j) == Constant(-0j): code found by tree equality, or with
        # the constants written into its source, would give one of these the
        # other's bits, in G's z or in the g returned with it
        got = []
        for c in (Constant(0j), Constant(-0j)):
            newton = level_module._newton(Add(Variable(), c), Add(Constant(complex(1.0, -0.0)), c))
            got.append(newton(0j, complex(1.0, -0.0), 0.0, 1))
        assert repr(got) == "[(-0j, 1, (1+0j)), (-0j, 1, (1-0j))]"


def _counted_exp(newton):
    """A copy of the generated corrector that counts its exp calls, and the
    list they go to.  The copy reads a copy of the globals: every corrector
    shares one dict, which a write would change for the rest of the session."""
    calls = []
    exp = newton.__globals__["exp"]

    def counted(w):
        calls.append(w)
        return exp(w)

    counting = FunctionType(newton.__code__, {**newton.__globals__, "exp": counted}, newton.__name__, newton.__defaults__)
    return counting, calls


def _reference_newton_source(big_g, dg):
    """_newton's source as it was assembled: bodies emitted at four spaces
    and indented by ``textwrap.indent``; the trees' constants and nodes are
    the trailing parameters."""
    big_body, v, env = _emit_body(big_g)
    body, g = ("", v) if repr(dg) == repr(big_g) else _emit_body(dg, env, root="droot", temp="d")[:2]
    names = "".join(f", {name}" for name in env if name not in expr_module._POINT_GLOBALS)
    return "\n".join([
        f"def newton(target, z0, tol, max_iter{names}):",
        "    z = complex(z0)",
        "    for it in range(max_iter + 1):",
        "        try:",
        indent(big_body, " " * 8),
        "        except EvaluationOverflow:",
        "            return None",
        f"        done = it and abs({v} - target) <= tol",
        "        if not done and it == max_iter:",
        "            return None",
        indent(body, " " * 4),
        "        if done:",
        f"            return z0, it, {g}",
        f"        if abs({g}) < G_MIN:",
        "            return None",
        f"        z0 = z = z - ({v} - target) / {g}",
    ])


class TestNewton:
    def test_source_as_assembled_before(self, monkeypatch):
        sources = []
        monkeypatch.setattr(expr_module, "_function_code", lambda source: sources.append(source) or _function_code(source))
        rng = random.Random(20261019)
        trees = [parse_expr(t) for t in ("exp(z)", "0.5*z^2 + 0.3*exp(-z)", "z^2 * (1/2)")]
        trees += [random_expr(rng, 4) for _ in range(20)]
        for big_g in trees:
            level_module._newton(big_g, derivative(big_g))
            assert sources.pop() == _reference_newton_source(big_g, derivative(big_g)), big_g
        # exp(z) serves G's value as g: the empty g body leaves a blank line
        level_module._newton(trees[0], derivative(trees[0]))
        assert sources.pop() == "\n".join([
            "def newton(target, z0, tol, max_iter, root, n5):",
            "    z = complex(z0)",
            "    for it in range(max_iter + 1):",
            "        try:",
            "            try:",
            "                t0 = exp(z)",
            "            except (OverflowError, ValueError):",
            "                raise EvaluationOverflow(n5, at=z) from None",
            "            if not isfinite(t0):",
            "                raise EvaluationOverflow(root, at=z0)",
            "        except EvaluationOverflow:",
            "            return None",
            "        done = it and abs(t0 - target) <= tol",
            "        if not done and it == max_iter:",
            "            return None",
            "",
            "        if done:",
            "            return z0, it, t0",
            "        if abs(t0) < G_MIN:",
            "            return None",
            "        z0 = z = z - (t0 - target) / t0",
        ])

    # G' equal to G by repr: one evaluation of G serves as g

    @pytest.mark.parametrize("big_g", [parse_expr("exp(z)"), Scale(2.0, Exp(Variable()))], ids=repr)
    def test_shared_evaluation_matches_two_body_reference(self, big_g):
        dg = derivative(big_g)
        assert repr(dg) == repr(big_g)
        big_ge, ge = compile_fn(big_g), compile_fn(dg)
        rng = random.Random(20261018)
        outcomes = Counter()
        for _ in range(200):
            z_true = complex(rng.uniform(-5.0, 800.0), rng.uniform(-4.0, 4.0))
            try:
                target = big_ge(z_true)
            except EvaluationOverflow:
                target = complex(rng.uniform(0.0, 1.7e308), rng.uniform(-1e300, 1e300))
            guess = z_true + complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
            tol = 1e-12 * (1.0 + abs(target))
            max_iter = rng.choice((8, 12))
            newton, calls = _counted_exp(level_module._newton(big_g, dg))
            want = reference_corrector(big_ge, ge, target, guess, tol, max_iter)
            got = level_module._corrector(newton, target, guess, tol, max_iter)
            assert repr(got) == repr(want), (big_g, target, guess, tol, max_iter)
            if want is None:
                outcomes["overflow" if calls[-1].real > 709.0 else "none"] += 1
            else:
                # one exp per iteration, the accepting one included
                assert len(calls) == want[1] + 1
                outcomes["solved"] += 1
        # solves that converge and solves ended by an overflow of G near exp(800)
        assert outcomes["solved"] >= 20 and outcomes["overflow"] >= 20

    def test_signed_zero_pair_not_shared(self):
        # Constant(0.0) == Constant(-0.0): trees found equal by == would
        # share an evaluation whose bits g does not have
        big_g, dg = Add(Exp(Variable()), Constant(0.0)), Add(Exp(Variable()), Constant(-0.0))
        big_ge, ge = compile_fn(big_g), compile_fn(dg)
        rng = random.Random(7)
        for _ in range(20):
            z_true = complex(rng.uniform(-5.0, 5.0), rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0))))
            target, guess = big_ge(z_true), z_true + rng.uniform(-0.5, 0.5)
            newton, calls = _counted_exp(level_module._newton(big_g, dg))
            want = reference_corrector(big_ge, ge, target, guess, 1e-12, 8)
            assert repr(level_module._corrector(newton, target, guess, 1e-12, 8)) == repr(want)
            # G and g every iteration, the accepting one included
            assert want is not None and len(calls) == 2 * want[1] + 2


class TestTrace:
    def test_parabola_curve_is_positive_real_axis(self):
        # G = z^2/2 from 1: z(X) = sqrt(2X), so X=50 lands on z=10
        curve = trace_level(parse_expr("z^2 / 2"), 1.0, 50.0, IntegratorConfig(escape_radius=100.0))
        assert curve.stop_reason == "target"
        assert abs(curve.z_end - 10.0) <= 1e-6
        for x, z in curve.samples:
            assert abs(z - math.sqrt(2.0 * x)) <= 1e-8 * (1 + abs(z))

    def test_cubic_curve_endpoint(self):
        curve = trace_level(parse_expr("z^3 / 3"), 1.0, 1000.0 / 3.0, IntegratorConfig(escape_radius=100.0))
        assert abs(curve.z_end - 10.0) <= 1e-6

    def test_imaginary_branch_stops_at_critical_point(self):
        # from i the level set of Im(z^2/2) = 0 runs down the imaginary
        # axis into the critical point at 0
        curve = trace_level(parse_expr("z^2 / 2"), 1j, 0.0)
        assert curve.stop_reason == "critical_point"
        assert abs(curve.z_end) <= 1e-6

    def test_level_is_held(self):
        curve = trace_level(parse_expr("z^2 / 2"), 1 + 1j, 60.0, IntegratorConfig(escape_radius=100.0))
        fn = lambda z: (z * z / 2.0).imag
        for x, z in curve.samples:
            # corrector tolerance is 1e-12 of the running target scale
            assert abs(fn(z) - curve.beta) <= 10.0 * 1e-12 * (1.0 + abs(x) + abs(curve.beta))

    def test_level_is_held_at_the_top_of_the_double_range(self):
        # past 1.8e308 the corrector's tolerance 1e-12 (|target| + dx) would
        # overflow to inf and accept the predictor unchecked
        curve = trace_level(parse_expr("exp(z)"), 2.0, 1.7e308, IntegratorConfig(escape_radius=1e9))
        assert curve.stop_reason == "target" and curve.x_end == 1.7e308
        for x, z in curve.samples:
            assert abs(cmath.exp(z) - x) <= 1e-9 * x

    @pytest.mark.parametrize(
        "text, start, x_target",
        [("z", 0.0, 10.0), ("z + 0.5*z^2", -0.5, 5.0)],
        ids=["from G = 0", "across X = 0"],
    )
    def test_steps_the_log_chart_cannot_take(self, text, start, x_target):
        # log G has no value at G = 0, and a step from X < 0 to X > 0 at beta = 0
        # passes through it: those steps are predicted along dz/dX = 1/g
        big_g = parse_expr(text)
        curve = trace_level(big_g, start, x_target)
        assert curve.stop_reason == "target" and curve.x_end == x_target
        assert curve.beta == 0.0 and curve.xs[0] <= 0.0
        big_ge = compile_fn(big_g)
        for i, (x, z) in enumerate(curve.samples[1:], 1):
            # the corrector's tolerance at this point: 1e-12 (|target| + dx)
            tol = 1e-12 * (abs(complex(x, curve.beta)) + x - curve.xs[i - 1])
            assert abs(big_ge(z) - complex(x, curve.beta)) <= tol, (i, x, z)

    def test_x_strictly_increasing(self):
        curve = trace_level(parse_expr("z^3 / 3"), 1.0, 500.0, IntegratorConfig(escape_radius=100.0))
        assert all(b > a for a, b in zip(curve.xs, curve.xs[1:]))

    def test_retrace_with_halved_steps(self, monkeypatch):
        cfg = IntegratorConfig(escape_radius=100.0)
        a = trace_level(parse_expr("z^2 / 2"), 1 + 1j, 60.0, cfg)
        monkeypatch.setattr(level_module, "_STEP_SCALE", 0.05)
        b = trace_level(parse_expr("z^2 / 2"), 1 + 1j, 60.0, cfg)
        assert abs(a.z_end - b.z_end) <= 1e-5 * (1.0 + abs(a.z_end))

    def test_sine_stops_at_its_critical_value(self):
        # Im sin z = 0 from 2 runs up the real axis into the critical point pi/2,
        # where sin = 1: the steps stall there, short of the target
        sine = parse_expr("(exp(i*z)-exp(-i*z))*(-0.5i)")
        curve = trace_level(sine, 2.0, 1e45, IntegratorConfig(escape_radius=1e9))
        assert curve.stop_reason == "critical_point"
        assert curve.x_end == 1.0000000000001017 < 1e45
        assert abs(curve.z_end - math.pi / 2) <= 1e-5

    @pytest.mark.parametrize("stall", ["unresolved step", "failed corrector"])
    def test_stall_away_from_critical_point_raises(self, monkeypatch, stall):
        # |g| = 1 on G = z: a step too small to move X, or 60 failed halvings,
        # is the same stall, and it is not a curve that reached its target
        if stall == "unresolved step":
            monkeypatch.setattr(level_module, "_STEP_SCALE", 1e-30)
        else:
            monkeypatch.setattr(level_module, "_corrector", lambda *args: None)
        with pytest.raises(CorrectorDivergence, match="level tracing stalled"):
            trace_level(parse_expr("z"), 1.0, 2.0)

    def test_start_at_critical_point_rejected(self):
        with pytest.raises(ValueError):
            trace_level(parse_expr("z^2 / 2"), 0.0, 1.0)

    def test_backward_target_rejected(self):
        with pytest.raises(ValueError):
            trace_level(parse_expr("z^2 / 2"), 1.0, 0.2)

    def test_nan_target_rejected(self):
        # NaN compares false: a guard written as x_target <= x lets it through
        with pytest.raises(ValueError, match="x_target must exceed"):
            trace_level(parse_expr("z^2 / 2"), 1.0, math.nan)

    def test_exp_trace_takes_g_from_the_corrector(self, monkeypatch):
        # g = G for exp(z): at each point the corrector's value of G serves as
        # g, so a point costs the predictor's midpoint and one exp per corrector
        # iteration, the accepting one included (3 exps where 4 were taken)
        exps, solves = [], []
        # generated functions read exp from their kind's one globals dict
        for shared in (expr_module._POINT_GLOBALS, level_module._NEWTON_GLOBALS):
            monkeypatch.setitem(shared, "exp", lambda w, exp=cmath.exp: exps.append(w) or exp(w))
        corrector = level_module._corrector
        monkeypatch.setattr(level_module, "_corrector", lambda *a, **k: solves.append(corrector(*a, **k)) or solves[-1])
        f, start, cfg = parse_expr("exp(z)"), cmath.log(5 + 1j), IntegratorConfig(escape_radius=1e9)
        curve = trace_level(f, start, 1e6, cfg)
        assert curve.stop_reason == "target" and None not in solves and len(solves) == len(curve) - 1
        # the start's G and g, then per point the midpoint and each iteration
        assert len(exps) == 2 + sum(1 + it + 1 for _, it, _ in solves)
        assert sum(it == 1 for _, it, _ in solves) > len(solves) // 2
        # the same points and transit, bit for bit, as with g evaluated apart at each accepted point
        big_ge, ge, _, field = level_module._kernels(f)
        apart = parse_expr("exp(z)")
        newton = lambda *args: reference_corrector(big_ge, ge, *args)
        object.__setattr__(apart, "_level", (compile_fn, (big_ge, ge, newton, field)))
        assert repr(trace_level(apart, start, 1e6, cfg)) == repr(curve)
        assert repr(transit_time(curve, cfg)) == repr(transit_time(replace(curve, big_g=apart), cfg))

    def test_derivative_evaluated_once_per_point(self, monkeypatch):
        real = level_module.compile_fn
        seen = []

        def compiling(expr):
            fn = real(expr)
            if expr != derivative_of:
                return fn

            def counted(z):
                seen.append(z)
                return fn(z)

            return counted

        def newton(big_g, dg):
            # the corrector as the two compiled functions it inlines, so that
            # its g evaluations are seen in order with trace_level's own
            big_ge, ge = compiling(big_g), compiling(dg)
            return lambda *args: reference_corrector(big_ge, ge, *args)

        monkeypatch.setattr(level_module, "compile_fn", compiling)
        monkeypatch.setattr(level_module, "_newton", newton)
        rng = random.Random(7)
        cfg = IntegratorConfig(escape_radius=1e9)
        for k in (1, 2, 3, 4):
            big_g = parse_expr("z" if k == 1 else f"z^{k} * (1/{k})")
            derivative_of = derivative(big_g)
            z0 = level_start(rng, k)
            seen.clear()
            trace_level(big_g, z0, (2000.0 * abs(z0)) ** k / k, cfg)
            assert len(seen) > 2
            assert all(a != b for a, b in zip(seen, seen[1:]))

    def test_radius_stop(self):
        curve = trace_level(parse_expr("z^2 / 2"), 1.0, 1e9, IntegratorConfig(escape_radius=50.0))
        assert curve.stop_reason == "radius"
        assert abs(curve.z_end) > 50.0

    def test_keeps_to_its_branch_across_the_gaussian_tract(self, monkeypatch):
        # |g| = 33 217 at the start: one step of a quarter of the cap spans X from
        # -4579 to 3019, and Newton landed at 3019 - 780i, on the branch where G ~ z,
        # whose transit diverged near X = 310; the curve stays near its start
        big_g, z0 = parse_expr("exp(-z^2) + z"), complex(1.472387408715436, -3.2575546477714203)
        cfg = IntegratorConfig(escape_radius=1e9)
        curve = trace_level(big_g, z0, 1e4, cfg)
        rep = transit_time(curve, cfg)
        monkeypatch.setattr(level_module, "_STEP_SCALE", 0.002)
        fine = trace_level(big_g, z0, 1e4, cfg)
        assert curve.stop_reason == "target" and all(abs(z - z0) < 1.0 for z in curve.zs)
        assert abs(curve.z_end - fine.z_end) <= 1e-12 * abs(fine.z_end)
        assert rep.quadrature_time == 7.101643595657153e-05 and rep.agree
        assert abs(rep.quadrature_time - transit_time(fine, cfg).quadrature_time) <= 1e-12 * rep.quadrature_time

    @pytest.mark.parametrize("ulps", [1, 2, 4])
    def test_step_below_rounding_is_kept(self, ulps):
        # a target a few ulps past the start: the predicted step is below the
        # rounding of z, and a corrected point an ulp of z from the prediction is
        # the curve's next point, not a jump (without the floor, 1 ulp stalls)
        big_g, z0 = parse_expr("z^2 * (1/2)"), 1.3 + 0.2j
        x0 = compile_fn(big_g)(z0).real
        curve = trace_level(big_g, z0, x0 + ulps * math.ulp(x0))
        assert curve.stop_reason == "target" and len(curve) == 2

    def test_seeded_search_keeps_each_point_near_its_prediction(self, monkeypatch):
        # nine potentials, forty starts each in [-4, 4]^2, X up by 1e4: every
        # accepted point lies within half its predicted step of the prediction
        # (plus the rounding floor), and no trace stalls on that rule
        potentials = (
            "z^2 * (1/2)", "z^3 * (1/3)", "exp(z)", "exp(-z) + z", "exp(-z^2) + z",
            "(exp(i*z)-exp(-i*z))*(-0.5i)", "z*exp(z)", "0.5*z^2 + 0.3*exp(-z)", "exp(z^2)",
        )
        solves = []
        corrector = level_module._corrector
        monkeypatch.setattr(
            level_module, "_corrector", lambda n, t, z, *a: solves.append((z, corrector(n, t, z, *a))) or solves[-1][1]
        )
        rng, cfg = random.Random(20261020), IntegratorConfig(escape_radius=1e9)
        traced = 0
        for text in potentials:
            big_g = parse_expr(text)
            for _ in range(40):
                z0 = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
                solves.clear()
                curve = trace_level(big_g, z0, compile_fn(big_g)(z0).real + 1e4, cfg)
                points = iter(curve.zs[1:])
                prev, want = z0, next(points, None)
                for z_pred, got in solves:
                    if got is not None and got[0] == want:
                        assert abs(want - z_pred) <= 0.5 * abs(z_pred - prev) + 1e-12 * (1.0 + abs(want)), (text, z0)
                        prev, want = want, next(points, None)
                assert want is None, (text, z0)  # every point came from a solve
                traced += 1
        assert traced == 360


class TestTransit:
    def test_parabola_log_transit(self):
        # |g|^2 = 2X on the curve, so the transit is (1/2) ln(X2/X1)
        cfg = IntegratorConfig(escape_radius=100.0)
        curve = trace_level(parse_expr("z^2 / 2"), 1.0, 50.0, cfg)
        rep = transit_time(curve, cfg)
        want = 0.5 * math.log(50.0 / 0.5)
        assert abs(rep.quadrature_time - want) <= 1e-5
        assert rep.relative_gap <= 1e-3

    def test_cubic_transit_approaches_one(self):
        cfg = IntegratorConfig(escape_radius=1e7, t_max=10.0)
        curve = trace_level(parse_expr("z^3 / 3"), 1.0, 1e18 / 3.0, cfg)
        rep = transit_time(curve, cfg)
        radius = (3.0 * curve.x_end) ** (1.0 / 3.0)
        assert abs(rep.quadrature_time - (1.0 - 1.0 / radius)) <= 1e-6
        assert rep.relative_gap <= 1e-3

    def test_degenerate_single_point(self):
        curve = trace_level(parse_expr("z^2 / 2"), 1.0, 50.0)
        stub = LevelCurve(curve.big_g, curve.beta, curve.xs[:1], curve.zs[:1], "target")
        rep = transit_time(stub)
        assert rep.quadrature_time == 0.0
        assert rep.relative_gap == 0.0

    def test_subnormal_x_range(self):
        # beta = 0 and 1e-12 max|X| underflows to 0: the chart's scale must not
        curve = trace_level(parse_expr("z"), 1e-313, 2e-313)
        rep = transit_time(curve)
        assert abs(rep.quadrature_time - (curve.x_end - curve.x_start)) <= 1e-9 * curve.x_end

    def test_gap_on_a_tiny_range_is_relative(self):
        # the flow's first step, h = 0.01, fires the event at a step fraction
        # near 1e-311, which the crossing's bisection resolves to the last bit
        curve = trace_level(parse_expr("z"), 1e-313, 2e-313)
        rep = transit_time(curve)
        assert abs(rep.ode_time - (curve.x_end - curve.x_start)) <= 4 * 5e-324
        assert rep.relative_gap <= 1e-9

    @pytest.mark.parametrize("x1", [1e9, -1e9 - 1.0, 1e12, 1e15])
    def test_unit_range_far_from_zero(self, x1):
        # the s-range is about 1/|X| wide there: it must not be a difference of two s near 28 or 35
        curve = trace_level(parse_expr("z"), x1, x1 + 1.0, IntegratorConfig(escape_radius=1e300))
        assert curve.x_end - curve.x_start == 1.0
        assert abs(transit_time(curve).quadrature_time - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "text, start, x_max",
        [("z^3 * (1/3)", 1.0, 1e27), ("z - exp(-z)", complex(-1.0, math.pi), 1e100)],
        ids=["cubic", "tract"],
    )
    def test_wide_range_keeps_its_start(self, text, start, x_max):
        # a chart floor of 1e-12 max|X| far above the start X would squeeze
        # [X1, a few] into an s-width below the quadrature's resolution, and
        # read as a divergence near X = 0.904 on the cubic
        cfg = IntegratorConfig(escape_radius=1e9)
        curve = trace_level(parse_expr(text), start, x_max, cfg)
        if text == "z^3 * (1/3)":
            want = 1.0 - 1.0 / (3.0 * curve.x_end) ** (1.0 / 3.0)
        else:
            # the line is Im z = pi, where G = x + e^-x + i pi and g = 1 - e^-x, run
            # from x = -1 down: with y = -x, the integral of dy/(e^y - 1) from 1
            want = -math.log(1.0 - math.exp(-1.0))
        assert abs(transit_time(curve, cfg).quadrature_time - want) <= 1e-12 * want

    @pytest.mark.parametrize("x_max", [1e200, 1e300, 1.7e308])
    def test_exp_transit_past_the_square_root_of_the_double_range(self, x_max):
        # the chart's s of X past about 1e154 overflowed into a divergence at
        # X = inf, and at 1.7e308 a node's guess on the chord in X overshot
        # past exp's range; from G(0) = 1 the transit of exp(z) is 1 - 1/X_max
        cfg = IntegratorConfig(escape_radius=1e9)
        rep = transit_time(trace_level(parse_expr("exp(z)"), 0.0, x_max, cfg), cfg)
        assert rep.divergence_witness is None and abs(rep.quadrature_time - 1.0) <= 1e-12

    def test_exp_transit_to_the_top_of_the_double_range_off_the_real_axis(self):
        # from 0.5i, X_max / b overflowed for b = |x0| < 1: 1/|G|^2 = 1/(X^2 +
        # beta^2), beta = sin 0.5, integrates from cos 0.5 to about 0.5 / sin 0.5
        cfg = IntegratorConfig(escape_radius=1e9)
        rep = transit_time(trace_level(parse_expr("exp(z)"), 0.5j, 1.7e308, cfg), cfg)
        want = 0.5 / math.sin(0.5)
        assert rep.divergence_witness is None and abs(rep.quadrature_time - want) <= 1e-12 * want

    def test_divergence_witness_at_the_critical_value(self):
        # z^3/3 from -1 to X = 1 passes its critical value X = 0: the witness
        # lies next to it, however coarsely the curve was traced
        cfg = IntegratorConfig(escape_radius=1e9)
        rep = transit_time(trace_level(parse_expr("z^3*(1/3)"), -1.0, 1.0, cfg), cfg)
        assert rep.quadrature_time == math.inf and abs(rep.divergence_witness) <= 1e-3

    def test_divergence_flag_near_interior_critical_point(self):
        rep = transit_time(_critical_value_curve())
        assert rep.quadrature_time == math.inf
        assert rep.divergence_witness is not None
        assert abs(rep.divergence_witness) < 0.5

    def test_matches_power_reference(self):
        cfg, curves = _power_curves()
        rng = random.Random(20261019)
        starts = [(k, level_start(rng, k)) for k in (3, 4) for _ in range(50)]
        # a k = 4 start on which per-panel adaptive Simpson was 1.5e-6 off
        starts.append((4, 1.5474667431803577 + 0.29260194830379266j))
        for k, z0 in starts:
            big_g = parse_expr(f"z^{k} * (1/{k})")
            curves.append((k, trace_level(big_g, z0, (2000.0 * abs(z0)) ** k / k, cfg)))
        for k, curve in curves:
            want = _power_transit(k, curve.beta, curve.x_start, curve.x_end)
            assert abs(transit_time(curve, cfg).quadrature_time - want) <= 1e-8 * want

    def test_short_transit_reads_log_2(self):
        # transit-short: |g|^2 = 2|G| on the level 0 of z^2/2, from X = 1/2 to 2
        cfg = IntegratorConfig(escape_radius=1e9)
        rep = transit_time(trace_level(parse_expr("z^2*(1/2)"), 1.0, 2.0, cfg), cfg)
        assert abs(rep.quadrature_time - math.log(2.0)) <= 1e-12
        assert rep.agree and abs(rep.quadrature_time - rep.ode_time) <= rep.gap_bar

    @pytest.mark.parametrize("k", [1, 2])
    def test_bench_transits_agree_within_their_bar(self, k):
        # the level-paths curves of G = z^k/k, out to |z| ~ 2000 |z0|: the two
        # times agree within the bar, and the bar covers the flow's own error
        rng, cfg = random.Random(20261020 + k), IntegratorConfig(escape_radius=1e9)
        big_g = parse_expr("z" if k == 1 else f"z^{k} * (1/{k})")
        for _ in range(20):
            z0 = level_start(rng, k)
            curve = trace_level(big_g, z0, (2000.0 * abs(z0)) ** k / k, cfg)
            rep = transit_time(curve, cfg)
            want = _power_transit(k, curve.beta, curve.x_start, curve.x_end)
            assert rep.agree is True and abs(rep.quadrature_time - rep.ode_time) <= rep.gap_bar, z0
            assert abs(rep.ode_time - want) <= rep.gap_bar <= 1e-6 * want, z0

    def test_curve_on_another_branch_disagrees(self):
        # the level of z^3/3 + z through 1 + 0.5i has another branch through a
        # point of the same G; a curve that starts at 1 + 0.5i and then runs on
        # that branch integrates the wrong |g|, while the flow keeps to the true one
        big_g, z0, cfg = parse_expr("z^3 * (1/3) + z"), 1 + 0.5j, IntegratorConfig(escape_radius=1e9)
        v0 = compile_fn(big_g)(z0)
        z_other = level_module.point_on_level(level_module._kernels(big_g)[2], v0.real, v0.imag, -1 + 1j)[0]
        assert abs(z_other - z0) > 1.0
        assert transit_time(trace_level(big_g, z0, 1e4, cfg), cfg).agree is True
        other = trace_level(big_g, z_other, 1e4, cfg)
        rep = transit_time(replace(other, zs=(z0,) + other.zs[1:]), cfg)
        assert rep.agree is False and abs(rep.quadrature_time - rep.ode_time) > 1e5 * rep.gap_bar

    def test_no_decision_without_both_times(self):
        # a divergent integrand, or a direct run stopped short: no bar, no decision
        rep = transit_time(_critical_value_curve())
        assert rep.agree is None and rep.gap_bar == math.inf
        cfg = IntegratorConfig(escape_radius=1e9)
        rep = transit_time(trace_level(parse_expr("z - exp(-z)"), complex(-1.0, math.pi), 1e100, cfg), cfg)
        assert rep.ode_time == math.inf and rep.agree is None and rep.gap_bar == math.inf

    def test_cross_check_runs_at_a_hundredth_of_the_quadrature_tolerance(self, monkeypatch):
        # z^2/2 from 1: whatever rel_tol the caller passes, the direct run takes
        # rel_tol 1e-9, and fewer steps than at the default 1e-10
        runs = []
        drive = level_module.drive_field
        monkeypatch.setattr(level_module, "drive_field", lambda *a, **k: runs.append((a, k, drive(*a, **k))) or runs[-1][2])
        curve = trace_level(parse_expr("z^2 / 2"), 1.0, 2e6, IntegratorConfig(escape_radius=1e9))
        reps = [transit_time(curve, IntegratorConfig(rel_tol=tol, escape_radius=1e9)) for tol in (1e-10, 1e-4)]
        assert repr(reps[0]) == repr(reps[1]) and reps[0].agree
        (rhs, z0, cfg), kw, res = runs[0]
        steps = len(res.samples) - 1
        assert cfg.rel_tol == level_module._TRANSIT_REL_TOL * 1e-2
        rep = reps[0]
        assert rep.gap_bar == level_module._TRANSIT_REL_TOL * rep.quadrature_time + cfg.rel_tol * steps * (1.0 + rep.ode_time)
        assert steps < 0.7 * (len(drive(rhs, z0, replace(cfg, rel_tol=1e-10), **kw).samples) - 1)

    def test_few_nodes_for_linear_and_quadratic_potentials(self, monkeypatch):
        # 1/|g|^2 in the chart is b cosh(s) for G = z and the constant 1/2 for z^2/2
        real = level_module.point_on_level
        calls = []

        def counted(newton, x, beta, z_guess):
            calls.append(x)
            return real(newton, x, beta, z_guess)

        monkeypatch.setattr(level_module, "point_on_level", counted)
        cfg, curves = _power_curves()
        for _, curve in curves[:12]:
            calls.clear()
            transit_time(curve, cfg)
            assert 15 <= len(calls) <= 45


class TestCriterion:
    def test_fires_for_linear_potential(self):
        cfg = IntegratorConfig(escape_radius=1e4)
        curve = trace_level(parse_expr("z"), 1.0, 700.0, cfg)
        rep = infinite_time_criterion(curve)
        assert rep.conclusive and rep.fires
        assert rep.witnesses
        # the witnesses are |G|/|z|^2 = 1/|z| along the real axis
        for z, ratio in rep.witnesses:
            assert abs(ratio - 1.0 / abs(z)) <= 1e-6

    def test_constant_ratio_does_not_fire(self):
        cfg = IntegratorConfig(escape_radius=1e4)
        curve = trace_level(parse_expr("z^2 / 2"), 1.0, 2e5, cfg)
        rep = infinite_time_criterion(curve)
        assert rep.conclusive and not rep.fires
        for _, ratio in rep.witnesses:
            assert abs(ratio - 0.5) <= 1e-6

    def test_growing_ratio_does_not_fire(self):
        cfg = IntegratorConfig(escape_radius=1e4)
        curve = trace_level(parse_expr("z^3 / 3"), 1.0, 601.0**3 / 3.0, cfg)
        rep = infinite_time_criterion(curve)
        assert rep.conclusive and not rep.fires

    def test_short_curve_inconclusive(self):
        curve = trace_level(parse_expr("z"), 1.0, 5.0)
        rep = infinite_time_criterion(curve)
        assert not rep.conclusive and not rep.fires

    def test_fired_curve_has_unbounded_transit_times(self):
        # when the slow-growth test fires, flow times to dyadic radii
        # keep growing with no geometric decay of the increments
        cfg = IntegratorConfig(escape_radius=1e4)
        full = trace_level(parse_expr("z"), 1.0, 700.0, cfg)
        assert infinite_time_criterion(full).fires
        times = []
        for radius in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
            idx = next(i for i, z in enumerate(full.zs) if abs(z) >= radius)
            sub = LevelCurve(full.big_g, full.beta, full.xs[: idx + 1], full.zs[: idx + 1], "target")
            times.append(transit_time(sub, cfg).ode_time)
        assert all(b > a for a, b in zip(times, times[1:]))
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(b / a > 0.75 for a, b in zip(deltas, deltas[1:]))


def _kept_runs(big_g, f):
    """A trace and transit on each tree's levels, and a Rubel path of f."""
    cfg = IntegratorConfig(escape_radius=1e9)
    start = cmath.log(5 + 1j)
    curves = [trace_level(tree, start, 1e4, cfg) for tree in (big_g, f)]
    return curves, [transit_time(c, cfg) for c in curves], rubel_path(f, 1.0, start, 1e20, cfg)


class TestKeptKernels:
    """Each tree object keeps its level kernels and Rubel passes."""

    def test_second_call_builds_nothing(self):
        # levels of z^2/2 and of e^z (whose g is G), and e^z's Rubel path
        big_g, f = parse_expr("z^2 * (1/2)"), parse_expr("exp(z)")
        first = _kept_runs(big_g, f)
        before = _function_code.cache_info()
        second = _kept_runs(big_g, f)
        after = _function_code.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        fresh = _kept_runs(parse_expr("z^2 * (1/2)"), parse_expr("exp(z)"))
        assert repr(second) == repr(first) == repr(fresh)

    def test_rubel_pass_bound_per_call(self):
        # one kept pass serves every D and every c of one count
        f, cfg = parse_expr("exp(z)"), IntegratorConfig(escape_radius=1e9)
        runs = [(d, cs) for d in (1.0, 2.5, -0.0) for cs in ((0.5, 1.0), (0.25, 2.0))]
        got = [rubel_path(f, d, cmath.log(complex(5, d)), 1e20, cfg, c_values=cs) for d, cs in runs]
        assert [name for name in f.__dict__ if name.startswith("_rubel")] == ["_rubel_3_2"]
        for (d, cs), rep in zip(runs, got):
            assert repr(rep) == repr(rubel_path(parse_expr("exp(z)"), d, cmath.log(complex(5, d)), 1e20, cfg, c_values=cs))

    def test_kept_kernels_follow_a_rebound_compile_fn(self, monkeypatch):
        # bench/tracing.py wraps level.compile_fn to count evaluations; a tree
        # whose kernels were built before must not bypass the wrapper
        big_g, cfg = parse_expr("z^2 * (1/2)"), IntegratorConfig(escape_radius=1e9)
        curve = trace_level(big_g, 1 + 0.5j, 1e4, cfg)
        transit = transit_time(curve, cfg)
        kept = level_module._kernels(big_g)
        points = []

        def counting(tree):
            f = compile_fn(tree)
            return lambda z: points.append(z) or f(z)

        monkeypatch.setattr(level_module, "compile_fn", counting)
        assert repr(trace_level(big_g, 1 + 0.5j, 1e4, cfg)) == repr(curve)
        assert repr(transit_time(curve, cfg)) == repr(transit)
        assert points and level_module._kernels(big_g) is not kept
        assert level_module._kernels(big_g) is level_module._kernels(big_g)

    def test_tree_pickles_without_its_kernels(self):
        f = parse_expr("exp(z)")
        runs = _kept_runs(f, f)
        assert {"_level", "_rubel_3_2"} <= f.__dict__.keys()
        back = pickle.loads(pickle.dumps(f))
        assert back == f and repr(back) == repr(f)
        assert list(back.__dict__) == ["arg"]
        assert repr(_kept_runs(back, back)) == repr(runs)

    def test_equal_trees_keep_their_own_kernels(self):
        # equal trees, different bits: kernels found by equality would hand
        # one of them the other's
        pos, neg = Add(Variable(), Constant(0.0)), Add(Variable(), Constant(-0.0))
        assert pos == neg
        assert level_module._kernels(pos) is not level_module._kernels(neg)
        assert repr(level_module._kernels(pos)[0](-0.0)) != repr(level_module._kernels(neg)[0](-0.0))
