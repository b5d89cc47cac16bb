import cmath
import math
import random

import pytest

from planeflow import expr as expr_module
from planeflow.errors import EvaluationOverflow
from planeflow.expr import (
    Add,
    Constant,
    Exp,
    FuncExpr,
    IntPower,
    Mul,
    Negate,
    Scale,
    Variable,
    _function_code,
    compile_fn,
    derivative,
    parse_expr,
)
from planeflow import jets
from planeflow.escape import _rubel_pass
from planeflow.flow import Field
from planeflow.jets import eval_jet
from planeflow.level import _newton

from conftest import random_expr, tame_random_expr

Z = Variable()


# The recursive walk eval_jet used before it was generated, kept as the
# reference the generated jets must match bit for bit.

def _c_add(a, b):
    return tuple(x + y for x, y in zip(a, b))

def _c_neg(a):
    return tuple(-x for x in a)

def _c_scale(c, a):
    return tuple(c * x for x in a)

def _c_mul(a, b):
    n = len(a)
    return tuple(sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n))

def _c_exp(u):
    n = len(u)
    v = [cmath.exp(u[0])] + [0j] * (n - 1)
    for k in range(1, n):
        v[k] = sum(j * u[j] * v[k - j] for j in range(1, k + 1)) / k
    return tuple(v)

def _c_pow(a, k):
    """a^k by binary powering: fewer than 2 * k.bit_length() products."""
    out = None
    while k:
        if k & 1:
            out = a if out is None else _c_mul(out, a)
        k >>= 1
        if k:
            a = _c_mul(a, a)
    return out if out is not None else (1 + 0j,) + (0j,) * (len(a) - 1)


def _jet_walk(expr: FuncExpr, z: complex, order: int):
    n = order + 1
    if isinstance(expr, Constant):
        return (expr.value,) + (0j,) * (n - 1)
    if isinstance(expr, Variable):
        if n == 1:
            return (z,)
        return (z, 1 + 0j) + (0j,) * (n - 2)
    if isinstance(expr, Add):
        out = _c_add(_jet_walk(expr.left, z, order), _jet_walk(expr.right, z, order))
    elif isinstance(expr, Mul):
        out = _c_mul(_jet_walk(expr.left, z, order), _jet_walk(expr.right, z, order))
    elif isinstance(expr, Negate):
        out = _c_neg(_jet_walk(expr.arg, z, order))
    elif isinstance(expr, Scale):
        out = _c_scale(expr.factor, _jet_walk(expr.arg, z, order))
    elif isinstance(expr, Exp):
        try:
            out = _c_exp(_jet_walk(expr.arg, z, order))
        except (OverflowError, ValueError):  # ValueError: exp of a finite real, infinite imaginary part
            raise EvaluationOverflow(expr, at=z) from None
    elif isinstance(expr, IntPower):
        out = _c_pow(_jet_walk(expr.arg, z, order), expr.power)
    else:
        raise TypeError(f"not a FuncExpr node: {expr!r}")
    if not all(cmath.isfinite(c) for c in out):
        raise EvaluationOverflow(expr, at=z)
    return out


class TestExamples:
    def test_exp_at_zero(self):
        jet = eval_jet(Exp(Z), 0.0, 2)
        assert jet == (1, 1, 0.5)

    def test_square_at_three(self):
        jet = eval_jet(IntPower(Z, 2), 3.0, 2)
        assert jet == (9, 6, 1)

    def test_negated_exponential(self):
        jet = eval_jet(Negate(Exp(Negate(Z))), 0.0, 1)
        assert jet == (-1, 1)

    def test_value_and_derivative_accessors(self):
        # the value is a_0 and the k-th derivative a_k * k!
        jet = eval_jet(IntPower(Z, 3), 2.0, 3)
        assert jet[0] == 8
        assert jet[1] * math.factorial(1) == 12
        assert jet[2] * math.factorial(2) == 12  # 6z at z=2
        assert jet[3] * math.factorial(3) == 6

    def test_order_zero(self):
        jet = eval_jet(parse_expr("exp(z) - z^2"), 1.5, 0)
        fn = compile_fn(parse_expr("exp(z) - z^2"))
        assert jet == (fn(1.5),)


class TestProperties:
    def test_first_coefficient_matches_central_difference(self):
        rng = random.Random(2024)
        h = 1e-6
        for _ in range(40):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            expr = tame_random_expr(rng, (z, z + h, z - h))
            fn = compile_fn(expr)
            jet = eval_jet(expr, z, 1)
            fd = (fn(z + h) - fn(z - h)) / (2 * h)
            scale = 1.0 + abs(jet[0]) + abs(jet[1])
            assert abs(jet[1] - fd) <= 1e-6 * scale

    def test_truncation_is_exact(self):
        rng = random.Random(99)
        pts = (0.3 + 0.4j, -1.0 + 0.2j)
        for _ in range(30):
            expr = tame_random_expr(rng, pts)
            for z in pts:
                full = eval_jet(expr, z, 6)
                for order in (0, 2, 4):
                    direct = eval_jet(expr, z, order)
                    assert full[: order + 1] == direct


class TestOverflow:
    def test_exp_overflow_carries_node(self):
        expr = Exp(Scale(1e6, Z))
        with pytest.raises(EvaluationOverflow) as err:
            eval_jet(expr, 10.0, 2)
        assert err.value.node == expr

    def test_power_overflow_names_innermost_node(self):
        inner = Scale(1e200, Z)
        expr = IntPower(inner, 2)
        with pytest.raises(EvaluationOverflow) as err:
            eval_jet(expr, 1e120, 1)
        assert err.value.node == inner

    def test_compiled_overflow(self):
        fn = compile_fn(Exp(Scale(1e6, Z)))
        with pytest.raises(EvaluationOverflow):
            fn(10.0)


@pytest.fixture
def mul_calls(monkeypatch):
    """Record every jet convolution of the jet functions generated from here on."""
    real = jets._kernel
    calls = []

    def kernel(mul, n, live):
        fn = real(mul, n, live)
        return (lambda *ab: calls.append(1) or fn(*ab)) if mul else fn

    monkeypatch.setattr(jets, "_kernel", kernel)
    return calls


class TestIntPower:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 12, 1000, 10**5, 10**8])
    def test_binary_powering_call_count(self, mul_calls, k):
        jet = eval_jet(IntPower(Z, k), 1.0, 3)
        assert len(mul_calls) <= 2 * k.bit_length()
        assert jet[1] == k  # d/dz z^k = k z^(k-1) at z = 1

    def test_huge_power_overflows(self, mul_calls):
        expr = IntPower(Z, 10**8)
        with pytest.raises(EvaluationOverflow) as err:
            eval_jet(expr, 2.0, 2)
        assert err.value.node == expr
        assert len(mul_calls) <= 2 * (10**8).bit_length()

    @pytest.mark.parametrize(
        "text, z",
        [
            ("z", 3.0),
            ("exp(z)", 0.5 + 0.25j),
            ("z^2 - 1", 0.3 + 0.7j),
            ("exp(-z) + 1", complex(-1, math.pi)),
            ("i*z + exp(z)", -0.7 + 0.2j),
            ("z^3/3 - z", 1.1 - 0.4j),
        ],
    )
    def test_matches_repeated_product(self, text, z):
        a = eval_jet(parse_expr(text), z, 6)
        mul = jets._kernel(True, 7, (7, 7))
        for k in range(13):
            ref = (1 + 0j,) + (0j,) * 6
            for _ in range(k):
                ref = _c_mul(ref, a)
            got = jets._power(mul, a, k)
            assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-15 * max(abs(c) for c in ref)


def _outcome(fn):
    """repr of the coefficients, or the exception's class, node and point."""
    try:
        return repr(fn())
    except EvaluationOverflow as exc:
        return type(exc), id(exc.node), repr(exc.at)


class TestGenerated:
    def test_matches_walk_bit_for_bit(self):
        rng = random.Random(20261018)
        raised = 0
        for _ in range(1500):
            expr = random_expr(rng, rng.randint(1, 4))
            order = rng.randint(0, 8)
            # |z| up to 1e150 so that exp and the powers overflow on some trees
            z = cmath.rect(10.0 ** rng.uniform(-2.0, 150.0) if rng.random() < 0.3 else rng.uniform(0.0, 3.0),
                           rng.uniform(-math.pi, math.pi))
            want = _outcome(lambda: _jet_walk(expr, z, order))
            assert _outcome(lambda: eval_jet(expr, z, order)) == want, (expr, order, z)
            raised += isinstance(want, tuple)
        assert raised >= 20  # the overflowing node is compared too
        # a non-finite z: the jets leave out the terms of z's literal zeros,
        # which the walk's 0 * inf would make nan; the same node still raises
        inf, nan = math.inf, math.nan
        points = [complex(inf, 0.0), complex(0.0, -inf), complex(-inf, inf), complex(nan, 1.0), complex(1.0, nan),
                  complex(nan, nan), complex(inf, nan)]
        for _ in range(300):
            expr = random_expr(rng, rng.randint(1, 4))
            order = rng.randint(0, 8)
            for z in points:
                want = _outcome(lambda: _jet_walk(expr, z, order))
                assert _outcome(lambda: eval_jet(expr, z, order)) == want, (expr, order, z)

    @pytest.mark.parametrize("text", ["exp(z)", "z*exp(z)"])
    def test_no_product_with_a_literal_zero(self, monkeypatch, text):
        # every source the jet compiles, its kernels' included: 0j only in
        # z's a_1, 1 + 0j, never a factor or an argument
        sources = []
        monkeypatch.setattr(expr_module, "_function_code", lambda source: sources.append(source) or _function_code(source))
        jets._kernel.cache_clear()
        eval_jet(parse_expr(text), 0.5, 5)
        assert any("def exp_jet(u0, u1):" in src for src in sources)
        assert ("def mul(a0, a1, b0, b1, b2, b3, b4, b5):" in "".join(sources)) == (text == "z*exp(z)")
        assert not [src for src in sources if "0j" in src.replace("(1 + 0j)", "")]

    def test_signed_zero_constants_kept_apart(self):
        # Constant(0j) == Constant(-0j), so a table keyed by equality would
        # hand the second tree the first one's function
        assert repr(eval_jet(Add(Constant(0j), Z), -0j, 0)[0]) == "0j"
        assert repr(eval_jet(Add(Constant(-0j), Z), -0j, 0)[0]) == "(-0-0j)"

    def test_exp_without_value_overflows(self):
        # cmath.exp raises ValueError for a finite real and an infinite imaginary part
        expr = Exp(Z)
        with pytest.raises(EvaluationOverflow) as err:
            eval_jet(expr, complex(0.0, math.inf), 1)
        assert err.value.node is expr

    def test_order_capped(self):
        assert len(eval_jet(Z, 1.0, jets._MAX_JET_ORDER)) - 1 == jets._MAX_JET_ORDER
        with pytest.raises(ValueError, match="order"):
            eval_jet(Z, 1.0, jets._MAX_JET_ORDER + 1)

    def test_kernels_built_once_per_order(self):
        # kept for every order eval_jet and the Rubel-path passes take, and
        # for each zero pattern (dense, z's, a constant's): none is evicted
        # by the others
        first = jets._kernel(True, 1, (1, 1))
        for n in range(1, jets._MAX_JET_ORDER + 3):
            for live in {n, min(n, 2), 1}:
                assert jets._kernel(False, n, (live,)) is jets._kernel(False, n, (live,))
                assert jets._kernel(True, n, (live, n)) is jets._kernel(True, n, (live, n))
        assert jets._kernel(True, 1, (1, 1)) is first

    def test_function_code_is_the_one_cache(self):
        # every kind of generated function is compiled through _function_code:
        # the first tree of a shape adds entries, a second one with other
        # constants adds hits and no entry
        builds = {
            "compile_fn": compile_fn,
            "Field point and step": lambda f: Field(f, "-{}").step,
            "newton": lambda f: _newton(f, derivative(f)),
            "rubel pass": lambda f: _rubel_pass(f, 3, 2),
            "eval_jet": lambda f: eval_jet(f, 0.5, 3),
        }
        first, second = (Add(Scale(c, Exp(Z)), IntPower(Z, 3)) for c in (2.0, -3.0))
        _function_code.cache_clear()
        for kind, build in builds.items():
            before = _function_code.cache_info()
            build(first)
            between = _function_code.cache_info()
            build(second)
            after = _function_code.cache_info()
            assert between.currsize > before.currsize, kind
            assert after.currsize == between.currsize and after.misses == between.misses, kind
            assert after.hits > between.hits, kind


class TestJetType:
    def test_order(self):
        assert len(eval_jet(Z, 1.0, 5)) - 1 == 5

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            eval_jet(Z, 1.0, -1)
