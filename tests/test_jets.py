import math
import random

import pytest

from planeflow.errors import EvaluationOverflow
from planeflow.expr import Exp, IntPower, Negate, Scale, Variable, compile_fn, parse_expr
from planeflow import jets
from planeflow.jets import Jet, eval_jet

from conftest import tame_random_expr

Z = Variable()


class TestExamples:
    def test_exp_at_zero(self):
        jet = eval_jet(Exp(Z), 0.0, 2)
        assert jet.coeffs == (1, 1, 0.5)

    def test_square_at_three(self):
        jet = eval_jet(IntPower(Z, 2), 3.0, 2)
        assert jet.coeffs == (9, 6, 1)

    def test_negated_exponential(self):
        jet = eval_jet(Negate(Exp(Negate(Z))), 0.0, 1)
        assert jet.coeffs == (-1, 1)

    def test_value_and_derivative_accessors(self):
        jet = eval_jet(IntPower(Z, 3), 2.0, 3)
        assert jet.value == 8
        assert jet.derivative(1) == 12
        assert jet.derivative(2) == 12  # 6z at z=2 times 1, from 6*2 = 12
        assert jet.derivative(3) == 6

    def test_order_zero(self):
        jet = eval_jet(parse_expr("exp(z) - z^2"), 1.5, 0)
        fn = compile_fn(parse_expr("exp(z) - z^2"))
        assert jet.coeffs == (fn(1.5),)


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
            scale = 1.0 + abs(jet.coeffs[0]) + abs(jet.coeffs[1])
            assert abs(jet.coeffs[1] - fd) <= 1e-6 * scale

    def test_truncation_is_exact(self):
        rng = random.Random(99)
        pts = (0.3 + 0.4j, -1.0 + 0.2j)
        for _ in range(30):
            expr = tame_random_expr(rng, pts)
            for z in pts:
                full = eval_jet(expr, z, 6)
                for order in (0, 2, 4):
                    direct = eval_jet(expr, z, order)
                    assert full.truncate(order) == direct

    def test_truncate_rejects_extension(self):
        jet = eval_jet(Exp(Z), 0.0, 2)
        with pytest.raises(ValueError):
            jet.truncate(3)


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
    """Record every jet convolution."""
    real = jets._c_mul
    calls = []
    monkeypatch.setattr(jets, "_c_mul", lambda a, b: calls.append(1) or real(a, b))
    return calls


class TestIntPower:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 12, 1000, 10**5, 10**8])
    def test_binary_powering_call_count(self, mul_calls, k):
        jet = eval_jet(IntPower(Z, k), 1.0, 3)
        assert len(mul_calls) <= 2 * k.bit_length()
        assert jet.coeffs[1] == k  # d/dz z^k = k z^(k-1) at z = 1

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
        a = eval_jet(parse_expr(text), z, 6).coeffs
        for k in range(13):
            ref = (1 + 0j,) + (0j,) * 6
            for _ in range(k):
                ref = jets._c_mul(ref, a)
            got = jets._c_pow(a, k)
            assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-15 * max(abs(c) for c in ref)


class TestJetType:
    def test_requires_coefficients(self):
        with pytest.raises(ValueError):
            Jet(0j, ())

    def test_order(self):
        assert eval_jet(Z, 1.0, 5).order == 5

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            eval_jet(Z, 1.0, -1)
