import cmath
import random
import re
import sys
from functools import singledispatch
from pathlib import Path

import pytest

from planeflow import expr as expr_module
from planeflow.errors import EntiretyViolation, EvaluationOverflow, ParseError, UnsupportedAntiderivative
from planeflow.escape import _rubel_pass
from planeflow.expr import (
    Add,
    Constant,
    Exp,
    IntPower,
    Mul,
    Negate,
    Scale,
    Variable,
    antiderivative,
    compile_fn,
    constant_value,
    derivative,
    is_constant,
    parse_expr,
    poly_coeffs,
    to_text,
)
from planeflow.flow import Field, _stepper
from planeflow.jets import eval_jet
from planeflow.level import _newton

from conftest import random_expr, shared_code_own_values, tame_random_expr

Z = Variable()


class TestParse:
    def test_negated_exponential(self):
        assert parse_expr("-exp(-z)") == Negate(Exp(Negate(Z)))

    def test_monomial_minus_constant(self):
        assert parse_expr("z^2 - 1") == Add(IntPower(Z, 2), Constant(-1))

    def test_division_by_nonconstant_rejected(self):
        with pytest.raises(EntiretyViolation) as err:
            parse_expr("z/2 + 1/z")
        # the offending term is 1/z, not the constant division z/2
        assert "z" in str(err.value)
        assert err.value.offset == 7

    def test_division_by_constant_is_scale(self):
        assert parse_expr("z/2") == Scale(0.5, Z)
        assert parse_expr("1/4") == Constant(0.25)

    def test_division_by_zero(self):
        with pytest.raises(EntiretyViolation):
            parse_expr("z/0")

    def test_negative_exponent_rejected(self):
        with pytest.raises(EntiretyViolation):
            parse_expr("z^-2")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(EntiretyViolation):
            parse_expr("z^1.5")

    @pytest.mark.parametrize("text", ["z^", "z^(2)", "z^z"])
    def test_missing_exponent_is_a_syntax_error(self, text):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert type(err.value) is ParseError
        assert "expected an integer exponent after '^'" in str(err.value)

    @pytest.mark.parametrize("text", ["z^-1", "z^1.5", "z^2i"])
    def test_non_entire_exponent_is_an_entirety_violation(self, text):
        with pytest.raises(EntiretyViolation) as err:
            parse_expr(text)
        assert type(err.value) is EntiretyViolation

    def test_complex_literals(self):
        assert parse_expr("2i") == Constant(2j)
        assert parse_expr("i") == Constant(1j)
        assert parse_expr("(1+2i)") == Add(Constant(1), Constant(2j))
        assert constant_value(parse_expr("(1+2i)")) == 1 + 2j

    @pytest.mark.parametrize("text, offset", [("1e400*z", 0), ("z + 2e999i", 4)])
    def test_overflowing_literal_rejected(self, text, offset):
        with pytest.raises(ParseError, match="overflows") as err:
            parse_expr(text)
        assert err.value.offset == offset

    @pytest.mark.parametrize("text, offset", [(".", 0), ("z + .e5", 4), ("2*.i", 2)])
    def test_literal_without_digits_rejected(self, text, offset):
        with pytest.raises(ParseError, match="no digits") as err:
            parse_expr(text)
        assert type(err.value) is ParseError and err.value.offset == offset

    @pytest.mark.parametrize(
        "text, part",
        [
            ("exp(1000)*z", "exp(1000)"),
            ("1e200*1e200*z", "1e+200 * 1e+200"),
            ("z + exp(exp(7))", "exp(exp(7))"),
            ("exp(1000)^0", "exp(1000)"),
            ("z/exp(1000)", "exp(1000)"),
            # a sum of two literals is checked by adding them, not compiled
            ("(1e308+1e308)*z", "1e+308 + 1e+308"),
            ("exp(1000)", "exp(1000)"),
        ],
    )
    def test_overflowing_constant_part_rejected(self, text, part):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert type(err.value) is ParseError
        assert str(err.value) == f"constant {part!r} is not finite (at offset 0)"

    def test_finite_constant_part_kept_unfolded(self):
        # the part 1e200*1e200 overflows, but the largest constant part is 0
        e = parse_expr("exp(-(1e200*1e200))*z")
        assert e == Mul(Exp(Negate(Mul(Constant(1e200), Constant(1e200)))), Variable())
        assert compile_fn(e)(2.0) == 0
        assert parse_expr("(1e308+1e308i)*z") == Mul(Add(Constant(1e308), Constant(1e308j)), Variable())

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expr("z + $")
        assert err.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("z z")

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_expr("sin(z)")

    def test_nesting_cap(self):
        assert parse_expr("(" * 99 + "z" + ")" * 99) == Z
        for text in ("(" * 2000 + "z" + ")" * 2000, "-" * 2000 + "z", "exp(" * 2000 + "z"):
            with pytest.raises(ParseError, match="nested too deeply"):
                parse_expr(text)

    @pytest.mark.parametrize("op", ["+", "*"])
    def test_flat_chain_at_depth_cap_walks(self, op):
        cap = expr_module._MAX_DEPTH
        tree = parse_expr(op.join(["z"] * cap))
        z = 0.5 + 0.25j
        want = cap * z if op == "+" else z**cap
        assert abs(compile_fn(tree)(z) - want) <= 1e-12 * abs(want)
        rhs = Field(tree)
        per_stage = _stepper(lambda w: rhs(w))
        assert repr(rhs.step(z, 1e-3, rhs(z))) == repr(per_stage(z, 1e-3, rhs(z)))
        assert parse_expr(to_text(tree)) == tree
        d = derivative(tree)
        d_want = cap if op == "+" else cap * z ** (cap - 1)
        assert abs(compile_fn(d)(z) - d_want) <= 1e-9 * abs(d_want)
        assert abs(eval_jet(tree, z, 2)[1] - d_want) <= 1e-9 * abs(d_want)

    @pytest.mark.parametrize("make", [
        lambda cap: "+".join(["z"] * (cap + 1)),
        lambda cap: "*".join(["z"] * 1000),
        lambda cap: "z / (" + "+".join(["1"] * 5000) + ")",
        lambda cap: "exp(" + "+".join(["z"] * cap) + ")",
    ])
    def test_depth_cap(self, make):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_expr(make(expr_module._MAX_DEPTH))

    def test_whitespace_insignificant(self):
        assert parse_expr(" z ^ 2 -  1 ") == parse_expr("z^2-1")


def _assert_round_trip(tree, points):
    """The printed text is a fixpoint after one re-parse, and the re-parsed
    tree has the tree's values at the points."""
    again = parse_expr(to_text(tree))
    assert to_text(parse_expr(to_text(again))) == to_text(again)
    fn_a, fn_b = compile_fn(tree), compile_fn(again)
    for z in points:
        assert abs(fn_a(z) - fn_b(z)) <= 1e-9 * (1 + abs(fn_a(z)))


class TestPrint:
    @pytest.mark.parametrize(
        "text",
        ["z", "-exp(-z)", "z^2 - 1", "(1+2i) * z + exp(0.5 * z)", "z/2 + 3", "i * z",
         "z * (z + 1)", "-(z * z)", "2 * z^3 - 0.25"],
    )
    def test_roundtrip_parsed(self, text):
        _assert_round_trip(parse_expr(text), (0.37 - 0.21j, -1.2 + 0.8j))

    def test_roundtrip_random(self):
        rng = random.Random(1347)
        pts = (0.37 - 0.21j, -1.2 + 0.8j)
        # the 491st tree is c + (-z) * z, printed c - z * z, which re-parses
        # as c + -(z * z): another tree, with the same text and values
        for _ in range(1000):
            _assert_round_trip(tame_random_expr(rng, pts), pts)


# derivative as it was written with functools.singledispatch, kept as the
# reference that the isinstance walk in planeflow.expr reproduces tree for tree
@singledispatch
def _reference_derivative(expr):
    raise TypeError(f"not a FuncExpr node: {expr!r}")


@_reference_derivative.register
def _(expr: Constant):
    return expr_module._ZERO


@_reference_derivative.register
def _(expr: Variable):
    return Constant(1.0)


@_reference_derivative.register
def _(expr: Add):
    return expr_module._add(_reference_derivative(expr.left), _reference_derivative(expr.right))


@_reference_derivative.register
def _(expr: Mul):
    return expr_module._add(
        expr_module._mul(_reference_derivative(expr.left), expr.right),
        expr_module._mul(expr.left, _reference_derivative(expr.right)),
    )


@_reference_derivative.register
def _(expr: Negate):
    d = _reference_derivative(expr.arg)
    if isinstance(d, Constant):
        return expr_module._ZERO if d.value == 0 else Constant(-d.value)
    return d.arg if isinstance(d, Negate) else Negate(d)


@_reference_derivative.register
def _(expr: Exp):
    return expr_module._mul(_reference_derivative(expr.arg), expr)


@_reference_derivative.register
def _(expr: IntPower):
    k = expr.power
    if k == 0:
        return expr_module._ZERO
    inner = _reference_derivative(expr.arg)
    if k == 1:
        return inner
    if k == 2 and not isinstance(expr.arg, Constant):
        return expr_module._scale(2, expr_module._mul(expr.arg, inner))
    return expr_module._scale(k, expr_module._mul(IntPower(expr.arg, k - 1), inner))


@_reference_derivative.register
def _(expr: Scale):
    return expr_module._scale(expr.factor, _reference_derivative(expr.arg))


# derivative as it was before d(u²) became 2·u·u′ and d(−u) folded a constant
# or a negation u′: 2·u¹·u′, and −u′ whatever u′ is.  Kept for its values,
# which today's _scale keeps bit for bit (its −1·(−e) is e, and −(−x) is x).
def _derivative_before(expr):
    d = _derivative_before
    if isinstance(expr, (Constant, Variable)):
        return expr_module._ZERO if isinstance(expr, Constant) else Constant(1.0)
    if isinstance(expr, Add):
        return expr_module._add(d(expr.left), d(expr.right))
    if isinstance(expr, Mul):
        return expr_module._add(expr_module._mul(d(expr.left), expr.right), expr_module._mul(expr.left, d(expr.right)))
    if isinstance(expr, Negate):
        inner = d(expr.arg)
        return expr_module._ZERO if (isinstance(inner, Constant) and inner.value == 0) else Negate(inner)
    if isinstance(expr, Exp):
        return expr_module._mul(d(expr.arg), expr)
    if isinstance(expr, Scale):
        return expr_module._scale(expr.factor, d(expr.arg))
    k = expr.power
    if k < 2:
        return d(expr.arg) if k else expr_module._ZERO
    return expr_module._scale(k, expr_module._mul(IntPower(expr.arg, k - 1), d(expr.arg)))


def _outcome(fn, z):
    try:
        return fn(z)
    except Exception as exc:
        return type(exc)


def _built_nodes(out, given):
    """The nodes of out that are not subtrees of given, found by identity."""
    children = lambda node: [v for v in vars(node).values() if isinstance(v, expr_module._Node)]
    copied, stack = set(), [given]
    while stack:
        node = stack.pop()
        copied.add(id(node))
        stack += children(node)
    built, stack = [], [out]
    while stack:
        node = stack.pop()
        if id(node) not in copied:
            built.append(node)
            stack += children(node)
    return built


class TestDerivative:
    def test_power_rule(self):
        d = derivative(IntPower(Z, 3))
        fn = compile_fn(d)
        assert abs(fn(2.0) - 12.0) < 1e-12

    def test_exponential_chain(self):
        d = derivative(parse_expr("exp(-z)"))
        fn = compile_fn(d)
        assert abs(fn(0.0) + 1.0) < 1e-12

    def test_random_against_jets(self):
        rng = random.Random(77)
        pts = (0.4 + 0.3j, -0.9 - 0.5j)
        for _ in range(40):
            tree = tame_random_expr(rng, pts)
            dfn = compile_fn(derivative(tree))
            for z in pts:
                jet = eval_jet(tree, z, 1)
                assert abs(dfn(z) - jet[1]) <= 1e-9 * (1 + abs(jet[1]))

    def test_matches_reference_tree_for_tree(self):
        # repr tells Constant(-0.0) from Constant(0.0), which == does not
        rng = random.Random(20261018)
        trees = [random_expr(rng, depth=rng.randint(1, 5)) for _ in range(400)]
        trees += [parse_expr(t) for t in ("0*z", "-(0*z)", "-(z - z)", "(-0.0)*z^2", "z^0 + z^1", "-exp(-z)*z")]
        trees += [Negate(Constant(-0.0)), Scale(-1.0, Mul(Constant(-0.0), Z)), Mul(Z, Constant(-0.0))]
        for tree in trees:
            assert repr(derivative(tree)) == repr(_reference_derivative(tree)), tree
        with pytest.raises(TypeError):
            derivative("z")

    @pytest.mark.parametrize("text, want", [
        ("z^2", Scale(2, Z)),
        ("z^2*(1/2)", Z),
        ("exp(-z) + 1", Negate(Exp(Negate(Z)))),
        ("-exp(-z)", Exp(Negate(Z))),
    ])
    def test_folded_shapes(self, text, want):
        assert repr(derivative(parse_expr(text))) == repr(want)

    @pytest.mark.parametrize("text", ["(-1.5)^2", "(-1.5+2i)^2"])
    def test_constant_square_keeps_an_unsigned_zero(self, text):
        # u·0 would be (-0+0j) for u = -1.5; the k·u¹ form keeps 0j
        assert repr(derivative(parse_expr(text))) == "Constant(value=0j)"

    def test_builds_no_unit_power_and_no_foldable_negation(self):
        rng = random.Random(20261018)
        trees = [random_expr(rng, depth=rng.randint(1, 5)) for _ in range(400)]
        trees += [parse_expr(t) for t in ("exp(z^2)", "-(-exp(z))", "(-z) * (-exp(z))", "-(-(z^2))", "exp(--z)")]
        for tree in trees:
            for node in _built_nodes(derivative(tree), tree):
                assert not (isinstance(node, IntPower) and node.power == 1), tree
                assert not (isinstance(node, Negate) and isinstance(node.arg, (Constant, Negate))), tree

    def test_values_match_the_rule_before(self):
        # the same values, or the same exception, except where a folded
        # constant now meets a Scale: c·(f·u) becomes (c·f)·u, which may
        # round apart by an ulp (7 of these 400 trees)
        rng = random.Random(20261018)
        trees = [random_expr(rng, depth=rng.randint(1, 5)) for _ in range(400)]
        moved = 0
        for tree in trees:
            new, before = compile_fn(derivative(tree)), compile_fn(_derivative_before(tree))
            outcomes = [(_outcome(new, z), _outcome(before, z)) for z in (0.37 - 0.21j, -1.2 + 0.8j, 0.9 + 1.3j)]
            for a, b in outcomes:
                if isinstance(b, type):
                    assert a is b, tree
                else:
                    assert abs(a - b) <= 4 * sys.float_info.epsilon * abs(b), tree
            moved += any(a != b for a, b in outcomes)
        assert moved <= 7


class TestAntiderivative:
    def test_monomial(self):
        assert antiderivative(IntPower(Z, 2)) == Scale(1 / 3, IntPower(Z, 3))

    def test_shifted_exponential(self):
        # integral of exp(-z) + 1 is -exp(-z) + z
        tree = Add(Exp(Negate(Z)), Constant(1))
        assert antiderivative(tree) == Add(Negate(Exp(Negate(Z))), Z)

    def test_exp_fixed_point(self):
        assert antiderivative(Exp(Z)) == Exp(Z)

    def test_unsupported_product(self):
        bad = Mul(Z, Exp(Z))
        with pytest.raises(UnsupportedAntiderivative) as err:
            antiderivative(bad)
        assert err.value.node == bad

    def test_unsupported_nested_exp(self):
        with pytest.raises(UnsupportedAntiderivative):
            antiderivative(Exp(IntPower(Z, 2)))

    def test_derivative_matches_at_random_points(self):
        rng = random.Random(5150)
        pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
        for text in ("z^3 - 2*z + 1", "exp(-z) + 1", "exp((0.3+0.1i) * z) - z^2 / 7", "4"):
            g = parse_expr(text)
            big = antiderivative(g)
            for z in pts:
                a1 = eval_jet(big, z, 1)[1]
                a0 = eval_jet(g, z, 0)[0]
                assert abs(a1 - a0) <= 1e-12 * (1 + abs(a0))


class TestQueries:
    def test_is_constant(self):
        assert is_constant(parse_expr("exp(2) * 3 - 1"))
        assert not is_constant(parse_expr("z^0 + z"))
        assert is_constant(IntPower(Z, 0))

    def test_poly_coeffs(self):
        assert poly_coeffs(parse_expr("z^2")) == [0, 0, 1]
        assert poly_coeffs(parse_expr("(z + 1) * (z - 1)")) == [-1, 0, 1]
        assert poly_coeffs(parse_expr("exp(z)")) is None
        assert poly_coeffs(parse_expr("exp(1) + z")) is not None

    def test_poly_degree_cap_is_one_for_products_and_powers(self):
        for text in ("z^64", "(z^2)^32", "z^63*z", "z^32*z^32"):
            assert poly_coeffs(parse_expr(text)) == [0] * 64 + [1], text
        for text in ("z^65", "(z^5)^13", "z^64*z", "z^32*z^33"):
            assert poly_coeffs(parse_expr(text)) is None, text

    def test_constant_base_stops_once_its_power_repeats(self, monkeypatch):
        # a degree-0 base keeps the product at degree 0, under every cap: the
        # loop stops once the running product repeats bit for bit
        convolve = expr_module._convolve
        calls = []
        monkeypatch.setattr(expr_module, "_convolve", lambda l, r: calls.append(1) or convolve(l, r))
        assert poly_coeffs(parse_expr("(z^0)^1000000000")) == [1]
        assert len(calls) <= 2
        # 0.5^k underflows to 0 within 1076 products; the bits are those of all 3000
        calls.clear()
        full = [1 + 0j]
        for _ in range(3000):
            full = convolve(full, [0.5 + 0j])
        assert repr(poly_coeffs(parse_expr("0.5^3000"))) == repr(full)
        assert len(calls) <= 1076

    def test_reciprocal_random(self):
        # Field.reciprocal runs f's own statements on scaled numbers v e^s
        rng = random.Random(2029)
        pts = (0.37 - 0.21j, -1.2 + 0.8j)
        for _ in range(60):
            tree = tame_random_expr(rng, pts)
            reciprocal = Field(tree).reciprocal
            for z in pts:
                want = 1.0 / compile_fn(tree)(z)
                assert abs(reciprocal(z) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize(
        "text, z, want",
        [
            ("exp(2*z) * exp(-z)", 400.0, cmath.exp(-400.0)),  # a product
            ("(exp(z) + 1) * exp(-z)", 800.0, 1.0),  # a sum
            ("(exp(z) + z)^2 * exp(-2*z)", 500.0, 1.0),  # a power
            ("z^5", 1e62, 1e-310),
            # a constant subtree feeds a plain complex into the scaled statements
            ("exp(1) * exp(2*z) * exp(-z)", 400.0, cmath.exp(-401.0)),
        ],
    )
    def test_reciprocal_past_overflow(self, text, z, want):
        tree = parse_expr(text)
        with pytest.raises(EvaluationOverflow):
            compile_fn(tree)(z)
        assert abs(Field(tree).reciprocal(z) - want) <= 1e-12 * abs(want)


def _reference_eval(expr, z):
    """Recursive walk with the semantics of the former closure tree."""
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Variable):
        return z
    if isinstance(expr, Add):
        return _reference_eval(expr.left, z) + _reference_eval(expr.right, z)
    if isinstance(expr, Mul):
        return _reference_eval(expr.left, z) * _reference_eval(expr.right, z)
    if isinstance(expr, Negate):
        return -_reference_eval(expr.arg, z)
    if isinstance(expr, Scale):
        return expr.factor * _reference_eval(expr.arg, z)
    if isinstance(expr, IntPower):
        return _reference_eval(expr.arg, z) ** expr.power
    return cmath.exp(_reference_eval(expr.arg, z))


class TestCompile:
    def test_matches_reference_walk_bit_for_bit(self):
        rng = random.Random(20261018)
        points = (*expr_module._CHECK_POINTS, complex(-0.0, -0.0), 0.0, 3 - 4j)
        for _ in range(400):
            tree = random_expr(rng, depth=rng.randint(1, 5))
            fn = compile_fn(tree)
            for z in points:
                try:
                    want = _reference_eval(tree, complex(z))
                except OverflowError:
                    want = None
                if want is None or not cmath.isfinite(want):
                    with pytest.raises(EvaluationOverflow):
                        fn(z)
                else:
                    assert repr(fn(z)) == repr(want), (tree, z)

    def test_exp_overflow_names_the_exp_node(self):
        outer = parse_expr("exp(exp(z))")
        with pytest.raises(EvaluationOverflow) as err:
            compile_fn(outer)(10)
        assert err.value.node is outer
        assert err.value.at == 10

    def test_nonfinite_value_names_the_root_and_caller_argument(self):
        tree = parse_expr("z^2*z^2*z^2*z^2")
        arg = 1e80
        with pytest.raises(EvaluationOverflow) as err:
            compile_fn(tree)(arg)
        assert err.value.node is tree
        assert err.value.at is arg

    def test_exp_without_value_is_evaluation_overflow(self):
        # cmath.exp has no value at a finite real and an infinite imaginary part
        tree = parse_expr("exp(1 + i*z^2*z^2)")
        with pytest.raises(EvaluationOverflow) as err:
            compile_fn(tree)(1e80)
        assert err.value.node is tree
        assert err.value.at == 1e80

    def test_int_power_overflow_is_evaluation_overflow(self):
        tree = parse_expr("3 * z^200")
        with pytest.raises(EvaluationOverflow) as err:
            compile_fn(tree)(1e10)
        assert err.value.node is tree.right
        assert err.value.at == 1e10

    def test_signed_constants_share_code_not_values(self):
        fn_neg = compile_fn(Add(Z, Constant(-0.0)))
        fn_pos = compile_fn(Add(Z, Constant(0.0)))
        assert fn_neg.__code__ is fn_pos.__code__
        z = complex(-0.0, -0.0)
        assert repr(fn_neg(z)) != repr(fn_pos(z))
        assert repr(fn_neg(z)) == repr(z + complex(-0.0))
        # one code and one globals dict; the values are the defaults, and no run writes the dict
        assert shared_code_own_values(fn_neg, fn_pos, lambda fn: fn(z)) == ["(-0+0j)", "0j"]
        # the corrector of G = z + c, g = (1-0j) + c: each returns its own bits
        neg, pos = (_newton(Add(Z, c), Add(Constant(complex(1.0, -0.0)), c)) for c in (Constant(-0j), Constant(0j)))
        runs = shared_code_own_values(neg, pos, lambda newton: newton(0j, complex(1.0, -0.0), 0.0, 1))
        assert runs == ["(-0j, 1, (1-0j))", "(-0j, 1, (1+0j))"]

    def test_signed_constants_share_rubel_pass_code_not_values(self):
        # f = e^z + c on the path f = t from t = 2 to 4, with its window node at t = 2
        neg, pos = (_rubel_pass(Add(Exp(Z), c), 1, 2) for c in (Constant(-0.0), Constant(0.0)))
        nodes = [(t, complex(cmath.log(t))) for t in (2.0, 3.0, 4.0, 2.0)]
        runs = shared_code_own_values(neg, pos, lambda path: path(nodes, 3, 1, 0.0, 0.0, 0.5, 1.0))
        assert runs[0] == runs[1]  # a zero's sign leaves e^z + c's values on the real axis as they are

    def test_one_builder_of_generated_functions(self):
        # every generated function is built by expr._generated: no other module compiles code or makes functions
        modules = sorted(Path(expr_module.__file__).parent.glob("*.py"))
        assert [p.name for p in modules if re.search(r"FunctionType|_function_code", p.read_text())] == ["expr.py"]

    def test_fresh_function_per_call(self):
        tree = parse_expr("z + 1")
        assert compile_fn(tree) is not compile_fn(tree)

    def test_code_cache_is_bounded(self):
        bound = expr_module._function_code.cache_info().maxsize
        for k in range(bound + 20):
            compile_fn(IntPower(Z, k))(0.5)
        assert expr_module._function_code.cache_info().currsize == bound

    def test_unknown_node_rejected(self):
        with pytest.raises(TypeError):
            compile_fn(Add(Z, "z"))
