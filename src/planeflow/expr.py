"""Expression trees for entire functions of one complex variable.

The node set is deliberately small: constants, the variable, sums,
products, scalar multiples, negation, nonnegative integer powers and
exp.  Every well-formed tree therefore defines an entire function,
which the rest of the package relies on (no poles, no branch cuts).
The parser accepts division only when the divisor folds to a nonzero
constant, so ``z/2`` is sugar for ``0.5 * z`` while ``1/z`` is
rejected.
"""

from __future__ import annotations

import cmath
import struct
from dataclasses import dataclass
from functools import lru_cache
from types import CodeType, FunctionType
from typing import Callable, Optional, Union

from .errors import EntiretyViolation, EvaluationOverflow, ParseError, UnsupportedAntiderivative

__all__ = [
    "Add",
    "Constant",
    "Exp",
    "FuncExpr",
    "IntPower",
    "Mul",
    "Negate",
    "Scale",
    "Variable",
    "antiderivative",
    "compile_fn",
    "constant_value",
    "derivative",
    "is_constant",
    "parse_expr",
    "poly_coeffs",
    "to_text",
]


class _Node:
    """Base of the tree nodes (and of ``flow.Trajectory``): values kept by
    :func:`_kept` under private names stay out of a pickle."""

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


def _kept(obj, name: str, key, build):
    """The one keep rule: ``build()`` kept on ``obj`` under the private ``name`` with ``key`` (the
    ``compile_fn`` that bench/tracing.py rebinds, or a config), built again once ``key`` changes.
    Never found by equality (Constant(0.0) == Constant(-0.0), yet their bits differ); a ``build``
    that raises keeps nothing."""
    kept = obj.__dict__.get(name)
    if kept is None or kept[0] != key:
        kept = key, build()
        object.__setattr__(obj, name, kept)
    return kept[1]


@dataclass(frozen=True)
class Constant(_Node):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True)
class Variable(_Node):
    pass


@dataclass(frozen=True)
class Add(_Node):
    left: "FuncExpr"
    right: "FuncExpr"


@dataclass(frozen=True)
class Mul(_Node):
    left: "FuncExpr"
    right: "FuncExpr"


@dataclass(frozen=True)
class Negate(_Node):
    arg: "FuncExpr"


@dataclass(frozen=True)
class Exp(_Node):
    arg: "FuncExpr"


@dataclass(frozen=True)
class IntPower(_Node):
    arg: "FuncExpr"
    power: int

    def __post_init__(self):
        if not isinstance(self.power, int) or self.power < 0:
            raise ValueError(f"IntPower exponent must be a nonnegative integer, got {self.power!r}")


@dataclass(frozen=True)
class Scale(_Node):
    factor: complex
    arg: "FuncExpr"

    def __post_init__(self):
        object.__setattr__(self, "factor", complex(self.factor))


FuncExpr = Union[Constant, Variable, Add, Mul, Negate, Exp, IntPower, Scale]

_Z = Variable()
_ZERO = Constant(0.0)


# ---------------------------------------------------------------------------
# basic queries and folding constructors


def is_constant(expr: FuncExpr) -> bool:
    """True when the tree contains no Variable leaf."""
    if isinstance(expr, Variable):
        return False
    if isinstance(expr, Constant):
        return True
    if isinstance(expr, (Add, Mul)):
        return is_constant(expr.left) and is_constant(expr.right)
    if isinstance(expr, (Negate, Exp)):
        return is_constant(expr.arg)
    if isinstance(expr, IntPower):
        return expr.power == 0 or is_constant(expr.arg)
    if isinstance(expr, Scale):
        return expr.factor == 0 or is_constant(expr.arg)
    raise TypeError(f"not a FuncExpr node: {expr!r}")


def constant_value(expr: FuncExpr) -> complex:
    """Value of a constant subtree (caller must check is_constant)."""
    return compile_fn(expr)(0.0)


def _scale(c: complex, e: FuncExpr) -> FuncExpr:
    c = complex(c)
    if c == 0:
        return _ZERO
    if isinstance(e, Constant):
        return Constant(c * e.value)
    if c == 1:
        return e
    if c == -1:
        return e.arg if isinstance(e, Negate) else Negate(e)
    if isinstance(e, Scale):
        return _scale(c * e.factor, e.arg)
    return Scale(c, e)


def _add(l: FuncExpr, r: FuncExpr) -> FuncExpr:
    if isinstance(l, Constant) and isinstance(r, Constant):
        return Constant(l.value + r.value)
    if isinstance(l, Constant) and l.value == 0:
        return r
    if isinstance(r, Constant) and r.value == 0:
        return l
    return Add(l, r)


def _mul(l: FuncExpr, r: FuncExpr) -> FuncExpr:
    if isinstance(l, Constant):
        return _scale(l.value, r)
    if isinstance(r, Constant):
        return _scale(r.value, l)
    return Mul(l, r)


# ---------------------------------------------------------------------------
# compiled point evaluation


# The globals of every generated point function: one dict, built here and
# never written, so that all of them read their shared names from one place.
_POINT_GLOBALS = {
    "complex": complex,
    "exp": cmath.exp,
    "isfinite": cmath.isfinite,
    "EvaluationOverflow": EvaluationOverflow,
}


def compile_fn(expr: FuncExpr) -> Callable[[complex], complex]:
    """Build a fast function computing expr(z).

    The tree becomes one straight-line Python function with one
    temporary per node, in post-order, left operand first: the same
    operations in the same order as a recursive walk, so every value is
    bit-identical to it.  Constants and nodes are never written into its
    source, so the source depends only on the tree's shape and integer
    powers, and trees of one shape share one code object.  Each call
    returns a fresh function, bound by :func:`_generated`'s rule with the
    globals ``_POINT_GLOBALS``.

    The returned function raises EvaluationOverflow when the value, an
    exp or an integer power along the way leaves the double range, or
    when exp has no value (a finite real and an infinite imaginary part).
    """
    body, out, env = _emit_body(expr)
    return _generated("f", ["z0"], ["    z = complex(z0)", body, f"    return {out}"], env, _POINT_GLOBALS)


def _generated(name: str, params, lines, env: dict, shared: dict) -> FunctionType:
    """``def name(*params, ...):`` with the body ``lines``, the one builder of
    every generated function in the package, and its one binding rule.

    ``shared`` is the globals dict of one kind of generated function, built
    at import and never written; a name it holds is read from it, whatever
    ``env`` binds to the name.  The names of ``env`` it does not hold (a
    tree's constants, nodes, jet kernels, a wrapped function) follow
    ``params`` as trailing parameters, in ``env``'s order, whose defaults
    hold their values.  Trees of one shape give one source, so their
    functions share one code object (:func:`_function_code`) and one
    globals dict and differ only in their defaults: CPython 3.11+ keys its
    inline caches on the globals dict (PEP 659), and a dict per tree made
    every switch of tree re-specialize the shared code.
    """
    names = [key for key in env if key not in shared]
    source = "\n".join([f"def {name}({', '.join([*params, *names])}):", *lines])
    return FunctionType(_function_code(source), shared, None, tuple(env[key] for key in names))


def _emit_body(expr: FuncExpr, env: Optional[dict] = None, root: str = "root", temp: str = "t", pad: str = "    "):
    """The statements that compute expr at the complex ``z``, ending with
    the finiteness check of the value; the name that holds the value; and
    ``env``, the names the statements read, shared and the tree's own
    alike, which :func:`_generated` splits.

    An overflow names the node and ``z``; a non-finite value names the
    root and ``z0``, which the caller binds to the argument it was given.
    :func:`compile_fn` wraps these statements in a function; the flow
    integrator inlines them into each stage of its step, and its reciprocal
    runs them on scaled numbers.

    Given the ``env`` of an earlier body, a second tree binds its constants
    and nodes into it; ``root`` and ``temp`` then name its root and prefix
    its temporaries apart from the earlier body's, so that both bodies can
    run in one function.  Every statement starts with ``pad``.
    """
    if env is None:
        env = dict(_POINT_GLOBALS)
    env[root] = expr
    lines: list = []
    out = _emit(expr, lines, env, temp, pad)
    lines += [
        f"{pad}if not isfinite({out}):",
        f"{pad}    raise EvaluationOverflow({root}, at=z0)",
    ]
    return "\n".join(lines), out, env


def _emit(expr: FuncExpr, lines: list, env: dict, temp: str, pad: str) -> str:
    """Append the lines computing expr; return the name holding its value."""
    if isinstance(expr, Variable):
        return "z"
    if isinstance(expr, Constant):
        return _bind(env, "c", expr.value)
    if isinstance(expr, (Add, Mul)):
        l, r = _emit(expr.left, lines, env, temp, pad), _emit(expr.right, lines, env, temp, pad)
        value = f"{l} + {r}" if isinstance(expr, Add) else f"{l} * {r}"
    elif isinstance(expr, Negate):
        value = f"-{_emit(expr.arg, lines, env, temp, pad)}"
    elif isinstance(expr, Scale):
        a = _emit(expr.arg, lines, env, temp, pad)
        value = f"{_bind(env, 'c', expr.factor)} * {a}"
    elif isinstance(expr, (Exp, IntPower)):
        a = _emit(expr.arg, lines, env, temp, pad)
        value = f"exp({a})" if isinstance(expr, Exp) else f"{a} ** {expr.power}"
        out = f"{temp}{len(lines)}"
        # cmath.exp raises ValueError for a finite real part and an
        # infinite imaginary part
        lines += [
            f"{pad}try:",
            f"{pad}    {out} = {value}",
            f"{pad}except (OverflowError, ValueError):",
            f"{pad}    raise EvaluationOverflow({_bind(env, 'n', expr)}, at=z) from None",
        ]
        return out
    else:
        raise TypeError(f"not a FuncExpr node: {expr!r}")
    out = f"{temp}{len(lines)}"
    lines.append(f"{pad}{out} = {value}")
    return out


def _bind(env: dict, prefix: str, value) -> str:
    name = f"{prefix}{len(env)}"
    env[name] = value
    return name


# compile() costs far more than building the source.  Sources name their
# constants rather than spell them, so trees of one shape share an entry.
@lru_cache(maxsize=256)
def _function_code(source: str) -> CodeType:
    """Code object of the one function that ``source`` defines: the one
    compile cache of every generated function in the package."""
    module = compile(source, "<generated>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


# ---------------------------------------------------------------------------
# symbolic derivative and antiderivative


def derivative(expr: FuncExpr) -> FuncExpr:
    """Exact derivative tree; the class is closed under differentiation.
    G′ runs at every step, point and node, so d(u²) is 2·u·u′, not 2·u¹·u′ (a complex power per
    call), save for a constant u, whose u·0 may differ from uᵏ⁻¹·0 in a zero's sign; and d(−u)
    folds u′ = c ≠ 0 to the constant −c and u′ = −u″ to u″, not to −(c) and −(−u″)."""
    if isinstance(expr, Constant):
        return _ZERO
    if isinstance(expr, Variable):
        return Constant(1.0)
    if isinstance(expr, Add):
        return _add(derivative(expr.left), derivative(expr.right))
    if isinstance(expr, Mul):
        return _add(_mul(derivative(expr.left), expr.right), _mul(expr.left, derivative(expr.right)))
    if isinstance(expr, Negate):
        d = derivative(expr.arg)
        if isinstance(d, Constant):
            return _ZERO if d.value == 0 else Constant(-d.value)
        return d.arg if isinstance(d, Negate) else Negate(d)
    if isinstance(expr, Exp):
        return _mul(derivative(expr.arg), expr)
    if isinstance(expr, IntPower):
        k = expr.power
        if k < 2:
            return derivative(expr.arg) if k else _ZERO
        base = expr.arg if k == 2 and not isinstance(expr.arg, Constant) else IntPower(expr.arg, k - 1)
        return _scale(k, _mul(base, derivative(expr.arg)))
    if isinstance(expr, Scale):
        return _scale(expr.factor, derivative(expr.arg))
    raise TypeError(f"not a FuncExpr node: {expr!r}")


def antiderivative(expr: FuncExpr) -> FuncExpr:
    """Symbolic antiderivative with the integration constant fixed to 0.

    Supported class: linear combinations of monomials in z and of
    exp(affine) terms.  Anything else (general products, nested exp,
    powers of non-monomials) raises UnsupportedAntiderivative naming
    the first offending node.  The result is verified to differentiate
    back to the input at five fixed sample points.
    """
    out = _anti(expr)
    _verify_antiderivative(expr, out)
    return out


def _anti(expr: FuncExpr) -> FuncExpr:
    if is_constant(expr):
        return _scale(constant_value(expr), _Z)
    if isinstance(expr, Variable):
        return Scale(0.5, IntPower(_Z, 2))
    if isinstance(expr, Add):
        return _add(_anti(expr.left), _anti(expr.right))
    if isinstance(expr, Negate):
        return Negate(_anti(expr.arg))
    if isinstance(expr, Scale):
        return _scale(expr.factor, _anti(expr.arg))
    if isinstance(expr, Mul):
        if is_constant(expr.left):
            return _scale(constant_value(expr.left), _anti(expr.right))
        if is_constant(expr.right):
            return _scale(constant_value(expr.right), _anti(expr.left))
        raise UnsupportedAntiderivative(expr)
    if isinstance(expr, IntPower):
        if isinstance(expr.arg, Variable):
            k = expr.power
            return _scale(1.0 / (k + 1), IntPower(_Z, k + 1))
        raise UnsupportedAntiderivative(expr)
    if isinstance(expr, Exp):
        c = poly_coeffs(expr.arg)
        if c is None or len(c) > 2:
            raise UnsupportedAntiderivative(expr)
        if len(c) == 1:
            return _scale(cmath.exp(c[0]), _Z)
        return _scale(1.0 / c[1], expr)
    raise TypeError(f"not a FuncExpr node: {expr!r}")


# Fixed generic sample points; shared by the self-check below.
_CHECK_POINTS = (
    0.3 + 0.7j,
    -1.1 + 0.4j,
    0.9 - 1.3j,
    -0.5 - 0.8j,
    1.7 + 0.2j,
)


def _verify_antiderivative(g: FuncExpr, big_g: FuncExpr) -> None:
    from .jets import eval_jet  # local import to avoid a cycle

    for z in _CHECK_POINTS:
        got = eval_jet(big_g, z, 1)[1]
        want = eval_jet(g, z, 0)[0]
        if abs(got - want) > 1e-10 * (1.0 + abs(want)):
            raise UnsupportedAntiderivative(g)


# ---------------------------------------------------------------------------
# polynomial extraction

_POLY_DEGREE_CAP = 64


def poly_coeffs(expr: FuncExpr):
    """Coefficients (ascending) when expr is a polynomial in z, else None."""
    c = _poly(expr)
    if c is None:
        return None
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly(expr: FuncExpr):
    if isinstance(expr, Constant):
        return [expr.value]
    if isinstance(expr, Variable):
        return [0j, 1 + 0j]
    if isinstance(expr, Add):
        l, r = _poly(expr.left), _poly(expr.right)
        if l is None or r is None:
            return None
        if len(l) < len(r):
            l, r = r, l
        return [a + (r[i] if i < len(r) else 0) for i, a in enumerate(l)]
    if isinstance(expr, Mul):
        return _convolve(_poly(expr.left), _poly(expr.right))
    if isinstance(expr, Negate):
        l = _poly(expr.arg)
        return None if l is None else [-a for a in l]
    if isinstance(expr, Scale):
        l = _poly(expr.arg)
        return None if l is None else [expr.factor * a for a in l]
    if isinstance(expr, IntPower):
        base = _poly(expr.arg)
        if base is None or (len(base) - 1) * expr.power > _POLY_DEGREE_CAP:
            return None
        out = [1 + 0j]
        for _ in range(expr.power):
            last, out = out, _convolve(out, base)
            # only a constant base keeps the degree; once its product repeats bit for bit it stays fixed
            if len(base) == 1 and _bits(out) == _bits(last):
                break
        return out
    if isinstance(expr, Exp):
        if is_constant(expr.arg):
            return [cmath.exp(constant_value(expr.arg))]
        return None
    raise TypeError(f"not a FuncExpr node: {expr!r}")


def _bits(coeffs) -> bytes:
    """The bits of a coefficient list, so that -0.0 and 0.0, or two NaNs, compare as they are stored."""
    return struct.pack(f"{2 * len(coeffs)}d", *(part for c in coeffs for part in (c.real, c.imag)))


def _convolve(l, r):
    """Coefficients of the product of two polynomials; None when either is
    None or the product's degree passes ``_POLY_DEGREE_CAP``."""
    if l is None or r is None or len(l) + len(r) - 2 > _POLY_DEGREE_CAP:
        return None
    out = [0j] * (len(l) + len(r) - 1)
    for i, a in enumerate(l):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


# ---------------------------------------------------------------------------
# parsing

_DIGITS = set("0123456789")

# Deepest nesting of parentheses, exp( and unary minus the parser
# accepts; each level costs several Python frames here and in every
# recursive walker over the tree.
_MAX_NESTING = 100

# Most nodes on a path from the root the parser builds.  Sums and
# products parse in a loop but build left-deep trees, which the
# recursive walkers descend one frame or two per node.
_MAX_DEPTH = 200


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c in _DIGITS or c == ".":
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            if text[i:j] == ".":
                raise ParseError("numeric literal has no digits", i)
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    while k < n and text[k] in _DIGITS:
                        k += 1
                    j = k
            lit = text[i:j]
            if j < n and text[j] == "i":
                tokens.append(("num", lit + "i", i))
                j += 1
            else:
                tokens.append(("num", lit, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> FuncExpr:
        e = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        if _constant_checked(e):
            _check_part(e)
        return e

    def sum(self) -> FuncExpr:
        start = self.pos
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()
            rhs = self.term()
            if op[0] == "-":
                rhs = Constant(-rhs.value) if isinstance(rhs, Constant) else Negate(rhs)
            e = Add(e, rhs)
        # checked here, before a division walks the tree recursively; the
        # parser makes at most two nodes per token, so a short sum is shallow
        if 2 * (self.pos - start) > _MAX_DEPTH and _depth(e) > _MAX_DEPTH:
            raise ParseError("expression nested too deeply", self.tokens[start][2])
        return e

    def term(self) -> FuncExpr:
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            if op[0] == "*":
                e = Mul(e, rhs)
            else:
                if not is_constant(rhs):
                    raise EntiretyViolation(
                        f"division by non-constant {to_text(rhs)!r}", op[2]
                    )
                d = constant_value(rhs)
                if d == 0:
                    raise EntiretyViolation("division by zero", op[2])
                if isinstance(e, Constant):
                    e = Constant(e.value / d)
                else:
                    e = Scale(1.0 / d, e)
        return e

    def unary(self) -> FuncExpr:
        # every recursive path of the grammar passes through here
        if self.depth == _MAX_NESTING:
            raise ParseError("expression nested too deeply", self.peek()[2])
        self.depth += 1
        if self.peek()[0] == "-":
            self.take()
            e = self.unary()
            e = Constant(-e.value) if isinstance(e, Constant) else Negate(e)
        else:
            e = self.postfix()
        self.depth -= 1
        return e

    def postfix(self) -> FuncExpr:
        e = self.atom()
        while self.peek()[0] == "^":
            caret = self.take()
            tok = self.take()
            if tok[0] not in ("num", "-"):
                raise ParseError("expected an integer exponent after '^'", tok[2])
            if tok[0] == "-":
                raise EntiretyViolation("negative exponent is not entire", caret[2])
            if tok[0] != "num" or tok[1].endswith("i") or not tok[1].isdigit():
                raise EntiretyViolation(
                    f"exponent must be a nonnegative integer, found {tok[1]!r}", tok[2]
                )
            e = IntPower(e, int(tok[1]))
        return e

    def atom(self) -> FuncExpr:
        tok = self.take()
        kind, lit, off = tok
        if kind == "num":
            x = float(lit.rstrip("i"))
            if cmath.isinf(x):
                raise ParseError(f"numeric literal {lit!r} overflows", off)
            return Constant(complex(0.0, x) if lit.endswith("i") else complex(x, 0.0))
        if kind == "name":
            if lit == "z":
                return Variable()
            if lit == "i":
                return Constant(1j)
            if lit == "exp":
                self.expect("(")
                inner = self.sum()
                self.expect(")")
                return Exp(inner)
            raise ParseError(f"unknown name {lit!r}", off)
        if kind == "(":
            inner = self.sum()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {lit!r}", off)


def _constant_checked(expr: FuncExpr) -> bool:
    """is_constant(expr), found in one walk that evaluates each largest constant
    part of a non-constant expr, so that one with no finite value raises."""
    if isinstance(expr, (Constant, Variable)):
        return isinstance(expr, Constant)
    if not isinstance(expr, (Add, Mul)):  # as constant as its argument, or z^0
        return _constant_checked(expr.arg) or isinstance(expr, IntPower) and expr.power == 0
    left, right = _constant_checked(expr.left), _constant_checked(expr.right)
    if left != right:
        _check_part(expr.left if left else expr.right)
    return left and right


def _check_part(part: FuncExpr) -> None:
    # a literal was checked when read; a sum of two, such as (1+2i), is their sum
    if isinstance(part, Add) and isinstance(part.left, Constant) and isinstance(part.right, Constant):
        if not cmath.isfinite(part.left.value + part.right.value):
            raise EvaluationOverflow(part, at=0j)
    elif not isinstance(part, Constant):
        constant_value(part)


def _depth(expr: FuncExpr) -> int:
    """Most nodes on a path from the root, counted without recursion."""
    deepest, stack = 0, [(expr, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(node, (Add, Mul)):
            stack += [(node.left, d + 1), (node.right, d + 1)]
        elif isinstance(node, (Negate, Exp, IntPower, Scale)):
            stack.append((node.arg, d + 1))
    return deepest


def parse_expr(text: str) -> FuncExpr:
    """Parse the ASCII expression grammar into a FuncExpr tree.

    Grammar: complex literals ``a``, ``bi``, ``(a+bi)``; variable ``z``;
    ``+ - *`` and unary ``-``; ``^k`` with integer k >= 0; ``exp(...)``;
    division only by a nonzero constant.  Whitespace is insignificant.
    """
    try:
        return _Parser(text).parse()
    except EvaluationOverflow as exc:  # a constant part with no finite value
        raise ParseError(f"constant {to_text(exc.node)!r} is not finite", 0) from None


# ---------------------------------------------------------------------------
# printing


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _fmt_complex(v: complex) -> str:
    if v.imag == 0:
        return _fmt_real(v.real)
    if v.real == 0:
        return _fmt_real(v.imag) + "i"
    sign = "+" if v.imag >= 0 else "-"
    return f"({_fmt_real(v.real)}{sign}{_fmt_real(abs(v.imag))}i)"


# precedence levels used while printing
_P_SUM, _P_PROD, _P_UNARY, _P_POW = 1, 2, 3, 4


def to_text(expr: FuncExpr) -> str:
    """Render a tree in the parser's grammar (parse(to_text(e)) ~ e)."""
    return _render(expr, 0)


def _render(expr: FuncExpr, ctx: int) -> str:
    if isinstance(expr, Constant):
        s = _fmt_complex(expr.value)
        if s.startswith("-") and ctx >= _P_POW:
            return f"({s})"
        return s
    if isinstance(expr, Variable):
        return "z"
    if isinstance(expr, Add):
        l = _render(expr.left, _P_SUM)
        r = _render(expr.right, _P_SUM + 1)
        body = f"{l} - {r[1:]}" if r.startswith("-") else f"{l} + {r}"
        return f"({body})" if ctx > _P_SUM else body
    if isinstance(expr, Mul):
        body = f"{_render(expr.left, _P_PROD)} * {_render(expr.right, _P_PROD + 1)}"
        return f"({body})" if ctx > _P_PROD else body
    if isinstance(expr, Scale):
        body = f"{_fmt_complex(expr.factor)} * {_render(expr.arg, _P_PROD + 1)}"
        return f"({body})" if ctx > _P_PROD else body
    if isinstance(expr, Negate):
        body = f"-{_render(expr.arg, _P_UNARY)}"
        return f"({body})" if ctx > _P_UNARY else body
    if isinstance(expr, Exp):
        return f"exp({_render(expr.arg, 0)})"
    if isinstance(expr, IntPower):
        return f"{_render(expr.arg, _P_POW)}^{expr.power}"
    raise TypeError(f"not a FuncExpr node: {expr!r}")
