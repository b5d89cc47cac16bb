"""Truncated Taylor (jet) arithmetic for exact higher derivatives.

A jet is the tuple of Taylor coefficients a_0..a_m of a function at a
center, with a_k = f^(k)(center)/k!.  Storing coefficients rather than
raw derivatives keeps the recurrences well scaled; a caller that needs
the k-th derivative multiplies a_k by k!.  Propagation rules: sums and
scalar multiples are elementwise, products use the Cauchy convolution,
exp uses the first-order recurrence obtained from (e^u)' = e^u * u',
and integer powers use binary powering.

:func:`eval_jet` builds a straight-line function from the tree and the
order, calling kernels for products and exp built once per order and zero
pattern (:func:`_kernel`); it does a recursive walk's operations in its
order, but for terms with a literal zero factor, so every bit and the
overflowing node match.  Both are built by ``expr._generated``, whose rule
binds constants, nodes and kernels; the jet's globals are ``_JET_GLOBALS``.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

from .errors import EvaluationOverflow
from .expr import (
    _POINT_GLOBALS, Add, Constant, Exp, FuncExpr, IntPower, Mul, Negate, Scale, Variable, _bind, _generated,
)

__all__ = ["eval_jet"]

_MAX_JET_ORDER = 64  # the generated kernels grow with the order squared


def eval_jet(expr: FuncExpr, z: complex, order: int) -> tuple:
    """The Taylor coefficients (a_0, ..., a_order) of expr at z, a tuple.

    a_k equals the k-th derivative divided by k!, so ``a_0`` is the plain
    value.  Overflow in any coefficient, or an exp without a value, raises
    EvaluationOverflow carrying the innermost offending node.  The order
    must lie in 0..``_MAX_JET_ORDER``.  Each call builds the function again,
    by ``expr._generated``.
    """
    if not 0 <= order <= _MAX_JET_ORDER:
        raise ValueError(f"order must be in 0..{_MAX_JET_ORDER}, got {order!r}")
    z = complex(z)
    env: dict = {}
    lines, out = _jet_body(expr, order, env)
    return _generated("jet", ["z"], [*lines, f"    return ({', '.join(out)},)"], env, _JET_GLOBALS)(z)


def _jet_body(expr: FuncExpr, order: int, env: dict):
    """The lines computing expr's coefficients a_0..a_order at the complex
    ``z``, and the names that hold them; the kernels and the constants the
    lines read are bound into ``env``, so other statements can share it."""
    env.update(_JET_GLOBALS)
    lines: list = []
    return lines, _emit(expr, order + 1, lines, env)


def _emit(expr: FuncExpr, n: int, lines: list, env: dict) -> list:
    """Append the lines computing expr's n coefficients; return their names."""
    if isinstance(expr, Variable):
        return ["z", "(1 + 0j)", *["0j"] * (n - 2)][:n]
    if isinstance(expr, Constant):
        return [_bind(env, "c", expr.value), *["0j"] * (n - 1)]
    if isinstance(expr, Add):
        value = [f"{x} + {y}" for x, y in zip(_emit(expr.left, n, lines, env), _emit(expr.right, n, lines, env))]
    elif isinstance(expr, (Negate, Scale)):
        a = _emit(expr.arg, n, lines, env)
        prefix = "-" if isinstance(expr, Negate) else f"{_bind(env, 'c', expr.factor)} * "
        value = [prefix + x for x in a]
    elif isinstance(expr, (Mul, Exp)):
        # an operand's literal zeros, a suffix of it, are not passed
        operands = (expr.left, expr.right) if isinstance(expr, Mul) else (expr.arg,)
        args = [[x for x in _emit(a, n, lines, env) if x != "0j"] for a in operands]
        kernel = _bind(env, "k", _kernel(isinstance(expr, Mul), n, tuple(map(len, args))))
        value = f"{kernel}({', '.join(x for a in args for x in a)})"
    elif isinstance(expr, IntPower):
        # the powers of a are not sparse: each product takes all their coefficients
        kernel = _bind(env, "k", _kernel(True, n, (n, n)))
        value = f"power({kernel}, ({', '.join(_emit(expr.arg, n, lines, env))},), {expr.power})"
    else:
        raise TypeError(f"not a FuncExpr node: {expr!r}")
    node = _bind(env, "n", expr)
    out = [f"t{len(lines)}_{k}" for k in range(n)]
    if isinstance(value, list):
        lines += [f"    {o} = {v}" for o, v in zip(out, value)]
    else:
        # of the kernels only exp raises (ValueError: finite real, infinite imaginary part)
        lines += [
            "    try:",
            f"        {', '.join(out)}, = {value}",
            "    except (OverflowError, ValueError):",
            f"        raise EvaluationOverflow({node}, at=z) from None",
        ]
    lines += [
        f"    if not ({' and '.join(f'isfinite({o})' for o in out)}):",
        f"        raise EvaluationOverflow({node}, at=z)",
    ]
    return out


# n runs to the cap + 2 (a Rubel path takes its jet one order past m_max),
# and an operand is dense, z's or a constant's: the cache stays small
@lru_cache(maxsize=None)
def _kernel(mul: bool, n: int, live: tuple):
    """The straight-line Cauchy product of a and b, or exp recurrence of u, on
    n coefficients, taking each operand's first ``live`` ones: the rest, z's
    past a_1 or a constant's past a_0, are literal zeros.  Their terms, signed
    zeros of finite factors (a non-finite z or constant fails the check on a_0
    of the first product or exp it enters), are left out: each sum starts from
    0, as ``sum()`` starts it, so never holds -0.0; with no term left it is 0j."""
    if mul:
        terms = [[f"a{j} * b{k - j}" for j in range(k + 1) if j < live[0] and k - j < live[1]] for k in range(n)]
        params = [f"{p}{k}" for p, count in zip("ab", live) for k in range(count)]
        body = [f"    return ({', '.join(' + '.join(['0', *t]) if t else '0j' for t in terms)},)"]
    else:
        terms = [[f"{j} * u{j} * v{k - j}" for j in range(1, min(k + 1, live[0]))] for k in range(1, n)]
        params = [f"u{k}" for k in range(live[0])]
        body = [
            "    v0 = exp(u0)",
            *(f"    v{k} = ({' + '.join(['0', *t])}) / {k}" if t else f"    v{k} = 0j" for k, t in enumerate(terms, 1)),
            f"    return ({', '.join(f'v{k}' for k in range(n))},)",
        ]
    return _generated("mul" if mul else "exp_jet", params, body, {}, _POINT_GLOBALS)  # it takes nothing from a tree


def _power(mul, a: tuple, k: int) -> tuple:
    """a^k by binary powering: fewer than 2 * k.bit_length() products."""
    out = None
    while k:
        if k & 1:
            out = a if out is None else mul(*out, *a)
        k >>= 1
        if k:
            a = mul(*a, *a)
    return out if out is not None else (1 + 0j,) + (0j,) * (len(a) - 1)


# The globals of every generated jet function.
_JET_GLOBALS = {"power": _power, "isfinite": cmath.isfinite, "EvaluationOverflow": EvaluationOverflow}
