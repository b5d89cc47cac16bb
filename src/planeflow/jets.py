"""Truncated Taylor (jet) arithmetic for exact higher derivatives.

A jet is the tuple of Taylor coefficients a_0..a_m of a function at a
center, with a_k = f^(k)(center)/k!.  Storing coefficients rather than
raw derivatives keeps the recurrences well scaled; a caller that needs
the k-th derivative multiplies a_k by k!.  Propagation rules: sums and
scalar multiples are elementwise, products use the Cauchy convolution,
exp uses the first-order recurrence obtained from (e^u)' = e^u * u',
and integer powers use binary powering.

:func:`eval_jet` builds a straight-line function from the tree and the
order, calling kernels for products and exp generated per order; it does
a recursive walk's operations in its order, so every bit and the
overflowing node match.  Their code is compiled once per source text by
``expr._function_code``; constants and nodes are bound as globals.
"""

from __future__ import annotations

import cmath
from types import FunctionType

from .errors import EvaluationOverflow
from .expr import Add, Constant, Exp, FuncExpr, IntPower, Mul, Negate, Scale, Variable, _bind, _function_code

__all__ = ["eval_jet"]

_MAX_JET_ORDER = 64  # the generated kernels grow with the order squared


def eval_jet(expr: FuncExpr, z: complex, order: int) -> tuple:
    """The Taylor coefficients (a_0, ..., a_order) of expr at z, a tuple.

    a_k equals the k-th derivative divided by k!, so ``a_0`` is the plain
    value.  Overflow in any coefficient, or an exp without a value, raises
    EvaluationOverflow carrying the innermost offending node.  The order
    must lie in 0..``_MAX_JET_ORDER``.  Each call builds the function's
    source again; its code comes from ``expr._function_code``.
    """
    if not 0 <= order <= _MAX_JET_ORDER:
        raise ValueError(f"order must be in 0..{_MAX_JET_ORDER}, got {order!r}")
    z = complex(z)
    env: dict = {}
    lines, out = _jet_body(expr, order, env)
    source = "\n".join(["def jet(z):", *lines, f"    return ({', '.join(out)},)"])
    return FunctionType(_function_code(source), env)(z)


def _jet_body(expr: FuncExpr, order: int, env: dict):
    """The lines computing expr's coefficients a_0..a_order at the complex
    ``z``, and the names that hold them; the kernels and the constants the
    lines read are bound into ``env``, so other statements can share it."""
    env.update(_kernels(order + 1), power=_power, isfinite=cmath.isfinite, EvaluationOverflow=EvaluationOverflow)
    lines: list = []
    return lines, _emit(expr, order + 1, lines, env)


def _emit(expr: FuncExpr, n: int, lines: list, env: dict) -> list:
    """Append the lines computing expr's n coefficients; return their names."""
    if isinstance(expr, Variable):
        return ["z", "(1 + 0j)", *["0j"] * (n - 2)][:n]
    if isinstance(expr, Constant):
        return [_bind(env, "c", expr.value), *["0j"] * (n - 1)]
    if isinstance(expr, (Add, Mul)):
        a, b = _emit(expr.left, n, lines, env), _emit(expr.right, n, lines, env)
        value = [f"{x} + {y}" for x, y in zip(a, b)] if isinstance(expr, Add) else f"mul({', '.join(a + b)})"
    elif isinstance(expr, (Negate, Scale)):
        a = _emit(expr.arg, n, lines, env)
        prefix = "-" if isinstance(expr, Negate) else f"{_bind(env, 'c', expr.factor)} * "
        value = [prefix + x for x in a]
    elif isinstance(expr, (Exp, IntPower)):
        a = ", ".join(_emit(expr.arg, n, lines, env))
        value = f"exp_jet({a})" if isinstance(expr, Exp) else f"power(mul, ({a},), {expr.power})"
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


def _kernels(n: int) -> dict:
    """Straight-line Cauchy product ``mul`` and exp recurrence ``exp_jet``
    on n coefficients, by name; their sums start from 0, as ``sum()`` starts them."""
    a, b, u, v = ([f"{p}{k}" for k in range(n)] for p in "abuv")
    conv = [" + ".join(["0", *(f"a{j} * b{k - j}" for j in range(k + 1))]) for k in range(n)]
    rec = [" + ".join(["0", *(f"{j} * u{j} * v{k - j}" for j in range(1, k + 1))]) for k in range(1, n)]
    mul = "\n".join([f"def mul({', '.join(a + b)}):", f"    return ({', '.join(conv)},)"])
    exp_jet = "\n".join([
        f"def exp_jet({', '.join(u)}):",
        "    v0 = exp(u0)",
        *(f"    v{k} = ({terms}) / {k}" for k, terms in enumerate(rec, 1)),
        f"    return ({', '.join(v)},)",
    ])
    return {
        "mul": FunctionType(_function_code(mul), {}),
        "exp_jet": FunctionType(_function_code(exp_jet), {"exp": cmath.exp}),
    }


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
