"""Truncated Taylor (jet) arithmetic for exact higher derivatives.

A jet stores the Taylor coefficients a_0..a_m of a function at a
center, with a_k = f^(k)(center)/k!.  Storing coefficients rather than
raw derivatives keeps the recurrences well scaled; the k! conversion
happens only in :meth:`Jet.derivative`.  Propagation rules: sums and
scalar multiples are elementwise, products use the Cauchy convolution,
exp uses the first-order recurrence obtained from (e^u)' = e^u * u',
and integer powers use binary powering.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import EvaluationOverflow
from .expr import Add, Constant, Exp, FuncExpr, IntPower, Mul, Negate, Scale, Variable

__all__ = ["Jet", "eval_jet"]


@dataclass(frozen=True)
class Jet:
    """Value plus truncated Taylor coefficients at a point."""

    center: complex
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a jet needs at least the order-0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> complex:
        return self.coeffs[0]

    def derivative(self, k: int) -> complex:
        """k-th derivative at the center (coefficient times k!)."""
        out = self.coeffs[k]
        for j in range(2, k + 1):
            out *= j
        return out

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError(f"cannot truncate order-{self.order} jet to {order}")
        return Jet(self.center, self.coeffs[: order + 1])


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


def eval_jet(expr: FuncExpr, z: complex, order: int) -> Jet:
    """Evaluate expr and its Taylor coefficients a_0..a_order at z.

    a_k equals the k-th derivative divided by k!, so ``coeffs[0]`` is
    the plain value.  Overflow in any coefficient raises
    EvaluationOverflow carrying the innermost offending node.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    z = complex(z)
    coeffs = _jet_walk(expr, z, order)
    return Jet(z, coeffs)


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
        except OverflowError:
            raise EvaluationOverflow(expr, at=z) from None
    elif isinstance(expr, IntPower):
        out = _c_pow(_jet_walk(expr.arg, z, order), expr.power)
    else:
        raise TypeError(f"not a FuncExpr node: {expr!r}")
    if not all(cmath.isfinite(c) for c in out):
        raise EvaluationOverflow(expr, at=z)
    return out
