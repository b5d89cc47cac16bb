import cmath
import random

from planeflow.errors import CorrectorDivergence, EvaluationOverflow
from planeflow.expr import (
    Add,
    Constant,
    Exp,
    IntPower,
    Mul,
    Negate,
    Scale,
    Variable,
    compile_fn,
)
from planeflow.level import _G_MIN, _POINT_TOL


def random_expr(rng: random.Random, depth: int = 3):
    """Random tree in the supported class, kept numerically tame."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Variable()
        return Constant(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
    kind = rng.choice(("add", "mul", "neg", "exp", "pow", "scale"))
    if kind == "add":
        return Add(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == "mul":
        return Mul(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == "neg":
        return Negate(random_expr(rng, depth - 1))
    if kind == "exp":
        # damp the argument so nested exponentials stay in range
        return Exp(Scale(complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)),
                         random_expr(rng, depth - 1)))
    if kind == "pow":
        return IntPower(random_expr(rng, depth - 1), rng.randint(0, 3))
    return Scale(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                 random_expr(rng, depth - 1))


def tame_random_expr(rng: random.Random, points, depth: int = 3, cap: float = 1e4):
    """Random expression whose values stay below cap at the given points."""
    while True:
        expr = random_expr(rng, depth)
        try:
            fn = compile_fn(expr)
            if all(abs(fn(z)) < cap for z in points):
                return expr
        except Exception:
            continue


def rubel_start(rng: random.Random, scale: float = 1.0):
    """(D, seed) on the path exp(scale*z) = t + iD, t in [2, 20], D in [0, 5]."""
    d_shift = rng.uniform(0.0, 5.0)
    return d_shift, cmath.log(complex(rng.uniform(2.0, 20.0), d_shift)) / scale


def level_start(rng: random.Random, k: int) -> complex:
    """Start point for G = z^k/k with Re G > 0 and Im G > 0."""
    return cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.2) / k)


# The level-curve corrector as it was before it was generated per G: two
# compiled functions, G and g = G', called once per Newton iteration and g
# once more at the accepted point.  Kept as the reference the generated
# corrector must match bit for bit.

def reference_corrector(big_ge, ge, target, z_guess, tol, max_iter=8):
    """Newton solve G(z) = target from z_guess, at least one step; returns
    (z, iterations, g(z)) or None."""
    z = z_guess
    for it in range(max_iter + 1):
        try:
            v = big_ge(z)
        except EvaluationOverflow:
            return None
        if it and abs(v - target) <= tol:
            return z, it, ge(z)
        if it == max_iter:
            return None
        g = ge(z)
        if abs(g) < _G_MIN:
            return None
        z = z - (v - target) / g


def reference_point_on_level(big_ge, ge, x, beta, z_guess):
    """Corrector-refined curve point at Re G = x (shared by the quadratures)."""
    target = complex(x, beta)
    tol = _POINT_TOL * (1.0 + abs(target))
    got = reference_corrector(big_ge, ge, target, z_guess, tol, max_iter=12)
    if got is None:
        raise CorrectorDivergence("level-curve corrector diverged", z_guess)
    return got[0]
