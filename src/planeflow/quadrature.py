"""Small adaptive quadrature kernels used across the package.

Two flavors: Gauss-Legendre panels for complex-valued integrands over a
real parameter (line integrals are parametrized before calling in), and
classic adaptive Simpson for real positive integrands where divergence
must be detected rather than refined forever.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["adaptive_gauss", "adaptive_simpson", "gauss8", "QuadratureDiverged"]

# 8-point Gauss-Legendre nodes/weights on [-1, 1]
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


# Integrand evaluations one adaptive_gauss call may make; far above what
# the package's callers need (24 in every call of the tests and the demo)
_GAUSS_MAX_EVALS = 20_000
_GAUSS_MAX_DEPTH = 44  # bisections past which a Gauss panel is accepted as is
_SIMPSON_MAX_DEPTH = 48  # bisections past which adaptive_simpson gives up


class QuadratureDiverged(Exception):
    """Adaptive refinement exhausted its depth or its evaluation budget;
    carries a witness abscissa."""

    def __init__(self, witness: float):
        super().__init__(f"integrand appears divergent near {witness!r}")
        self.witness = witness


def gauss8(fn: Callable[[float], complex], a: float, b: float) -> complex:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = 0j
    for x, w in zip(_GL8_X, _GL8_W):
        acc += w * fn(mid + half * x)
    return acc * half


def adaptive_gauss(
    fn: Callable[[float], complex],
    a: float,
    b: float,
    tol: float,
) -> complex:
    """Adaptive 8-point Gauss on [a, b] to absolute tolerance tol.

    Raises QuadratureDiverged, witnessed by the midpoint of the panel it
    would refine next, rather than exceed ``_GAUSS_MAX_EVALS`` evaluations.
    """
    whole = gauss8(fn, a, b)
    # gauss8 calls left; each refinement makes two
    budget = [_GAUSS_MAX_EVALS // len(_GL8_X) - 1]
    return _ag(fn, a, b, tol, whole, _GAUSS_MAX_DEPTH, budget)


def _ag(fn, a, b, tol, whole, depth, budget):
    mid = 0.5 * (a + b)
    budget[0] -= 2
    if budget[0] < 0:
        raise QuadratureDiverged(mid)
    left = gauss8(fn, a, mid)
    right = gauss8(fn, mid, b)
    if abs(left + right - whole) <= tol or depth <= 0:
        return left + right
    return _ag(fn, a, mid, 0.5 * tol, left, depth - 1, budget) + _ag(
        fn, mid, b, 0.5 * tol, right, depth - 1, budget
    )


def adaptive_simpson(
    fn: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
) -> float:
    """Adaptive Simpson for a real integrand; raises QuadratureDiverged
    when refinement keeps failing at ``_SIMPSON_MAX_DEPTH`` bisections."""
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _as(fn, a, b, fa, fm, fb, whole, tol, _SIMPSON_MAX_DEPTH)


def _as(fn, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = fn(0.5 * (a + m))
    rm = fn(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * lm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * rm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureDiverged(m)
    return _as(fn, a, m, fa, lm, fm, left, 0.5 * tol, depth - 1) + _as(
        fn, m, b, fm, rm, fb, right, 0.5 * tol, depth - 1
    )
