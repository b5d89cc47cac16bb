"""Small adaptive quadrature kernels used across the package.

Two flavors: Gauss-Legendre panels for complex-valued integrands over a
real parameter (line integrals are parametrized before calling in), and
globally adaptive Gauss-Kronrod (G7K15) for real integrands where
divergence must be detected rather than refined forever.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

__all__ = ["adaptive_gauss", "gauss8", "gauss_kronrod", "QuadratureDiverged"]

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

# 15-point Kronrod extension of 7-point Gauss on [-1, 1] (QUADPACK qk15): the
# positive abscissae, G7's at odd index; the last weight of each is the node 0's
_K15_X = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851, 0.864864423359769072789712788640926,
    0.741531185599394439863864773280788, 0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_K15_W = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204, 0.104790010322250183839876322541518,
    0.140653259715525918745189590510238, 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_G7_W = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)


# Integrand evaluations one adaptive_gauss or gauss_kronrod call may make;
# far above what the package's callers need (24 in every adaptive_gauss
# call of the tests and the demo, about 15 to 255 in a transit of z^k/k)
_GAUSS_MAX_EVALS = 20_000
_GAUSS_MAX_DEPTH = 44  # bisections past which a Gauss panel is accepted as is


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


def _g7k15(fn, a, b):
    """The heap entry (-|K15 - G7|, a, b, K15) of fn on [a, b]."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    fc = fn(mid)
    kron, gauss = _K15_W[7] * fc, _G7_W[3] * fc
    for j, x in enumerate(_K15_X):
        pair = fn(mid - half * x) + fn(mid + half * x)
        kron += _K15_W[j] * pair
        if j % 2:
            gauss += _G7_W[j // 2] * pair
    return -abs(kron - gauss) * half, a, b, kron * half


def gauss_kronrod(fn: Callable[[float], float], a: float, b: float, rel: float) -> float:
    """Globally adaptive G7K15 on [a, b] to error rel * |integral|.

    The panel of largest error |K15 - G7| is halved until the running sum of
    errors is at most rel times the running |total|, and fsum confirms it;
    the fsum of the panel values is returned.  Raises QuadratureDiverged at
    the middle of the panel it would halve next rather than exceed
    ``_GAUSS_MAX_EVALS`` evaluations or halve a panel under 2^-52 of [a, b].
    """
    heap = [_g7k15(fn, a, b)]
    err, total, evals = -heap[0][0], heap[0][3], 15
    while True:
        if err <= rel * abs(total):
            # the running sums carry rounding: the exact ones decide
            err, total = math.fsum(-e for e, *_ in heap), math.fsum(v for *_, v in heap)
            if err <= rel * abs(total):
                return total
        e, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        evals += 30
        if evals > _GAUSS_MAX_EVALS or hi - lo < 2.0**-52 * (b - a):
            raise QuadratureDiverged(mid)
        left, right = _g7k15(fn, lo, mid), _g7k15(fn, mid, hi)
        heapq.heappush(heap, left)
        heapq.heappush(heap, right)
        err += e - left[0] - right[0]
        total += left[3] + right[3] - v
