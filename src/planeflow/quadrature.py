"""Globally adaptive Gauss-Kronrod (G7K15) quadrature, the package's one
rule: for real or complex integrands over a real parameter (line integrals
are parametrized before calling in), where divergence must be detected
rather than refined forever.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

__all__ = ["gauss_kronrod", "QuadratureDiverged"]

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


# Integrand evaluations one gauss_kronrod call may make; far above what the
# package's callers need (15 to 165 in a ray or level-chart transit of the
# tests and the demo, about 15 to 255 in a level transit of z^k/k)
_GAUSS_MAX_EVALS = 20_000


class QuadratureDiverged(Exception):
    """Adaptive refinement exhausted its evaluation budget or the resolution
    of the abscissae; carries a witness abscissa."""

    def __init__(self, witness: float):
        super().__init__(f"integrand appears divergent near {witness!r}")
        self.witness = witness


def _g7k15(fn, a, b):
    """The heap entry (-|K15 - G7|, a, b, K15) of fn on [a, b].  Raises
    QuadratureDiverged at the middle, evaluating nothing, when the outermost
    nodes round onto an end of the panel: too narrow to resolve there."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    if not (a < mid - half * _K15_X[0] and mid + half * _K15_X[0] < b):
        raise QuadratureDiverged(mid)
    fc = fn(mid)
    kron, gauss = _K15_W[7] * fc, _G7_W[3] * fc
    for j, x in enumerate(_K15_X):
        pair = fn(mid - half * x) + fn(mid + half * x)
        kron += _K15_W[j] * pair
        if j % 2:
            gauss += _G7_W[j // 2] * pair
    return -abs(kron - gauss) * half, a, b, kron * half


def gauss_kronrod(fn: Callable[[float], complex], a: float, b: float, rel: float) -> complex:
    """Globally adaptive G7K15 on [a, b], a < b, to error rel * |integral|.

    The panel of largest error |K15 - G7| is halved until the running sum of
    errors is at most rel times the running |total|, and fsum confirms it;
    the fsum of the panel values, real and imaginary parts apart, is
    returned as a complex.  Raises QuadratureDiverged at the middle of the
    panel it would halve next rather than exceed ``_GAUSS_MAX_EVALS``
    evaluations or halve a panel under 2^-52 of [a, b], and at the middle of
    a panel whose outermost nodes round onto its ends.
    """
    heap = [_g7k15(fn, a, b)]
    err, total, evals = -heap[0][0], heap[0][3], 15
    while True:
        if err <= rel * abs(total):
            # the running sums carry rounding: the exact ones decide
            err = math.fsum(-e for e, *_ in heap)
            total = complex(math.fsum(v.real for *_, v in heap), math.fsum(v.imag for *_, v in heap))
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
