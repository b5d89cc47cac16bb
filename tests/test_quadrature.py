import heapq
import math

import pytest

from planeflow import quadrature
from planeflow.quadrature import _G7_W, _K15_W, _K15_X, QuadratureDiverged, gauss_kronrod


def _rules(deg):
    """(K15, G7) of x^deg on [-1, 1], straight from the tables."""
    kron = _K15_W[7] * 0.0**deg
    gauss = _G7_W[3] * 0.0**deg
    for j, x in enumerate(_K15_X):
        pair = x**deg + (-x) ** deg
        kron += _K15_W[j] * pair
        if j % 2:
            gauss += _G7_W[j // 2] * pair
    return kron, gauss


def _exact_sums_kronrod(fn, a, b, rel):
    """gauss_kronrod with the stopping test on fresh fsums at every halving."""
    heap = [quadrature._g7k15(fn, a, b)]
    while math.fsum(-e for e, *_ in heap) > rel * abs(math.fsum(v for *_, v in heap)):
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        heapq.heappush(heap, quadrature._g7k15(fn, lo, mid))
        heapq.heappush(heap, quadrature._g7k15(fn, mid, hi))
    return math.fsum(v for *_, v in heap)


class TestGaussKronrod:
    @pytest.mark.parametrize("deg", range(25))
    def test_tables_exact_to_their_degrees(self, deg):
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        kron, gauss = _rules(deg)
        # G7 is exact to degree 13 and K15 to degree 22, and no further
        assert (abs(gauss - exact) <= 1e-15) == (deg <= 13 or deg % 2 == 1)
        assert (abs(kron - exact) <= 1e-15) == (deg <= 22 or deg % 2 == 1)

    def test_smooth_integral_to_the_relative_tolerance(self):
        got = gauss_kronrod(math.sqrt, 0.0, 1.0, 1e-10)
        assert abs(got - 2.0 / 3.0) <= 1e-10 * 2.0 / 3.0

    @pytest.mark.parametrize(
        "fn, rel",
        [(math.sqrt, 1e-10), (lambda x: x**-0.5, 1e-8), (lambda x: math.log(x) ** 2, 1e-12), (math.cos, 1e-7)],
        ids=["sqrt", "inverse_sqrt", "log_squared", "cos"],
    )
    def test_running_sums_stop_where_exact_sums_do(self, fn, rel, monkeypatch):
        want = _exact_sums_kronrod(fn, 0.0, 1.0, rel)
        fsums = []
        fsum = math.fsum
        monkeypatch.setattr(quadrature.math, "fsum", lambda xs: fsums.append(1) or fsum(xs))
        got = gauss_kronrod(fn, 0.0, 1.0, rel)
        # the same halvings and value, with one pair of fsums where the reference makes one per halving
        assert got == want
        assert len(fsums) == 2

    def test_pole_raises_within_2000_evaluations(self):
        xs = []

        def inv(x):
            xs.append(x)
            return 1.0 / x

        with pytest.raises(QuadratureDiverged) as info:
            gauss_kronrod(inv, 0.0, 1.0, 1e-7)
        # the panel at 0 is halved until it is narrower than 2^-52 of [0, 1]
        assert len(xs) <= 2000
        assert 0.0 < info.value.witness < 1e-12

    def test_budget_stops_an_oscillating_integrand(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_GAUSS_MAX_EVALS", 300)
        xs = []

        def wild(x):
            xs.append(x)
            return math.sin(1e6 * x)

        with pytest.raises(QuadratureDiverged) as info:
            gauss_kronrod(wild, 0.0, 1.0, 1e-12)
        assert len(xs) <= 300 and 0.0 < info.value.witness < 1.0
