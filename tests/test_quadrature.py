import cmath
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

    def total():
        return complex(math.fsum(v.real for *_, v in heap), math.fsum(v.imag for *_, v in heap))

    while math.fsum(-e for e, *_ in heap) > rel * abs(total()):
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        heapq.heappush(heap, quadrature._g7k15(fn, lo, mid))
        heapq.heappush(heap, quadrature._g7k15(fn, mid, hi))
    return total()


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
        [
            (math.sqrt, 1e-10),
            (lambda x: x**-0.5, 1e-8),
            (lambda x: math.log(x) ** 2, 1e-12),
            (math.cos, 1e-7),
            (lambda x: cmath.exp(30j * x), 1e-10),
        ],
        ids=["sqrt", "inverse_sqrt", "log_squared", "cos", "cis"],
    )
    def test_running_sums_stop_where_exact_sums_do(self, fn, rel, monkeypatch):
        want = _exact_sums_kronrod(fn, 0.0, 1.0, rel)
        fsums = []
        fsum = math.fsum
        monkeypatch.setattr(quadrature.math, "fsum", lambda xs: fsums.append(1) or fsum(xs))
        got = gauss_kronrod(fn, 0.0, 1.0, rel)
        # the same halvings and value, with one set of fsums (the errors, the
        # real and the imaginary parts) where the reference makes one per halving
        assert got == want
        assert len(fsums) == 3

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

    def test_nodes_never_reach_the_ends(self):
        xs = []

        def inv(x):
            xs.append(x)
            return 1.0 / (1.0 - x)

        # the panel at 1 is halved until its outermost node rounds onto 1.0,
        # where the integrand would divide by zero
        with pytest.raises(QuadratureDiverged) as info:
            gauss_kronrod(inv, 0.0, 1.0, 1e-7)
        assert max(xs) < 1.0 and len(xs) <= 2000
        assert 1.0 - 1e-12 < info.value.witness < 1.0


class TestComplexIntegrands:
    def _near_pole(self, calls):
        def near_pole(s):
            calls.append(s)
            return 1.0 / (s - 0.5 + 1e-9j)

        return near_pole

    def test_near_pole_to_the_relative_tolerance(self):
        calls = []
        got = gauss_kronrod(self._near_pole(calls), 0.0, 1.0, 1e-6)
        # log(s - 0.5 + 1e-9i) from s = 0 to 1, in the upper half plane throughout
        want = cmath.log(0.5 + 1e-9j) - cmath.log(-0.5 + 1e-9j)
        assert abs(got - want) <= 1e-6 * abs(want)
        assert abs(got + math.pi * 1j) <= 1e-6
        assert len(calls) <= quadrature._GAUSS_MAX_EVALS

    def test_near_pole_past_the_budget_raises(self):
        calls = []
        with pytest.raises(QuadratureDiverged) as info:
            gauss_kronrod(self._near_pole(calls), 0.0, 1.0, 1e-12)
        assert len(calls) <= quadrature._GAUSS_MAX_EVALS
        assert abs(info.value.witness - 0.5) <= 1e-8
