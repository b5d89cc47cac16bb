"""Fixed pure-Python reference kernel that turns wall time into reference time.

The kernel does the kind of work planeflow's hot paths do (a fixed-step
Runge-Kutta loop: complex multiply-adds, ``abs``, ``cmath.exp``, small
function calls and a growing list of samples) and nothing else, so a slow
or contended interpreter slows it by about as much as it slows the ops
timed next to it.  It imports nothing from planeflow: a change to the
program cannot move it.

A wall time ``w`` measured while one kernel call takes ``y`` seconds is
reported as ``w * Y_REF / y`` reference seconds.
"""

from __future__ import annotations

import cmath
import time

# Median seconds per kernel() call on the reference box (see README.md).
Y_REF = 1.3e-3

_STEPS = 600
_H = 0.001


def _field(z):
    return -cmath.exp(-z)


def _rk4(f, z, h):
    k1 = f(z)
    k2 = f(z + 0.5 * h * k1)
    k3 = f(z + 0.5 * h * k2)
    k4 = f(z + h * k3)
    return z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), abs(k4 - k1)


def kernel() -> float:
    """Fixed-step RK4 for dz/dt = -exp(-z) from 0.3+0.2i, keeping every sample."""
    z = complex(0.3, 0.2)
    samples = []
    spread = 0.0
    for k in range(_STEPS):
        z, d = _rk4(_field, z, _H)
        spread = max(spread, d)
        samples.append((k * _H, z))
    return abs(samples[-1][1]) + spread


class Yardstick:
    """Times kernel() calls and keeps every reading, in seconds."""

    def __init__(self):
        self.readings = []
        self.checksum = None

    def measure(self) -> float:
        t0 = time.perf_counter()
        value = kernel()
        y = time.perf_counter() - t0
        if self.checksum is None:
            self.checksum = value
        elif value != self.checksum:
            raise RuntimeError("yardstick kernel result changed between calls")
        self.readings.append(y)
        return y

    def factor(self, i: int) -> float:
        """Y_REF over the mean of reading i and the reading after it.

        Work timed between those two readings is scaled by this factor.
        """
        pair = self.readings[i:i + 2]
        return Y_REF * len(pair) / sum(pair)
