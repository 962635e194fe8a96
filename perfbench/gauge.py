"""Host speed gauge: a fixed reference kernel timed between solves.

On a shared host the same code runs at two or more speeds that switch every
few seconds to minutes.  On the 2-vCPU Xeon the benchmark was tuned on, a
fixed loop of ``Sphere(100)`` solves ran about 1.5x slower in its slow
phases, and a 25 s run could not average them out: raw timings of the same
code spread between runs by more than any useful regression bound.

The gauge times a fixed kernel that does not use riemqn every ``INTERVAL``
seconds between solves, and before and after every set-up.  Each workload
names a ``Kernel`` that mixes what its solves spend their time on.  A kernel
has two parts: small matrix-vector products, norms and frozen-dataclass
construction, like the solver hot path, and products with a 1000 x 1000
matrix, like the cost and gradient on ``Sphere(1000)``.  The slow phases
slow the two parts by different amounts (up to about 1.8x and 1.2x on that
host), so the two Rayleigh workloads use one part each: ``rayleigh-large``
the products with the large matrix, ``rayleigh-grid`` and
``offdiag-transports`` the small operations.  No kernel tracks every slow
phase exactly: on ten runs of each workload the scaling cut the spread of
``iter_us`` by half or more.

A time measured over ``[t0, t1]`` is scaled by the kernel's
``reference_s`` over the median of the gauge samples taken in that span and
the ``NEAREST`` on either side of it.  The scaled time is what the same work
takes while the kernel takes ``reference_s``.  Because the kernel does not
depend on riemqn, a change to the program moves the scaled times as it
moves the raw ones.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

INTERVAL = 0.2  # seconds between samples during a pass
NEAREST = 2  # samples taken on either side of a span
SMALL_N = 100
LARGE_N = 1000  # an 8 MB matrix


@dataclass(frozen=True)
class Kernel:
    small_steps: int  # Rayleigh steps on the unit sphere in R^SMALL_N
    matvecs: int  # products with a LARGE_N x LARGE_N matrix
    reference_s: float  # the kernel's time at the reference speed


SMALL_OPS = Kernel(small_steps=200, matvecs=0, reference_s=0.003)
MATVECS = Kernel(small_steps=0, matvecs=8, reference_s=0.0035)


@dataclass(frozen=True)
class _Unit:
    """A unit vector, validated like a riemqn ``Point``."""

    arr: np.ndarray

    def __post_init__(self):
        if abs(float(np.linalg.norm(self.arr)) - 1.0) > 1e-8:
            raise ValueError("gauge iterate left the sphere")


class Gauge:
    def __init__(self, kernel: Kernel, clock=time.perf_counter):
        self.kernel = kernel
        self._clock = clock
        rng = np.random.default_rng(20250)
        b = rng.standard_normal((SMALL_N, SMALL_N))
        self._a = (b + b.T) / 2.0
        x = rng.standard_normal(SMALL_N)
        self._x0 = x / np.linalg.norm(x)
        self._big = rng.standard_normal((LARGE_N, LARGE_N)) if kernel.matvecs else None
        self._v = rng.standard_normal(LARGE_N)
        self.at: list[float] = []  # sample midpoints, increasing
        self.seconds: list[float] = []
        self._last = -math.inf
        for _ in range(3):  # warm-up samples, discarded
            self._kernel()

    def _kernel(self) -> float:
        x = _Unit(self._x0)
        f = 0.0
        for _ in range(self.kernel.small_steps):
            a = x.arr
            y = self._a @ a
            f = float(np.dot(a, y))
            g = y - f * a
            gnorm = float(np.linalg.norm(g))
            z = a - (0.01 / (1.0 + gnorm)) * g
            x = _Unit(z / np.linalg.norm(z))
        for _ in range(self.kernel.matvecs):
            f += float((self._big @ self._v)[0])
        return f

    def sample(self) -> None:
        t0 = self._clock()
        self._kernel()
        t1 = self._clock()
        self.at.append(0.5 * (t0 + t1))
        self.seconds.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        """Take a sample if ``INTERVAL`` has passed since the last one."""
        if self._clock() - self._last >= INTERVAL:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """``reference_s`` over the median sample around ``[t0, t1]``."""
        lo = max(0, bisect.bisect_left(self.at, t0) - NEAREST)
        hi = bisect.bisect_right(self.at, t1) + NEAREST
        return self.kernel.reference_s / statistics.median(self.seconds[lo:hi])
