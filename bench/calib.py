"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on change speed by up to a factor of two for
tens of seconds at a time (both wall time and CPU time of the same work
change; it is not time stolen from the process).  Work of the same kind slows
down together, so a short fixed suite of kernels that does the kind of work
the ops do, run between the ops, tracks the speed: each op's wall time is
divided by the suite's time around it and multiplied by the suite's
reference time.  Timings so scaled read as milliseconds on a machine whose
suite takes that reference time.  On a 2-vCPU cloud VM this took the
quartile spread of ten runs from 0.1-0.5 of the median (plain wall time) to
0.01-0.1.

The kernels use nothing of the package under test, so a change to the
package moves the scaled timings exactly as it moves the wall times.  They
mimic what the package does: greedy adaptive quadrature on small numpy
arrays and products of polynomials with Fraction coefficients; big-integer
arithmetic, which slows down less than the rest, for the exact workload;
and a fresh interpreter loading modules for work that starts processes.
"""

from __future__ import annotations

import heapq
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# Suite time (geometric mean of the kernel times) that scaled timings refer to.
REF_S = 2.0e-3
# Calibrate again once this much wall time has passed since the last time.
EVERY_S = 0.25

# Work done in a fresh interpreter (the CLI's ops, set-up) is scaled by the
# time of a fresh interpreter that imports numpy and some of the standard
# library: starting processes and loading modules respond to the machine's
# speed differently from work inside one process.
PROCESS_KERNEL = "import numpy, fractions, json, heapq, email.parser, decimal"
REF_PROCESS_S = 0.2
PROCESS_EVERY_S = 1.0

# Kronrod abscissae with equal weights: the kernel times work, not accuracy.
_NODES = np.array(
    [
        0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
        0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
        0.207784955007898468, 0.0,
    ]
)
_NODES = np.concatenate([-_NODES[:-1], _NODES[::-1]])
_WEIGHTS = np.full(15, 2.0 / 15.0)


def _quadrature():
    """Greedy adaptive bisection of 15-point panels on a decaying integrand."""
    def panel(a, b):
        half = (b - a) / 2
        vals = np.exp(-((a + half * (_NODES + 1)) ** 4) / 4 + 0.7j * (a + half * (_NODES + 1)))
        coarse = half * np.sum(_WEIGHTS[::2] * vals[::2]) * 15.0 / 8.0
        fine = half * np.sum(_WEIGHTS * vals)
        return fine, abs(fine - coarse)

    heap = []
    for k in range(4):
        a, b = complex(-3 + 1.5 * k, 0.2), complex(-1.5 + 1.5 * k, 0.2)
        v, e = panel(a, b)
        heapq.heappush(heap, (-e, k, a, b, v))
    n = 4
    while n < 120:
        _, _, a, b, _ = heapq.heappop(heap)
        m = (a + b) / 2
        for lo, hi in ((a, m), (m, b)):
            v, e = panel(lo, hi)
            n += 1
            heapq.heappush(heap, (-e, n, lo, hi, v))
    return sum(item[4] for item in heap)


def _polynomials():
    """Dense products of polynomials with Fraction coefficients."""
    p = [Fraction(k + 1, k + 2) for k in range(12)]
    q = [Fraction(1)]
    for _ in range(3):
        q = [
            sum((p[i] * q[j - i] for i in range(max(0, j - len(q) + 1), min(j, len(p) - 1) + 1)), Fraction(0))
            for j in range(len(p) + len(q) - 1)
        ]
    return q[-1]


def _big_integers():
    """Products and quotients of integers of thousands of bits."""
    a, b, s = 3**3000, 7**2500, 0
    for i in range(20):
        s += (a * b + i) // (b + i)
    return s


KERNELS = (_quadrature, _polynomials)
# Exact arithmetic on large rational coefficients runs at a speed of its own.
EXACT_KERNELS = KERNELS + (_big_integers,)


def suite_s(kernels=KERNELS) -> float:
    """Geometric mean of the wall times of the kernels, in seconds."""
    logs = 0.0
    for kernel in kernels:
        t0 = time.perf_counter()
        kernel()
        logs += math.log(time.perf_counter() - t0)
    return math.exp(logs / len(kernels))


def process_s(env) -> float:
    """Wall time of a fresh interpreter running ``PROCESS_KERNEL``, in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROCESS_KERNEL], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


class Clock:
    """Scaled op timings: ``tick()`` between ops, ``factors()`` afterwards.

    ``tick()`` runs the suite when ``every`` seconds have passed since the
    last run (or always, with ``force``); ``mark()`` records that an op is
    about to start.  One suite time is noisy, so an op is scaled by
    ``ref`` over the median of the ``2 * SPAN`` suite times nearest to it,
    half before and half after.  The default suite is ``suite_s``; ops that
    run in fresh interpreters use ``process_s``.
    """

    SPAN = 3

    def __init__(self, suite=suite_s, ref=REF_S, every=EVERY_S):
        self.suite, self.ref, self.every = suite, ref, every
        self.samples = []  # (index of the next op, suite seconds)
        self.n_ops = 0
        self.last = -math.inf

    def tick(self, force=False):
        if force or time.perf_counter() - self.last >= self.every:
            self.samples.append((self.n_ops, self.suite()))
            self.last = time.perf_counter()

    def mark(self):
        self.n_ops += 1

    def factors(self) -> list:
        """ref / suite time around each op, for ops 0 .. n_ops-1."""
        out = []
        k = 0
        for i in range(self.n_ops):
            while k + 1 < len(self.samples) and self.samples[k + 1][0] <= i:
                k += 1
            near = self.samples[max(0, k + 1 - self.SPAN) : k + 1 + self.SPAN]
            out.append(self.ref / statistics.median(s for _, s in near))
        return out


def exact_suite_s() -> float:
    """``suite_s`` over ``EXACT_KERNELS``."""
    return suite_s(EXACT_KERNELS)


def warm():
    """Run the kernels a few times so that their first timed run is not a cold one."""
    for _ in range(3):
        suite_s(EXACT_KERNELS)
