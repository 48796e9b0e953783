"""A high-precision reference for ``cohomology.transport``: the same legs, the same recurrence.

The path is cut into legs by ``cohomology._legs``, so both sides sum the same
Taylor series.  On each leg, with ``t = t0 + h s``, the exact integer
coefficients of ``D(t) Y' = B(t) Y`` (from ``clear_denominators``, before any
rounding to floats) are shifted to ``d_k = D_k(t0) h^k`` and
``b_k = B_k(t0) h^(k+1)``, and the terms follow from

    d_0 (n+1) Y_{n+1} = sum_j b_j Y_{n-j} - sum_{j>=1} d_j (n-j+1) Y_{n-j+1},

one term at a time, at ``dps`` decimal digits.  A leg stops once
``max(3, m)`` consecutive terms are at most ``10^(5-dps)`` times its partial
sum in the largest entry, and the leg matrices are multiplied in path order.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp

from expperiods.cohomology import _legs
from expperiods.symbolic import clear_denominators
from expperiods.verify import _LOOP_SEGMENTS

MAX_ORDER = 4000


def _matmul(X, Y):
    return [[mp.fsum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0]))] for i in range(len(X))]


def transport(A, path, balls=(), dps=30) -> list:
    """Transition matrix of ``A`` along ``path`` at ``dps`` digits, as rows of ``mp.mpc``."""
    r = A.rank
    nums, den = clear_denominators([x for row in A.entries for x in row])
    m = max(len(p) for p in [den] + nums)
    D = list(den) + [0] * (m - len(den))
    B = [[[(nums[i * r + j] + [0] * m)[k] for j in range(r)] for i in range(r)] for k in range(m)]
    need = max(3, m)
    with mp.workdps(dps):
        eye = [[mp.mpc(i == j) for j in range(r)] for i in range(r)]
        phi = eye
        stop = mp.mpf(10) ** (5 - dps)
        for t0, h in _legs([complex(p) for p in path], tuple(balls)):
            t0, h = mp.mpc(t0), mp.mpc(h)
            # (t0 + h s)^j = sum_i C(j, i) t0^(j-i) h^i s^i
            shift = [[math.comb(j, i) * t0 ** max(j - i, 0) * h**i for i in range(m)] for j in range(m)]
            d = [mp.fsum(shift[j][i] * D[j] for j in range(m)) for i in range(m)]
            b = [
                [[mp.fsum(shift[j][i] * B[j][a][c] for j in range(m)) * h for c in range(r)] for a in range(r)]
                for i in range(m)
            ]
            terms, total, run = [eye], [row[:] for row in eye], 0
            for n in range(MAX_ORDER):
                acc = [[mp.mpc(0)] * r for _ in range(r)]
                for j in range(min(m, n + 1)):
                    Yj = terms[n - j]
                    for a in range(r):
                        for c in range(r):
                            acc[a][c] += mp.fsum(b[j][a][e] * Yj[e][c] for e in range(r))
                for j in range(1, min(m, n + 2)):
                    Yj, w = terms[n - j + 1], d[j] * (n - j + 1)
                    for a in range(r):
                        for c in range(r):
                            acc[a][c] -= w * Yj[a][c]
                q = 1 / ((n + 1) * d[0])
                term = [[x * q for x in row] for row in acc]
                terms.append(term)
                total = [[x + y for x, y in zip(u, v)] for u, v in zip(total, term)]
                big = max(abs(x) for row in total for x in row)
                run = run + 1 if max(abs(x) for row in term for x in row) <= stop * big else 0
                if run >= need:
                    break
            else:
                raise ArithmeticError(f"reference series did not converge by order {MAX_ORDER}")
            phi = _matmul(total, phi)
        return [[+x for x in row] for row in phi]


def deviation(phi, ref) -> float:
    """``|phi - ref|_F / |ref|_F``, taken in the reference's precision."""
    with mp.workdps(30):
        num = mp.sqrt(mp.fsum(abs(mp.mpc(p) - x) ** 2 for prow, row in zip(phi, ref) for p, x in zip(prow, row)))
        return float(num / mp.sqrt(mp.fsum(abs(x) ** 2 for row in ref for x in row)))


def monodromy_loop(singular, center) -> list:
    """The polygon that ``verify.monodromy`` walks about ``center`` from its default basepoint."""
    gaps = [
        abs(b.center - center) - b.radius
        for b in singular.balls
        if abs(b.center - center) > 1e-9 * (1.0 + abs(center))
    ]
    rho = min(gaps, default=2.0) / 2.0
    return [center + rho * cmath.exp(2j * math.pi * k / _LOOP_SEGMENTS) for k in range(_LOOP_SEGMENTS)] + [
        center + rho
    ]
