"""A contour-free oracle for periods on the affine line: one Γ-series per valley ray.

Write ``g = c(t) u^d + h(u, t)`` with ``deg_u h < d`` and expand
``e^h = sum_m b_m u^m``, where ``b_0 = e^{h_0}`` and
``m b_m = sum_k k h_k b_{m-k}``.  On the centre ray of a valley at infinity,
``u = r w`` with ``c w^d = -|c|``, so termwise

    R_a(w) = int_0^{inf w} u^a e^g du = sum_m b_m w^n Gamma(n/d) / (d |c|^(n/d)),  n = a+m+1.

A cycle from valley i to valley j has the period ``R_a(w_j) - R_a(w_i)``: on
the affine line a rapid-decay class is fixed by its two valleys, so the oracle
reads a cycle's ``start``/``end`` labels and never its polyline.

**Stop rule.**  ``|b_m| <= B_m``, the coefficients of the majorant
``|e^{h_0}| exp(sum_{k>=1} |h_k| u^k)``.  With ``a*`` the largest exponent
asked for, every term of ``R_a`` for ``0 <= a <= a*`` is then at most the
nonnegative ``T_m = B_m (G_{m+1} + G_{a*+m+1})``, ``G_n = Gamma(n/d) / (d |c|^(n/d))``,
and the ``T_m`` sum to the real integral

    J = int_0^inf (1 + r^a*) |e^{h_0}| exp(sum_{k>=1} |h_k| r^k - |c| r^d) dr.

The series stop together once ``J`` (plus its quadrature error) less the
partial sum of the ``T_m`` is at most ``10^-digits``: that bounds the tail
of every ray integral of the call.
"""

from __future__ import annotations

import mpmath as mp

GUARD_DIGITS = 10


def valley_directions(spec, t) -> list:
    """The unit vectors ``w_j`` of the valley centres at infinity, in ``valley_config``'s order.

    Computed at the working precision from ``c(t)``: the centres
    ``(pi - arg c)/d + 2 pi j/d`` taken mod ``2 pi`` and sorted.
    """
    d = spec.top_degree
    c = spec.g.coeff(d).eval(mp.mpc(t))
    base = (mp.pi - mp.arg(c)) / d
    angles = sorted((base + 2 * mp.pi * j / d) % (2 * mp.pi) for j in range(d))
    return [mp.expj(a) for a in angles]


def _coefficients(spec, t):
    """``(c, h)``: g's top coefficient at t and the map ``{k: h_k}`` of the rest."""
    h = {k: c.eval(mp.mpc(t)) for k, c in spec.g.terms.items()}
    return h.pop(spec.top_degree), h


def _majorant_integral(spec, t, top: int, maxdegree=None):
    """``J`` of the module docstring, for ``a* = top``, and its quadrature error;
    ``maxdegree`` caps ``mp.quad``'s refinement (a sizing pass only)."""
    d = spec.top_degree
    c, h = _coefficients(spec, t)
    c, h0 = abs(c), mp.re(h.pop(0, 0))
    absh = {k: abs(v) for k, v in h.items()}

    def f(r):
        return (1 + r ** top) * mp.exp(h0 + sum(v * r ** k for k, v in absh.items()) - c * r ** d)

    # breakpoints about where |c| r^d overtakes the majorant's other terms
    scale = (1 + max(absh.values(), default=0) / c) ** (1.0 / (d - max(absh, default=0)))
    return mp.quad(f, [0, scale, 4 * scale, mp.inf], error=True, maxdegree=maxdegree)


def ray_integrals(spec, t, exponents, digits: int = 30) -> dict:
    """``{a: [R_a(w_j) for every valley j at infinity]}``, each within ``10^-digits``.

    ``spec`` is an affine-line ``ProblemSpec``, ``t`` a parameter value with
    ``c(t) != 0`` and ``exponents`` nonnegative.  The values are mpmath
    numbers.  Every term is at most ``J``, so the working precision carries
    ``GUARD_DIGITS`` digits past ``10^-digits`` relative to ``max(1, J)``.
    """
    # J's size sets the precision, and a cheap 15-digit pass (maxdegree 3) finds it; the
    # J that bounds the series is always taken by the full rule at the working precision
    dps, sizing = 15, 3
    while True:
        with mp.workdps(dps):
            J, J_err = _majorant_integral(spec, t, max(exponents), sizing)
            need = digits + GUARD_DIGITS + max(0, int(mp.log10(J)))
            if dps >= need and sizing is None:
                return _sum_series(spec, t, exponents, J + J_err, mp.mpf(10) ** -digits)
        dps, sizing = max(dps, need), None


def _sum_series(spec, t, exponents, J, tol) -> dict:
    """The Γ-series of every ray integral, summed until ``J`` less the partial majorant is <= tol."""
    d = spec.top_degree
    c, h = _coefficients(spec, t)
    low = [(k, v, abs(v)) for k, v in h.items() if k > 0]
    top = max(exponents)
    powers = [[mp.mpc(1)] * d]  # powers[n][j] = w_j^n
    G = [None]  # G[n] = Gamma(n/d) / (d |c|^(n/d))
    b = [mp.exp(h.get(0, 0))]  # e^h = sum b_m u^m
    B = [abs(b[0])]  # the majorant's coefficients, B_m >= |b_m|
    sums = {a: [mp.mpc(0)] * d for a in exponents}
    partial, m = mp.mpf(0), 0
    omegas = valley_directions(spec, t)
    while True:
        while len(G) <= top + m + 1:
            n = len(G)
            G.append(mp.gamma(mp.mpf(n) / d) / (d * abs(c) ** (mp.mpf(n) / d)))
            powers.append([p * w for p, w in zip(powers[-1], omegas)])
        for a in exponents:
            n = a + m + 1
            bg = b[m] * G[n]
            sums[a] = [s + bg * p for s, p in zip(sums[a], powers[n])]
        partial += B[m] * (G[m + 1] + G[top + m + 1])
        if J - partial <= tol:
            return sums
        m += 1
        b.append(sum(k * v * b[m - k] for k, v, _ in low if k <= m) / m)
        B.append(sum(k * av * B[m - k] for k, _, av in low if k <= m) / m)


def period_matrix(spec, t, cycles, exponents, digits: int = 30) -> list:
    """``O[i][j] = R_{e_j}(w_end) - R_{e_j}(w_start)`` for cycle i, as complex numbers.

    ``cycles`` are the program's cycles at ``t`` (only their valley labels are
    read), ``exponents`` the basis exponents ``e_j``.
    """
    rays = ray_integrals(spec, t, exponents, digits)
    return [
        [complex(rays[a][cyc.end.index] - rays[a][cyc.start.index]) for a in exponents]
        for cyc in cycles
    ]
