"""Certified over-approximation of the singular parameter set.

The parameter values where the family can degenerate are collected from
explicit defining polynomials in t:

* the top u-leading coefficient of g (valleys at infinity collapse),
* the bottom u-leading coefficient (punctured line; valleys at zero collapse),
* the u-resultant of dg/du and d^2g/du^2 (critical points collide or escape),
* every denominator of the connection matrix (poles of the system).

The set keeps that connection (``SingularSet.connection``): a check handed
the set reads A from it, and never derives A a second time.

Each defining polynomial is split into squarefree factors over Z[t] (Yun's
algorithm), and the roots of each factor are isolated into complex balls,
each certified to contain exactly one root.  Candidate centers come from a
ladder of finders: first ``np.roots`` refined by Newton steps in double
precision, and only if that fails, mpmath's Durand–Kerner iteration at
rising precision.  One certifier checks every candidate the same way: Smale's
alpha test on the exact Taylor coefficients at the binary fraction the center
already is gives existence inside each ball, and pairwise disjointness plus
degree counting gives uniqueness.  The alpha test compares base-2 logarithms, and
the integers only within a margin that bounds the logarithms' float error, so its
decision is exact.  The union is an over-approximation — membership never proves
an actual singularity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from .cohomology import ConnectionMatrix, FiberType, ProblemSpec, connection_matrix, fiber_basis
from .errors import DegenerateFamily, PrecisionExhausted
from .symbolic import (
    LaurentPoly,
    TPoly,
    bareiss,
    zpoly_add,
    zpoly_derivative,
    zpoly_exact_div,
    zpoly_gcd,
    zpoly_mul,
    zpoly_sub,
)

LEADING_COEFF_VANISHES = "LeadingCoeffVanishes"
CRITICAL_POINT_DEGENERATION = "CriticalPointDegeneration"
CONNECTION_POLE = "ConnectionPole"

# Newton contraction threshold: alpha < (13 - 3*sqrt(17))/4 ~ 0.15767 certifies
# convergence to a unique nearby root with |root - z0| <= 2*beta.  The exact
# test uses alpha < 0.15 = 3/20, on logarithms with this slack (2^7 times their
# float error; see _alpha_holds).  Newton steps that refine each double seed:
_LOG_SLACK = 2.0 ** -40
_NEWTON_STEPS = 4
# Digits of the first mpmath rung, and the most digits tried.
_DPS = 60
_MAX_DPS = 220


@dataclass(frozen=True)
class RootBall(object):
    """Closed disk |t - center| <= radius certified to contain exactly one root."""

    center: complex
    radius: float
    multiplicity: int
    provenance: tuple  # sorted tuple of provenance strings


@dataclass(frozen=True)
class SingularSet:
    """Certified root balls of all defining polynomials, clustered and sorted."""

    balls: tuple
    defining: tuple  # tuple of (TPoly, provenance string)
    connection: ConnectionMatrix = field(compare=False, repr=False)  # the A it was built from

    def hard_balls(self) -> tuple:
        """Balls where the system itself degenerates (poles, lost valleys).

        Balls carrying only ``CriticalPointDegeneration`` are excluded: there
        the connection stays regular and periods remain finite, so evaluation
        is still meaningful even though the interior geometry degenerates.
        """
        hard = (LEADING_COEFF_VANISHES, CONNECTION_POLE)
        return tuple(
            b for b in self.balls if any(p in hard for p in b.provenance)
        )


def segment_distances(path, points) -> np.ndarray:
    """Distances from each point to each leg of the polyline ``path``, shape
    (legs, points); a one-vertex path is one leg of zero length."""
    z = np.asarray(path, dtype=complex)
    a = z[:-1, None] if len(z) > 1 else z[:, None]
    ab = z[-len(a):, None] - a
    p = np.asarray(points, dtype=complex)[None, :]
    den = np.abs(ab) ** 2
    s = np.clip(((p - a) * ab.conj()).real / np.where(den > 0.0, den, 1.0), 0.0, 1.0)
    return np.abs(p - a - s * ab)


# ---------------------------------------------------------------------------
# Exact squarefree decomposition and resultants
# ---------------------------------------------------------------------------


def squarefree_decomposition(p: TPoly):
    """Return [(q_i, i)] with p ~ prod q_i^i, q_i monic, squarefree and coprime.

    Yun's algorithm over Z[t] on ``p.prim``: on primitive polynomials every gcd
    is primitive, so every quotient is exact in Z[t] (Gauss's lemma).
    """
    c = p.prim
    d = zpoly_derivative(c)
    b = zpoly_gcd(c, d) or [1]  # [] only for p = 0
    c, d = zpoly_exact_div(c, b), zpoly_exact_div(d, b)
    out = []  # out[i] is the product of the roots of multiplicity i + 1
    while len(c) > 1:
        d = zpoly_sub(d, zpoly_derivative(c))
        out.append(zpoly_gcd(c, d))
        c, d = zpoly_exact_div(c, out[-1]), zpoly_exact_div(d, out[-1])
    return [(TPoly(a).monic(), k) for k, a in enumerate(out, 1) if len(a) > 1]


def _laurent_to_ucoeffs(p: LaurentPoly):
    """Clear the pole at u=0 and return ascending TPoly u-coefficients."""
    if p.is_zero():
        return []
    lo = min(min(p.terms), 0)
    hi = max(p.terms)
    return [p.coeff(k) for k in range(lo, hi + 1)]


def resultant_u(p: LaurentPoly, q: LaurentPoly) -> TPoly:
    """Resultant in u of the pole-cleared numerators of two Laurent polynomials.

    Clearing multiplies by u-powers, which can only add roots already covered
    by the leading-coefficient criteria, so this is safe inside an
    over-approximation of the singular set.

    The numerators ``a`` and ``b``, of u-degrees ``m >= n``, are scaled onto
    Z[t] by the lcms ``La``, ``Lb`` of their content denominators, and the determinant
    is taken of Cayley's m x m Bezoutian, not of the (m+n) x (m+n) Sylvester
    matrix: ``det Bez(a, b) = (-1)^(m(m-1)/2) lc(a)^(m-n) Res(a, b)`` for
    ``n >= 1`` (Bini & Pan, *Polynomial and Matrix Computations*, 1994), and
    the division by ``lc(a)^(m-n)`` is exact in Z[t].  :func:`bareiss` takes
    that determinant on integers, every entry packed once at ``2^k`` with
    ``2^k`` over twice the product of the Bezoutian's column 1-norms, which
    bounds every coefficient of the determinant.  For ``n = 0`` the
    resultant is ``b_0^m``, and ``m < n`` swaps the pair with the sign
    ``(-1)^(mn)``.  The result is divided by ``La^n Lb^m`` at the end.
    """
    a = _laurent_to_ucoeffs(p)
    b = _laurent_to_ucoeffs(q)
    if not a or not b:
        return TPoly.zero()
    m, n = len(a) - 1, len(b) - 1
    La, Lb = (math.lcm(*(c.content.denominator for c in cs)) for cs in (a, b))
    a, b = ([[x * (c.content * L).numerator for x in c.prim] for c in cs]
            for cs, L in ((a, La), (b, Lb)))
    scale, sign = La ** n * Lb ** m, 1
    if m < n:
        a, b, m, n, sign = b, a, n, m, (-1) ** (m * n)
    if n == 0:
        res = reduce(zpoly_mul, [b[0]] * m, [1])
    else:
        det, _ = bareiss(_bezoutian(a, b))  # symmetric: its rows are its columns
        res = zpoly_exact_div(det, reduce(zpoly_mul, [a[-1]] * (m - n), [1]))
        sign *= (-1) ** (m * (m - 1) // 2)
    return TPoly(res) * Fraction(sign, scale)


def _bezoutian(a: list, b: list) -> list:
    """Cayley's Bezoutian of ``a`` (u-degree m) and ``b`` over Z[t]: the m x m matrix of
    ``(a(x) b(y) - a(y) b(x)) / (x - y) = sum B[i][j] x^i y^j``, by the recurrence
    ``B[i][j] = B[i-1][j+1] + a_(j+1) b_i - a_i b_(j+1)`` for ``i <= j``."""
    m = len(a) - 1
    B = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            x = zpoly_mul(a[j + 1], b[i]) if i < len(b) else []
            if j + 1 < len(b):
                x = zpoly_sub(x, zpoly_mul(a[i], b[j + 1]))
            if i and j + 1 < m:
                x = zpoly_add(x, B[i - 1][j + 1])
            B[i][j] = B[j][i] = x
    return B


# ---------------------------------------------------------------------------
# Certified root isolation
# ---------------------------------------------------------------------------


def _taylor_shift(zq: list, x, y, count: int):
    """The first ``count`` Taylor coefficients at ``a + bi`` of ``Q(s) = D^n zq(s / D)``,
    ``D = 2^e``, ``x + iy = (a + bi) / D`` (any exact binary x, y), as Gaussian-integer
    ``(re, im)`` pairs, and ``e``.  So zq's own coefficients there are ``q_k D^(k - n)``.
    """
    (a, da), (b, db) = x.as_integer_ratio(), y.as_integer_ratio()
    den = max(da, db)  # both are powers of two
    a, b, e, n = a * (den // da), b * (den // db), den.bit_length() - 1, len(zq) - 1
    re = [c << (e * (n - j)) for j, c in enumerate(zq)][::-1]  # Q, highest degree first
    im, out = [0] * len(re), []
    while len(out) < count:  # repeated synthetic division by s - (a + bi)
        for i in range(1, len(re)):
            r, m = re[i - 1], im[i - 1]
            re[i], im[i] = re[i] + r * a - m * b, im[i] + r * b + m * a
        out.append((re.pop(), im.pop()))
    return out, e


def _norm(z) -> int:
    return z[0] * z[0] + z[1] * z[1]


def _sqrt_up(num: int, den: int) -> float:
    """An upper bound on sqrt(num / den) >= 0: the root of ``num / (den 4^s)``, an integer true
    division near 1 (correctly rounded, no under- or overflow), times ``2^s``, raised 2 ulps."""
    s = (num.bit_length() - den.bit_length()) // 2
    root = math.ldexp(math.sqrt(num / (den << 2 * s) if s >= 0 else (num << -2 * s) / den), s)
    return math.nextafter(math.nextafter(root, math.inf), math.inf) if num else 0.0


def _newton_double(zq: list):
    """First rung: ``np.roots`` of the monic double coefficients ``zq[k] / zq[-1]``, each
    refined by at most ``_NEWTON_STEPS`` double-precision Newton steps ``q0 / (D q1)``
    on the exact first two Taylor coefficients of :func:`_taylor_shift` (the ones the
    alpha test reads), as float ``(x, y)`` pairs; None if a coefficient overflows a
    double, a step meets a non-finite center or np.roots fails."""
    try:
        zs = np.roots([c / zq[-1] for c in reversed(zq)]).tolist()  # correctly rounded
        for i, z in enumerate(zs):
            for _ in range(_NEWTON_STEPS):
                ((r0, i0), (r1, i1)), e = _taylor_shift(zq, z.real, z.imag, 2)
                den = _norm((r1, i1)) << e
                step = complex((r0 * r1 + i0 * i1) / den, (i0 * r1 - r0 * i1) / den) if den else 0
                if z - step == z:
                    break
                z -= step
            zs[i] = (z.real, z.imag)
        return zs
    except (OverflowError, ValueError):  # an infinity or a NaN, or np.roots failed
        return None


def _mp_roots(q: TPoly, dps: int):
    """Later rungs: mpmath's Durand–Kerner roots at ``dps`` digits, as exact binary
    fractions, or None if the iteration does not converge."""
    import mpmath as mp

    def exact(x):
        man, exp = x.man_exp  # the mantissa without its sign
        return Fraction(-man if x < 0 else man) * Fraction(2) ** exp

    with mp.workdps(dps):
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in reversed(q.coeffs)]
        try:
            roots = mp.polyroots(coeffs, maxsteps=200, extraprec=4 * dps)
        except mp.libmp.libhyper.NoConvergence:
            return None
        return [(exact(mp.re(z)), exact(mp.im(z))) for z in roots]


def _alpha_exact(u: int, v: int, n1: int, nk: int, k: int) -> bool:
    """One term of Smale's test on exact integers: ``u^(k-1) nk < v^(k-1) n1``."""
    return u ** (k - 1) * nk < v ** (k - 1) * n1


def _alpha_holds(n0: int, n1: int, norms) -> bool:
    """Smale's test ``u^(k-1) N_k < v^(k-1) n1``, ``u = 400 n0``, ``v = 9 n1``, for every ``k >= 2``
    with ``N_k = norms[k - 2]``, filtered on logarithms (Shewchuk 1997): the float ``gap =
    (k-1)(log v - log u) + log n1 - log N_k`` is within ``2^-47 S`` of the exact one, ``S``
    the sum of the magnitudes plus 1, and only inside ``_LOG_SLACK S`` of 0 (a tie fails)
    does :func:`_alpha_exact` decide on the integers.  The decision is the exact one."""
    if not n1:
        return False
    if not n0:  # the center is a root
        return True
    u, v = 400 * n0, 9 * n1
    lu, lv, l1 = math.log2(u), math.log2(v), math.log2(n1)
    for k, nk in enumerate(norms, 2):
        if nk:
            ln = math.log2(nk)
            gap = (k - 1) * (lv - lu) + l1 - ln
            if abs(gap) <= _LOG_SLACK * ((k - 1) * (lu + lv) + l1 + ln + 1):
                if not _alpha_exact(u, v, n1, nk, k):
                    return False
            elif gap < 0:
                return False
    return True


def _certify_squarefree(zq: list, centers):
    """Return [(center complex, radius float)], or None if certification fails.

    ``zq`` is a squarefree integer polynomial, ``centers`` one exact binary
    fraction ``(x, y)`` per root, or None if the finder failed.  Smale's alpha
    test ``beta * gamma < 0.15``, with ``beta = |p/p'|`` and ``gamma = max_k
    |p^(k)/(k! p')|^(1/(k-1))``, reads ``400^(k-1) |q0|^(2(k-1)) |qk|^2 <
    9^(k-1) |q1|^(2k)`` for every ``k >= 2`` on the exact coefficients of
    :func:`_taylor_shift`, all powers of ``D`` cancelled.  :func:`_alpha_holds`
    decides it on logarithms, with a margin that bounds their float error, and
    on the integers only inside that margin: the decision is the exact one.  A root
    then lies within ``2 beta`` of the center.  The balls have radius ``3
    beta``, with ``beta`` rounded up from the exact ``|q0|^2 / (D^2 |q1|^2)``,
    and must be disjoint at the exact centers (tested on integers: the centers
    and radii times one power of two).  Rounding a center to complex moves it
    by at most ``eps |c|``: each ball is widened by ``4 eps (|c| + 1)`` to cover
    that and the float sum of its radius.
    """
    if centers is None:
        return None
    n, balls = len(zq) - 1, []
    try:
        for x, y in centers:
            q, e = _taylor_shift(zq, x, y, n + 1)
            n0, n1 = _norm(q[0]), _norm(q[1])
            if not _alpha_holds(n0, n1, map(_norm, q[2:])):
                return None
            balls.append((x, y, complex(x, y), 3 * _sqrt_up(n0, n1 << 2 * e)))
        ratios = [[v.as_integer_ratio() for v in (x, y, r)] for x, y, _c, r in balls]
        den = max((d for ball in ratios for _m, d in ball), default=1)  # powers of two
        xyr = [[m * (den // d) for m, d in ball] for ball in ratios]  # integers over one den
    except (OverflowError, ValueError):  # a center or a radius not finite as a double
        return None
    for i, (x, y, r) in enumerate(xyr):
        for x2, y2, r2 in xyr[i + 1:]:
            if (x - x2) ** 2 + (y - y2) ** 2 <= (r + r2) ** 2:
                return None
    eps = 2.0 ** -52
    return [(c, r + eps * (abs(c) + 1.0) * 4.0) for _x, _y, c, r in balls]


def root_isolate(p: TPoly, isolated: dict = None):
    """Isolate all complex roots of p into certified disjoint balls.

    Works factor-by-factor on the exact squarefree decomposition so that
    multiple roots are handled with their true multiplicities.  The centers of
    each factor come from :func:`_newton_double`, and only if
    :func:`_certify_squarefree` rejects those, from :func:`_mp_roots` at
    ``_DPS`` digits, doubled until the certifier accepts.  A caller isolating
    several polynomials may pass one dict as ``isolated`` to all of them, so
    that a repeated factor is certified once.

    Raises:
        PrecisionExhausted: if certification fails at ``_MAX_DPS`` digits.
    """
    if p.is_zero():
        raise DegenerateFamily("cannot isolate the roots of the zero polynomial")
    isolated = {} if isolated is None else isolated
    out = []
    for q, mult in squarefree_decomposition(p):
        if q not in isolated:
            zq = q.prim
            balls, working = _certify_squarefree(zq, _newton_double(zq)), _DPS
            while balls is None and working <= _MAX_DPS:
                balls = _certify_squarefree(zq, _mp_roots(q, working))
                working *= 2
            if balls is None:
                raise PrecisionExhausted(
                    f"root certification failed at {_MAX_DPS} digits for {q.to_str()}"
                )
            isolated[q] = balls
        for c, r in isolated[q]:
            out.append(RootBall(center=c, radius=r, multiplicity=mult, provenance=()))
    total = sum(b.multiplicity for b in out)
    assert total == p.degree, "root multiplicities must sum to the degree"
    # Roots closer than about 1e-15 give overlapping double-precision balls:
    # one covering ball holds them, and its multiplicity counts them all.
    return _merge_balls(out, combine=operator.add)


def _merge_balls(balls, combine=max):
    """Cluster overlapping balls (radius-sum criterion) into covering balls;
    ``combine`` joins their multiplicities."""
    balls = list(balls)
    merged = True
    while merged:
        merged = False
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                a, b = balls[i], balls[j]
                if abs(a.center - b.center) <= a.radius + b.radius:
                    c = (a.center + b.center) / 2
                    r = max(abs(a.center - c) + a.radius, abs(b.center - c) + b.radius)
                    balls[i] = RootBall(
                        center=c,
                        radius=r,
                        multiplicity=combine(a.multiplicity, b.multiplicity),
                        provenance=tuple(sorted(set(a.provenance) | set(b.provenance))),
                    )
                    del balls[j]
                    merged = True
                    break
            if merged:
                break
    return sorted(balls, key=lambda b: (b.center.real, b.center.imag))


def singular_set(spec: ProblemSpec, A: ConnectionMatrix = None) -> SingularSet:
    """Assemble the certified singular-parameter over-approximation.

    The poles come from ``A`` (derived from ``spec`` when omitted), which the
    result keeps as its ``connection``.

    Raises:
        DegenerateFamily: if a genuine defining polynomial vanishes
            identically in t (e.g. a non-reduced critical scheme for all t).
    """
    if A is None:
        A = connection_matrix(spec, fiber_basis(spec))
    defining = []
    d = spec.top_degree
    defining.append((spec.g.coeff(d), LEADING_COEFF_VANISHES))
    if spec.fiber is FiberType.PUNCTURED_LINE:
        defining.append((spec.g.coeff(spec.bottom_order), LEADING_COEFF_VANISHES))

    gp = spec.dg
    if gp.u_degree > min(gp.u_order, 0):  # critical points exist; collisions are possible
        res = resultant_u(gp, gp.partial_u())
        if res.is_zero():
            raise DegenerateFamily(
                "critical scheme is non-reduced for every t "
                "(vanishing resultant of dg/du and d^2g/du^2)"
            )
        defining.append((res, CRITICAL_POINT_DEGENERATION))

    # the denominators are monic already; each distinct one is defining once
    defining += [(den, CONNECTION_POLE) for den in dict.fromkeys(A.denominators())]

    balls = []
    isolated = {}  # squarefree factor -> its balls, for this call only
    roots = {}  # primitive part of a defining polynomial -> its balls (they often repeat)
    for poly, prov in defining:
        if poly.is_zero():
            raise DegenerateFamily("a defining polynomial vanishes identically")
        if poly.degree >= 1:
            if poly.prim not in roots:
                roots[poly.prim] = root_isolate(poly, isolated=isolated)
            balls.extend(RootBall(b.center, b.radius, b.multiplicity, (prov,))
                         for b in roots[poly.prim])
    return SingularSet(balls=tuple(_merge_balls(balls)), defining=tuple(defining), connection=A)
