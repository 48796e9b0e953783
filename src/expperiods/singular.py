"""Certified over-approximation of the singular parameter set.

The parameter values where the family can degenerate are collected from
explicit defining polynomials in t:

* the top u-leading coefficient of g (valleys at infinity collapse),
* the bottom u-leading coefficient (punctured line; valleys at zero collapse),
* the u-resultant of dg/du and d^2g/du^2 (critical points collide or escape),
* every denominator of the connection matrix (poles of the system).

Roots are isolated into complex balls, each certified to contain exactly one
root: a Smale-style Newton contraction test gives existence inside each ball,
and pairwise disjointness plus degree counting gives uniqueness.  The union is
an over-approximation — membership never proves an actual singularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .cohomology import ConnectionMatrix, FiberType, ProblemSpec
from .errors import DegenerateFamily, PrecisionExhausted
from .symbolic import LaurentPoly, TPoly, bareiss, tpoly_gcd, tpolys_to_z

LEADING_COEFF_VANISHES = "LeadingCoeffVanishes"
CRITICAL_POINT_DEGENERATION = "CriticalPointDegeneration"
CONNECTION_POLE = "ConnectionPole"

# Newton contraction threshold: alpha < (13 - 3*sqrt(17))/4 ~ 0.15767 certifies
# convergence to a unique nearby root with |root - z0| <= 2*beta.
_ALPHA_SAFE = 0.15


@dataclass(frozen=True)
class RootBall(object):
    """Closed disk |t - center| <= radius certified to contain exactly one root."""

    center: complex
    radius: float
    multiplicity: int
    provenance: tuple  # sorted tuple of provenance strings

    def contains(self, t: complex, slack: float = 1.0) -> bool:
        return abs(complex(t) - self.center) <= self.radius * slack


@dataclass(frozen=True)
class SingularSet:
    """Certified root balls of all defining polynomials, clustered and sorted."""

    balls: tuple
    defining: tuple  # tuple of (TPoly, provenance string)

    def min_distance(self, t: complex) -> float:
        if not self.balls:
            return float("inf")
        return min(abs(complex(t) - b.center) for b in self.balls)

    def ball_containing(self, t: complex, slack: float = 1.0):
        for b in self.balls:
            if b.contains(t, slack):
                return b
        return None

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


# ---------------------------------------------------------------------------
# Exact squarefree decomposition and resultants
# ---------------------------------------------------------------------------


def squarefree_decomposition(p: TPoly):
    """Return [(q_i, i)] with p ~ prod q_i^i, q_i squarefree and coprime."""
    fs = [p.monic()]
    while fs[-1].degree > 0:
        nxt = tpoly_gcd(fs[-1], fs[-1].derivative())
        fs.append(nxt)
        if nxt.degree == 0:
            break
    ss = [fs[k].exact_div(fs[k + 1]) for k in range(len(fs) - 1)]
    out = []
    for k in range(len(ss)):
        qk = ss[k] if k + 1 >= len(ss) else ss[k].exact_div(ss[k + 1])
        if qk.degree > 0:
            out.append((qk, k + 1))
    return out


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
    """
    a = _laurent_to_ucoeffs(p)
    b = _laurent_to_ucoeffs(q)
    if not a or not b:
        return TPoly.zero()
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    if size == 0:
        return TPoly.one()
    # Sylvester rows over Z[t]: the n rows of a carry the scale La, the m rows
    # of b carry Lb, and the determinant is divided by La^n * Lb^m at the end.
    za, La = tpolys_to_z(a)
    zb, Lb = tpolys_to_z(b)
    rows = []
    for coeffs, shifts in ((za, n), (zb, m)):
        for i in range(shifts):
            row = [[] for _ in range(size)]
            row[i:i + len(coeffs)] = reversed(coeffs)
            rows.append(row)
    det, _ = bareiss(rows)  # rows as columns: det(M^T) = det(M)
    scale = La ** n * Lb ** m
    return TPoly(Fraction(c, scale) for c in det)


# ---------------------------------------------------------------------------
# Certified root isolation
# ---------------------------------------------------------------------------


def _taylor_coeffs(desc_coeffs, z0):
    """Taylor coefficients of a polynomial (descending coeffs) at z0."""
    work = list(desc_coeffs)
    out = []
    for _ in range(len(desc_coeffs)):
        rem = work[0]
        new = [work[0]]
        for c in work[1:]:
            rem = rem * z0 + c
            new.append(rem)
        out.append(rem)
        work = new[:-1]
        if not work:
            break
    return out  # out[k] = p^(k)(z0) / k!


def _certify_squarefree(q: TPoly, dps: int):
    """Return [(center mpc, radius mpf)] or None if certification fails."""
    deg = q.degree
    coeffs_desc = [
        mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in reversed(q.coeffs)
    ]
    try:
        roots = mp.polyroots(coeffs_desc, maxsteps=200, extraprec=4 * dps)
    except mp.libmp.libhyper.NoConvergence:
        return None
    balls = []
    for z0 in roots:
        z0 = mp.mpc(z0)
        tay = _taylor_coeffs(coeffs_desc, z0)
        d1 = tay[1] if len(tay) > 1 else mp.mpc(0)
        if d1 == 0:
            return None
        beta = abs(tay[0] / d1)
        gamma = mp.mpf(0)
        for k in range(2, len(tay)):
            gk = abs(tay[k] / d1) ** (mp.mpf(1) / (k - 1))
            gamma = max(gamma, gk)
        alpha = beta * gamma
        if alpha >= _ALPHA_SAFE:
            return None
        scale = 1 + abs(z0)
        radius = 2 * beta * mp.mpf("1.5") + scale * mp.mpf(10) ** (5 - dps)
        balls.append((z0, radius))
    for i in range(deg):
        for j in range(i + 1, deg):
            if abs(balls[i][0] - balls[j][0]) <= balls[i][1] + balls[j][1]:
                return None
    return balls


def root_isolate(p: TPoly, dps: int = 30, max_dps: int = 220, provenance: str = ""):
    """Isolate all complex roots of p into certified disjoint balls.

    Works factor-by-factor on the exact squarefree decomposition so that
    multiple roots are handled with their true multiplicities.  Precision is
    escalated until the Newton contraction test and pairwise disjointness
    both hold.

    Raises:
        PrecisionExhausted: if certification fails at ``max_dps`` digits.
    """
    if p.is_zero():
        raise DegenerateFamily("cannot isolate the roots of the zero polynomial")
    out = []
    prov = (provenance,) if provenance else ()
    for q, mult in squarefree_decomposition(p):
        working = dps
        while True:
            with mp.workdps(working):
                balls = _certify_squarefree(q, working)
            if balls is not None:
                break
            working *= 2
            if working > max_dps:
                raise PrecisionExhausted(
                    f"root certification failed at {max_dps} digits for {q.to_str()}"
                )
        eps = 2.0 ** -52
        for z, rad in balls:
            c = complex(z)
            r = float(rad) + eps * (abs(c) + 1.0) * 4.0
            out.append(RootBall(center=c, radius=r, multiplicity=mult, provenance=prov))
    total = sum(b.multiplicity for b in out)
    assert total == p.degree, "root multiplicities must sum to the degree"
    return sorted(out, key=lambda b: (b.center.real, b.center.imag))


def _merge_balls(balls):
    """Cluster overlapping balls (radius-sum criterion) into covering balls."""
    balls = list(balls)
    merged = True
    while merged:
        merged = False
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                a, b = balls[i], balls[j]
                if abs(a.center - b.center) <= a.radius + b.radius:
                    lo = min(a.center.real - a.radius, b.center.real - b.radius)
                    hi = max(a.center.real + a.radius, b.center.real + b.radius)
                    c = (a.center + b.center) / 2
                    r = max(
                        abs(a.center - c) + a.radius, abs(b.center - c) + b.radius
                    )
                    balls[i] = RootBall(
                        center=c,
                        radius=r,
                        multiplicity=max(a.multiplicity, b.multiplicity),
                        provenance=tuple(sorted(set(a.provenance) | set(b.provenance))),
                    )
                    del balls[j]
                    merged = True
                    break
            if merged:
                break
    return sorted(balls, key=lambda b: (b.center.real, b.center.imag))


def singular_set(spec: ProblemSpec, A: ConnectionMatrix = None, dps: int = 30) -> SingularSet:
    """Assemble the certified singular-parameter over-approximation.

    Raises:
        DegenerateFamily: if a genuine defining polynomial vanishes
            identically in t (e.g. a non-reduced critical scheme for all t).
    """
    if A is None:
        from .cohomology import connection_matrix, fiber_basis

        A = connection_matrix(spec, fiber_basis(spec))
    defining = []
    d = spec.top_degree
    defining.append((spec.g.coeff(d), LEADING_COEFF_VANISHES))
    if spec.fiber is FiberType.PUNCTURED_LINE:
        defining.append((spec.g.coeff(spec.bottom_order), LEADING_COEFF_VANISHES))

    gp = spec.g.partial_u()
    cleared = _laurent_to_ucoeffs(gp)
    if len(cleared) > 1:  # critical points exist; collisions are possible
        res = resultant_u(gp, gp.partial_u())
        if res.is_zero():
            raise DegenerateFamily(
                "critical scheme is non-reduced for every t "
                "(vanishing resultant of dg/du and d^2g/du^2)"
            )
        defining.append((res, CRITICAL_POINT_DEGENERATION))

    seen = set()
    for den in A.denominators():
        key = den.monic()
        if key not in seen:
            seen.add(key)
            defining.append((key, CONNECTION_POLE))

    balls = []
    for poly, prov in defining:
        if poly.is_zero():
            raise DegenerateFamily("a defining polynomial vanishes identically")
        if poly.degree >= 1:
            balls.extend(root_isolate(poly, dps=dps, provenance=prov))
    return SingularSet(balls=tuple(_merge_balls(balls)), defining=tuple(defining))
