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

import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp
import numpy as np

from .cohomology import ConnectionMatrix, FiberType, ProblemSpec
from .errors import DegenerateFamily, PrecisionExhausted
from .symbolic import LaurentPoly, TPoly, bareiss, tpoly_gcd, tpolys_to_z

LEADING_COEFF_VANISHES = "LeadingCoeffVanishes"
CRITICAL_POINT_DEGENERATION = "CriticalPointDegeneration"
CONNECTION_POLE = "ConnectionPole"

# Newton contraction threshold: alpha < (13 - 3*sqrt(17))/4 ~ 0.15767 certifies
# convergence to a unique nearby root with |root - z0| <= 2*beta.
_ALPHA_SAFE = 0.15
# Working precision of root isolation: start digits, and the most digits tried.
_DPS = 30
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
    fs = [p.monic()]  # fs[k] = gcd(fs[k-1], fs[k-1]')
    while fs[-1].degree > 0:
        fs.append(tpoly_gcd(fs[-1], fs[-1].derivative()))
    ss = [fs[k].exact_div(fs[k + 1]) for k in range(len(fs) - 1)] + [TPoly.one()]
    qs = [ss[k].exact_div(ss[k + 1]) for k in range(len(ss) - 1)]
    return [(q, k + 1) for k, q in enumerate(qs) if q.degree > 0]


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
    """Taylor coefficients at z0 of a polynomial (descending coeffs), by Horner."""
    work, out = list(desc_coeffs), []
    while work:
        for i in range(1, len(work)):
            work[i] = work[i - 1] * z0 + work[i]
        out.append(work.pop())
    return out  # out[k] = p^(k)(z0) / k!


def _seeds(coeffs_desc):
    """Numpy roots of the monic float coefficients, or None (mpmath's default
    start) unless coefficients and roots are finite and the roots distinct."""
    fc = np.array([float(c / coeffs_desc[0]) for c in coeffs_desc])
    if not np.isfinite(fc).all():
        return None  # np.roots raises LinAlgError on inf
    seeds = np.roots(fc).tolist()
    if not np.isfinite(seeds).all() or len(set(seeds)) < len(seeds):
        return None
    return [mp.mpc(z) for z in seeds]


def _certify_squarefree(q: TPoly, dps: int):
    """Return [(center complex, radius float)] or None if certification fails.

    Durand–Kerner (``mp.polyroots``) starts from :func:`_seeds`.  Each root is
    certified by Smale's alpha test ``beta * gamma < 0.15``, with ``beta =
    |p/p'|`` and ``gamma = max_k |p^(k)/(k! p')|^(1/(k-1))``, evaluated
    root-free as ``beta^(k-1) |p^(k)/k!| < 0.15^(k-1) |p'|`` for all ``k >= 2``.
    """
    deg = q.degree
    coeffs_desc = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in reversed(q.coeffs)]
    try:
        roots = mp.polyroots(
            coeffs_desc, maxsteps=200, extraprec=4 * dps, roots_init=_seeds(coeffs_desc)
        )
    except mp.libmp.libhyper.NoConvergence:
        return None
    safe = mp.mpf(_ALPHA_SAFE)
    balls = []
    for z0 in roots:
        z0 = mp.mpc(z0)
        tay = _taylor_coeffs(coeffs_desc, z0)
        d1 = abs(tay[1])  # tay has deg + 1 >= 2 entries
        if d1 == 0:
            return None
        beta = abs(tay[0]) / d1
        if any(beta ** j * abs(c) >= safe ** j * d1 for j, c in enumerate(tay[2:], 1)):
            return None
        scale = 1 + abs(z0)
        radius = 2 * beta * mp.mpf("1.5") + scale * mp.mpf(10) ** (5 - dps)
        balls.append((z0, radius))
    for i in range(deg):
        for j in range(i + 1, deg):
            if abs(balls[i][0] - balls[j][0]) <= balls[i][1] + balls[j][1]:
                return None
    eps = 2.0 ** -52  # widen each ball by the rounding to double precision
    balls = [(complex(z), r) for z, r in balls]
    return [(c, float(r) + eps * (abs(c) + 1.0) * 4.0) for c, r in balls]


def root_isolate(p: TPoly, provenance: str = "", isolated: dict = None):
    """Isolate all complex roots of p into certified disjoint balls.

    Works factor-by-factor on the exact squarefree decomposition so that
    multiple roots are handled with their true multiplicities.  Precision is
    escalated until the Newton contraction test and pairwise disjointness
    both hold.  A caller isolating several polynomials may pass one dict as
    ``isolated`` to all of them, so that a repeated factor is certified once.

    Raises:
        PrecisionExhausted: if certification fails at ``_MAX_DPS`` digits.
    """
    if p.is_zero():
        raise DegenerateFamily("cannot isolate the roots of the zero polynomial")
    isolated = {} if isolated is None else isolated
    out = []
    prov = (provenance,) if provenance else ()
    for q, mult in squarefree_decomposition(p):
        working = _DPS
        while q not in isolated:
            with mp.workdps(working):
                balls = _certify_squarefree(q, working)
            if balls is not None:
                isolated[q] = balls
            elif 2 * working > _MAX_DPS:
                raise PrecisionExhausted(
                    f"root certification failed at {_MAX_DPS} digits for {q.to_str()}"
                )
            working *= 2
        for c, r in isolated[q]:
            out.append(RootBall(center=c, radius=r, multiplicity=mult, provenance=prov))
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
    isolated = {}  # squarefree factor -> its balls, for this call only
    roots = {}  # monic defining polynomial -> its balls (they often repeat)
    for poly, prov in defining:
        if poly.is_zero():
            raise DegenerateFamily("a defining polynomial vanishes identically")
        if poly.degree >= 1:
            key = poly.monic()
            if key not in roots:
                roots[key] = root_isolate(key, isolated=isolated)
            balls.extend(replace(b, provenance=(prov,)) for b in roots[key])
    return SingularSet(balls=tuple(_merge_balls(balls)), defining=tuple(defining))
