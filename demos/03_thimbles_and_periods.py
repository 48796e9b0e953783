"""Rapid-decay contours and certified period integrals.

For each admissible t the integrand u -> exp(g(u, t)) decays in finitely
many angular valleys at infinity (and, on the punctured line, at the
origin).  A basis of integration contours is built from polylines that
enter those valleys; periods are then evaluated by adaptive Gauss-Kronrod
panels with explicit truncation bounds for the discarded tails, so each
value carries a defensible error estimate.
"""

import cmath
import math

from expperiods import (
    FiberType,
    ProblemSpec,
    cycle_basis,
    fiber_basis,
    integrate_period,
    parse_laurent,
    period_matrix,
    track_cycles,
    valley_config,
)

# --- Airy: the wrap thimble reproduces 2*pi*i*Ai(0) --------------------------

airy = ProblemSpec(FiberType.AFFINE_LINE, parse_laurent("u^3/3 - t*u"), "airy")

config = valley_config(airy, 0.0)
print("Airy decay valleys at infinity (centers, in degrees):",
      [round(math.degrees(a), 1) for a in config.at_infinity])

basis = cycle_basis(airy, 0.0)
print(f"cycle basis has {basis.rank} contours; "
      f"cycle 0 runs valley {basis.cycles[0].start.index} -> "
      f"valley {basis.cycles[0].end.index}")

pv = integrate_period(airy, basis.cycles[0], 0, 0.0, tol=1e-12)
exact = 2j * math.pi * 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
print(f"period  = {pv.value:+.15g}")
print(f"2i*pi*Ai(0) = {exact:+.15g}")
print(f"reported error {pv.error:.1e}, true error {abs(pv.value - exact):.1e}, "
      f"{pv.neval} integrand evaluations")
print()

# --- Gaussian: analytic continuation of sqrt(pi/t) ---------------------------

gaussian = ProblemSpec(FiberType.AFFINE_LINE, parse_laurent("-t*u^2"), "gaussian")
base = cycle_basis(gaussian, 1.0)
print("Gaussian period along a tracked contour (branch follows the path):")
for t in (1.0, 2.0, 1.0 + 1.0j, 0.5 - 0.8j):
    cur = base if t == 1.0 else track_cycles(gaussian, base, [1.0, t])
    pv = integrate_period(gaussian, cur.cycles[0], 0, t, tol=1e-12)
    print(f"  t = {t:+.2f}:  {pv.value:+.14g}   vs sqrt(pi/t) = "
          f"{cmath.sqrt(math.pi / t):+.14g}")
print()

# --- Bessel: the full period matrix at t = 1 ---------------------------------

bessel = ProblemSpec(
    FiberType.PUNCTURED_LINE, parse_laurent("(t/2)*(u - u^-1)"), "bessel"
)
cycles = cycle_basis(bessel, 1.0)
P = period_matrix(bessel, fiber_basis(bessel), cycles, tol=1e-10)
print("Bessel period matrix P[i][j] = integral over cycle i of u^e_j e^g du")
print("  exponents:", list(P.exponents))
for i, row in enumerate(P.entries):
    tag = "closed loop" if cycles.cycles[i].closed else "zero->infinity path"
    print(f"  cycle {i} ({tag}):",
          "  ".join(f"{e.value:+.12g}" for e in row))
print(f"  max certified error {P.max_error():.1e}")
print()
print("the loop row pairs with u^-1 du to give 2*pi*i*J0(1) =",
      f"{2j * math.pi * 0.7651976865579666:+.12g}")
