"""Monodromy: what a loop around a singular parameter does to periods.

Cycles are transported around a loop by re-aiming their endpoint directions
as the decay valleys rotate; the returned cycles are integer combinations
of the originals, and expressing the transported period matrix in the
original one yields the monodromy matrix.  An independent computation --
Taylor-series continuation of y' = A(t) y around the same loop polygon --
must agree, which is a strong end-to-end consistency test of derivation,
contours, and quadrature at once.
"""

import numpy as np

from expperiods import FiberType, ProblemSpec, monodromy, parse_laurent


def show(result, title):
    print(f"=== {title} ===")
    m = np.array(result.m_cycle)
    print("cycle-transport monodromy:")
    for row in m:
        print("   [" + "  ".join(f"{z:+.6f}" for z in row) + "]")
    print(f"eigenvalues: {[format(ev, '+.9f') for ev in result.eigenvalues]}")
    rec = result.record
    print(f"agreement with ODE continuation: {rec.residual:.2e} "
          f"({'ok' if rec.passed else 'FAIL'})")
    print()


bessel = ProblemSpec(
    FiberType.PUNCTURED_LINE, parse_laurent("(t/2)*(u - u^-1)"), "bessel"
)
# J0 has a log singularity at t = 0: the monodromy is unipotent, both
# eigenvalues are 1, and the loop cycle is fixed while the connecting path
# picks up -2 copies of it (the classical 2*pi*i * J0 shift of Y0).
show(monodromy(bessel, 0.0), "Bessel around t = 0")

gaussian = ProblemSpec(FiberType.AFFINE_LINE, parse_laurent("-t*u^2"), "gaussian")
# sqrt(pi/t) changes sign around t = 0.
show(monodromy(gaussian, 0.0), "Gaussian around t = 0")

# A loop that encircles no singular parameter must act trivially.
show(monodromy(gaussian, 2.0, basepoint=2.5), "Gaussian around t = 2 (no singularity)")

airy = ProblemSpec(FiberType.AFFINE_LINE, parse_laurent("u^3/3 - t*u"), "airy")
# The Airy system is an entire family: t = 0 is only a turning point
# (critical values collide) -- the connection stays regular there, so even
# this loop is trivial.
show(monodromy(airy, 0.0, basepoint=1.0), "Airy around t = 0 (turning point only)")
