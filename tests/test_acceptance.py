"""Acceptance battery: one test (and one printed pass/fail line) per criterion.

Every numeric target is checked against an oracle implemented inside this
module (power series with remainder bounds, Gamma-function closed forms,
principal-branch square roots) — never against the package's own output.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np

from conftest import ACCEPTANCE_LINES
from expperiods.cli import main
from expperiods.cohomology import (
    FiberType,
    ProblemSpec,
    connection_matrix,
    cyclic_ode,
    fiber_basis,
    reduce_form,
)
from expperiods.cycles import cycle_basis, track_cycles
from expperiods.quadrature import integrate_period
from expperiods.singular import singular_set
from expperiods.symbolic import parse_laurent
from expperiods.verify import (
    check_duality,
    check_ode,
    check_stokes,
    monodromy,
    random_gauge,
)


def make(fiber, g, label):
    return ProblemSpec(fiber=fiber, g=parse_laurent(g), label=label)


def twisted_differential(Q, spec):
    """du-coefficient of the twisted differential of the function Q, exactly."""
    return Q.partial_u() + Q * spec.dg


AIRY = make(FiberType.AFFINE_LINE, "u^3/3 - t*u", "airy")
BESSEL = make(FiberType.PUNCTURED_LINE, "(t/2)*(u - u^-1)", "bessel")
GAUSSIAN = make(FiberType.AFFINE_LINE, "-t*u^2", "gaussian")
LINEAR = make(FiberType.AFFINE_LINE, "t*u", "linear")
FIXTURES = (AIRY, BESSEL, GAUSSIAN, LINEAR)


def conclude(num: int, ok: bool, desc: str, detail: str = ""):
    line = f"criterion {num:>2}/11 {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# Oracles, implemented independently of the package
# --------------------------------------------------------------------------


def bessel_j0_oracle(x_num: int, x_den: int = 1) -> float:
    """J0 at a rational point by its alternating power series; exact
    Fraction arithmetic, remainder below 1e-18."""
    x2 = Fraction(x_num, x_den) ** 2
    total = Fraction(0)
    term = Fraction(1)
    k = 0
    while True:
        total += term
        k += 1
        term = -term * x2 / (4 * k * k)
        if abs(term) < Fraction(1, 10 ** 18):
            break
    return float(total)


def airy_zero_oracle() -> complex:
    """2*pi*i * 3^(-2/3) / Gamma(2/3), the wrap-contour value at t = 0."""
    return 2j * math.pi * 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)


def gaussian_oracle(t: complex) -> complex:
    """Principal branch of sqrt(pi/t); agrees with continuation from t = 1
    along paths in the right half plane."""
    return cmath.sqrt(math.pi / t)


def admissible_points(spec, rng, count):
    """Seeded parameter samples in the annulus 0.7 <= |t| <= 2.2, kept
    clear of every certified singular ball."""
    sigma = singular_set(spec)
    out = []
    while len(out) < count:
        r = 0.7 + 1.5 * rng.random()
        theta = 2.0 * math.pi * rng.random()
        t = r * cmath.exp(1j * theta)
        if all(abs(t - b.center) > 0.3 + b.radius for b in sigma.balls):
            out.append(t)
    return out


# --------------------------------------------------------------------------
# Criteria
# --------------------------------------------------------------------------


def test_01_airy_connection_exact():
    # Hand reduction: y = integral e^{u^3/3 - t u} du gives y' = -[u],
    # y'' = [u^2]; integration by parts kills d/du(e^g) = (u^2 - t) e^g,
    # so [u^2] = t [1] and the cyclic equation is y'' - t y = 0.
    basis = fiber_basis(AIRY)
    ode = cyclic_ode(connection_matrix(AIRY, basis), start=0)
    got = [p.to_str() for p in ode.coefficients]
    ok = basis.rank == 2 and got == ["-t", "0", "1"]
    conclude(1, ok, "Airy: rank 2 and cyclic equation y'' = t*y, exact",
             f"rank={basis.rank}, coefficients={got}")


def test_02_bessel_connection_exact():
    # Hand reduction: y = integral u^{-1} e^{(t/2)(u - 1/u)} du obeys the
    # modified recurrences of the loop representation of J_0, i.e.
    # t y'' + y' + t y = 0 after clearing content.
    basis = fiber_basis(BESSEL)
    ode = cyclic_ode(connection_matrix(BESSEL, basis), start=0)
    got = [p.to_str() for p in ode.coefficients]
    ok = basis.rank == 2 and got == ["t", "1", "t"]
    conclude(2, ok, "Bessel: cyclic equation t*y'' + y' + t*y = 0, exact",
             f"rank={basis.rank}, coefficients={got}")


def test_03_airy_thimble_value():
    basis = cycle_basis(AIRY, 0.0)
    # cycle 0 is the wrap pair: descends from the 5*pi/3 valley, returns
    # to the pi/3 valley
    pv = integrate_period(AIRY, basis.cycles[0], 0, 0.0, tol=1e-12)
    expected = airy_zero_oracle()
    rel = abs(pv.value - expected) / abs(expected)
    conclude(3, rel < 1e-8,
             "Airy thimble (5*pi/3 -> pi/3) at t=0 equals 2*pi*i*3^(-2/3)/Gamma(2/3)",
             f"relative error {rel:.2e}")


def test_04_bessel_loop_value():
    basis = cycle_basis(BESSEL, 1.0)
    loop = next(c for c in basis.cycles if c.closed)
    pv = integrate_period(BESSEL, loop, -1, 1.0, tol=1e-12)
    expected = 2j * math.pi * bessel_j0_oracle(1)
    rel = abs(pv.value - expected) / abs(expected)
    conclude(4, rel < 1e-8,
             "Bessel unit-loop period at t=1 equals 2*pi*i*J0(1)",
             f"relative error {rel:.2e}")


def test_05_gaussian_closed_form():
    base = cycle_basis(GAUSSIAN, 1.0)
    worst = 0.0
    for t in (1.0, 2.0, 1.0 + 1.0j):
        # continue the t=1 cycle along a straight path: the branch of
        # sqrt(pi/t) is then pinned by the tracking, not by a convention
        if t == 1.0:
            cur = base
        else:
            cur = track_cycles(GAUSSIAN, base, [1.0, t])
        pv = integrate_period(GAUSSIAN, cur.cycles[0], 0, t, tol=1e-12)
        rel = abs(pv.value - gaussian_oracle(t)) / abs(gaussian_oracle(t))
        worst = max(worst, rel)
    conclude(5, worst < 1e-10,
             "Gaussian periods at t in {1, 2, 1+i} equal sqrt(pi/t), principal branch",
             f"worst relative error {worst:.2e}")


def test_06_solution_property():
    rng = random.Random(2024)
    worst = 0.0
    ok = True
    for spec in FIXTURES:
        for t in admissible_points(spec, rng, 3):
            rec = check_ode(spec, t)
            worst = max(worst, rec.residual)
            ok = ok and rec.passed
    conclude(6, ok,
             "numeric periods follow the exact transport of the derived system",
             f"max residual {worst:.2e}")


def test_07_perfect_duality():
    rng = random.Random(7321)
    ok = True
    worst_margin = math.inf
    for spec in FIXTURES:
        rank = fiber_basis(spec).rank
        for t in admissible_points(spec, rng, 5):
            rec = check_duality(spec, t)
            ok = ok and rec.passed
            if rank:
                ok = ok and rec.details["numeric_rank"] == rank
                worst_margin = min(worst_margin, rec.residual / rec.threshold)
    conclude(7, ok,
             "period pairing nondegenerate at 5 points per family; rank matches",
             f"smallest |det|/floor margin {worst_margin:.2e}")


def test_08_limit_stokes():
    rng = random.Random(1729)
    worst = 0.0
    ok = True
    for spec in FIXTURES:
        if fiber_basis(spec).rank == 0:
            rec = check_stokes(spec, 1.0, parse_laurent("u"))
            ok = ok and rec.passed
            continue
        cycles = cycle_basis(spec, 1.0)
        for i in range(20):
            q = random_gauge(spec, rng)
            rec = check_stokes(
                spec, 1.0, q, cycle=cycles.cycles[i % len(cycles.cycles)]
            )
            ok = ok and rec.passed and rec.residual < 1e-8
            worst = max(worst, rec.residual)
    conclude(8, ok,
             "coboundary periods vanish for 20 seeded gauges per family",
             f"max normalized residual {worst:.2e}")


def test_09_flatness_monodromy():
    ok = True
    details = []

    bes = monodromy(BESSEL, 0.0)
    ok = ok and bes.record.passed and bes.record.residual < 1e-6
    ev_gap = max(abs(ev - 1.0) for ev in bes.eigenvalues)
    ok = ok and ev_gap < 1e-6
    details.append(f"bessel match {bes.record.residual:.1e}, ev gap {ev_gap:.1e}")

    gau = monodromy(GAUSSIAN, 0.0)
    gap = abs(np.array(gau.m_cycle)[0, 0] + 1.0)
    ok = ok and gau.record.passed and gap < 1e-8
    details.append(f"gaussian [-1] gap {gap:.1e}")

    triv = monodromy(GAUSSIAN, 2.0, basepoint=2.5)
    m = np.array(triv.m_cycle)
    gap = float(np.linalg.norm(m - np.eye(m.shape[0])))
    ok = ok and gap < 1e-8
    details.append(f"empty-loop identity gap {gap:.1e}")

    conclude(9, ok,
             "monodromy: Bessel unipotent {1,1}, Gaussian [-1], empty loop = I",
             "; ".join(details))


def test_10_exactness_kernel():
    rng = random.Random(4441)
    ok = True
    checked = 0
    for spec in FIXTURES:
        basis = fiber_basis(spec)
        for _ in range(100):
            q = random_gauge(spec, rng)
            coords = reduce_form(twisted_differential(q, spec), spec, basis)
            ok = ok and all(c.is_zero() for c in coords)
            checked += 1
    conclude(10, ok,
             "reduce_form annihilates every twisted differential, exactly",
             f"{checked} random gauges")


def test_11_degenerate_input(capsys):
    path = "fixtures/linear.spec"
    ok = fiber_basis(LINEAR).rank == 0

    code = main(["derive", path])
    out = capsys.readouterr().out
    ok = ok and code == 0 and '"rank": 0' in out

    code = main(["periods", path, "--t", "1"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and '"entries": []' in out

    code = main(["verify", path])
    out = capsys.readouterr().out
    ok = ok and code == 0 and '"passed": true' in out

    conclude(11, ok,
             "g = t*u: rank 0, empty period matrix, vacuous verify, exit 0")
