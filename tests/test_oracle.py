"""The program's affine periods against the contour-free Γ-series oracle (tests/oracle.py)."""

import cmath
import math

import mpmath as mp
import pytest

import oracle
from expperiods import (
    EngineError,
    FiberType,
    ProblemSpec,
    cycle_basis,
    fiber_basis,
    parse_laurent,
    period_matrix,
)

# the affine ladder, deg 3-9
LADDER = (
    "u^3/3-t*u",
    "u^4/4-t*u",
    "u^5/5-t*u^2+u",
    "u^6/6-t*u",
    "u^7-t*u^3+t^2*u",
    "u^8/8-t*u",
    "u^9+t*u^4-(t^2+1)*u",
)


@pytest.mark.parametrize("t", [0.37 + 0.81j, -1.1 + 0.4j])
@pytest.mark.parametrize("g", LADDER)
def test_ladder_entries_within_their_reported_error(g, t):
    # an entry either agrees with the oracle within its reported error, or its
    # run raises a typed error (then no oracle is computed)
    spec = ProblemSpec(FiberType.AFFINE_LINE, parse_laurent(g))
    basis = fiber_basis(spec)
    try:
        cycles = cycle_basis(spec, t)
        P = period_matrix(spec, basis, cycles, tol=1e-10)
    except EngineError:
        return
    O = oracle.period_matrix(spec, t, cycles.cycles, basis.exponents)
    for row, orow in zip(P.entries, O):
        for entry, want in zip(row, orow):
            assert abs(entry.value - want) <= entry.error


@pytest.mark.parametrize("radius", [4, 8, 16])
@pytest.mark.parametrize("g", ["u^3/3-t*u", "u^4/4-t*u", "u^5/5-t*u^2+u"])
def test_wide_t_entries_within_their_reported_error(g, radius):
    # past the annulus 0.6 <= |t| <= 2.2 of the bench points the periods span
    # many orders of magnitude, and runs end at the kernel's budget and
    # overflow exits: on 8 arguments, an entry either agrees with the oracle
    # within its reported error or its run raises a typed error.  The oracle
    # resolves a tenth of the smallest reported error, and no more, to stay fast.
    spec = ProblemSpec(FiberType.AFFINE_LINE, parse_laurent(g))
    basis = fiber_basis(spec)
    for k in range(8):
        t = radius * cmath.exp(1j * math.pi * k / 4)
        try:
            cycles = cycle_basis(spec, t)
            P = period_matrix(spec, basis, cycles, tol=1e-10)
        except EngineError:
            continue
        smallest = min(entry.error for row in P.entries for entry in row)
        digits = max(1, math.ceil(-math.log10(smallest)) + 1)
        O = oracle.period_matrix(spec, t, cycles.cycles, basis.exponents, digits)
        for row, orow in zip(P.entries, O):
            for entry, want in zip(row, orow):
                assert abs(entry.value - want) <= entry.error


def test_airy_cycle_is_two_pi_i_airy_ai():
    # cycle 0 runs from valley 2 (centre 5pi/3) to valley 0 (centre pi/3)
    spec = ProblemSpec(FiberType.AFFINE_LINE, parse_laurent("u^3/3 - t*u"))
    t = 0.37 + 0.81j
    cycle = cycle_basis(spec, t).cycles[0]
    assert (cycle.start.index, cycle.end.index) == (2, 0)
    R = oracle.ray_integrals(spec, t, [0])[0]
    with mp.workdps(40):
        assert abs(R[0] - R[2] - 2j * mp.pi * mp.airyai(mp.mpc(t))) <= 1e-25
