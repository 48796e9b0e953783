"""Adaptive contour quadrature against independent closed-form oracles."""

import cmath
import csv
import dataclasses
import io
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from expperiods import quadrature
from expperiods.cli import main
from expperiods.cohomology import FiberType, ProblemSpec, fiber_basis
from expperiods.cycles import CycleBasis, cycle_basis, track_cycles
from expperiods.errors import NonDecayingTail, ToleranceNotMet
from expperiods.quadrature import (
    GAUSS_INDEX,
    NODES,
    WEIGHTS_G,
    WEIGHTS_K,
    _gk_vector,
    _integrand,
    _merged,
    _tail_bounds,
    adaptive_polyline,
    integrate_absolute,
    integrate_period,
    period_matrices,
    period_matrix,
    period_rows,
)
from expperiods.symbolic import parse_laurent
from test_cycles import verify_cases


def make(fiber, g, label=""):
    return ProblemSpec(fiber=fiber, g=parse_laurent(g), label=label)


AIRY = make(FiberType.AFFINE_LINE, "u^3/3 - t*u", "airy")
BESSEL = make(FiberType.PUNCTURED_LINE, "(t/2)*(u - u^-1)", "bessel")
GAUSSIAN = make(FiberType.AFFINE_LINE, "-t*u^2", "gaussian")


# --------------------------------------------------------------------------
# Independent oracles (implemented here, not via the package)
# --------------------------------------------------------------------------


def bessel_j0_oracle(x_num: int, x_den: int = 1) -> float:
    """J0 at a rational point by its alternating power series, with a
    remainder bound smaller than 1e-17; exact Fraction arithmetic."""
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
    """2*pi*i*Ai(0) = 2*pi*i * 3^(-2/3) / Gamma(2/3)."""
    return 2j * math.pi * 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)


def gaussian_oracle(t: complex) -> complex:
    """Principal branch of sqrt(pi/t)."""
    return cmath.sqrt(math.pi / t)


class TestKronrodRule:
    def test_weights_integrate_constants(self):
        assert float(np.sum(WEIGHTS_K)) == pytest.approx(2.0, abs=1e-14)
        assert float(np.sum(WEIGHTS_G)) == pytest.approx(2.0, abs=1e-14)

    def test_polynomial_exactness(self):
        # Kronrod-15 is exact to degree 22, Gauss-7 to degree 13
        for deg in range(0, 14):
            exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
            k = float(np.sum(WEIGHTS_K * NODES ** deg))
            g = float(np.sum(WEIGHTS_G * NODES[GAUSS_INDEX] ** deg))
            assert k == pytest.approx(exact, abs=2e-13)
            assert g == pytest.approx(exact, abs=2e-13)
        for deg in (14, 16, 18, 20, 22):
            exact = 2.0 / (deg + 1)
            k = float(np.sum(WEIGHTS_K * NODES ** deg))
            assert k == pytest.approx(exact, abs=2e-12)

    def test_nodes_symmetric_and_sorted(self):
        assert np.allclose(NODES, -NODES[::-1])
        assert np.all(np.diff(NODES) > 0)


class TestAdaptivePolyline:
    def test_entire_function_on_segment(self):
        val, err, _resabs, _n = adaptive_polyline(np.exp, [0.0, 1.0], 1e-13)
        assert abs(val - (math.e - 1.0)) < 1e-13
        assert err < 1e-12

    def test_oscillatory_closed_loop(self):
        # integral of u^5 around a square contour is zero (Cauchy)
        nodes = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
        val, err, _resabs, _n = adaptive_polyline(lambda u: u ** 5, nodes, 1e-12)
        assert abs(val) < 1e-12

    def test_pole_integral_winding(self):
        # integral of 1/u around the unit square is 2*pi*i
        nodes = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
        val, _err, _resabs, _n = adaptive_polyline(lambda u: 1.0 / u, nodes, 1e-12)
        assert abs(val - 2j * math.pi) < 1e-11

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_BUDGET", 3)
        with pytest.raises(ToleranceNotMet):
            adaptive_polyline(lambda u: np.exp(200j * u), [0.0, 1.0], 1e-14)


class TestPeriodOracles:
    def test_gaussian_sqrt_pi(self):
        basis = cycle_basis(GAUSSIAN, 1.0)
        pv = integrate_period(GAUSSIAN, basis.cycles[0], 0, 1.0, tol=1e-12)
        assert abs(pv.value - math.sqrt(math.pi)) < 1e-12
        assert pv.error < 1e-11
        assert abs(pv.value - math.sqrt(math.pi)) < pv.error

    def test_gaussian_tracked_branch(self):
        base = cycle_basis(GAUSSIAN, 1.0)
        for t in (2.0, 1.0 + 1.0j, 0.5 - 0.8j):
            moved = track_cycles(GAUSSIAN, base, [1.0, t])
            pv = integrate_period(GAUSSIAN, moved.cycles[0], 0, t, tol=1e-12)
            assert abs(pv.value - gaussian_oracle(t)) < 1e-11 * abs(gaussian_oracle(t)) + 1e-13

    def test_airy_thimble_value(self):
        basis = cycle_basis(AIRY, 0.0)
        pv = integrate_period(AIRY, basis.cycles[0], 0, 0.0, tol=1e-12)
        assert abs(pv.value - airy_zero_oracle()) < 1e-12

    def test_airy_interior_point_against_mpmath(self):
        import mpmath as mp

        basis = cycle_basis(AIRY, 1.0)
        pv = integrate_period(AIRY, basis.cycles[0], 0, 1.0, tol=1e-12)
        expected = 2j * math.pi * complex(mp.airyai(1.0))
        assert abs(pv.value - expected) < 1e-12

    def test_bessel_loop_generating_function(self):
        basis = cycle_basis(BESSEL, 1.0)
        loop = next(c for c in basis.cycles if c.closed)
        pv = integrate_period(BESSEL, loop, -1, 1.0, tol=1e-12)
        expected = 2j * math.pi * bessel_j0_oracle(1)
        assert abs(pv.value - expected) < 1e-12 * abs(expected)

    def test_odd_integrand_vanishes(self):
        # u e^{-t u^2} integrates to zero along the even contour
        basis = cycle_basis(GAUSSIAN, 1.0)
        pv = integrate_period(GAUSSIAN, basis.cycles[0], 1, 1.0, tol=1e-10)
        assert abs(pv.value) < 1e-14

    def test_laurent_form_prefactor(self):
        # (u^-1 + u^0) against the Bessel loop: 2*pi*i*(J0(1) - J1(1))
        basis = cycle_basis(BESSEL, 1.0)
        loop = next(c for c in basis.cycles if c.closed)
        form = parse_laurent("u^-1 + 1")
        pv = integrate_period(BESSEL, loop, form, 1.0, tol=1e-12)
        j0 = bessel_j0_oracle(1)
        # J1 = -J0' via the series for J1: use finite product series
        j1 = 0.4400505857449335
        expected = 2j * math.pi * (j0 - j1)
        assert abs(pv.value - expected) < 1e-11


class TestTailBounds:
    def test_truncation_dominated_by_design_margin(self):
        basis = cycle_basis(AIRY, 0.0)
        pv = integrate_period(AIRY, basis.cycles[0], 0, 0.0, tol=1e-10)
        assert pv.truncation < 1e-20

    def test_growth_direction_rejected(self):
        # fabricate an endpoint pointing at a growth direction of e^{u}, and
        # one whose inward ray climbs e^{-1/u} into the puncture
        with pytest.raises(NonDecayingTail, match="outward"):
            _tail_bounds({1: 1.0 + 0j}, [{0: 1.0 + 0j}], 10.0 + 0j, False)
        with pytest.raises(NonDecayingTail, match="inward"):
            _tail_bounds({-1: -1.0 + 0j}, [{0: 1.0 + 0j}], -0.1 + 0j, True)

    def test_decay_direction_bound_is_small(self):
        (bound,) = _tail_bounds({1: 1.0 + 0j}, [{0: 1.0 + 0j}], -50.0 + 0j, False)
        assert bound < 2.1 * math.exp(-50.0)

    def test_per_end_bounds_match_per_form_formulas(self):
        # g(end), g'(end) and e^{Re g(end)} are shared by the forms of an end;
        # each bound must still be the per-form formula's, to 2 ulp
        from test_cycles import sweep_cases

        def per_form(pmap, gmap, end, into_zero):
            r = abs(end)
            m = sum(abs(c) * r ** k for k, c in pmap.items()) * math.exp(
                sum(c * end ** k for k, c in gmap.items()).real
            )
            if into_zero:
                slope = sum(k * c * end ** k for k, c in gmap.items()).real
                return 2.0 * m * r / (slope + (min(pmap) if pmap else 0) + 1.0)
            gprime = sum(k * c * end ** (k - 1) for k, c in gmap.items())
            slope = -(cmath.exp(1j * cmath.phase(end)) * gprime).real
            return 2.0 * m / (slope - max(max(pmap) if pmap else 0, 0) / r)

        kinds = set()
        for label, spec, t in sweep_cases():
            gmap = spec.g.coeffs_at(complex(t))
            pmaps = [{e: 1.0 + 0j} for e in fiber_basis(spec).exponents]
            for cyc in cycle_basis(spec, t).cycles:
                for tag, end in ((cyc.start, cyc.nodes[0]), (cyc.end, cyc.nodes[-1])):
                    if tag.kind == "interior":
                        continue
                    kinds.add(tag.kind)
                    into_zero = tag.kind == "valley_zero"
                    got = _tail_bounds(gmap, pmaps, end, into_zero)
                    for pmap, b in zip(pmaps, got):
                        want = per_form(pmap, gmap, end, into_zero)
                        assert abs(b - want) <= 2.0 * math.ulp(want), label
        assert kinds == {"valley_inf", "valley_zero"}


class TestPeriodMatrix:
    def test_gate_and_shape(self):
        for spec, t in ((AIRY, 0.0), (BESSEL, 1.0), (GAUSSIAN, 1.0)):
            basis = fiber_basis(spec)
            cb = cycle_basis(spec, t)
            P = period_matrix(spec, basis, cb, tol=1e-10)
            assert P.rank == basis.rank
            vals = P.values()
            assert vals.shape == (basis.rank, basis.rank)
            assert np.all(np.isfinite(vals))
            assert P.max_error() < 1e-8 * float(np.max(np.abs(vals))) + 1e-12

    def test_json_payload(self):
        basis = fiber_basis(GAUSSIAN)
        cb = cycle_basis(GAUSSIAN, 1.0)
        P = period_matrix(GAUSSIAN, basis, cb, tol=1e-10)
        d = P.to_json_dict()
        assert d["exponents"] == [0]
        assert len(d["entries"]) == 1 and len(d["entries"][0]) == 1
        assert d["entries"][0][0]["error"] >= 0.0


class TestExtendedPrecision:
    def test_matches_double_and_tightens_error(self):
        basis = cycle_basis(GAUSSIAN, 1.0)
        pv_double = integrate_period(GAUSSIAN, basis.cycles[0], 0, 1.0, tol=1e-12)
        pv_mp = integrate_period(GAUSSIAN, basis.cycles[0], 0, 1.0, dps=40)
        assert abs(pv_mp.value - pv_double.value) < 1e-13
        assert abs(pv_mp.value - math.sqrt(math.pi)) < 1e-15
        assert pv_mp.error < 1e-30  # meets the strict certified floor

    def test_airy_extended(self):
        basis = cycle_basis(AIRY, 0.0)
        pv = integrate_period(AIRY, basis.cycles[0], 0, 0.0, dps=35)
        assert abs(pv.value - airy_zero_oracle()) < 1e-14

    def test_neval_counts_nonzero_segments(self):
        # a repeated vertex adds a zero-length segment, which is neither
        # integrated nor counted
        cycle = cycle_basis(GAUSSIAN, 1.0).cycles[0]
        doubled = dataclasses.replace(cycle, nodes=cycle.nodes[:3] + cycle.nodes[2:])
        pv = integrate_period(GAUSSIAN, cycle, 0, 1.0, dps=20)
        pv2 = integrate_period(GAUSSIAN, doubled, 0, 1.0, dps=20)
        assert pv.neval == pv2.neval == len(cycle.nodes) - 1
        assert (pv2.value, pv2.error) == (pv.value, pv.error)


class TestAbsoluteIntegral:
    def test_triangle_inequality(self):
        # the absolute mass dominates the modulus of the period
        basis = cycle_basis(GAUSSIAN, 1.0)
        pv = integrate_period(GAUSSIAN, basis.cycles[0], 0, 1.0, tol=1e-10)
        scale = integrate_absolute(GAUSSIAN, basis.cycles[0], 0, 1.0, tol=1e-9)
        assert scale >= abs(pv.value)
        assert scale < 50.0  # and it is not wildly larger than the period

    def test_positive_for_nonzero_form(self):
        basis = cycle_basis(BESSEL, 1.0)
        scale = integrate_absolute(BESSEL, basis.cycles[0], 0, 1.0, tol=1e-6)
        assert scale > 0.0

    @pytest.mark.parametrize("spec,t", [(AIRY, 1.0 + 0.3j), (BESSEL, 1.0), (GAUSSIAN, 2.0)])
    def test_one_kernel_run_per_cycle(self, monkeypatch, spec, t):
        # one run over the arc length of the whole polyline, not one per segment
        import expperiods.quadrature as quadrature

        runs = []

        def counting(*args, **kwargs):
            runs.append(1)
            return _gk_vector(*args, **kwargs)

        basis = cycle_basis(spec, t)
        Q = parse_laurent("u^2 - t")
        monkeypatch.setattr(quadrature, "_gk_vector", counting)
        scales = [integrate_absolute(spec, c, Q, t, tol=1e-9) for c in basis.cycles]
        monkeypatch.undo()
        assert len(runs) == basis.rank
        # the per-segment sum of |Q e^g| |du| as the reference
        pmap, gmap = Q.coeffs_at(complex(t)), spec.g.coeffs_at(complex(t))
        for cycle, scale in zip(basis.cycles, scales):
            ref = 0.0
            for z0, z1 in zip(cycle.nodes, cycle.nodes[1:]):
                if z0 != z1:
                    ref += adaptive_polyline(
                        lambda s, z0=z0, z1=z1: abs(z1 - z0) * np.abs(
                            sum(c * (z0 + s * (z1 - z0)) ** k for k, c in pmap.items())
                            * np.exp(sum(c * (z0 + s * (z1 - z0)) ** k for k, c in gmap.items()))
                        ),
                        [0.0, 1.0],
                        1e-12,
                    )[0].real
            assert scale == pytest.approx(ref, rel=2e-9)


# The period sweep families of the benchmark, two admissible points each.
AFF, PUN = FiberType.AFFINE_LINE, FiberType.PUNCTURED_LINE
SWEEP = (
    ("airy", AFF, "u^3/3 - t*u", (-1.250303 + 0.539165j, -1.678685 - 0.761586j)),
    ("bessel", PUN, "(t/2)*(u - u^-1)", (-1.669467 + 0.877249j, 0.468178 + 1.20139j)),
    ("gaussian", AFF, "-t*u^2", (0.347356 + 0.658904j, 0.474327 + 1.044179j)),
    ("quartic", AFF, "u^4/4-t*u", (-1.199449 - 0.091141j, 0.967024 + 0.645314j)),
    ("punct4", PUN, "u^2+t*u+u^-2", (-1.590114 - 0.238783j, -0.61126 + 1.538988j)),
    ("ladder_deg5", AFF, "u^5/5-t*u^2+u", (1.224225 + 0.861377j, -0.031406 + 1.051346j)),
    ("ladder_punct6", PUN, "u^3+t*u-u^-3+t^2*u^-1", (0.89224 - 0.322484j, 1.77196 - 1.240835j)),
)
EPS = 2.0 ** -52


def power_operator_integrand(gmaps, pmaps):
    """The integrand with every power of u taken by numpy's ``**``, for
    polylines that share one t."""
    gmap, pmaps = gmaps[0], pmaps[0]
    ks = set(gmap).union(*pmaps)

    def f(u, own):
        pw = {k: 1.0 if k == 0 else u if k == 1 else u ** k for k in ks}
        zero = np.zeros(u.shape, dtype=complex)

        def ev(cmap):
            return sum((c * pw[k] for k, c in cmap.items()), zero)

        return np.stack([ev(p) for p in pmaps]) * np.exp(ev(gmap))

    return f


class TestIntegrand:
    @pytest.mark.parametrize("family", [f[0] for f in SWEEP])
    def test_no_less_accurate_than_power_operator(self, family):
        # at the first-round GK nodes of every cycle at the family's stored
        # points, the power table's largest relative error against a 40-digit
        # evaluation of the same double coefficients and nodes is at most that
        # of the ``**`` integrand (the error of exp(g) dominates both)
        import mpmath as mp
        from test_cycles import sweep_cases

        errs = {"table": 0.0, "power": 0.0}
        for label, spec, t in sweep_cases():
            if label != family:
                continue
            gmap = spec.g.coeffs_at(complex(t))
            exps = fiber_basis(spec).exponents
            pmaps = [{e: 1.0 + 0j} for e in exps]
            u = []
            for cyc in cycle_basis(spec, t).cycles:
                z = np.array(cyc.nodes)
                step = z[:-1] != z[1:]
                a, b = z[:-1][step], z[1:][step]
                u.append((0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * NODES)
            u = np.concatenate(u).ravel()
            lo, hi = min(min(gmap), min(exps), 0), max(max(gmap), max(exps))
            ref = np.empty((len(exps), u.size), dtype=complex)
            with mp.workdps(40):
                gm = {k: mp.mpc(c.real, c.imag) for k, c in gmap.items()}
                for i, x in enumerate(u):
                    x = mp.mpc(x.real, x.imag)
                    pw = {0: mp.mpc(1)}
                    for k in range(1, hi + 1):
                        pw[k] = pw[k - 1] * x
                    for k in range(1, -lo + 1):
                        pw[-k] = pw[1 - k] / x
                    e = mp.exp(mp.fsum(c * pw[k] for k, c in gm.items()))
                    ref[:, i] = [complex(pw[k] * e) for k in exps]
            keep = np.abs(ref) > 1e-280  # normal doubles: no underflow at far nodes
            builds = {"table": quadrature._integrand, "power": power_operator_integrand}
            for name, build in builds.items():
                with np.errstate(all="ignore"):
                    got = build([gmap], [pmaps])(u, None)
                rel = np.abs(got - ref)[keep] / np.abs(ref)[keep]
                errs[name] = max(errs[name], float(rel.max()))
        assert 0.0 < errs["table"] <= errs["power"], errs

    def test_sweep_entries_agree_with_power_operator_run(self, monkeypatch):
        # at every stored sweep point the period matrix stays certified
        # (period_matrix raises otherwise) and each entry agrees with the
        # ``**`` integrand's run within the sum of the two reported errors
        from test_cycles import sweep_cases

        cases = sweep_cases()
        assert len(cases) == 56
        table = quadrature._integrand
        for label, spec, t in cases:
            basis, cycles = fiber_basis(spec), cycle_basis(spec, t)
            got = period_matrix(spec, basis, cycles, tol=1e-10)
            monkeypatch.setattr(quadrature, "_integrand", power_operator_integrand)
            want = period_matrix(spec, basis, cycles, tol=1e-10)
            monkeypatch.setattr(quadrature, "_integrand", table)
            for row, wrow in zip(got.entries, want.entries):
                for e, w in zip(row, wrow):
                    assert abs(e.value - w.value) <= e.error + w.error, label


STENCIL_CASES = [c for c in verify_cases() if fiber_basis(c[1]).rank > 0]


class TestSeveralParameterValues:
    @pytest.mark.parametrize("label, spec, t", STENCIL_CASES, ids=[c[0] for c in STENCIL_CASES])
    def test_stencil_run_matches_separate_runs(self, label, spec, t):
        # check_ode's five matrices (the stored t and its cross stencil) from
        # one run: every entry agrees with the matrix's own run within the sum
        # of the two reported errors, and every cycle is refined as alone
        basis, base = fiber_basis(spec), cycle_basis(spec, t)
        h = 0.02 * max(1.0, abs(t))
        bases = [base] + [track_cycles(spec, base, [t, t + dt]) for dt in (h, -h, 1j * h, -1j * h)]
        together = period_matrices(spec, basis, bases, tol=1e-11)
        assert len(together) == 5
        for cycles, P in zip(bases, together):
            alone = period_matrix(spec, basis, cycles, tol=1e-11)
            assert P.t == cycles.t and P.rank == basis.rank
            for row, arow in zip(P.entries, alone.entries):
                for e, a in zip(row, arow):
                    assert e.neval == a.neval
                    assert abs(e.value - a.value) <= e.error + a.error

    def test_shared_run_keeps_every_check(self, monkeypatch):
        # the per-cycle budget, and the tail bounds of a shifted basis's cycle
        # taken with that basis's own coefficients, still raise from one run
        spec = make(FiberType.AFFINE_LINE, "u^5/5-t*u^2+u")
        basis, base = fiber_basis(spec), cycle_basis(spec, 1.224225 + 0.861377j)
        moved = track_cycles(spec, base, [base.t, base.t + 0.02])
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_BUDGET", len(base.cycles[0].nodes))
            with pytest.raises(ToleranceNotMet, match="budget"):
                period_matrices(spec, basis, [base, moved], tol=1e-10)
        base = cycle_basis(AIRY, 1.0)
        moved = track_cycles(AIRY, base, [1.0, 1.02])
        for cut, error, match in ((3, ToleranceNotMet, "tail truncation"),
                                  (5, NonDecayingTail, "outward")):
            # the first cycle cut short on both ends, nearer the hill of Re g
            short = dataclasses.replace(moved.cycles[0], nodes=moved.cycles[0].nodes[cut:-cut])
            cut_basis = dataclasses.replace(moved, cycles=(short,) + moved.cycles[1:])
            with pytest.raises(error, match=match) as exc:
                period_matrices(AIRY, fiber_basis(AIRY), [base, cut_basis], tol=1e-11)
            if cut == 3:  # the message names what was measured, and no missing option
                assert "cycle 2 exceeds the error target 0.3*(tol*|v| + err) =" in str(exc.value)
                assert "decay tolerance" not in str(exc.value)


class TestVectorKernel:
    @pytest.mark.parametrize("label, fiber, g, points", SWEEP, ids=[f[0] for f in SWEEP])
    def test_sweep_entries_certified_and_match_scalar_runs(self, label, fiber, g, points):
        spec = make(fiber, g, label)
        basis = fiber_basis(spec)
        tol = 1e-10
        for t in points:
            cycles = cycle_basis(spec, t)
            P = period_matrix(spec, basis, cycles, tol=tol)
            scale = float(np.max(np.abs(P.values())))
            for cyc, prow in zip(cycles.cycles, P.entries):
                (row,), (resabs,) = period_rows(spec, [cyc], basis.exponents, [t], tol)
                for k, e, alone, r in zip(basis.exponents, prow, row, resabs):
                    # the matrix's one run refines each cycle as a run of its own
                    # does; only the roundoff of the sums depends on the batch
                    assert e.neval == alone.neval
                    assert abs(e.value - alone.value) <= 4.0 * EPS * r
                    assert e.error <= tol * abs(e.value) + max(1e-30 * scale, 100.0 * EPS * r)
                    scalar = integrate_period(spec, cyc, k, t, tol=tol)
                    assert abs(e.value - scalar.value) <= e.error + scalar.error

    def test_components_certified_separately(self):
        # a unit constant, a tiny endpoint singularity, a tiny fast oscillation
        # and a near pole: a stop on the vector norm would accept the tiny ones
        # long before they meet their own targets
        pole = 0.5 + 0.01j

        def fs(u, own):
            return np.stack(
                [np.ones_like(u), 1e-6 * np.sqrt(u), 1e-8 * np.exp(100j * u), 1.0 / (u - pole)]
            )

        exact = [
            1.0,
            1e-6 * 2.0 / 3.0,
            1e-8 * (cmath.exp(100j) - 1) / 100j,
            cmath.log(1 - pole) - cmath.log(-pole),
        ]
        tol = 1e-11
        (values,), (errs,), (resabs,), (neval,) = _gk_vector(fs, [[0.0, 1.0]], tol)
        for v, e, r, x in zip(values, errs, resabs, exact):
            assert e <= tol * abs(v) + 100.0 * EPS * r
            assert abs(v - x) <= e
        assert neval % 15 == 0 and neval > 15

    def test_batch_refines_each_line_as_alone(self):
        # the panel errors of a line with a large value, and so a loose target,
        # dwarf those of a line that passes close by a pole: ranked together,
        # the second line's needs would bisect the first line's panels far
        # past its own target
        pole = -1.5 + 1e-3j

        def fs(u, own):
            return (np.exp(30.0 * u) + 1.0 / (u - pole))[None]

        lines = [[0.0, 1.0], [-2.0, -1.0]]
        tol = 1e-12
        values, errs, resabs, neval = _gk_vector(fs, lines, tol)
        alone = [_gk_vector(fs, [line], tol) for line in lines]
        assert neval == [run[3][0] for run in alone]
        assert all(type(n) is int for n in neval)
        for k, (z0, z1) in enumerate(lines):
            assert abs(values[k, 0] - alone[k][0][0, 0]) <= 4.0 * EPS * resabs[k, 0]
            exact = (cmath.exp(30.0 * z1) - cmath.exp(30.0 * z0)) / 30.0 + (
                cmath.log(z1 - pole) - cmath.log(z0 - pole)
            )
            assert abs(values[k, 0] - exact) <= errs[k, 0]

    def test_budget_counts_panels_per_line(self, monkeypatch):
        def fs(u, own):
            return np.exp(200j * u)[None]

        lines = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        # a split only adds edges, so a line's final panels lie between all
        # the edges of the panels evaluated on it
        edges = [set() for _ in lines]
        gk_panels = quadrature._gk_panels

        def spy(fs, a, b, own):
            for x, y, k in zip(a, b, own):
                edges[k].update((x, y))
            return gk_panels(fs, a, b, own)

        with monkeypatch.context() as m:
            m.setattr(quadrature, "_gk_panels", spy)
            neval = _gk_vector(fs, lines, 1e-12)[3]
        panels = [len(e) - 1 for e in edges]
        monkeypatch.setattr(quadrature, "_BUDGET", max(panels))
        assert sum(panels) > quadrature._BUDGET
        assert _gk_vector(fs, lines, 1e-12)[3] == neval
        monkeypatch.setattr(quadrature, "_BUDGET", max(panels) - 1)
        with pytest.raises(ToleranceNotMet, match="budget"):
            _gk_vector(fs, lines, 1e-12)

    def test_first_round_quarters_every_segment(self, monkeypatch):
        # the first round evaluates 4 equal panels on each segment of nonzero
        # length, in path order, and none on a zero-length one
        def fs(u, own):
            return np.exp(u)[None]

        lines = [[0.0, 1.0, 1.0, 3.0 + 1j], [2.0, 2.0], [-1.0, -1.0 + 2j]]
        calls = []
        gk_panels = quadrature._gk_panels

        def spy(fs, a, b, own):
            calls.append((a, b, own))
            return gk_panels(fs, a, b, own)

        monkeypatch.setattr(quadrature, "_gk_panels", spy)
        _gk_vector(fs, lines, 1e-10)
        a, b, own = calls[0]
        segments = [(0.0, 1.0, 0), (1.0, 3.0 + 1j, 0), (-1.0, -1.0 + 2j, 2)]
        cuts = [(z0 + (z1 - z0) * np.linspace(0.0, 1.0, 5), c) for z0, z1, c in segments]
        assert np.allclose(a, np.concatenate([z[:-1] for z, _ in cuts]), rtol=0, atol=1e-15)
        assert np.allclose(b, np.concatenate([z[1:] for z, _ in cuts]), rtol=0, atol=1e-15)
        assert list(own) == [c for _, c in cuts for _ in range(4)]
        # the last piece of a segment ends exactly at its end, so a line's panels join up
        assert np.array_equal(a[1:8], b[:7]) and np.array_equal(a[9:], b[8:-1])
        assert b[3] == 1.0 and b[7] == 3.0 + 1j and b[11] == -1.0 + 2j

    @pytest.mark.parametrize("over, pieces", [(1e2, 2), (1e6, 4)])
    def test_split_rule_halves_or_quarters(self, monkeypatch, over, pieces):
        # a fast oscillation on one segment, whose 4 first-round panels have one
        # error (a shift of u only turns the phase), planted ``over`` times
        # their share (half the target over 4 panels) by the choice of tol: a
        # refinement round halves each under _QUARTER times its share and
        # quarters each over it
        def fs(u, own):
            return np.exp(200j * u)[None]

        z0, z1 = 0.0, 2.0
        seeded = np.linspace(z0, z1, 5) + 0j
        kron, err, res = quadrature._gk_panels(fs, seeded[:-1], seeded[1:], np.zeros(4, int))
        assert np.allclose(err, err[0, 0], rtol=1e-9, atol=0)
        tol = (8.0 * err.max() / over - 50.0 * EPS * res.sum()) / abs(kron.sum())
        assert tol > 0.0 and (over > quadrature._QUARTER) == (pieces == 4)
        calls = []
        gk_panels = quadrature._gk_panels

        def spy(fs, a, b, own):
            calls.append((a, b))
            return gk_panels(fs, a, b, own)

        monkeypatch.setattr(quadrature, "_gk_panels", spy)
        (value,), (error,), _resabs, _neval = _gk_vector(fs, [[z0, z1]], tol)
        assert np.array_equal(calls[0][0], seeded[:-1]) and np.array_equal(calls[0][1], seeded[1:])
        cuts = np.linspace(z0, z1, 4 * pieces + 1)
        assert np.array_equal(calls[1][0], cuts[:-1]) and np.array_equal(calls[1][1], cuts[1:])
        exact = (cmath.exp(200j * z1) - cmath.exp(200j * z0)) / 200j
        assert abs(value[0] - exact) <= error[0]

    def test_deg5_sweep_point_in_three_rounds(self, monkeypatch):
        # with whole segments as its first panels, this ladder_deg5 point took
        # 6 rounds and 808 panels; the first-round quarters need at most 3
        # rounds, and no more panels
        spec = make(FiberType.AFFINE_LINE, "u^5/5-t*u^2+u")
        basis, cycles = fiber_basis(spec), cycle_basis(spec, 1.224225 + 0.861377j)
        panels = []
        gk_panels = quadrature._gk_panels

        def spy(fs, a, b, own):
            panels.append(len(a))
            return gk_panels(fs, a, b, own)

        monkeypatch.setattr(quadrature, "_gk_panels", spy)
        P = period_matrix(spec, basis, cycles, tol=1e-10)
        assert len(panels) <= 3 and sum(panels) <= 808
        assert sum(row[0].neval for row in P.entries) == 15 * sum(panels)

    def test_memory_grows_linearly_with_lines(self):
        # per round the kernel holds O(forms x panels): no (panels x lines)
        # owner matrix, no ranking of each failing entry over every panel
        basis, cycles = fiber_basis(AIRY), cycle_basis(AIRY, 1.0)
        fs = _integrand([AIRY.g.coeffs_at(1.0)], [[{k: 1.0 + 0j} for k in basis.exponents]])

        def peak(copies):
            tracemalloc.start()
            try:
                _gk_vector(fs, [cycles.cycles[0].nodes] * copies, 1e-10)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(256) <= 20 * peak(16)

    def test_line_without_panel_yields_zero(self):
        # a polyline whose nodes all coincide has no panel, among lines that do
        def fs(u, own):
            return np.stack([np.exp(30.0 * u), np.exp(200j * u)])

        lines = [[0.0, 1.0], [2.0, 2.0, 2.0], [1.0, 2.0]]
        values, errs, resabs, neval = _gk_vector(fs, lines, 1e-12)
        assert neval[1] == 0 and not values[1].any() and not errs[1].any() and not resabs[1].any()
        for k in (0, 2):
            alone = _gk_vector(fs, [lines[k]], 1e-12)
            assert neval[k] == alone[3][0] and np.array_equal(values[k], alone[0][0])

    @staticmethod
    def _run_with_rounds(monkeypatch, fs, lines, tol):
        """The kernel run's result and its ``_gk_panels`` calls, (a, b, own) per round."""
        calls = []
        gk_panels = quadrature._gk_panels

        def spy(fs, a, b, own):
            calls.append((a, b, own))
            return gk_panels(fs, a, b, own)

        with monkeypatch.context() as m:
            m.setattr(quadrature, "_gk_panels", spy)
            return _gk_vector(fs, lines, tol), calls

    def _assert_each_line_as_alone(self, monkeypatch, fs, lines, tol):
        """Round by round, each line's new panels are those of its run alone, and
        its value, error, resabs and neval are that run's, bit for bit; neval
        counts the panels evaluated on the line.  Returns the run and its calls."""
        run, calls = self._run_with_rounds(monkeypatch, fs, lines, tol)
        values, errs, resabs, neval = run
        for c, line in enumerate(lines):
            (v, e, r, (n,)), alone = self._run_with_rounds(monkeypatch, fs, [line], tol)
            # a line gets new panels in every round until it passes, and none after
            mine = [(a[own == c], b[own == c]) for a, b, own in calls if (own == c).any()]
            alone = [call for call in alone if len(call[0])]
            assert len(mine) == len(alone)
            for (a, b), (a1, b1, _own) in zip(mine, alone):
                assert a.tobytes() == a1.tobytes() and b.tobytes() == b1.tobytes()
            assert values[c].tobytes() == v[0].tobytes() and errs[c].tobytes() == e[0].tobytes()
            assert resabs[c].tobytes() == r[0].tobytes() and neval[c] == n
            assert n == 15 * sum(len(a) for a, _b in mine)
        return run, calls

    @staticmethod
    def _assert_exact(run, lines, exact, exact_abs):
        """Each line's values within their errors of the closed forms, and its
        resabs the closed-form integral of |f_j|."""
        values, errs, resabs, _neval = run
        for c, (z0, z1) in enumerate((line[0], line[-1]) for line in lines):
            for j, (f, g) in enumerate(zip(exact, exact_abs)):
                assert abs(values[c, j] - (f(z1) - f(z0))) <= errs[c, j]
                assert abs(resabs[c, j] - (g(z1) - g(z0))) <= 1e-12 * resabs[c, j]

    def test_later_round_splits_every_panel_of_two_lines(self, monkeypatch):
        # as in test_split_rule_halves_or_quarters, but on two lines at once:
        # tol plants each first-round panel 100 times over its share, so the
        # second round halves every panel of both lines, and no old one is kept
        def fs(u, own):
            return np.exp(200j * u)[None]

        # the lines' ends are not z0 + (z1 - z0): a last piece must end exactly at z1
        lines = [[0.7, 2.9], [1.2, 3.4]]
        seeded = np.linspace(0.7, 2.9, 5) + 0j
        kron, err, res = quadrature._gk_panels(fs, seeded[:-1], seeded[1:], np.zeros(4, int))
        tol = (8.0 * err.max() / 1e2 - 50.0 * EPS * res.sum()) / abs(kron.sum())
        run, calls = self._assert_each_line_as_alone(monkeypatch, fs, lines, tol)
        self._assert_exact(run, lines, [lambda z: cmath.exp(200j * z) / 200j], [lambda z: z])
        for r, pieces in ((0, 4), (1, 8)):
            a, b, own = calls[r]
            assert list(own) == [0] * pieces + [1] * pieces
            for c, (z0, z1) in enumerate(lines):
                # the pieces tile the line: each ends exactly where the next starts
                x, y = a[own == c], b[own == c]
                assert x[0] == z0 and y[-1] == z1 and np.array_equal(x[1:], y[:-1])
                assert np.allclose(x, np.linspace(z0, z1, pieces + 1)[:-1], rtol=0, atol=1e-14)

    def test_line_without_panel_between_lines_refined_past_round_one(self, monkeypatch):
        # the middle line's nodes coincide: it holds no panel in any round and
        # sums to 0; a pole near the first line's end splits some of its panels
        # and keeps others, round after round, and both outer lines refine as
        # they do alone
        pole = 2.15 + 0.05j

        def fs(u, own):
            return np.stack([np.exp(30.0 * u), 1.0 / (u - pole)])

        lines = [[0.1, 2.05], [7.0, 7.0], [3.3, 4.1, 5.2]]
        run, calls = self._assert_each_line_as_alone(monkeypatch, fs, lines, 1e-12)
        assert len(calls) > 2 and not any((own == 1).any() for _a, _b, own in calls)
        values, errs, resabs, neval = run
        assert neval[1] == 0 and not (values[1].any() or errs[1].any() or resabs[1].any())
        def exp30(z):
            return cmath.exp(30.0 * z) / 30.0

        self._assert_exact(
            (values[::2], errs[::2], resabs[::2], neval[::2]), lines[::2],
            [exp30, lambda z: cmath.log(z - pole)],
            [lambda z: exp30(z).real, lambda z: math.asinh((z - pole.real) / pole.imag)],
        )

    def test_lines_with_different_g_each_as_alone(self):
        # two copies of one segment in one run, each under its own g: every
        # line reads its own coefficients (the shared one stays a scalar) and
        # is refined exactly as in a run of its own
        gmaps = [{2: -1.0 + 0j, 1: 0.5j, 0: 0.25 + 0j}, {2: -3.0 + 1j, 1: 1.0 + 0j, 0: 0.25 + 0j}]
        pmaps = [{0: 1.0 + 0j}, {1: 1.0 + 0j}]
        merged = _merged(gmaps)
        assert merged[0] == 0.25 and merged[2].shape == merged[1].shape == (2, 1)
        line, tol = [-8.0, 8.0], 1e-12
        values, errs, resabs, neval = _gk_vector(
            _integrand(gmaps, [pmaps, pmaps]), [line, line], tol
        )
        for k, g in enumerate(gmaps):
            alone = _gk_vector(_integrand([g], [pmaps]), [line], tol)
            assert neval[k] == alone[3][0]
            a, b = -g[2], g[1]
            gauss = cmath.sqrt(math.pi / a) * cmath.exp(b * b / (4.0 * a) + g[0])
            for j, exact in enumerate((gauss, b / (2.0 * a) * gauss)):
                assert abs(values[k, j] - alone[0][0, j]) <= 4.0 * EPS * resabs[k, j]
                assert abs(values[k, j] - exact) <= errs[k, j]

    def test_non_finite_value_on_one_line_raises(self):
        # the midpoint node of the second line's first panel sits on the pole
        with pytest.raises(NonDecayingTail, match="overflow"):
            _gk_vector(
                lambda u, own: (1.0 / (u - 2.125))[None], [[0.0, 1.0], [2.0, 3.0]], 1e-10
            )

    def test_budget_exhaustion_raises(self, monkeypatch):
        spec = make(FiberType.AFFINE_LINE, "u^5/5-t*u^2+u")
        cycles = cycle_basis(spec, 1.224225 + 0.861377j)
        # fewer panels than the first round's quarters: the first refinement runs out
        monkeypatch.setattr(quadrature, "_BUDGET", len(cycles.cycles[0].nodes))
        with pytest.raises(ToleranceNotMet, match="budget"):
            period_matrix(spec, fiber_basis(spec), cycles, tol=1e-10)

    def test_overflow_raises_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonDecayingTail, match="overflow"):
                adaptive_polyline(lambda u: np.exp(800.0 * u), [0.0, 1.0], 1e-10)

    def test_rank_zero_gives_empty_matrix(self):
        spec = make(FiberType.AFFINE_LINE, "t*u", "linear")
        basis = fiber_basis(spec)
        assert basis.rank == 0
        empty = CycleBasis(t=1.0 + 0j, config=None, cycles=())
        P = period_matrix(spec, basis, empty, tol=1e-10)
        assert P.rank == 0 and P.entries == () and P.max_error() == 0.0

    def test_samples_rows_match_period_matrix(self, capsys):
        path = (1.0 + 0j, 1.5 + 0.5j)
        argv = ["samples", "fixtures/bessel.spec", "--path", "1", "1.5,0.5", "--n", "3"]
        assert main(argv + ["--cycle", "1"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        basis = fiber_basis(BESSEL)
        samples = [path[0] + (path[1] - path[0]) * k / 3 for k in range(4)]
        assert len(rows) == len(samples)
        current = cycle_basis(BESSEL, samples[0])
        for idx, (t, row) in enumerate(zip(samples, rows)):
            if idx > 0:
                current = track_cycles(BESSEL, current, [samples[idx - 1], t])
            assert complex(float(row[0]), float(row[1])) == pytest.approx(t, abs=1e-15)
            entries = period_matrix(BESSEL, basis, current, tol=1e-10).entries[1]
            for j, e in enumerate(entries):
                value = complex(float(row[2 + 3 * j]), float(row[3 + 3 * j]))
                err = float(row[4 + 3 * j]) * 1.001  # printed to 4 digits
                assert abs(value - e.value) <= err + e.error
