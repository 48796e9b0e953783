"""Structural checks: solution property, duality, coboundaries, monodromy."""

import dataclasses
import math
import random

import numpy as np
import pytest

from expperiods import quadrature, singular, verify
from expperiods.cohomology import FiberType, ProblemSpec, connection_matrix, fiber_basis
from expperiods.cycles import EndTag, cycle_basis
from expperiods.errors import AtSingularT, SingularProximity
from expperiods.singular import CRITICAL_POINT_DEGENERATION, RootBall, singular_set
from expperiods.symbolic import parse_laurent
from expperiods.verify import (
    STOKES_SEED,
    check_duality,
    check_ode,
    check_stokes,
    monodromy,
    random_gauge,
    run_all,
)


def make(fiber, g, label=""):
    return ProblemSpec(fiber=fiber, g=parse_laurent(g), label=label)


AIRY = make(FiberType.AFFINE_LINE, "u^3/3 - t*u", "airy")
BESSEL = make(FiberType.PUNCTURED_LINE, "(t/2)*(u - u^-1)", "bessel")
GAUSSIAN = make(FiberType.AFFINE_LINE, "-t*u^2", "gaussian")
LINEAR = make(FiberType.AFFINE_LINE, "t*u", "linear")
# a critical-point ball at 0 (nearest to t = 1) and a hard ball at -2
SOFT_NEAREST = make(FiberType.AFFINE_LINE, "(t+2)*u^3/3 - t*u", "soft_nearest")


class TestOde:
    def test_residual_small_at_generic_points(self):
        for spec, t in ((AIRY, 1.0 + 0.5j), (BESSEL, 1.5), (GAUSSIAN, 2.0)):
            rec = check_ode(spec, t)
            assert rec.passed, rec
            assert rec.residual < 1e-6

    def test_airy_at_soft_singular_point(self):
        # t = 0 lies in a critical-point-degeneration ball, but the
        # connection is regular there: the check must still run and pass
        rec = check_ode(AIRY, 0.0)
        assert rec.passed

    def test_connection_with_66_coefficients(self):
        # p = t^33 in u^3 + p u clears the connection to 66 coefficients in t
        assert check_ode(make(FiberType.AFFINE_LINE, "u^3 + t^33*u"), 1.0).passed

    def test_rank_zero_vacuous(self):
        rec = check_ode(LINEAR, 1.0)
        assert rec.passed and rec.residual == 0.0

    def test_wrong_connection_fails(self):
        # Airy's periods against the connection of a nearby family: off by t^2/1000
        wrong = make(FiberType.AFFINE_LINE, "u^3/3 - (t + t^2/1000)*u")
        A = connection_matrix(wrong, fiber_basis(wrong))
        for t in (1.0, 2.0, 1.0 + 0.5j):
            rec = check_ode(AIRY, t, A=A)
            assert not rec.passed and rec.residual > 1e-3

    def test_one_step_one_transport_one_kernel_run(self, monkeypatch):
        # the basis is continued over one step, the solutions are transported
        # along it once, and P(t) and P(t + h) come from one quadrature run
        calls = []

        def count_calls(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        count_calls(quadrature, "_gk_vector")
        count_calls(verify, "track_cycles")
        count_calls(verify, "transport")
        for spec, t in ((AIRY, 1.0 + 0.5j), (BESSEL, 1.5), (GAUSSIAN, 2.0)):
            calls.clear()
            assert check_ode(spec, t).passed
            assert sorted(calls) == ["_gk_vector", "track_cycles", "transport"]

    def test_fails_exactly_on_known_failures(self):
        # on the fixtures and the verify pool at their stored points, check_ode
        # fails on exactly the ops that bench/refs records as failing
        from test_cycles import bench_gen_and_refs, verify_cases

        known = bench_gen_and_refs()[1]["known_failures"]["verify_battery"]
        failing = {
            label for label, spec, t in verify_cases() if not check_ode(spec, t).passed
        }
        # the transport step passes the two the finite-difference stencil failed on
        fixed = {"verify_aff01", "verify_pun02"}
        stored = {k.split(":")[1] for k in known if k.endswith(":check_ode")}
        assert fixed <= stored
        assert failing == stored - fixed
        assert len(failing) == 5


class TestStokes:
    def test_seeded_gauges_vanish(self):
        rng = random.Random(STOKES_SEED)
        for spec, t in ((AIRY, 1.0), (BESSEL, 1.0), (GAUSSIAN, 1.0 + 1.0j)):
            cycles = cycle_basis(spec, t)
            for i in range(8):
                q = random_gauge(spec, rng)
                rec = check_stokes(
                    spec, t, q, cycle=cycles.cycles[i % len(cycles.cycles)]
                )
                assert rec.passed, (spec.label, q.to_str(), rec.residual)

    def test_gauge_window_respects_fiber(self):
        rng = random.Random(5)
        for _ in range(50):
            q = random_gauge(AIRY, rng)
            assert q.u_order >= 0
            q = random_gauge(BESSEL, rng)
            assert q.u_order >= -3

    def test_rank_zero_vacuous(self):
        rec = check_stokes(LINEAR, 1.0, parse_laurent("u"))
        assert rec.passed

    def test_one_kernel_run_gives_the_scale(self, monkeypatch):
        # the scale is the resabs of the Q column of the check's one run; the
        # separate arc-length run of integrate_absolute is the reference
        calls = []

        def spy(name):
            real = getattr(quadrature, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(quadrature, name, wrapper)

        rng = random.Random(STOKES_SEED)
        for spec, t in ((AIRY, 1.0), (BESSEL, 1.0), (GAUSSIAN, 1.0 + 1.0j)):
            for cycle in cycle_basis(spec, t).cycles:
                q = random_gauge(spec, rng)
                spy("_gk_vector")
                spy("integrate_absolute")
                rec = check_stokes(spec, t, q, cycle=cycle)
                monkeypatch.undo()
                assert calls == ["_gk_vector"] and rec.passed
                calls.clear()
                ref = quadrature.integrate_absolute(spec, cycle, q, t, tol=1e-9)
                assert rec.details["scale"] == pytest.approx(ref, rel=1e-6)

    def test_integrated_map_is_the_coboundary_at_t(self, monkeypatch):
        # run_all's 5 STOKES_SEED gauges at its default t: each check integrates the
        # float coboundary and Q's own map, and the coboundary agrees with the exact
        # Q' + Q*g' taken at t to within the rounding of its products and sums
        from test_cycles import bench_gen_and_refs

        gen = bench_gen_and_refs()[0]
        families = [AIRY, BESSEL, GAUSSIAN, LINEAR] + [
            make(FiberType(fiber), g, name)
            for name, punct in (("map0", False), ("map1", False), ("map2", True), ("map3", True))
            for fiber, g in [gen.random_family(random.Random(name), punct, 1, 4, 2)]
        ]
        gauges, runs = [], []
        real_gauge, real_rows = verify.random_gauge, verify.period_rows

        def gauge_spy(spec, rng):
            gauges.append(real_gauge(spec, rng))
            return gauges[-1]

        def rows_spy(spec, cycles, forms, ts, tol=1e-10):
            if any(isinstance(f, dict) for f in forms):
                runs.append((forms, ts))
            return real_rows(spec, cycles, forms, ts, tol)

        monkeypatch.setattr(verify, "random_gauge", gauge_spy)
        monkeypatch.setattr(verify, "period_rows", rows_spy)
        # only the Stokes records are read: the other checks are stubbed out
        skip = verify._vacuous("skipped", "not under test")
        monkeypatch.setattr(verify, "check_ode", lambda *args, **kwargs: skip)
        monkeypatch.setattr(verify, "check_duality", lambda *args, **kwargs: skip)
        stub = verify.MonodromyResult(0j, 0j, (), (), (), skip)
        monkeypatch.setattr(verify, "monodromy", lambda *args, **kwargs: stub)
        eps = np.finfo(float).eps
        for spec in families:
            gauges.clear()
            runs.clear()
            report = run_all(spec)
            stokes = [r for r in report.records if r.name == "stokes_residual"]
            assert len(stokes) == 5 and len(gauges) == 5
            assert all(r.passed and r.residual < 1e-12 for r in stokes), (spec.label, stokes)
            assert len(runs) == (5 if fiber_basis(spec).rank else 0)
            for q, ((cob, qmap), ts) in zip(gauges, runs):
                assert ts == [report.t] and qmap == q.coeffs_at(report.t)
                dmap = spec.dg.coeffs_at(report.t)
                exact = (q.partial_u() + q * spec.dg).coeffs_at(report.t)
                assert 0 not in cob.values()
                for k in set(cob) | set(exact):
                    size = abs((k + 1) * qmap.get(k + 1, 0)) + sum(
                        abs(qmap[i]) * abs(dmap[k - i]) for i in qmap if k - i in dmap
                    )
                    gap = abs(cob.get(k, 0) - exact.get(k, 0))
                    assert gap <= 8 * eps * size, (spec.label, q.to_str(), k)

    def test_cut_cycle_fails(self):
        # a polyline cut off mid-way is no rapid-decay cycle: the coboundary's
        # integral is the boundary term Q e^g at the cut, far from zero
        cycle = cycle_basis(AIRY, 1.0).cycles[0]
        cut = dataclasses.replace(
            cycle, nodes=cycle.nodes[: len(cycle.nodes) // 2 + 1], end=EndTag("interior", -1)
        )
        q = random_gauge(AIRY, random.Random(STOKES_SEED))
        assert check_stokes(AIRY, 1.0, q, cycle=cycle).residual < 1e-14
        rec = check_stokes(AIRY, 1.0, q, cycle=cut)
        assert not rec.passed and rec.residual > 0.1


class TestDuality:
    def test_fixtures_nondegenerate(self):
        for spec, ts in (
            (AIRY, (0.0, 1.0, -2.0, 1.0 + 1.0j)),
            (BESSEL, (1.0, 2.0, 1.0 - 1.0j)),
            (GAUSSIAN, (1.0, 3.0, 0.5 + 0.5j)),
        ):
            for t in ts:
                rec = check_duality(spec, t)
                assert rec.passed, (spec.label, t, rec)
                assert rec.details["numeric_rank"] == fiber_basis(spec).rank

    def test_rank_zero_vacuous(self):
        rec = check_duality(LINEAR, 1.0)
        assert rec.passed


class TestMonodromy:
    def test_gaussian_is_minus_one(self):
        result = monodromy(GAUSSIAN, 0.0)
        assert result.record.passed
        m = np.array(result.m_cycle)
        assert m.shape == (1, 1)
        assert abs(m[0][0] + 1.0) < 1e-8
        assert abs(result.eigenvalues[0] + 1.0) < 1e-8

    def test_bessel_unipotent(self):
        result = monodromy(BESSEL, 0.0)
        assert result.record.passed
        assert result.record.residual < 1e-6
        for ev in result.eigenvalues:
            assert abs(ev - 1.0) < 1e-6
        m = np.array(result.m_cycle)
        # the loop cycle is fixed; the connecting path gains -2 loops
        assert abs(m[1][0]) < 1e-12 and abs(m[1][1] - 1.0) < 1e-12
        assert abs(m[0][1] + 2.0) < 1e-9

    def test_record_reports_transport_amplification(self):
        # a reading only: the product of 24 legs' spectral norms over the loop's, at least 1
        details = monodromy(BESSEL, 0.0).record.details
        assert details["transport_legs"] == 24
        assert 1.0 < details["transport_amplification"] < 1e4

    def test_unconverged_leg_is_named_with_its_clearance(self):
        # u^3 + t^33*u has no hard ball, so each side of the loop about 0 is one
        # leg of length 0.26 whose terms have not settled by order 400: the
        # error names the first such leg and its infinite clearance, no pole
        spec = make(FiberType.AFFINE_LINE, "u^3 + t^33*u", "t33")
        assert not singular_set(spec).hard_balls()
        with pytest.raises(AtSingularT, match=(
            r"did not converge by order 400: the leg from t=1\+0j of length 0\.261 "
            r"has clearance inf from the hard balls"
        )):
            monodromy(spec, 0, basepoint=1.0)

    def test_cycle_carried_back_onto_itself_keeps_its_row(self):
        # a loop about a ball of critical-point degeneration carries every cycle
        # back onto its own polyline; two of the five rows cancel down to no
        # correct digit, so the match holds only if such a cycle is integrated
        # once for P0 and P1
        spec = make(
            FiberType.PUNCTURED_LINE, "(-1)*u^4+(1)*u^3+(-2+t)*u^2+t*u+(1+t)*u^-1", "pun01"
        )
        sigma = singular_set(spec)
        soft = min(sigma.balls, key=lambda b: abs(b.center - (0.566831 + 0.731308j)))
        assert soft.provenance == (CRITICAL_POINT_DEGENERATION,)
        result = monodromy(spec, soft.center, singular=sigma)
        assert result.record.passed and result.record.residual < 1e-12

    def test_loop_enclosing_no_root_integrates_its_cycles_once(self, monkeypatch):
        # the bench's loop about verify_aff02's nearest ball encloses no root of
        # lc: its 3 cycles come back onto their own polylines, so the one kernel
        # run integrates each of them once, 3 polylines in all
        from test_cycles import verify_cases

        spec, t = next((spec, t) for label, spec, t in verify_cases() if label == "verify_aff02")
        sigma = singular_set(spec)
        nearest = min(sigma.balls, key=lambda b: abs(b.center - t))
        runs = []
        real = quadrature._gk_vector

        def spy(fs, polylines, tol):
            runs.append(len(polylines))
            return real(fs, polylines, tol)

        monkeypatch.setattr(quadrature, "_gk_vector", spy)
        monodromy(spec, nearest.center, singular=sigma)
        assert runs == [3]

    def test_bessel_matches_to_1e_12(self):
        result = monodromy(BESSEL, 0.0)
        assert result.record.residual <= 1e-12
        assert result.record.details["transport_legs"] == 24

    def test_given_singular_set_builds_no_connection(self, monkeypatch):
        # the set carries the connection it was derived from, and the checks read it there
        sigma = singular_set(BESSEL)

        def refuse(*args):
            raise AssertionError("a second connection was derived")

        monkeypatch.setattr(verify, "connection_matrix", refuse, raising=False)
        monkeypatch.setattr(singular, "connection_matrix", refuse)
        assert monodromy(BESSEL, 0.0, singular=sigma).record.passed
        assert check_ode(BESSEL, 1.5, singular=sigma).passed

    def test_default_basepoint_subtracts_ball_radii(self):
        # a wide ball at 2: the basepoint sits halfway to its rim, not its centre
        sigma = singular_set(GAUSSIAN)
        wide = RootBall(
            center=2.0 + 0j, radius=1.0, multiplicity=1, provenance=(CRITICAL_POINT_DEGENERATION,)
        )
        sigma = dataclasses.replace(sigma, balls=sigma.balls + (wide,))
        result = monodromy(GAUSSIAN, 0.0, singular=sigma)
        assert result.basepoint == 0.5
        assert result.record.passed

    def test_empty_loop_is_identity(self):
        result = monodromy(GAUSSIAN, 2.0, basepoint=2.5)
        m = np.array(result.m_cycle)
        assert abs(m[0][0] - 1.0) < 1e-8

    def test_airy_entire_connection_trivial(self):
        result = monodromy(AIRY, 0.0, basepoint=1.0)
        m = np.array(result.m_cycle)
        assert np.linalg.norm(m - np.eye(2)) < 1e-8

    def test_loop_through_pole_rejected(self):
        with pytest.raises(SingularProximity, match="monodromy loop about"):
            monodromy(GAUSSIAN, 0.5, basepoint=1.0)  # circle passes through 0

    def test_path_into_hard_ball_refused_by_transport(self):
        # the transport runs before the cycles move, so a path through the
        # Gaussian's pole at 0 is refused by the step rule, not by track_cycles
        basis, sigma = fiber_basis(GAUSSIAN), singular_set(GAUSSIAN)
        A = connection_matrix(GAUSSIAN, basis)
        base = cycle_basis(GAUSSIAN, 1.0)
        with pytest.raises(SingularProximity):
            verify._continue(GAUSSIAN, basis, A, sigma, base, [1.0, -1.0], 1e-10)

    def test_huge_entries_do_not_overflow(self):
        # entries near 1e173 overflow an unscaled Frobenius norm (RuntimeWarning
        # and a NaN residual); scaled, the mismatch is a finite failing residual
        spec = make(FiberType.PUNCTURED_LINE, "(1-2*t)*u^3+(-2-2*t)*u^2+t*u+(2+t)*u^-2")
        sigma = singular_set(spec)
        nearest = min(sigma.hard_balls(), key=lambda b: abs(b.center - 2.0))
        result = monodromy(spec, nearest.center, singular=sigma)
        assert np.abs(np.array(result.m_ode)).max() > 1e150
        assert math.isfinite(result.record.residual) and not result.record.passed

    def test_rank_zero_empty(self):
        result = monodromy(LINEAR, 0.0)
        assert result.record.passed
        assert result.m_cycle == ()


class TestRunAll:
    def test_all_fixtures_pass(self):
        for spec in (AIRY, BESSEL, GAUSSIAN, LINEAR):
            report = run_all(spec, n_stokes=3)
            assert report.passed, [
                (r.name, r.residual) for r in report.records if not r.passed
            ]

    def test_report_serialization(self):
        report = run_all(GAUSSIAN, n_stokes=2)
        d = report.to_json_dict()
        assert d["passed"] is True
        assert {c["name"] for c in d["checks"]} >= {
            "ode_residual",
            "duality_det",
            "stokes_residual",
            "monodromy_match",
        }

    def test_loops_about_nearest_hard_ball(self):
        report = run_all(SOFT_NEAREST, n_stokes=1)
        rec = report.records[-1]
        assert rec.name == "monodromy_match" and rec.passed
        assert rec.details["center"] == [-2.0, 0.0]

    def test_no_hard_ball_gives_vacuous_monodromy(self):
        # Airy's only ball at 0 marks colliding critical points; A is entire
        rec = run_all(AIRY, n_stokes=1).records[-1]
        assert rec.name == "monodromy_match" and rec.passed
        assert "no hard singular ball" in rec.details["note"]

    @pytest.mark.parametrize("n_stokes", [0, 2])
    def test_rank_zero_report_has_every_check(self, n_stokes):
        # at rank zero the report lists the same checks as at positive rank,
        # n_stokes Stokes records included, each vacuous
        report = run_all(LINEAR, n_stokes=n_stokes)
        names = [r.name for r in report.records]
        assert names == ["ode_residual", "duality_det"] + ["stokes_residual"] * n_stokes + [
            "monodromy_match"
        ]
        assert all(r.passed and r.residual == 0.0 for r in report.records)

    def test_deterministic_given_seed(self):
        r1 = run_all(GAUSSIAN, seed=7, n_stokes=2)
        r2 = run_all(GAUSSIAN, seed=7, n_stokes=2)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_one_cycle_basis_for_duality_and_stokes(self, monkeypatch):
        built = []

        def counting(spec, t, *args):
            built.append(complex(t))
            return real(spec, t, *args)

        real = verify.cycle_basis
        monkeypatch.setattr(verify, "cycle_basis", counting)
        report = run_all(BESSEL, n_stokes=3)
        assert report.passed
        # the one basis that run_all shares (check_ode included), and the
        # monodromy loop's base (here also at t = 1)
        assert built == [report.t] * 2

    def test_one_connection_matrix(self, monkeypatch):
        built = []

        def counting(spec, basis):
            built.append(spec)
            return real(spec, basis)

        # singular_set derives it; verify reads it from the set
        real = singular.connection_matrix
        monkeypatch.setattr(singular, "connection_matrix", counting)
        monkeypatch.setattr(verify, "connection_matrix", counting, raising=False)
        assert run_all(BESSEL, n_stokes=1).passed
        assert len(built) == 1

