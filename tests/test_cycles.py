"""Valley geometry, rapid-decay cycle construction, and continuation."""

import cmath
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from expperiods.cli import main, parse_complex_arg
from expperiods.cohomology import FiberType, ProblemSpec, fiber_basis
from expperiods.cycles import (
    cycle_basis,
    track_cycles,
    valley_config,
)
from expperiods.errors import AtSingularT, RankZero
from expperiods.singular import singular_set
from expperiods.symbolic import parse_laurent

TWO_PI = 2.0 * math.pi


def make(fiber, g, label=""):
    return ProblemSpec(fiber=fiber, g=parse_laurent(g), label=label)


AIRY = make(FiberType.AFFINE_LINE, "u^3/3 - t*u", "airy")
BESSEL = make(FiberType.PUNCTURED_LINE, "(t/2)*(u - u^-1)", "bessel")
GAUSSIAN = make(FiberType.AFFINE_LINE, "-t*u^2", "gaussian")
LINEAR = make(FiberType.AFFINE_LINE, "t*u", "linear")


BENCH = Path(__file__).resolve().parents[1] / "bench"


FIBERS = {"affine_line": FiberType.AFFINE_LINE, "punctured_line": FiberType.PUNCTURED_LINE}


def bench_gen_and_refs():
    """The benchmark's family generator module and its stored references."""
    loader = importlib.util.spec_from_file_location("bench_gen", BENCH / "gen.py")
    gen = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(gen)
    return gen, json.loads((BENCH / "refs" / "references.json").read_text())


def sweep_cases():
    """(label, spec, t) for the stored points of the benchmark's sweep families."""
    gen, refs = bench_gen_and_refs()
    return [
        (label, make(FIBERS[fiber], g, label), complex(*p["t"]))
        for label, fiber, g in gen.SWEEP
        for p in refs["sweep"][label]["points"]
    ]


def verify_cases():
    """(label, spec, t) for the fixtures and the verify pool at their stored points."""
    gen, refs = bench_gen_and_refs()
    return [
        (label, make(FIBERS[fiber], g, label), complex(*refs["verify"][label]["t"]))
        for label, fiber, g in list(gen.FIXTURES) + gen.pool(gen.VERIFY_POOL)
    ]


def eval_g(spec, t, u):
    return sum(c * u ** k for k, c in spec.g.coeffs_at(t).items())


class TestValleyConfig:
    def test_airy_three_valleys(self):
        cfg = valley_config(AIRY, 0.0)
        assert list(cfg.at_infinity) == pytest.approx([math.pi / 3, math.pi, 5 * math.pi / 3])
        valleys = cycle_basis(AIRY, 0.0).to_json_dict()["config"]["at_infinity"]
        assert all(v["half_width"] == pytest.approx(math.pi / 6) for v in valleys)
        assert cfg.at_zero == ()

    def test_gaussian_two_valleys(self):
        cfg = valley_config(GAUSSIAN, 1.0)
        assert list(cfg.at_infinity) == pytest.approx([0.0, math.pi])

    def test_bessel_valleys_both_ends(self):
        cfg = valley_config(BESSEL, 1.0)
        assert list(cfg.at_infinity) == pytest.approx([math.pi])
        assert list(cfg.at_zero) == pytest.approx([0.0])

    def test_centers_are_decay_directions(self):
        # Re g must be very negative along each valley center ray
        for spec, t in ((AIRY, 0.5 + 0.2j), (GAUSSIAN, 2.0), (BESSEL, 1.0 + 1.0j)):
            cfg = valley_config(spec, t)
            for a in cfg.at_infinity:
                u = 200.0 * cmath.exp(1j * a)
                assert eval_g(spec, t, u).real < -100.0
            for a in cfg.at_zero:
                u = 1e-4 * cmath.exp(1j * a)
                assert eval_g(spec, t, u).real < -100.0

    def test_singular_t_rejected(self):
        with pytest.raises(AtSingularT):
            valley_config(GAUSSIAN, 0.0)
        with pytest.raises(AtSingularT):
            valley_config(BESSEL, 0.0)


class TestCycleBasis:
    def test_counts_match_rank(self):
        for spec in (AIRY, BESSEL, GAUSSIAN):
            basis = cycle_basis(spec, 1.0)
            assert basis.rank == fiber_basis(spec).rank

    def test_rank_zero_raises(self):
        with pytest.raises(RankZero):
            cycle_basis(LINEAR, 1.0)

    def test_airy_first_cycle_is_classical_thimble(self):
        basis = cycle_basis(AIRY, 0.0)
        c0 = basis.cycles[0]
        # from the 5*pi/3 valley to the pi/3 valley (continued upward by 2*pi)
        assert c0.start.index == 2 and c0.end.index == 0
        assert cmath.phase(c0.nodes[0]) == pytest.approx(-math.pi / 3)
        assert cmath.phase(c0.nodes[-1]) == pytest.approx(math.pi / 3)

    def test_endpoints_decay(self):
        for spec, t in ((AIRY, 1.0), (GAUSSIAN, 1.0 + 2.0j), (BESSEL, 0.5)):
            basis = cycle_basis(spec, t)
            for cyc in basis.cycles:
                if cyc.closed:
                    continue
                for node in (cyc.nodes[0], cyc.nodes[-1]):
                    # below the endpoint decay 1e-12 (the radii add a 40-nat margin)
                    assert eval_g(spec, t, node).real < math.log(1e-12)

    def test_json_valleys_by_position_and_one_tolerance(self):
        # a valley prints its position as index and pi/(2n) as half-width
        for spec in (AIRY, BESSEL):
            basis = cycle_basis(spec, 1.0)
            d = basis.to_json_dict()
            for key in ("at_infinity", "at_zero"):
                centers = getattr(basis.config, key)
                assert d["config"][key] == [
                    {"index": j, "center": a, "half_width": math.pi / (2 * len(centers))}
                    for j, a in enumerate(centers)
                ]

    def test_bessel_structure(self):
        basis = cycle_basis(BESSEL, 1.0)
        kinds = [(c.start.kind, c.end.kind, c.closed) for c in basis.cycles]
        assert kinds == [
            ("valley_zero", "valley_inf", False),
            ("interior", "interior", True),
        ]
        loop = basis.cycles[1]
        assert loop.nodes[0] == loop.nodes[-1]
        # counterclockwise winding number one around the puncture
        winding = sum(
            cmath.phase(b / a) for a, b in zip(loop.nodes, loop.nodes[1:])
        )
        assert winding == pytest.approx(TWO_PI)

    def test_punctured_cycles_avoid_origin(self):
        basis = cycle_basis(BESSEL, 2.0)
        for cyc in basis.cycles:
            assert min(abs(z) for z in cyc.nodes) > 1e-12

    def test_puncture_guard_measures_segments(self):
        # the guard in _cycle must reject a loop whose vertices clear 1e-12
        # but whose chords do not, exactly when the per-segment distance of
        # segment_distances is at most 1e-12
        from expperiods.cycles import EndTag, _cycle, _radii, _realize
        from expperiods.singular import segment_distances

        cfg = valley_config(BESSEL, 1.0)
        r_inf, rho_w, _rho_in, r_zero = _radii(BESSEL, cfg)
        loop = EndTag("interior", -1)
        for rho_in in (0.99e-12, 1.01e-12, 1.03e-12, 0.5):
            nodes = _realize([(rho_in, 0.0), (rho_in, TWO_PI)], True)
            near = segment_distances(nodes, [0j]).min() <= 1e-12
            assert near == (rho_in < 1.02e-12)
            radii = (r_inf, rho_w, rho_in, r_zero)
            if near:
                with pytest.raises(AssertionError, match="puncture"):
                    _cycle(BESSEL, loop, loop, 0, cfg, radii)
            else:
                assert _cycle(BESSEL, loop, loop, 0, cfg, radii).nodes == nodes

    def test_polyline_angular_resolution(self):
        basis = cycle_basis(AIRY, 0.0)
        for cyc in basis.cycles:
            for a, b in zip(cyc.nodes, cyc.nodes[1:]):
                if a != b:
                    assert abs(cmath.phase(b / a)) <= math.pi / 8 + 1e-9


class TestTracking:
    def test_loop_enclosing_no_root_of_lc_gives_back_the_cycles(self):
        # a closed loop turns arg lc by whole turns about each root of lc, so a
        # loop that encloses none gives back the very same cycles: over the
        # loops about every ball of the verify pool (24-gon, default basepoint)
        loops = 0
        for _label, spec, _t in verify_cases():
            if fiber_basis(spec).rank == 0:
                continue
            sigma = singular_set(spec)
            lcs = [spec.g.coeff(spec.top_degree)]
            if spec.fiber is FiberType.PUNCTURED_LINE:
                lcs.append(spec.g.coeff(spec.bottom_order))
            roots = [z for lc in lcs for z in np.roots([float(c) for c in reversed(lc.coeffs)])]
            for ball in sigma.balls:
                c = ball.center
                gaps = [abs(b.center - c) - b.radius for b in sigma.balls if b is not ball]
                rho = min(gaps, default=2.0) / 2.0
                if any(abs(z - c) < rho for z in roots):
                    continue
                loop = [c + rho * cmath.exp(2j * math.pi * k / 24) for k in range(24)]
                base = cycle_basis(spec, c + rho)
                moved = track_cycles(spec, base, loop + [c + rho])
                assert moved.cycles == base.cycles
                loops += 1
        assert loops == 48

    def test_trivial_path_is_identity(self):
        basis = cycle_basis(GAUSSIAN, 1.0)
        moved = track_cycles(GAUSSIAN, basis, [1.0, 1.0])
        assert moved == basis

    def test_path_must_start_at_basis_point(self):
        basis = cycle_basis(GAUSSIAN, 1.0)
        with pytest.raises(ValueError):
            track_cycles(GAUSSIAN, basis, [2.0, 1.0])

    def test_step_composition(self):
        # one leg and the same leg split in two give identical centres and ends
        basis = cycle_basis(AIRY, 1.0)
        one = track_cycles(AIRY, basis, [1.0, 1.0 + 1.0j])
        mid = track_cycles(AIRY, basis, [1.0, 1.0 + 0.5j])
        two = track_cycles(AIRY, mid, [1.0 + 0.5j, 1.0 + 1.0j])
        for a1, a2 in zip(one.config.at_infinity, two.config.at_infinity):
            assert a1 == pytest.approx(a2, abs=1e-12)
        for c1, c2 in zip(one.cycles, two.cycles):
            assert c1.winding == c2.winding
            for z1, z2 in ((c1.nodes[0], c2.nodes[0]), (c1.nodes[-1], c2.nodes[-1])):
                assert cmath.phase(z2 / z1) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_full_loop_rotates_cycle_by_pi(self):
        # lc = -t turns by 2*pi; the d=2 valleys rotate by -pi
        basis = cycle_basis(GAUSSIAN, 1.0)
        loop = [cmath.exp(2j * math.pi * k / 24) for k in range(25)]
        moved = track_cycles(GAUSSIAN, basis, loop)
        for a0, a1 in zip(basis.config.at_infinity, moved.config.at_infinity):
            assert a1 - a0 == pytest.approx(-math.pi)
        c0, c1 = basis.cycles[0], moved.cycles[0]
        for z0, z1 in ((c0.nodes[0], c1.nodes[0]), (c0.nodes[-1], c1.nodes[-1])):
            assert abs(cmath.phase(z1 / z0)) == pytest.approx(math.pi)

    def test_bessel_full_loop_winds_families_oppositely(self):
        basis = cycle_basis(BESSEL, 1.0)
        loop = [cmath.exp(2j * math.pi * k / 24) for k in range(25)]
        moved = track_cycles(BESSEL, basis, loop)
        # zero-family centres advance by +2*pi, infinity-family centres by -2*pi
        assert moved.config.at_zero[0] - basis.config.at_zero[0] == pytest.approx(TWO_PI)
        assert moved.config.at_infinity[0] - basis.config.at_infinity[0] == (
            pytest.approx(-TWO_PI)
        )
        conn = moved.cycles[0]  # the zero-to-infinity path
        base = basis.cycles[0]
        assert conn.winding == base.winding
        for z0, z1 in ((base.nodes[0], conn.nodes[0]), (base.nodes[-1], conn.nodes[-1])):
            assert cmath.phase(z1 / z0) == pytest.approx(0.0, abs=1e-9)

        def turning(nodes):
            return sum(cmath.phase(b / a) for a, b in zip(nodes, nodes[1:]))

        # so the path turns 4*pi less about the puncture between its ends
        assert turning(conn.nodes) - turning(base.nodes) == pytest.approx(-2.0 * TWO_PI)
        # the loop cycle never moves
        assert moved.cycles[1].nodes == basis.cycles[1].nodes

    def test_loop_about_both_roots_of_quadratic_lc(self):
        # lc = t^2 + 1 has roots +-i; the circle |t| = 2 turns arg lc by 4*pi,
        # so the d = 3 valleys rotate by exactly -4*pi/3
        spec = make(FiberType.AFFINE_LINE, "(t^2+1)*u^3/3 - u")
        basis = cycle_basis(spec, 2.0)
        loop = [2.0 * cmath.exp(2j * math.pi * k / 24) for k in range(25)]
        moved = track_cycles(spec, basis, loop)
        for a0, a1 in zip(basis.config.at_infinity, moved.config.at_infinity, strict=True):
            assert abs((a1 - a0) - (-2.0 * TWO_PI / 3)) <= 1e-14

    def test_path_near_root_needs_no_extra_vertex(self):
        # a leg passing 1e-10 above Gaussian's root t = 0 (no singular set given)
        # moves the basis as the same path with a vertex at its closest point
        basis = cycle_basis(GAUSSIAN, 1.0 + 1e-10j)
        one = track_cycles(GAUSSIAN, basis, [1.0 + 1e-10j, -1.0 + 1e-10j])
        two = track_cycles(GAUSSIAN, basis, [1.0 + 1e-10j, 1e-10j, -1.0 + 1e-10j])
        turn = math.pi - 2.0 * math.atan(1e-10)  # the angle the leg subtends at 0
        for a0, a1, a2 in zip(basis.config.at_infinity, one.config.at_infinity,
                              two.config.at_infinity, strict=True):
            assert abs((a1 - a0) - (-turn / 2)) <= 1e-14
            assert abs(a1 - a2) <= 1e-14
        for c1, c2 in zip(one.cycles, two.cycles, strict=True):
            assert (c1.start, c1.end, c1.winding) == (c2.start, c2.end, c2.winding)
            assert len(c1.nodes) == len(c2.nodes)
            for z1, z2 in zip(c1.nodes, c2.nodes):
                assert abs(z1 - z2) <= 1e-13 * abs(z2)

    @pytest.mark.parametrize("path", [["1", "-1"], ["1", "0"], ["1", "0,1", "0", "-1"]])
    def test_path_through_root_raises(self, capsys, path):
        basis = cycle_basis(GAUSSIAN, 1.0)
        with pytest.raises(AtSingularT):
            track_cycles(GAUSSIAN, basis, [parse_complex_arg(t) for t in path])
        # samples tracks its cycle the same way, so it refuses the path too: exit 2
        assert main(["samples", "fixtures/gaussian.spec", "--path", *path, "--n", "2"]) == 2
        assert "precondition violated" in capsys.readouterr().err

    def test_soft_ball_does_not_block(self):
        # Airy's t = 0 ball is only a critical-point degeneration
        basis = cycle_basis(AIRY, 1.0)
        moved = track_cycles(AIRY, basis, [1.0, -1.0])
        assert moved.t == -1.0

    def test_exact_coefficients_evaluated_once_per_parameter(self, monkeypatch):
        # cycle_basis evaluates g's exact coefficients once, and track_cycles
        # once per call, at the end of its path; the valleys, radii and
        # endpoint checks read the numeric map that the config carries
        from expperiods.symbolic import TPoly

        calls = []
        real = TPoly.eval

        def counting(self, x):
            calls.append(x)
            return real(self, x)

        monkeypatch.setattr(TPoly, "eval", counting)
        for spec, t in ((AIRY, 1.0 + 0.5j), (BESSEL, 1.5)):
            calls.clear()
            base = cycle_basis(spec, t)
            assert len(calls) == len(spec.g.terms)
            calls.clear()
            moved = track_cycles(spec, base, [t, t + 0.05, t + 0.1j])
            assert len(calls) == len(spec.g.terms)
            for cb in (base, moved):
                assert cb.config.gmap == spec.g.coeffs_at(cb.t)

    def test_radii_refresh_with_parameter(self):
        basis = cycle_basis(GAUSSIAN, 1.0)
        far = track_cycles(GAUSSIAN, basis, [1.0, 4.0])
        fresh = cycle_basis(GAUSSIAN, 4.0)
        assert far.cycles[0].r_inf == pytest.approx(fresh.cycles[0].r_inf)
        assert far.cycles[0].r_inf < basis.cycles[0].r_inf

    @pytest.mark.parametrize("dt", [0.02, -0.02, 0.02j, -0.02j])
    def test_short_step_matches_fresh_basis(self, dt):
        # a short step moves no valley across the [0, 2*pi) cut at the sweep
        # points, so tracking must rebuild the basis built afresh at t + dt
        for label, spec, t in sweep_cases():
            moved = track_cycles(spec, cycle_basis(spec, t), [t, t + dt])
            fresh = cycle_basis(spec, t + dt)
            for cm, cf in zip(moved.cycles, fresh.cycles, strict=True):
                assert (cm.start, cm.end, cm.winding) == (cf.start, cf.end, cf.winding), label
                assert len(cm.nodes) == len(cf.nodes), (label, t, dt)
                for zm, zf in zip(cm.nodes, cf.nodes):
                    assert abs(zm - zf) <= 1e-13 * abs(zf), (label, t, dt)
