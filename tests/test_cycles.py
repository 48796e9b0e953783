"""Valley geometry, rapid-decay cycle construction, and continuation."""

import cmath
import importlib.util
import json
import math
from pathlib import Path

import pytest

from expperiods.cohomology import FiberType, ProblemSpec, fiber_basis
from expperiods.cycles import (
    cycle_basis,
    track_cycles,
    valley_config,
)
from expperiods.errors import AtSingularT, RankZero, SingularProximity
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


def sweep_cases():
    """(label, spec, t) for the stored points of the benchmark's sweep families."""
    loader = importlib.util.spec_from_file_location("bench_gen", BENCH / "gen.py")
    gen = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(gen)
    refs = json.loads((BENCH / "refs" / "references.json").read_text())
    fibers = {"affine_line": FiberType.AFFINE_LINE, "punctured_line": FiberType.PUNCTURED_LINE}
    return [
        (label, make(fibers[fiber], g, label), complex(*p["t"]))
        for label, fiber, g in gen.SWEEP
        for p in refs["sweep"][label]["points"]
    ]


def eval_g(spec, t, u):
    return spec.g.eval(t, u)


class TestValleyConfig:
    def test_airy_three_valleys(self):
        cfg = valley_config(AIRY, 0.0)
        centers = [s.center for s in cfg.at_infinity]
        assert centers == pytest.approx([math.pi / 3, math.pi, 5 * math.pi / 3])
        assert all(s.half_width == pytest.approx(math.pi / 6) for s in cfg.at_infinity)
        assert cfg.at_zero == ()

    def test_gaussian_two_valleys(self):
        cfg = valley_config(GAUSSIAN, 1.0)
        assert [s.center for s in cfg.at_infinity] == pytest.approx([0.0, math.pi])

    def test_bessel_valleys_both_ends(self):
        cfg = valley_config(BESSEL, 1.0)
        assert [s.center for s in cfg.at_infinity] == pytest.approx([math.pi])
        assert [s.center for s in cfg.at_zero] == pytest.approx([0.0])

    def test_centers_are_decay_directions(self):
        # Re g must be very negative along each valley center ray
        for spec, t in ((AIRY, 0.5 + 0.2j), (GAUSSIAN, 2.0), (BESSEL, 1.0 + 1.0j)):
            cfg = valley_config(spec, t)
            for s in cfg.at_infinity:
                u = 200.0 * cmath.exp(1j * s.center)
                assert eval_g(spec, t, u).real < -100.0
            for s in cfg.at_zero:
                u = 1e-4 * cmath.exp(1j * s.center)
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
            basis = cycle_basis(spec, t, tol=1e-12)
            for cyc in basis.cycles:
                if cyc.closed:
                    continue
                for node in (cyc.nodes[0], cyc.nodes[-1]):
                    # far below the design tolerance, with margin
                    assert eval_g(spec, t, node).real < math.log(1e-12)

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
        # _segment_distance is at most 1e-12
        from expperiods.cycles import EndTag, _cycle, _radii, _realize, _segment_distance

        cfg = valley_config(BESSEL, 1.0)
        r_inf, rho_w, _rho_in, r_zero = _radii(BESSEL, cfg, 1e-12)
        loop = EndTag("interior", -1)
        for rho_in in (0.99e-12, 1.01e-12, 1.03e-12, 0.5):
            nodes = _realize([(rho_in, 0.0), (rho_in, TWO_PI)], True)
            near = min(_segment_distance(a, b, 0.0) for a, b in zip(nodes, nodes[1:])) <= 1e-12
            assert near == (rho_in < 1.02e-12)
            radii = (r_inf, rho_w, rho_in, r_zero)
            if near:
                with pytest.raises(AssertionError, match="puncture"):
                    _cycle(BESSEL, loop, loop, 0, cfg, radii, 1e-12)
            else:
                assert _cycle(BESSEL, loop, loop, 0, cfg, radii, 1e-12).nodes == nodes

    def test_polyline_angular_resolution(self):
        basis = cycle_basis(AIRY, 0.0)
        for cyc in basis.cycles:
            for a, b in zip(cyc.nodes, cyc.nodes[1:]):
                if a != b:
                    assert abs(cmath.phase(b / a)) <= math.pi / 8 + 1e-9


class TestTracking:
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
        for s1, s2 in zip(one.config.at_infinity, two.config.at_infinity):
            assert s1.center == pytest.approx(s2.center, abs=1e-12)
        for c1, c2 in zip(one.cycles, two.cycles):
            assert c1.winding == c2.winding
            for z1, z2 in ((c1.nodes[0], c2.nodes[0]), (c1.nodes[-1], c2.nodes[-1])):
                assert cmath.phase(z2 / z1) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_full_loop_rotates_cycle_by_pi(self):
        # lc = -t turns by 2*pi; the d=2 valleys rotate by -pi
        basis = cycle_basis(GAUSSIAN, 1.0)
        loop = [cmath.exp(2j * math.pi * k / 24) for k in range(25)]
        moved = track_cycles(GAUSSIAN, basis, loop)
        for s0, s1 in zip(basis.config.at_infinity, moved.config.at_infinity):
            assert s1.center - s0.center == pytest.approx(-math.pi)
        c0, c1 = basis.cycles[0], moved.cycles[0]
        for z0, z1 in ((c0.nodes[0], c1.nodes[0]), (c0.nodes[-1], c1.nodes[-1])):
            assert abs(cmath.phase(z1 / z0)) == pytest.approx(math.pi)

    def test_bessel_full_loop_winds_families_oppositely(self):
        basis = cycle_basis(BESSEL, 1.0)
        loop = [cmath.exp(2j * math.pi * k / 24) for k in range(25)]
        moved = track_cycles(BESSEL, basis, loop)
        # zero-family centres advance by +2*pi, infinity-family centres by -2*pi
        assert moved.config.at_zero[0].center - basis.config.at_zero[0].center == (
            pytest.approx(TWO_PI)
        )
        assert moved.config.at_infinity[0].center - basis.config.at_infinity[0].center == (
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

    def test_hard_singularity_blocks_path(self):
        basis = cycle_basis(GAUSSIAN, 1.0)
        sigma = singular_set(GAUSSIAN)
        with pytest.raises(SingularProximity):
            track_cycles(GAUSSIAN, basis, [1.0, -1.0], singular=sigma)

    def test_soft_ball_does_not_block(self):
        # Airy's t = 0 ball is only a critical-point degeneration
        basis = cycle_basis(AIRY, 1.0)
        sigma = singular_set(AIRY)
        moved = track_cycles(AIRY, basis, [1.0, -1.0], singular=sigma)
        assert moved.t == -1.0

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
