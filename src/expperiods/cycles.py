"""Rapid-decay integration cycles and their continuation in the parameter.

A rapid-decay cycle is a polyline in the u-plane whose non-compact ends run
into valleys where Re g -> -infinity (at u = infinity, and at u = 0 for the
punctured line).  The basis consists of

* paths between consecutive valleys at infinity,
* paths between consecutive valleys at zero (punctured line),
* one path from a valley at zero to a valley at infinity (punctured line),
* one closed loop around u = 0 (punctured line).

A valley is its centre angle, and a cycle is its two ends (valley indices)
and an integer winding: the number of 2*pi turns of the infinity end of the
zero-to-infinity path.  One function, ``_cycle``, builds the polyline from
these and the unwrapped valley centres of a ``ValleyConfig``.  Continuation
moves the centres with the rotation of the leading coefficients, taken in
closed form by the argument principle: the change of arg lc along a path is
the sum, over the roots of lc, of the angle that each leg subtends there.  So
the ends deform continuously, including their winding, rather than jumping
between branch choices, and no step is taken; the cycles are then rebuilt at
the new parameter value.  A closed loop turns arg lc by whole turns, so a
loop that encloses no root of lc gives back the very same cycles.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cohomology import FiberType, ProblemSpec, fiber_basis
from .errors import AtSingularT, NonDecayingTail, RankZero
from .singular import segment_distances, squarefree_decomposition
from .symbolic import TPoly

TWO_PI = 2.0 * math.pi
# maximum angular sweep between realized polyline nodes
_MAX_SWEEP = math.pi / 8.0
# |e^g| demanded at cycle endpoints, and the extra decay (nats) of the truncation radii
_DECAY_TOL = 1e-12
_DECAY_MARGIN = 40.0


@dataclass(frozen=True)
class ValleyConfig(object):
    """Valleys of Re g at u = infinity and (punctured line) u = 0, each its centre angle.

    The n valleys of a family have half-width pi/(2n).  Continuation adds the drift
    -arg(lc_inf)/d or +arg(lc_zero)/e to the centres, unwrapped: a closed loop turns
    arg lc by whole turns, so one enclosing no root of lc leaves them as they were.
    """

    t: complex
    at_infinity: tuple  # float centre angles
    at_zero: tuple  # float centre angles; empty tuple on the affine line
    gmap: dict = field(compare=False, repr=False)  # g's numeric coefficients at t


@dataclass(frozen=True)
class EndTag(object):
    """Where a cycle end lives: a valley, or the compact interior."""

    kind: str  # "valley_inf" | "valley_zero" | "interior"
    index: int  # valley index; -1 for interior


@dataclass(frozen=True)
class RapidDecayCycle(object):
    nodes: tuple  # realized polyline vertices (complex)
    start: EndTag
    end: EndTag
    winding: int  # 2*pi turns of the infinity end of a zero-to-infinity path
    r_inf: float  # truncation radius at infinity (0.0 if no such end)
    r_zero: float  # truncation radius at zero (0.0 if no such end)

    @property
    def closed(self) -> bool:
        return self.start.kind == "interior"


@dataclass(frozen=True)
class CycleBasis(object):
    t: complex
    config: ValleyConfig
    cycles: tuple

    @property
    def rank(self) -> int:
        return len(self.cycles)

    def to_json_dict(self) -> dict:
        def tag(e):
            return {"kind": e.kind, "index": e.index}

        def valleys(centers):  # a valley's index is its position; its half-width pi/(2n)
            return [{"index": j, "center": c, "half_width": math.pi / (2 * len(centers))}
                    for j, c in enumerate(centers)]

        return {
            "t": [self.t.real, self.t.imag],
            "config": {
                "at_infinity": valleys(self.config.at_infinity),
                "at_zero": valleys(self.config.at_zero),
            },
            "cycles": [
                {
                    "start": tag(c.start),
                    "end": tag(c.end),
                    "closed": c.closed,
                    "r_inf": c.r_inf,
                    "r_zero": c.r_zero,
                    "winding": c.winding,
                    "nodes": [[z.real, z.imag] for z in c.nodes],
                }
                for c in self.cycles
            ],
        }


# ---------------------------------------------------------------------------
# Valley geometry at a fixed parameter value
# ---------------------------------------------------------------------------


def _leading_coefficients(spec: ProblemSpec, gmap: dict, t: complex):
    """(lc_inf, lc_zero) from g's coefficient map at t; AtSingularT if either is negligible."""
    big = max((abs(c) for c in gmap.values()), default=0.0)
    lcs = {"top": gmap.get(spec.top_degree, 0j)}
    if spec.fiber is FiberType.PUNCTURED_LINE:
        lcs["bottom"] = gmap.get(spec.bottom_order, 0j)
    for end, lc in lcs.items():
        if abs(lc) <= 1e-13 * (1.0 + big):
            raise AtSingularT(
                f"{end} leading coefficient too small against the others at t={t}: "
                f"|lc(t)| = {abs(lc):.3g}, largest coefficient {big:.3g}"
            )
    return lcs["top"], lcs.get("bottom")


def valley_config(spec: ProblemSpec, t: complex) -> ValleyConfig:
    """Valley centre angles of e^{g(u, t)} at the given parameter value.

    The centres of each family are sorted in [0, 2*pi).

    Raises:
        AtSingularT: if a leading coefficient vanishes at t, so the valley
            structure is not defined.
    """
    t = complex(t)
    gmap = spec.g.coeffs_at(t)
    lc_inf, lc_zero = _leading_coefficients(spec, gmap, t)

    def centers(base: float, n: int):
        return tuple(sorted((base + TWO_PI * j / n) % TWO_PI for j in range(n)))

    d = spec.top_degree
    at_zero = ()
    if lc_zero is not None:
        e = -spec.bottom_order
        at_zero = centers((cmath.phase(lc_zero) - math.pi) / e, e)
    return ValleyConfig(
        t=t, at_infinity=centers((math.pi - cmath.phase(lc_inf)) / d, d), at_zero=at_zero,
        gmap=gmap,
    )


def _radii(spec: ProblemSpec, cfg: ValleyConfig):
    """The ring radii (r_inf, rho_w, rho_in, r_zero) of the cycles at cfg.t.

    rho_w = 1 + max|critical point| and rho_in = min(1, min|critical point|/2)
    enclose and avoid the critical points; r_inf and r_zero are truncation
    radii with Re g <= log(_DECAY_TOL) - _DECAY_MARGIN on every centre ray.

    Raises:
        NonDecayingTail: if no radius gives the demanded decay.
    """
    gmap = cfg.gmap
    gp = {k - 1: k * c for k, c in gmap.items() if k}  # critical points of g (poles cleared)
    lo, hi = min(min(gp), 0), max(gp)
    coeffs = [gp.get(k, 0j) for k in range(hi, lo - 1, -1)]
    crit = [abs(complex(z)) for z in np.roots(coeffs)] if len(coeffs) > 1 else []
    rho_w = 1.0 + max(crit, default=0.0)
    rho_in = min(1.0, min((c / 2.0 for c in crit), default=1.0))
    target = -math.log(_DECAY_TOL) + _DECAY_MARGIN

    def search(r: float, factor: float, centers, where: str) -> float:
        for _ in range(200):
            rays = (r * cmath.exp(1j * a) for a in centers)
            if all(sum(c * u ** k for k, c in gmap.items()).real <= -target for u in rays):
                return r
            r *= factor
        raise NonDecayingTail(f"no radius gives the demanded decay at {where}")

    d = spec.top_degree
    lc_inf = abs(gmap[d])
    r_inf = search(
        max((2.0 * target / lc_inf) ** (1.0 / d), 2.5 * rho_w + 1.0), 1.25, cfg.at_infinity,
        "infinity",
    )
    r_zero = 0.0
    if cfg.at_zero:
        e = -spec.bottom_order
        lc_zero = abs(gmap[-e])
        r_zero = search(
            min(rho_in / 2.0, (lc_zero / (2.0 * target)) ** (1.0 / e)), 0.6, cfg.at_zero, "zero"
        )
    return r_inf, rho_w, rho_in, r_zero


def _realize(ring, closed: bool):
    """Polyline through (radius, angle) vertices, log-radius and angle linear between."""
    pts = [cmath.rect(*ring[0])]
    for (r0, a0), (r1, a1) in zip(ring, ring[1:]):
        lr0, lr1 = math.log(r0), math.log(r1)
        sweep = max(abs(a1 - a0), abs(lr1 - lr0))
        # the 1e-9 keeps a sweep of exactly k*_MAX_SWEEP at k steps under rounding
        nsub = max(1, math.ceil(sweep / _MAX_SWEEP - 1e-9))
        for s in range(1, nsub + 1):
            frac = s / nsub
            pts.append(cmath.rect(math.exp(lr0 + (lr1 - lr0) * frac), a0 + (a1 - a0) * frac))
    if closed:
        pts[-1] = pts[0]
    return tuple(pts)


def _cycle(spec: ProblemSpec, start: EndTag, end: EndTag, winding: int, cfg: ValleyConfig,
           radii) -> RapidDecayCycle:
    """The one builder of a cycle: its polyline at cfg.t from its ends and winding.

    Paths leave a valley centre ray at the truncation radius, turn at
    2*rho_w (infinity) or rho_in (zero), and cross between valleys on the
    ring rho_w or rho_in; the loop is the circle of radius rho_in.
    """
    r_inf, rho_w, rho_in, r_zero = radii
    inf, zero = cfg.at_infinity, cfg.at_zero
    if start.kind == "interior":  # counterclockwise loop around the puncture
        ring = [(rho_in, 0.0), (rho_in, TWO_PI)]
    elif end.kind == "valley_zero":
        a, b = zero[start.index], zero[end.index]
        ring = [(r_zero, a), (rho_in, a), (rho_in, b), (r_zero, b)]
    elif start.kind == "valley_zero":
        phi, theta = zero[start.index], inf[end.index] + TWO_PI * winding
        ring = [(r_zero, phi), (rho_in, phi), (2.0 * rho_w, theta), (r_inf, theta)]
    else:  # an infinity-to-infinity path wraps once when its end index does not rise
        a = inf[start.index]
        b = inf[end.index] + (TWO_PI if end.index <= start.index else 0.0)
        ring = [(r_inf, a), (2.0 * rho_w, a), (rho_w, 0.5 * (a + b)), (2.0 * rho_w, b),
                (r_inf, b)]
    ends = (start.kind, end.kind)
    cycle = RapidDecayCycle(
        nodes=_realize(ring, start.kind == "interior"),
        start=start,
        end=end,
        winding=winding,
        r_inf=r_inf if "valley_inf" in ends else 0.0,
        r_zero=r_zero if "valley_zero" in ends else 0.0,
    )
    target = -math.log(_DECAY_TOL)
    for tag, node in ((start, cycle.nodes[0]), (end, cycle.nodes[-1])):
        if tag.kind != "interior":
            decay = sum(c * node ** k for k, c in cfg.gmap.items()).real
            assert decay < -target, (
                "cycle endpoint must sit deep in a decay valley "
                f"(Re g = {decay:.3g} at {node})"
            )
    if spec.fiber is FiberType.PUNCTURED_LINE:
        assert segment_distances(cycle.nodes, [0j]).min() > 1e-12, (
            "cycle must stay away from the puncture at u = 0"
        )
    return cycle


def cycle_basis(spec: ProblemSpec, t: complex) -> CycleBasis:
    """Construct the standard rapid-decay cycle basis at parameter t.

    The number of cycles equals the cohomology rank.  Truncation radii are
    chosen so that |e^{g}| < _DECAY_TOL * e^{-_DECAY_MARGIN} at every open end.

    Raises:
        RankZero: if the cohomology rank is zero (no cycles to build).
        AtSingularT: if a leading coefficient vanishes at t.
    """
    t = complex(t)
    rank = fiber_basis(spec).rank
    if rank == 0:
        raise RankZero("the family has rank zero; there is no cycle basis")
    cfg = valley_config(spec, t)
    d = spec.top_degree

    if spec.fiber is FiberType.PUNCTURED_LINE:
        pairs = [(j - 1, j) for j in range(1, d)]
    else:
        pairs = [(d - 1, 0)] + [(j - 1, j) for j in range(1, d - 1)]
    ends = [(EndTag("valley_inf", i0), EndTag("valley_inf", i1), 0) for i0, i1 in pairs]
    if spec.fiber is FiberType.PUNCTURED_LINE:
        e = -spec.bottom_order
        ends += [(EndTag("valley_zero", j - 1), EndTag("valley_zero", j), 0) for j in range(1, e)]
        # one path from a valley at zero to the turn of valley 0 at infinity
        # whose angle lies in (phi - pi, phi + pi]
        phi, theta = cfg.at_zero[0], cfg.at_infinity[0]
        winding = -math.floor((theta - phi + math.pi - 1e-9) / TWO_PI)
        ends.append((EndTag("valley_zero", 0), EndTag("valley_inf", 0), winding))
        ends.append((EndTag("interior", -1), EndTag("interior", -1), 0))

    radii = _radii(spec, cfg)
    cycles = tuple(_cycle(spec, a, b, w, cfg, radii) for a, b, w in ends)
    assert len(cycles) == rank, "cycle count must match the cohomology rank"
    return CycleBasis(t=t, config=cfg, cycles=cycles)


# ---------------------------------------------------------------------------
# Continuation of a basis along a parameter path
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _roots(lc: TPoly) -> np.ndarray:
    """The roots of lc, each repeated by its multiplicity: numpy's roots of each
    exact squarefree factor, so that a multiple root is not split into a cluster."""
    roots = np.array([
        z
        for q, mult in squarefree_decomposition(lc)
        for z in np.roots([float(c) for c in reversed(q.coeffs)])
        for _ in range(mult)
    ], complex)
    roots.setflags(write=False)  # the cache hands this one array to every caller
    return roots


def _arg_change(lc: TPoly, path: np.ndarray) -> float:
    """The change of arg lc(t) along the polyline ``path``: by the argument
    principle, the sum over the roots z of lc of the angle phase((b - z) / (a - z))
    that each leg [a, b] subtends at z.  On a closed path each root's total is
    rounded to its whole number of turns.

    Raises:
        AtSingularT: if a leg runs through a root: within 1e-12 of it, relative
            to the size of the root and of the path.
    """
    z = _roots(lc)
    if (segment_distances(path, z) <= 1e-12 * (1.0 + np.abs(path).max() + np.abs(z))).any():
        raise AtSingularT(f"the path runs through a zero of {lc.to_str()}")
    angles = np.angle((path[1:, None] - z) / (path[:-1, None] - z))
    if path[0] == path[-1]:
        return TWO_PI * float(np.round(angles.sum(axis=0) / TWO_PI).sum())
    return float(angles.sum())


def track_cycles(spec: ProblemSpec, basis: CycleBasis, path) -> CycleBasis:
    """Continue a cycle basis along a polyline path in the t-plane.

    The valley centres at infinity and at zero turn with -arg(lc_inf)/d and
    +arg(lc_zero)/e respectively.  The change of each argument along the path
    is taken in closed form by the argument principle (:func:`_arg_change`),
    so windings accumulate exactly and no step is taken; g's coefficients are
    evaluated once, at the end of the path, where the cycles are rebuilt from
    their ends and windings on the moved centres.

    No singular set is needed: the valleys, and so the cycles, degenerate only
    at a zero of a leading coefficient, and :func:`_arg_change` refuses every
    leg within 1e-12 relative of such a zero.  Balls of critical-point
    degeneration are no obstacle, and every pole of the connection is a zero
    of a leading coefficient, since ``reduce_form`` divides only by those.

    Raises:
        AtSingularT: if the path runs through a zero of a leading coefficient.
    """
    path = [complex(p) for p in path]
    if not path:
        return basis
    if abs(path[0] - basis.t) > 1e-9 * (1.0 + abs(basis.t)):
        raise ValueError("continuation path must start at the basis parameter")

    vertices = np.array(path)
    d = spec.top_degree
    drift_inf = -_arg_change(spec.g.coeff(d), vertices) / d
    drift_zero = 0.0
    if spec.fiber is FiberType.PUNCTURED_LINE:
        drift_zero = _arg_change(spec.g.coeff(spec.bottom_order), vertices) / -spec.bottom_order
    gmap = spec.g.coeffs_at(path[-1])
    _leading_coefficients(spec, gmap, path[-1])  # the end admits a fresh basis too

    cfg = ValleyConfig(
        t=path[-1],
        at_infinity=tuple(a + drift_inf for a in basis.config.at_infinity),
        at_zero=tuple(a + drift_zero for a in basis.config.at_zero),
        gmap=gmap,
    )
    radii = _radii(spec, cfg)
    cycles = tuple(_cycle(spec, c.start, c.end, c.winding, cfg, radii) for c in basis.cycles)
    return CycleBasis(t=cfg.t, config=cfg, cycles=cycles)
