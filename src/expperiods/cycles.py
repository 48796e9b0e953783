"""Rapid-decay integration cycles and their continuation in the parameter.

A rapid-decay cycle is a polyline in the u-plane whose non-compact ends run
into valleys where Re g -> -infinity (at u = infinity, and at u = 0 for the
punctured line).  The basis consists of

* paths between consecutive valleys at infinity,
* paths between consecutive valleys at zero (punctured line),
* one path from a valley at zero to a valley at infinity (punctured line),
* one closed loop around u = 0 (punctured line).

A cycle is its two ends (valley indices) and an integer winding: the number
of 2*pi turns of the infinity end of the zero-to-infinity path.  One function,
``_cycle``, builds the polyline from these and the unwrapped valley centres
of a ``ValleyConfig``.  Continuation moves the centres with the rotation of
the leading coefficients, so the ends deform continuously, including their
winding, rather than jumping between branch choices; the cycles are then
rebuilt at the new parameter value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .cohomology import FiberType, ProblemSpec, fiber_basis
from .errors import (
    AtSingularT,
    NonDecayingTail,
    RankZero,
    SingularProximity,
    StepCollision,
)

TWO_PI = 2.0 * math.pi
# maximum angular sweep between realized polyline nodes
_MAX_SWEEP = math.pi / 8.0
# extra decay demanded at cycle endpoints beyond the design tolerance (nats)
_DECAY_MARGIN = 40.0


@dataclass(frozen=True)
class Sector(object):
    """An angular valley sector: rays with |angle - center| <= half_width."""

    index: int
    center: float
    half_width: float


@dataclass(frozen=True)
class ValleyConfig(object):
    """Valley sectors of Re g at u = infinity and (punctured line) u = 0."""

    t: complex
    at_infinity: tuple
    at_zero: tuple  # empty tuple on the affine line


@dataclass(frozen=True)
class EndTag(object):
    """Where a cycle end lives: a valley sector, or the compact interior."""

    kind: str  # "valley_inf" | "valley_zero" | "interior"
    index: int  # sector index; -1 for interior


@dataclass(frozen=True)
class RapidDecayCycle(object):
    nodes: tuple  # realized polyline vertices (complex)
    start: EndTag
    end: EndTag
    winding: int  # 2*pi turns of the infinity end of a zero-to-infinity path
    r_inf: float  # truncation radius at infinity (0.0 if no such end)
    r_zero: float  # truncation radius at zero (0.0 if no such end)
    tol: float  # decay tolerance the truncation radii were designed for

    @property
    def closed(self) -> bool:
        return self.start.kind == "interior"


@dataclass(frozen=True)
class CycleBasis(object):
    t: complex
    config: ValleyConfig
    cycles: tuple
    tol: float

    @property
    def rank(self) -> int:
        return len(self.cycles)

    def to_json_dict(self) -> dict:
        def tag(e):
            return {"kind": e.kind, "index": e.index}

        return {
            "t": [self.t.real, self.t.imag],
            "tol": self.tol,
            "config": {
                "at_infinity": [
                    {"index": s.index, "center": s.center, "half_width": s.half_width}
                    for s in self.config.at_infinity
                ],
                "at_zero": [
                    {"index": s.index, "center": s.center, "half_width": s.half_width}
                    for s in self.config.at_zero
                ],
            },
            "cycles": [
                {
                    "start": tag(c.start),
                    "end": tag(c.end),
                    "closed": c.closed,
                    "r_inf": c.r_inf,
                    "r_zero": c.r_zero,
                    "tol": c.tol,
                    "winding": c.winding,
                    "nodes": [[z.real, z.imag] for z in c.nodes],
                }
                for c in self.cycles
            ],
        }


# ---------------------------------------------------------------------------
# Valley geometry at a fixed parameter value
# ---------------------------------------------------------------------------


def _leading_coefficients(spec: ProblemSpec, t: complex):
    """(lc_inf, lc_zero) at t; AtSingularT if either vanishes numerically."""
    t = complex(t)
    scale = 1.0 + max(
        (abs(c.eval(t)) for c in spec.g.terms.values()), default=0.0
    )
    lc_inf = complex(spec.g.top_coeff().eval(t))
    if abs(lc_inf) <= 1e-13 * scale:
        raise AtSingularT(f"top leading coefficient vanishes at t={t}")
    lc_zero = None
    if spec.fiber is FiberType.PUNCTURED_LINE:
        lc_zero = complex(spec.g.bottom_coeff().eval(t))
        if abs(lc_zero) <= 1e-13 * scale:
            raise AtSingularT(f"bottom leading coefficient vanishes at t={t}")
    return lc_inf, lc_zero


def valley_config(spec: ProblemSpec, t: complex) -> ValleyConfig:
    """Valley sectors of e^{g(u, t)} at the given parameter value.

    The centres of each family are sorted in [0, 2*pi).

    Raises:
        AtSingularT: if a leading coefficient vanishes at t, so the valley
            structure is not defined.
    """
    t = complex(t)
    lc_inf, lc_zero = _leading_coefficients(spec, t)

    def sectors(base: float, n: int):
        centers = sorted((base + TWO_PI * j / n) % TWO_PI for j in range(n))
        return tuple(
            Sector(index=j, center=c, half_width=math.pi / (2 * n))
            for j, c in enumerate(centers)
        )

    d = spec.top_degree
    zero_sectors = ()
    if lc_zero is not None:
        e = -spec.bottom_order
        zero_sectors = sectors((cmath.phase(lc_zero) - math.pi) / e, e)
    return ValleyConfig(
        t=t,
        at_infinity=sectors((math.pi - cmath.phase(lc_inf)) / d, d),
        at_zero=zero_sectors,
    )


def _radii(spec: ProblemSpec, cfg: ValleyConfig, tol: float):
    """The ring radii (r_inf, rho_w, rho_in, r_zero) of the cycles at cfg.t.

    rho_w = 1 + max|critical point| and rho_in = min(1, min|critical point|/2)
    enclose and avoid the critical points; r_inf and r_zero are truncation
    radii with Re g <= log(tol) - 40 on every valley centre ray of cfg.

    Raises:
        NonDecayingTail: if no radius gives the demanded decay.
    """
    gmap = spec.g.coeffs_at(cfg.t)
    gp = {k - 1: k * c for k, c in gmap.items() if k}  # critical points of g (poles cleared)
    lo, hi = min(min(gp), 0), max(gp)
    coeffs = [gp.get(k, 0j) for k in range(hi, lo - 1, -1)]
    crit = [abs(complex(z)) for z in np.roots(coeffs)] if len(coeffs) > 1 else []
    rho_w = 1.0 + max(crit, default=0.0)
    rho_in = min(1.0, min((c / 2.0 for c in crit), default=1.0))
    target = -math.log(tol) + _DECAY_MARGIN

    def search(r: float, factor: float, sectors, where: str) -> float:
        for _ in range(200):
            rays = (r * cmath.exp(1j * s.center) for s in sectors)
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


def _segment_distance(a: complex, b: complex, p: complex) -> float:
    """Distance from point p to the segment [a, b]."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    s = ((p - a) * ab.conjugate()).real / denom
    s = min(1.0, max(0.0, s))
    return abs(p - (a + s * ab))


def _cycle(spec: ProblemSpec, start: EndTag, end: EndTag, winding: int, cfg: ValleyConfig,
           radii, tol: float) -> RapidDecayCycle:
    """The one builder of a cycle: its polyline at cfg.t from its ends and winding.

    Paths leave a valley centre ray at the truncation radius, turn at
    2*rho_w (infinity) or rho_in (zero), and cross between valleys on the
    ring rho_w or rho_in; the loop is the circle of radius rho_in.
    """
    r_inf, rho_w, rho_in, r_zero = radii
    inf = [s.center for s in cfg.at_infinity]
    zero = [s.center for s in cfg.at_zero]
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
        tol=tol,
    )
    target = -math.log(tol)
    for tag, node in ((start, cycle.nodes[0]), (end, cycle.nodes[-1])):
        if tag.kind != "interior":
            decay = spec.g.eval(cfg.t, node).real
            assert decay < -target, (
                "cycle endpoint must sit deep in a decay valley "
                f"(Re g = {decay:.3g} at {node})"
            )
    if spec.fiber is FiberType.PUNCTURED_LINE:
        z = np.array(cycle.nodes)  # the point of each segment [a, a + ab] nearest to 0
        a, ab = z[:-1], np.diff(z)
        den = np.abs(ab) ** 2
        s = np.clip(-(a * ab.conj()).real / np.where(den > 0.0, den, 1.0), 0.0, 1.0)
        assert np.abs(a + s * ab).min() > 1e-12, "cycle must stay away from the puncture at u = 0"
    return cycle


def cycle_basis(spec: ProblemSpec, t: complex, tol: float = 1e-12) -> CycleBasis:
    """Construct the standard rapid-decay cycle basis at parameter t.

    The number of cycles equals the cohomology rank.  Truncation radii are
    chosen so that |e^{g}| < tol * e^{-40} at every non-compact endpoint.

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
        phi, theta = cfg.at_zero[0].center, cfg.at_infinity[0].center
        winding = -math.floor((theta - phi + math.pi - 1e-9) / TWO_PI)
        ends.append((EndTag("valley_zero", 0), EndTag("valley_inf", 0), winding))
        ends.append((EndTag("interior", -1), EndTag("interior", -1), 0))

    radii = _radii(spec, cfg, tol)
    cycles = tuple(_cycle(spec, a, b, w, cfg, radii, tol) for a, b, w in ends)
    assert len(cycles) == rank, "cycle count must match the cohomology rank"
    return CycleBasis(t=t, config=cfg, cycles=cycles, tol=tol)


# ---------------------------------------------------------------------------
# Continuation of a basis along a parameter path
# ---------------------------------------------------------------------------


def track_cycles(spec: ProblemSpec, basis: CycleBasis, path, singular=None) -> CycleBasis:
    """Continue a cycle basis along a polyline path in the t-plane.

    The valley centres at infinity and at zero rotate with -arg(lc_inf)/d and
    +arg(lc_zero)/e respectively; steps are bisected until each leading
    coefficient turns by at most pi/4 per step, so the argument is tracked
    continuously and windings accumulate geometrically.  The cycles are then
    rebuilt from their ends and windings on the moved centres.

    Args:
        singular: optional SingularSet; legs must keep a distance of at least
            twice the certified radius from every *hard* ball (vanishing
            leading coefficients and connection poles).  Balls that only mark
            critical-point degeneration are not obstacles to continuation.

    Raises:
        SingularProximity: if the path passes too close to a singular ball.
        StepCollision: if step bisection fails to converge.
        AtSingularT: if a leading coefficient vanishes along the path.
    """
    path = [complex(p) for p in path]
    if not path:
        return basis
    if abs(path[0] - basis.t) > 1e-9 * (1.0 + abs(basis.t)):
        raise ValueError("continuation path must start at the basis parameter")

    d = spec.top_degree
    e = -spec.bottom_order if spec.fiber is FiberType.PUNCTURED_LINE else 0

    def lcs(t):
        return _leading_coefficients(spec, t)

    drift_inf = 0.0
    drift_zero = 0.0
    cur = path[0]
    cur_lc = lcs(cur)
    steps = 0
    for target in path[1:]:
        stack = [(cur, target, cur_lc, 0)]
        while stack:
            ta, tb, lca, depth = stack.pop()
            if singular is not None:
                for ball in singular.hard_balls():
                    if _segment_distance(ta, tb, ball.center) <= 2.0 * ball.radius:
                        raise SingularProximity(
                            f"path leg [{ta}, {tb}] passes within twice the "
                            f"certified radius of the singular ball at {ball.center}"
                        )
            lcb = lcs(tb)
            da = cmath.phase(lcb[0] / lca[0])
            dz = cmath.phase(lcb[1] / lca[1]) if e else 0.0
            if max(abs(da), abs(dz)) > math.pi / 4.0:
                if depth >= 60:
                    raise StepCollision(
                        "leading-coefficient rotation does not settle under bisection"
                    )
                mid = 0.5 * (ta + tb)
                stack.append((mid, tb, lcs(mid), depth + 1))
                stack.append((ta, mid, lca, depth + 1))
                continue
            drift_inf += -da / d
            if e:
                drift_zero += dz / e
            steps += 1
            if steps > 20000:
                raise StepCollision("continuation exceeded the step budget")
            cur, cur_lc = tb, lcb

    cfg = ValleyConfig(
        t=path[-1],
        at_infinity=tuple(
            replace(s, center=s.center + drift_inf) for s in basis.config.at_infinity
        ),
        at_zero=tuple(
            replace(s, center=s.center + drift_zero) for s in basis.config.at_zero
        ),
    )
    radii = _radii(spec, cfg, basis.tol)
    cycles = tuple(
        _cycle(spec, c.start, c.end, c.winding, cfg, radii, c.tol) for c in basis.cycles
    )
    return CycleBasis(t=cfg.t, config=cfg, cycles=cycles, tol=basis.tol)
