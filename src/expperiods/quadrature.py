"""Adaptive contour quadrature for exponential period integrals.

Periods are integrals of P(u) e^{g(u,t)} du along the polyline realization of
a rapid-decay cycle.  Each polyline segment is integrated with 15-point
Gauss-Kronrod panels; a global greedy refinement bisects the worst panel until
the summed error estimate meets the target

    err <= tol * |value| + max(abs_floor, machine_floor),

where machine_floor reflects the roundoff limit 50 * eps * integral(|f|) that
double precision can certify at all.  Truncated tails at the non-compact ends
are bounded analytically by a geometric-decay estimate and added to the
reported error.

The extended-precision mode re-evaluates every segment with mpmath's
tanh-sinh rule at a requested number of digits, for use as an independent
cross-check of the double-precision path.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .cohomology import CohomologyBasis, ProblemSpec
from .cycles import CycleBasis, RapidDecayCycle
from .errors import NonDecayingTail, ToleranceNotMet
from .symbolic import LaurentPoly

_EPS = 2.0 ** -52

# 15-point Kronrod extension of 7-point Gauss (nodes ascending on [-1, 1]).
_K_POS = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_K_W_POS = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
)
_K_W_CENTER = 0.209482141084728
_G_W = (0.129484966168870, 0.279705391489277, 0.381830050505119)
_G_W_CENTER = 0.417959183673469

NODES = np.array([-x for x in _K_POS] + [0.0] + [x for x in reversed(_K_POS)])
WEIGHTS_K = np.array(list(_K_W_POS) + [_K_W_CENTER] + list(reversed(_K_W_POS)))
GAUSS_INDEX = np.array([1, 3, 5, 7, 9, 11, 13])
WEIGHTS_G = np.array([_G_W[0], _G_W[1], _G_W[2], _G_W_CENTER, _G_W[2], _G_W[1], _G_W[0]])


@dataclass(frozen=True)
class PeriodValue(object):
    """A period integral with a defensible total error bound."""

    value: complex
    error: float  # quadrature estimate + tail truncation + roundoff floor
    truncation: float
    neval: int


@dataclass(frozen=True)
class PeriodMatrix(object):
    """P[i][j] = integral over cycle i of u^{e_j} e^{g} du."""

    t: complex
    exponents: tuple
    entries: tuple  # tuple of tuples of PeriodValue

    @property
    def rank(self) -> int:
        return len(self.entries)

    def values(self) -> np.ndarray:
        return np.array([[e.value for e in row] for row in self.entries])

    def errors(self) -> np.ndarray:
        return np.array([[e.error for e in row] for row in self.entries])

    def max_error(self) -> float:
        return max((e.error for row in self.entries for e in row), default=0.0)

    def to_json_dict(self) -> dict:
        return {
            "t": [self.t.real, self.t.imag],
            "exponents": list(self.exponents),
            "entries": [
                [
                    {
                        "value": [e.value.real, e.value.imag],
                        "error": e.error,
                        "truncation": e.truncation,
                        "neval": e.neval,
                    }
                    for e in row
                ]
                for row in self.entries
            ],
        }


# ---------------------------------------------------------------------------
# Integrand construction
# ---------------------------------------------------------------------------


def _form_coeffs(form, t: complex) -> dict:
    """Numeric u-coefficients of the differential-form prefactor at t."""
    if isinstance(form, int):
        return {form: 1.0 + 0.0j}
    if isinstance(form, LaurentPoly):
        return form.coeffs_at(t)
    raise TypeError("form must be an integer exponent or a LaurentPoly")


def _map_eval(cmap: dict, u):
    acc = np.zeros_like(np.asarray(u, dtype=complex))
    for k, c in cmap.items():
        acc = acc + c * np.asarray(u, dtype=complex) ** k
    return acc


def _integrand(pmap: dict, gmap: dict):
    def f(u):
        return _map_eval(pmap, u) * np.exp(_map_eval(gmap, u))

    return f


# ---------------------------------------------------------------------------
# Tail truncation bounds
# ---------------------------------------------------------------------------


def _poly_abs_sum(pmap: dict, r: float) -> float:
    return sum(abs(c) * r ** k for k, c in pmap.items())


def _tail_bound_inf(pmap: dict, gmap: dict, endpoint: complex) -> float:
    """Bound the dropped integral along the outward ray from an endpoint."""
    r = abs(endpoint)
    theta = cmath.phase(endpoint)
    gprime = sum(k * c * endpoint ** (k - 1) for k, c in gmap.items())
    slope = -(cmath.exp(1j * theta) * gprime).real
    max_exp = max(pmap) if pmap else 0
    slope_eff = slope - max(max_exp, 0) / r
    if slope_eff <= 0.0:
        raise NonDecayingTail(
            f"integrand does not decay along the outward ray at {endpoint}"
        )
    m = _poly_abs_sum(pmap, r) * math.exp(
        sum(c * endpoint ** k for k, c in gmap.items()).real
    )
    return 2.0 * m / slope_eff


def _tail_bound_zero(pmap: dict, gmap: dict, endpoint: complex) -> float:
    """Bound the dropped integral along the inward ray into the puncture."""
    r = abs(endpoint)
    udg = sum(k * c * endpoint ** k for k, c in gmap.items())  # u * g'(u)
    slope = udg.real  # decay rate of Re g under u -> u e^{-s}
    min_exp = min(pmap) if pmap else 0
    slope_eff = slope + min_exp + 1.0  # prefactor power and measure r ds
    if slope_eff <= 0.0:
        raise NonDecayingTail(
            f"integrand does not decay along the inward ray at {endpoint}"
        )
    m = _poly_abs_sum(pmap, r) * math.exp(
        sum(c * endpoint ** k for k, c in gmap.items()).real
    )
    return 2.0 * m * r / slope_eff


def _truncation_bound(cycle: RapidDecayCycle, pmap: dict, gmap: dict) -> float:
    if cycle.closed:
        return 0.0
    bound = 0.0
    for tag, node in ((cycle.start, cycle.nodes[0]), (cycle.end, cycle.nodes[-1])):
        if tag.kind == "valley_inf":
            bound += _tail_bound_inf(pmap, gmap, node)
        elif tag.kind == "valley_zero":
            bound += _tail_bound_zero(pmap, gmap, node)
    return bound


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod over a polyline
# ---------------------------------------------------------------------------


def _panel(f, z0: complex, z1: complex):
    mid = 0.5 * (z0 + z1)
    half = 0.5 * (z1 - z0)
    us = mid + half * NODES
    vals = f(us)
    if not np.all(np.isfinite(vals)):
        raise NonDecayingTail("integrand overflowed on the contour")
    ik = half * np.sum(WEIGHTS_K * vals)
    ig = half * np.sum(WEIGHTS_G * vals[GAUSS_INDEX])
    resabs = abs(half) * float(np.sum(WEIGHTS_K * np.abs(vals)))
    return complex(ik), abs(ik - ig), resabs


def adaptive_polyline(f, nodes, tol: float, abs_floor: float = 0.0, budget: int = 6000):
    """Integrate f along a polyline with global greedy panel refinement.

    Returns (value, error, resabs, neval).  The error includes the roundoff
    floor 50*eps*resabs.  Raises ToleranceNotMet if the panel budget is
    exhausted before err <= tol*|value| + max(abs_floor, machine_floor).
    """
    heap = []
    counter = 0
    total = 0.0 + 0.0j
    err_sum = 0.0
    resabs_sum = 0.0
    npanels = 0
    for z0, z1 in zip(nodes, nodes[1:]):
        if z0 == z1:
            continue
        ik, err, resabs = _panel(f, z0, z1)
        total += ik
        err_sum += err
        resabs_sum += resabs
        npanels += 1
        heapq.heappush(heap, (-err, counter, z0, z1, ik, err, resabs))
        counter += 1

    def target():
        return tol * abs(total) + max(abs_floor, 50.0 * _EPS * resabs_sum)

    while err_sum > target() and heap:
        if npanels >= budget:
            raise ToleranceNotMet(
                f"quadrature budget of {budget} panels exhausted "
                f"(error {err_sum:.3e}, target {target():.3e})"
            )
        _, _, z0, z1, ik, err, resabs = heapq.heappop(heap)
        zm = 0.5 * (z0 + z1)
        ik1, err1, res1 = _panel(f, z0, zm)
        ik2, err2, res2 = _panel(f, zm, z1)
        total += ik1 + ik2 - ik
        err_sum += err1 + err2 - err
        resabs_sum += res1 + res2 - resabs
        npanels += 1
        heapq.heappush(heap, (-err1, counter, z0, zm, ik1, err1, res1))
        counter += 1
        heapq.heappush(heap, (-err2, counter, zm, z1, ik2, err2, res2))
        counter += 1

    roundoff = 50.0 * _EPS * resabs_sum
    return complex(total), err_sum + roundoff, resabs_sum, 15 * (2 * npanels - 1 if npanels else 0)


def integrate_period(
    spec: ProblemSpec,
    cycle: RapidDecayCycle,
    form,
    t: complex,
    tol: float = 1e-10,
    abs_floor: float = 0.0,
    budget: int = 6000,
    dps: int = None,
) -> PeriodValue:
    """Integrate P(u) e^{g(u,t)} du over one rapid-decay cycle.

    Args:
        form: integer exponent k for P = u^k, or a LaurentPoly P(u, t).
        tol: relative error target.
        abs_floor: absolute error floor added to the target.
        dps: if given, evaluate in extended precision with this many digits.

    Raises:
        ToleranceNotMet: if the budget runs out, or the unavoidable tail
            truncation alone exceeds the target.
        NonDecayingTail: if the integrand fails to decay at an open end.
    """
    t = complex(t)
    gmap = spec.g.coeffs_at(t)
    pmap = _form_coeffs(form, t)
    truncation = _truncation_bound(cycle, pmap, gmap)

    if dps is not None:
        return _integrate_mp(spec, cycle, form, t, dps, truncation)

    f = _integrand(pmap, gmap)
    value, err, _resabs, neval = adaptive_polyline(
        f, cycle.nodes, tol, abs_floor=abs_floor, budget=budget
    )
    if truncation > 0.3 * (tol * abs(value) + max(abs_floor, err)) and truncation > abs_floor:
        raise ToleranceNotMet(
            f"tail truncation {truncation:.3e} exceeds the error target; "
            "rebuild the cycles with a smaller decay tolerance"
        )
    return PeriodValue(value=value, error=err + truncation, truncation=truncation, neval=neval)


def integrate_absolute(
    spec: ProblemSpec,
    cycle: RapidDecayCycle,
    form,
    t: complex,
    tol: float = 1e-6,
    budget: int = 6000,
) -> float:
    """Integrate |P(u) e^{g}| |du| over a cycle (a positive scale factor)."""
    t = complex(t)
    gmap = spec.g.coeffs_at(t)
    pmap = _form_coeffs(form, t)
    f = _integrand(pmap, gmap)

    scale = 0.0
    for z0, z1 in zip(cycle.nodes, cycle.nodes[1:]):
        if z0 == z1:
            continue
        seg = abs(z1 - z0)
        value, _err, _resabs, _n = adaptive_polyline(
            lambda s, z0=z0, z1=z1, seg=seg: np.abs(f(z0 + s * (z1 - z0))) * seg,
            [0.0, 1.0],
            tol,
            budget=budget,
        )
        scale += value.real
    return scale


def _integrate_mp(spec, cycle, form, t, dps, truncation):
    import mpmath as mp

    with mp.workdps(dps):
        tm = mp.mpc(t)
        gmap = {}
        for k, poly in spec.g.terms.items():
            acc = mp.mpc(0)
            for c in reversed(poly.coeffs):
                acc = acc * tm + mp.mpf(c.numerator) / mp.mpf(c.denominator)
            gmap[k] = acc
        if isinstance(form, int):
            pmap = {form: mp.mpc(1)}
        else:
            pmap = {}
            for k, poly in form.terms.items():
                acc = mp.mpc(0)
                for c in reversed(poly.coeffs):
                    acc = acc * tm + mp.mpf(c.numerator) / mp.mpf(c.denominator)
                pmap[k] = acc

        def f(u):
            p = sum(c * u ** k for k, c in pmap.items())
            g = sum(c * u ** k for k, c in gmap.items())
            return p * mp.exp(g)

        total = mp.mpc(0)
        err_total = mp.mpf(0)
        neval = 0
        for z0, z1 in zip(cycle.nodes, cycle.nodes[1:]):
            if z0 == z1:
                continue
            a, b = mp.mpc(z0), mp.mpc(z1)
            val, err = mp.quad(
                lambda s, a=a, b=b: f(a + s * (b - a)) * (b - a),
                [0, 1],
                error=True,
            )
            total += val
            err_total += err
            neval += 1
        value = complex(total)
        error = float(err_total) + truncation
    return PeriodValue(value=value, error=error, truncation=truncation, neval=neval)


def period_matrix(
    spec: ProblemSpec,
    basis: CohomologyBasis,
    cycles: CycleBasis,
    tol: float = 1e-10,
    budget: int = 6000,
    dps: int = None,
) -> PeriodMatrix:
    """The full period matrix of the cycle basis against the form basis.

    Every entry is certified to satisfy

        error <= tol * |entry| + max(1e-30 * max|entries|, 100*eps*resabs)

    where the second floor is the roundoff attainability limit of double
    precision; entries that cannot meet this raise ToleranceNotMet.
    """
    t = cycles.t
    rows = []
    resabs_rows = []
    for cyc in cycles.cycles:
        row = []
        resabs_row = []
        for k in basis.exponents:
            if dps is not None:
                pv = integrate_period(spec, cyc, k, t, tol=tol, dps=dps)
                resabs = abs(pv.value)
            else:
                gmap = spec.g.coeffs_at(t)
                pmap = _form_coeffs(k, t)
                f = _integrand(pmap, gmap)
                value, err, resabs, neval = adaptive_polyline(
                    f, cyc.nodes, tol, budget=budget
                )
                truncation = _truncation_bound(cyc, pmap, gmap)
                pv = PeriodValue(
                    value=value,
                    error=err + truncation,
                    truncation=truncation,
                    neval=neval,
                )
            row.append(pv)
            resabs_row.append(resabs)
        rows.append(row)
        resabs_rows.append(resabs_row)

    scale = max((abs(e.value) for row in rows for e in row), default=0.0)
    for row, rrow in zip(rows, resabs_rows):
        for e, resabs in zip(row, rrow):
            floor = max(1e-30 * scale, 100.0 * _EPS * resabs)
            if e.error > tol * abs(e.value) + floor:
                raise ToleranceNotMet(
                    f"period entry error {e.error:.3e} exceeds the certified "
                    f"target {tol * abs(e.value) + floor:.3e}"
                )
    return PeriodMatrix(
        t=t,
        exponents=tuple(basis.exponents),
        entries=tuple(tuple(row) for row in rows),
    )
