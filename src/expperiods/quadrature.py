"""Adaptive contour quadrature for exponential period integrals.

Periods are integrals of P(u) e^{g(u,t)} du along the polyline realization of
a rapid-decay cycle.  One kernel serves every double-precision caller: the
global adaptive 15-point Gauss-Kronrod strategy of QUADPACK ``qag`` (Piessens
et al., 1983), vectorized over a vector integrand.  A period row (the basis
forms u^e over one cycle) is one run, so exp(g) is taken once per node.  Each
round bisects, in one numpy batch, every panel that some component still
needs; the run stops only when every component j meets its own target

    err_j <= tol * |value_j| + max(abs_floor, machine_floor_j),

where machine_floor_j = 50 * eps * integral(|f_j|) is the roundoff limit that
double precision can certify at all.  Truncated tails at the non-compact ends
are bounded analytically by a geometric-decay estimate and added to the
reported error.

The extended-precision mode re-evaluates every segment with mpmath's
tanh-sinh rule at a requested number of digits, for use as an independent
cross-check of the double-precision path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cohomology import CohomologyBasis, ProblemSpec
from .cycles import CycleBasis, RapidDecayCycle
from .errors import NonDecayingTail, ToleranceNotMet
from .symbolic import LaurentPoly

_EPS = 2.0 ** -52
# Most panels one kernel run may hold before it raises ToleranceNotMet.
_BUDGET = 6000

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
# Kronrod and Gauss weights as the two columns of one (15, 2) matrix.
_KG = np.zeros((15, 2))
_KG[:, 0], _KG[GAUSS_INDEX, 1] = WEIGHTS_K, WEIGHTS_G


@dataclass(frozen=True)
class PeriodValue(object):
    """A period integral with a defensible total error bound."""

    value: complex
    error: float  # quadrature estimate + tail truncation + roundoff floor
    truncation: float
    neval: int  # evaluations of the cycle's kernel run, shared by its row


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
    return sum((c * u ** k for k, c in cmap.items()), np.zeros(u.shape, dtype=complex))


def _integrand(gmap: dict, pmaps: list):
    """The vector integrand [P_j(u) e^{g(u)}]_j, with exp(g) taken once per node."""
    return lambda u: np.stack([_map_eval(p, u) for p in pmaps]) * np.exp(_map_eval(gmap, u))


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


def _gk_panels(fs, a, b):
    """GK15 on the panels [a_i, b_i]: Kronrod values, |K - G| and resabs, each (m, n)."""
    half = 0.5 * (b - a)
    with np.errstate(all="ignore"):
        vals = fs((0.5 * (a + b))[:, None] + half[:, None] * NODES)
    if not np.all(np.isfinite(vals)):
        raise NonDecayingTail("integrand overflowed on the contour")
    kg = vals @ _KG
    kron = half * kg[..., 0]
    return kron, np.abs(half * (kg[..., 0] - kg[..., 1])), np.abs(half) * (np.abs(vals) @ WEIGHTS_K)


def _gk_vector(fs, nodes, tol: float, abs_floor: float):
    """Global adaptive GK15 of a vector integrand along a polyline.

    ``fs`` maps an (n, 15) array of nodes to an (m, n, 15) array of values.
    Each round bisects, in one batch, the panels that some component j over
    its target needs: its largest-error panels, until the errors of the rest
    sum to at most half of that target.  The run stops when every j has

        err_j <= tol*|value_j| + max(abs_floor, 50*eps*resabs_j).

    Returns (values, errors, resabs, neval): arrays of length m, the errors
    including the roundoff floor 50*eps*resabs, and the evaluation count.

    Raises:
        ToleranceNotMet: if the targets need more than ``_BUDGET`` panels.
        NonDecayingTail: if the integrand is not finite at some node.
    """
    z = np.asarray(nodes, dtype=complex)
    step = z[1:] != z[:-1]  # zero-length segments carry no panel
    a, b = z[:-1][step], z[1:][step]
    kron, err, res = _gk_panels(fs, a, b)
    neval = 15 * len(a)
    while True:
        value, err_sum, resabs = kron.sum(axis=1), err.sum(axis=1), res.sum(axis=1)
        target = tol * np.abs(value) + np.maximum(abs_floor, 50.0 * _EPS * resabs)
        fail = err_sum > target
        if not fail.any():
            return value, err_sum + 50.0 * _EPS * resabs, resabs, neval
        order = np.argsort(-err[fail], axis=1)
        ranked = err[fail][np.arange(order.shape[0])[:, None], order]
        rest = np.cumsum(ranked[:, ::-1], axis=1)[:, ::-1]  # rest[:, k]: sum of ranks >= k
        need = 1 + (rest[:, 1:] > 0.5 * target[fail, None]).sum(axis=1)
        split = np.zeros(len(a), dtype=bool)
        split[order[np.arange(len(a)) < need[:, None]]] = True
        if len(a) + np.count_nonzero(split) > _BUDGET:
            worst = int(np.argmax(err_sum - target))
            raise ToleranceNotMet(
                f"quadrature budget of {_BUDGET} panels exhausted "
                f"(error {err_sum[worst]:.3e}, target {target[worst]:.3e})"
            )
        mid = 0.5 * (a[split] + b[split])
        a_new, b_new = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        fresh = _gk_panels(fs, a_new, b_new)
        neval += 15 * len(a_new)
        a, b = np.concatenate([a[~split], a_new]), np.concatenate([b[~split], b_new])
        kron, err, res = (np.concatenate([old[:, ~split], new], axis=1)
                          for old, new in zip((kron, err, res), fresh))


def adaptive_polyline(f, nodes, tol: float):
    """Integrate a scalar f along a polyline: a one-component kernel run.

    Returns (value, error, resabs, neval).  The error includes the roundoff
    floor 50*eps*resabs.  Raises ToleranceNotMet if the panel budget is
    exhausted before err <= tol*|value| + machine_floor.
    """
    value, err, resabs, neval = _gk_vector(
        lambda us: np.broadcast_to(f(us), us.shape)[None], nodes, tol, 0.0
    )
    return complex(value[0]), float(err[0]), float(resabs[0]), neval


def period_row(spec: ProblemSpec, cycle: RapidDecayCycle, forms, t: complex, tol: float = 1e-10,
               abs_floor: float = 0.0):
    """The periods of several forms over one cycle, from one kernel run.

    Returns (entries, resabs): a PeriodValue per form, whose error adds the
    tail truncation bound, and the integrals of |integrand| along the cycle.

    Raises:
        ToleranceNotMet: if the budget runs out, or the unavoidable tail
            truncation alone exceeds an entry's error target.
        NonDecayingTail: if the integrand fails to decay at an open end.
    """
    t = complex(t)
    gmap = spec.g.coeffs_at(t)
    pmaps = [_form_coeffs(form, t) for form in forms]
    truncations = [_truncation_bound(cycle, pmap, gmap) for pmap in pmaps]
    values, errs, resabs, neval = _gk_vector(
        _integrand(gmap, pmaps), cycle.nodes, tol, abs_floor
    )
    row = []
    for value, err, truncation in zip(values, errs, truncations):
        if truncation > 0.3 * (tol * abs(value) + max(abs_floor, err)) and truncation > abs_floor:
            raise ToleranceNotMet(
                f"tail truncation {truncation:.3e} exceeds the error target; "
                "rebuild the cycles with a smaller decay tolerance"
            )
        row.append(PeriodValue(complex(value), float(err) + truncation, truncation, neval))
    return row, resabs


def integrate_period(
    spec: ProblemSpec,
    cycle: RapidDecayCycle,
    form,
    t: complex,
    tol: float = 1e-10,
    abs_floor: float = 0.0,
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
    if dps is not None:
        return _integrate_mp(spec, cycle, form, complex(t), dps)
    (pv,), _resabs = period_row(spec, cycle, [form], t, tol, abs_floor)
    return pv


def integrate_absolute(
    spec: ProblemSpec,
    cycle: RapidDecayCycle,
    form,
    t: complex,
    tol: float = 1e-6,
) -> float:
    """Integrate |P(u) e^{g}| |du| over a cycle (a positive scale factor).

    One kernel run in the arc length s of the whole polyline, with a panel
    edge at every vertex, so u(s) is linear on every panel.
    """
    t = complex(t)
    fs = _integrand(spec.g.coeffs_at(t), [_form_coeffs(form, t)])
    z = np.asarray(cycle.nodes, dtype=complex)
    s = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(z)))])
    value, _err, _resabs, _n = adaptive_polyline(
        lambda us: np.abs(fs(np.interp(us.real, s, z))[0]), s, tol
    )
    return value.real


def _integrate_mp(spec, cycle, form, t, dps):
    import mpmath as mp

    truncation = _truncation_bound(cycle, _form_coeffs(form, t), spec.g.coeffs_at(t))
    with mp.workdps(dps):
        tm = mp.mpc(t)
        gmap, pmap = spec.g.coeffs_at(tm), _form_coeffs(form, tm)

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
        if dps is None:
            row, resabs = period_row(spec, cyc, basis.exponents, t, tol)
        else:
            row = [integrate_period(spec, cyc, k, t, tol=tol, dps=dps) for k in basis.exponents]
            resabs = [abs(pv.value) for pv in row]
        rows.append(row)
        resabs_rows.append(resabs)

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
