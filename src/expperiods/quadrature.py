"""Adaptive contour quadrature for exponential period integrals.

Periods are integrals of P(u) e^{g(u,t)} du along the polyline realization of
a rapid-decay cycle.  One kernel serves every double-precision caller: the
global adaptive 15-point Gauss-Kronrod strategy of QUADPACK ``qag`` (Piessens
et al., 1983), vectorized over a vector integrand and over several polylines.
A period matrix (the basis forms u^e over every cycle) is one run, so the
integrand, which takes the powers of u from one table built by multiplication
rather than from numpy's complex ``**``, is called once per round for the whole
matrix.  Each round bisects, in one numpy batch, every panel that some entry
(cycle i, form j) still needs among the panels of cycle i; the run stops when
every entry meets its target

    err_ij <= tol * |value_ij| + max(abs_floor, machine_floor_ij),

where machine_floor_ij = 50 * eps * integral(|f_j|) along cycle i is the
roundoff limit of double precision.  Truncated tails at the non-compact ends
are bounded analytically by a geometric-decay estimate, with g and g' taken
once per open end, and added to the reported error.

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
    neval: int  # integrand evaluations on the entry's cycle, shared by its row


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


def _integrand(gmap: dict, pmaps: list):
    """The vector integrand [P_j(u) e^{g(u)}]_j from one table of the powers of u.

    numpy takes ``u**k`` of a complex array through its general complex power,
    element by element, at about nine complex products' time.  The table is
    built by multiplication instead, u^k = u^(k-1) * u, one product per power,
    whose roundings add up independently (the squarings of binary powering
    double theirs); a negative power is the reciprocal of the positive one, not
    a power of a rounded 1/u.  Overflow at far nodes and blow-up near the
    puncture stay inside the caller's errstate.
    """
    ks = set(gmap).union(*pmaps)
    top = max(abs(k) for k in ks)

    def f(u):
        pw = [1.0, u]
        for k in range(2, top + 1):
            pw.append(pw[-1] * u)
        pw = {k: pw[k] if k >= 0 else 1.0 / pw[-k] for k in ks}

        def ev(cmap):  # a unit coefficient (every monomial form's) costs no product
            terms = [pw[k] if c == 1 else c * pw[k] for k, c in cmap.items()]
            return sum(terms[1:], terms[0]) if terms else 0.0

        e = np.exp(ev(gmap))
        out = np.empty((len(pmaps),) + u.shape, dtype=complex)  # no per-form temporaries
        for row, p in zip(out, pmaps):
            np.multiply(ev(p), e, out=row)
        return out

    return f


# ---------------------------------------------------------------------------
# Tail truncation bounds
# ---------------------------------------------------------------------------


def _tail_bounds(gmap: dict, pmaps: list, end: complex, into_zero: bool) -> list:
    """Bound, per form, the integral dropped beyond an open end: outward to infinity,
    or along u = end e^{-s} into the puncture.  g'(end) and e^{Re g(end)} are taken
    once per end; a form adds only its sum |c_k| r^k and its extreme exponent."""
    r = abs(end)
    m = math.exp(sum(c * end ** k for k, c in gmap.items()).real)
    if into_zero:  # decay rate of Re g under u -> u e^{-s}, plus prefactor power and r ds
        slope = sum(k * c * end ** k for k, c in gmap.items()).real
        slopes, scale = [slope + min(p, default=0) + 1.0 for p in pmaps], r
    else:
        gprime = sum(k * c * end ** (k - 1) for k, c in gmap.items())
        slope = -(cmath.exp(1j * cmath.phase(end)) * gprime).real
        slopes, scale = [slope - max(max(p, default=0), 0) / r for p in pmaps], 1.0
    if min(slopes) <= 0.0:
        way = "inward" if into_zero else "outward"
        raise NonDecayingTail(f"integrand does not decay along the {way} ray at {end}")
    return [2.0 * (sum(abs(c) * r ** k for k, c in p.items()) * m) * scale / s
            for p, s in zip(pmaps, slopes)]


def _truncation_bounds(cycle: RapidDecayCycle, gmap: dict, pmaps: list) -> np.ndarray:
    """Per form, the sum of the tail bounds at the cycle's open ends."""
    bound = np.zeros(len(pmaps))
    for tag, node in ((cycle.start, cycle.nodes[0]), (cycle.end, cycle.nodes[-1])):
        if tag.kind != "interior":
            bound += _tail_bounds(gmap, pmaps, node, tag.kind == "valley_zero")
    return bound


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod over a polyline
# ---------------------------------------------------------------------------


def _gk_panels(fs, a, b):
    """GK15 on the panels [a_i, b_i]: Kronrod values, |K - G| and resabs, each (m, n)."""
    half = 0.5 * (b - a)
    with np.errstate(all="ignore"):
        vals = fs((0.5 * (a + b))[:, None] + half[:, None] * NODES)
        kg, res = vals @ _KG, np.abs(half) * (np.abs(vals) @ WEIGHTS_K)
    if not np.all(np.isfinite(res)):  # as any value is not: the weights are positive
        raise NonDecayingTail("integrand overflowed on the contour")
    kron = half * kg[..., 0]
    return kron, np.abs(half * (kg[..., 0] - kg[..., 1])), res


def _gk_vector(fs, polylines, tol: float, abs_floor: float):
    """Global adaptive GK15 of a vector integrand along several polylines at once.

    ``fs`` maps an (n, 15) array of nodes to an (m, n, 15) array of values.
    All panels sit in one array beside an owner array; component (c, j) sums
    f_j over the panels of polyline c.  Each round bisects, in one batch, the
    panels that some component over its target needs: its largest-error
    panels, until the errors of the rest sum to at most half of that target.
    Polyline c is refined, as in a run of its own, until every j has

        err_cj <= tol*|value_cj| + max(abs_floor, 50*eps*resabs_cj).

    Returns (values, errors, resabs, neval): (c, m) arrays, the errors
    including the roundoff floor 50*eps*resabs, and the evaluation count
    (an int) of each polyline.

    Raises:
        ToleranceNotMet: if a polyline needs more than ``_BUDGET`` panels.
        NonDecayingTail: if the integrand is not finite at some node.
    """
    zs = [np.asarray(p, dtype=complex) for p in polylines]
    own = np.repeat(np.arange(len(zs)), [len(p) for p in zs])
    z = np.concatenate(zs)
    # no panel on a zero-length segment, nor from one polyline to the next
    step = (z[1:] != z[:-1]) & (own[1:] == own[:-1])
    a, b, own = z[:-1][step], z[1:][step], own[1:][step]
    first = count = np.bincount(own, minlength=len(zs))  # panels of each polyline
    kron, err, res = _gk_panels(fs, a, b)
    while True:
        w = (own[:, None] == np.arange(len(zs))).astype(float)  # (n, c): panel owners
        value, err_sum, resabs = kron @ w, err @ w, res @ w
        target = tol * np.abs(value) + np.maximum(abs_floor, 50.0 * _EPS * resabs)
        fail = err_sum > target
        if not fail.any():
            neval = 15 * (2 * count - first)  # a bisection adds one panel and evaluates two
            return value.T, (err_sum + 50.0 * _EPS * resabs).T, resabs.T, neval.tolist()
        j, c = np.nonzero(fail)
        key = np.where(own == c[:, None], err[j], 0.0)  # 0 off the component's polyline
        order = np.argsort(-key, axis=1, kind="stable")
        ranked = key[np.arange(len(j))[:, None], order]
        rest = np.cumsum(ranked[:, ::-1], axis=1)[:, ::-1]  # rest[:, k]: sum of ranks >= k
        # bisect rank k while ranks >= k hold over half the target (rank 0 of a failure does)
        split = np.zeros(len(a), dtype=bool)
        split[order[rest > 0.5 * target[j, c, None]]] = True
        count = count + np.bincount(own[split], minlength=len(zs))
        if count.max() > _BUDGET:
            k = int(np.argmax(count > _BUDGET))
            worst = int(np.argmax(err_sum[:, k] - target[:, k]))
            raise ToleranceNotMet(
                f"quadrature budget of {_BUDGET} panels exhausted "
                f"(error {err_sum[worst, k]:.3e}, target {target[worst, k]:.3e})"
            )
        mid = 0.5 * (a[split] + b[split])
        a_new, b_new = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        fresh = _gk_panels(fs, a_new, b_new)
        a, b = np.concatenate([a[~split], a_new]), np.concatenate([b[~split], b_new])
        own = np.concatenate([own[~split], own[split], own[split]])
        kron, err, res = (np.concatenate([old[:, ~split], new], axis=1)
                          for old, new in zip((kron, err, res), fresh))


def adaptive_polyline(f, nodes, tol: float):
    """Integrate a scalar f along a polyline: a one-component kernel run.

    Returns (value, error, resabs, neval).  The error includes the roundoff
    floor 50*eps*resabs.  Raises ToleranceNotMet if the panel budget is
    exhausted before err <= tol*|value| + machine_floor.
    """
    value, err, resabs, neval = _gk_vector(
        lambda us: np.broadcast_to(f(us), us.shape)[None], [nodes], tol, 0.0
    )
    return complex(value[0, 0]), float(err[0, 0]), float(resabs[0, 0]), neval[0]


def period_rows(spec: ProblemSpec, cycles, forms, t: complex, tol: float = 1e-10,
                abs_floor: float = 0.0):
    """The periods of several forms over several cycles, from one kernel run.

    Returns (rows, resabs): per cycle, a PeriodValue per form, whose error
    adds the tail truncation bound; and a (cycles, forms) array of the
    integrals of |integrand| along each cycle.

    Raises:
        ToleranceNotMet: if a cycle's budget runs out, or the unavoidable tail
            truncation alone exceeds an entry's error target.
        NonDecayingTail: if the integrand fails to decay at an open end.
    """
    if not cycles:  # a rank-zero matrix
        return [], np.empty((0, len(forms)))
    t = complex(t)
    gmap = spec.g.coeffs_at(t)
    pmaps = [_form_coeffs(form, t) for form in forms]
    trunc = np.array([_truncation_bounds(cyc, gmap, pmaps) for cyc in cycles])
    values, errs, resabs, neval = _gk_vector(
        _integrand(gmap, pmaps), [cyc.nodes for cyc in cycles], tol, abs_floor
    )
    over = (trunc > 0.3 * (tol * np.abs(values) + np.maximum(abs_floor, errs))) & (trunc > abs_floor)
    if over.any():
        raise ToleranceNotMet(
            f"tail truncation {trunc[over][0]:.3e} exceeds the error target; "
            "rebuild the cycles with a smaller decay tolerance"
        )
    return [
        [PeriodValue(complex(v), float(e + tr), float(tr), n) for v, e, tr in zip(vs, es, ts)]
        for vs, es, ts, n in zip(values, errs, trunc, neval)
    ], resabs


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
    rows, _resabs = period_rows(spec, [cycle], [form], t, tol, abs_floor)
    return rows[0][0]


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

    pmaps = [_form_coeffs(form, t)]
    truncation = float(_truncation_bounds(cycle, spec.g.coeffs_at(t), pmaps)[0])
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
    if dps is None:
        rows, resabs_rows = period_rows(spec, cycles.cycles, basis.exponents, t, tol)
    else:
        rows = [
            [integrate_period(spec, cyc, k, t, tol=tol, dps=dps) for k in basis.exponents]
            for cyc in cycles.cycles
        ]
        resabs_rows = [[abs(pv.value) for pv in row] for row in rows]

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
