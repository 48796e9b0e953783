"""Adaptive contour quadrature for exponential period integrals.

Periods are integrals of P(u) e^{g(u,t)} du along the polyline realization of
a rapid-decay cycle.  One kernel serves every double-precision caller: the
global adaptive 15-point Gauss-Kronrod strategy of QUADPACK ``qag`` (Piessens
et al., 1983), vectorized over a vector integrand and over several polylines.
A period matrix (the basis forms u^e over every cycle) is one run, as are
several matrices at different t, each polyline with its own coefficients of g.
The integrand, which takes the powers of u from one table built by
multiplication rather than numpy's complex ``**`` and knows each coefficient's
kind (unit, scalar or per polyline) from the start, is called once per round
for the whole run.  A run's panels are few (tens to hundreds), so a round costs
about its count of numpy calls, which the round keeps small: the cuts of every
split panel come from one broadcast over a table of fractions k/p, only the
new pieces are evaluated, one ``reduceat`` sums the values and one the stacked
|K - G| and resabs, and the run enters ``np.errstate`` once.  The first round
quarters every polyline segment: a segment has no error estimate yet, so it
gets the largest split, which saves rounds.  Each later round splits every
panel over its equal share (half the target over the panel count) of a
failing entry (cycle i, form j) of its cycle, in halves or, past one
halving's gain at GK15's order, in quarters.  The pieces take the panel's
slot: each cycle's panels stay in path order and its sums are segment sums.
The run stops when every entry meets its target

    err_ij <= tol * |value_ij| + 50 * eps * resabs_ij,

where resabs_ij = integral(|f_j|) along cycle i, which the run returns, sets
the roundoff limit of double precision.  Truncated tails at the non-compact ends
are bounded analytically by a geometric-decay estimate, with g and g' taken
once per open end, and added to the reported error.

The extended-precision mode re-integrates every polyline segment with
mpmath's tanh-sinh rule at a requested number of digits, for use as an
independent cross-check of the double-precision path.  It returns the sum
rounded to a double, and its ``neval`` counts segments, not evaluations.
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
# GK15's error estimate |K - G| is 7-point Gauss's, of order h**15: a halving divides it by at
# most 2**15 per half, so a panel over this many times its share is quartered, not halved.
# A segment, which has no estimate yet, is quartered before the first round.
_QUARTER = 2.0 ** 15

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
# Row p holds k/p for k = 0..4: a panel split in p pieces is cut at its fractions k/p, k < p.
_FRACTIONS = np.arange(5) / np.maximum(np.arange(5), 1)[:, None]


@dataclass(frozen=True)
class PeriodValue(object):
    """A period integral with a defensible total error bound."""

    value: complex
    error: float  # quadrature estimate + tail truncation + roundoff floor
    truncation: float
    neval: int  # integrand evaluations on the entry's cycle, shared by its row (dps: segments)


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
    """Numeric u-coefficients of the differential-form prefactor at t; a dict is
    such a map already, taken at the run's one t."""
    if isinstance(form, int):
        return {form: 1.0 + 0.0j}
    if isinstance(form, LaurentPoly):
        return form.coeffs_at(t)
    if isinstance(form, dict):
        return form
    raise TypeError("form must be an integer exponent, a LaurentPoly or a coefficient map")


def _merged(maps) -> dict:
    """One map for a polynomial's coefficient maps on the polylines of a run: a
    coefficient they share stays a scalar, one that differs a (polylines, 1) array."""
    if all(m is maps[0] for m in maps):  # one t: the map itself
        return maps[0]
    cols = {k: [m[k] for m in maps] for k in maps[0]}
    return {k: cs[0] if cs.count(cs[0]) == len(cs) else np.array(cs)[:, None]
            for k, cs in cols.items()}


def _integrand(gmaps, pmaps):
    """The vector integrand [P_j(u) e^{g(u)}]_j from one table of the powers of u.

    ``gmaps``/``pmaps`` hold g's/the forms' coefficient maps on each polyline;
    ``f(u, own)`` reads a coefficient that differs between polylines by each
    node row's owner, and at one shared t every coefficient stays a scalar.
    numpy takes ``u**k`` of a complex array through its general complex power,
    element by element, at about nine complex products' time.  The table is
    built by multiplication instead, u^k = u^(k-1) * u, one product per power,
    whose roundings add up independently (the squarings of binary powering
    double theirs); a negative power is the reciprocal of the positive one, not
    a power of a rounded 1/u.  Overflow at far nodes and blow-up near the
    puncture stay inside the caller's errstate.
    """
    gmap, pmaps = _merged(gmaps), [_merged(col) for col in zip(*pmaps)]
    ks = set(gmap).union(*pmaps)
    top = max(abs(k) for k in ks)

    def terms(cmap):  # each coefficient's kind, decided once; a unit is every monomial form's
        return [(k, c, "line" if isinstance(c, np.ndarray) else "unit" if c == 1 else "scalar")
                for k, c in cmap.items()]

    gterms, pterms = terms(gmap), [terms(p) for p in pmaps]

    def f(u, own):
        pw = [1.0, u]
        for k in range(2, top + 1):
            pw.append(pw[-1] * u)
        pw = {k: pw[k] if k >= 0 else 1.0 / pw[-k] for k in ks}

        def ev(ts):  # a unit coefficient costs no product
            xs = [c[own] * pw[k] if kind == "line" else pw[k] if kind == "unit" else c * pw[k]
                  for k, c, kind in ts]
            return sum(xs[1:], xs[0]) if xs else 0.0

        e = np.exp(ev(gterms))
        out = np.empty((len(pterms),) + u.shape, dtype=complex)  # no per-form temporaries
        for row, ts in zip(out, pterms):
            np.multiply(ev(ts), e, out=row)
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


def _gk_panels(fs, a, b, own):
    """GK15 on the panels [a_i, b_i]: Kronrod values, |K - G| and resabs, each (m, n).
    Overflow in fs stays inside the caller's errstate."""
    half = 0.5 * (b - a)
    vals = fs((0.5 * (a + b))[:, None] + half[:, None] * NODES, own)
    kg, res = vals @ _KG, np.abs(half) * (np.abs(vals) @ WEIGHTS_K)
    if not np.isfinite(res).all():  # as any value is not: the weights are positive
        raise NonDecayingTail("integrand overflowed on the contour")
    kron = half * kg[..., 0]
    return kron, np.abs(half * (kg[..., 0] - kg[..., 1])), res


def _gk_vector(fs, polylines, tol: float):
    """Global adaptive GK15 of a vector integrand along several polylines at once.

    ``fs`` maps an (n, 15) array of nodes and the (n,) owner polyline of each
    row to an (m, n, 15) array of values, so polylines may carry different
    integrands.  Component (c, j) sums f_j over the panels of polyline c, kept
    contiguous and in path order.  A panel split in p pieces is cut at
    a + (b - a) k/p, k < p, its last piece ending exactly at b, all panels'
    cuts in one broadcast; the pieces take its slot.  The first round quarters
    every segment of nonzero length, which has no error estimate yet.  Each
    later round splits the panels over their share of a failing component of
    their polyline, half its target over the polyline's panel count (the
    panels left whole hold at most half of it), and evaluates only the new
    pieces.  A panel is halved, or quartered if over ``_QUARTER`` times its
    share.  Per round, one ``np.add.reduceat`` sums the values and one sums
    |K - G| and resabs, stacked.
    Polyline c is refined, as in a run of its own, until every j has

        err_cj <= tol*|value_cj| + 50*eps*resabs_cj.

    Returns (values, errors, resabs, neval): (c, m) arrays, the errors
    including the roundoff floor 50*eps*resabs, and the evaluation count
    (an int) of each polyline.

    Raises:
        ToleranceNotMet: if a refinement round would give a polyline more than
            ``_BUDGET`` panels.
        NonDecayingTail: if the integrand is not finite at some node.
    """
    zs = [np.asarray(p, dtype=complex) for p in polylines]
    lines = len(zs)
    own = np.arange(lines).repeat([len(p) for p in zs])
    z = np.concatenate(zs)
    # no panel on a zero-length segment, nor from one polyline to the next
    step = (z[1:] != z[:-1]) & (own[1:] == own[:-1])
    a, b, own = z[:-1][step], z[1:][step], own[1:][step].repeat(4)
    # the first round quarters every segment, with no merge: nothing is evaluated yet
    cuts = a[:, None] + (b - a)[:, None] * _FRACTIONS[4]
    cuts[:, 4] = b
    a, b = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    count = np.bincount(own, minlength=lines)  # panels of each polyline
    neval, some = 15 * count, count > 0
    every = bool(some.all())  # else the lines with no panel sum to 0
    with np.errstate(all="ignore"):
        kron, err, res = _gk_panels(fs, a, b, own)
        m, er = len(kron), np.concatenate((err, res))
        while True:
            starts = count.cumsum() - count
            if every:
                value = np.add.reduceat(kron, starts, axis=1)
                sums = np.add.reduceat(er, starts, axis=1)
            else:
                value, sums = np.zeros((m, lines), complex), np.zeros((2 * m, lines))
                value[:, some] = np.add.reduceat(kron, starts[some], axis=1)
                sums[:, some] = np.add.reduceat(er, starts[some], axis=1)
            err_sum, floor = sums[:m], 50.0 * _EPS * sums[m:]
            target = tol * np.abs(value) + floor
            fail = err_sum > target
            if not fail.any():
                return value.T, (err_sum + floor).T, sums[m:].T, neval.tolist()
            # a line with no panel never fails, so its share 0/0 is never read
            share = np.where(fail, 0.5 * target / count, np.inf)[:, own]
            pieces = 1 + (er[:m] > share).any(0) + 2 * (er[:m] > _QUARTER * share).any(0)
            count = np.bincount(own, pieces, minlength=lines).astype(int)  # next round's panels
            if count.max() > _BUDGET:
                k = int(np.argmax(count > _BUDGET))
                worst = int(np.argmax(err_sum[:, k] - target[:, k]))
                raise ToleranceNotMet(
                    f"quadrature budget of {_BUDGET} panels exhausted "
                    f"(error {err_sum[worst, k]:.3e}, target {target[worst, k]:.3e})"
                )
            cuts = a[:, None] + (b - a)[:, None] * _FRACTIONS[pieces]
            cuts[np.arange(len(b)), pieces] = b
            valid = pieces[:, None] > np.arange(4)  # piece k of a panel of p pieces, k < p
            a, b, own = cuts[:, :-1][valid], cuts[:, 1:][valid], own.repeat(pieces)
            new = (pieces.repeat(pieces) > 1).nonzero()[0]
            fresh = own[new]
            neval += 15 * np.bincount(fresh, minlength=lines)
            fk, fe, fr = _gk_panels(fs, a[new], b[new], fresh)
            if len(new) == len(own):  # every panel split
                kron, er = fk, np.concatenate((fe, fr))
            else:
                kron, er = kron.repeat(pieces, axis=1), er.repeat(pieces, axis=1)
                kron[:, new], er[:, new] = fk, np.concatenate((fe, fr))


def adaptive_polyline(f, nodes, tol: float):
    """Integrate a scalar f along a polyline: a one-component kernel run.

    Returns (value, error, resabs, neval).  The error includes the roundoff
    floor 50*eps*resabs.  Raises ToleranceNotMet if the panel budget is
    exhausted before err <= tol*|value| + machine_floor.
    """
    value, err, resabs, neval = _gk_vector(
        lambda us, own: np.broadcast_to(f(us), us.shape)[None], [nodes], tol
    )
    return complex(value[0, 0]), float(err[0, 0]), float(resabs[0, 0]), neval[0]


def period_rows(spec: ProblemSpec, cycles, forms, ts, tol: float = 1e-10):
    """The periods of several forms over several cycles, from one kernel run.

    ``ts`` holds each cycle's t; a cycle's integrand and tail bounds use its own.
    A form is an exponent k (the form u^k), a LaurentPoly, or a coefficient
    map ``{k: c_k}`` already taken at t, which a run may hold only when every
    cycle is at that one t.

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
    ts = [complex(t) for t in ts]
    at = {t: (spec.g.coeffs_at(t), [_form_coeffs(form, t) for form in forms]) for t in set(ts)}
    gmaps, pmaps = zip(*(at[t] for t in ts))
    trunc = np.array([_truncation_bounds(cyc, *at[t]) for cyc, t in zip(cycles, ts)])
    values, errs, resabs, neval = _gk_vector(
        _integrand(gmaps, pmaps), [cyc.nodes for cyc in cycles], tol
    )
    target = 0.3 * (tol * np.abs(values) + errs)
    over = np.argwhere(trunc > target)
    if len(over):
        i, j = over[0]
        raise ToleranceNotMet(
            f"tail truncation {trunc[i, j]:.3e} of cycle {i} exceeds the error target "
            f"0.3*(tol*|v| + err) = {target[i, j]:.3e} of its form {j}"
        )
    return [
        [PeriodValue(complex(v), float(e + tr), float(tr), n) for v, e, tr in zip(vs, es, trs)]
        for vs, es, trs, n in zip(values, errs, trunc, neval)
    ], resabs


def integrate_period(
    spec: ProblemSpec,
    cycle: RapidDecayCycle,
    form,
    t: complex,
    tol: float = 1e-10,
    dps: int = None,
) -> PeriodValue:
    """Integrate P(u) e^{g(u,t)} du over one rapid-decay cycle.

    Args:
        form: integer exponent k for P = u^k, or a LaurentPoly P(u, t).
        tol: relative error target; the kernel stops at
            err <= tol*|value| + 50*eps*integral(|integrand|).
        dps: if given, integrate in extended precision with this many digits
            (the value is still a double, and ``neval`` counts segments).

    Raises:
        ToleranceNotMet: if the budget runs out, or the unavoidable tail
            truncation alone exceeds the target.
        NonDecayingTail: if the integrand fails to decay at an open end.
    """
    if dps is not None:
        return _integrate_mp(spec, cycle, form, complex(t), dps)
    rows, _resabs = period_rows(spec, [cycle], [form], [t], tol)
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
    edge at every vertex, so u(s) is linear on every panel.  No program code
    calls it: a run's resabs gives the same scale (``verify.check_stokes``).
    Tests keep it as the reference for that scale.
    """
    t = complex(t)
    fs = _integrand([spec.g.coeffs_at(t)], [[_form_coeffs(form, t)]])
    z = np.asarray(cycle.nodes, dtype=complex)
    s = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(z)))])
    value, _err, _resabs, _n = adaptive_polyline(
        lambda us: np.abs(fs(np.interp(us.real, s, z), None)[0]), s, tol
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

        # mp.quad runs along the polyline, skips its zero-length legs and sums the
        # values and error estimates of the others
        total, err = mp.quad(f, [mp.mpc(z) for z in cycle.nodes], error=True)
        value, error = complex(total), float(err) + truncation
    neval = sum(z0 != z1 for z0, z1 in zip(cycle.nodes, cycle.nodes[1:]))
    return PeriodValue(value=value, error=error, truncation=truncation, neval=neval)


def _certified(t: complex, exponents, rows, resabs_rows, tol: float) -> PeriodMatrix:
    """The period matrix of ``rows``, once each entry passes its certified target."""
    scale = max((abs(e.value) for row in rows for e in row), default=0.0)
    for row, rrow in zip(rows, resabs_rows):
        for e, resabs in zip(row, rrow):
            floor = max(1e-30 * scale, 100.0 * _EPS * resabs)
            if e.error > tol * abs(e.value) + floor:
                raise ToleranceNotMet(
                    f"period entry error {e.error:.3e} exceeds the certified "
                    f"target {tol * abs(e.value) + floor:.3e}"
                )
    return PeriodMatrix(t=t, exponents=tuple(exponents), entries=tuple(tuple(row) for row in rows))


def period_matrices(spec: ProblemSpec, basis: CohomologyBasis, bases, tol: float = 1e-10) -> list:
    """The period matrices of several cycle bases, possibly at different t, from one
    kernel run.  Each cycle is refined and tail-bounded as in a run of its own, and
    each matrix is certified on its own entries as ``period_matrix`` describes.  A
    cycle that occurs at one t in several bases is integrated once, so its rows
    agree to the last bit."""
    at = {}  # each distinct (cycle, t) -> its row of the run, in first-seen order
    idx = [[at.setdefault((cyc, cb.t), len(at)) for cyc in cb.cycles] for cb in bases]
    rows, resabs = period_rows(spec, [c for c, _ in at], basis.exponents, [t for _, t in at], tol)
    return [_certified(cb.t, basis.exponents, [rows[i] for i in ix], resabs[ix], tol)
            for cb, ix in zip(bases, idx)]


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
    if dps is None:
        return period_matrices(spec, basis, [cycles], tol)[0]
    rows = [[integrate_period(spec, cyc, k, cycles.t, tol=tol, dps=dps) for k in basis.exponents]
            for cyc in cycles.cycles]
    resabs = [[abs(pv.value) for pv in row] for row in rows]
    return _certified(cycles.t, basis.exponents, rows, resabs, tol)
