"""Numeric verification of the structural properties of the period pairing.

Four independent checks, each reported with an explicit residual and
threshold:

* **solution property** — every row of the period matrix solves the derived
  system Y' = A(t) Y.  The cycle basis is continued over one step from t and
  the exact solutions are transported along the same step
  (``cohomology.transport``); the period matrices at both ends come from one
  quadrature run and must differ by the transition matrix of the step.
* **vanishing on coboundaries** — for random gauge forms Q, the integral of
  the twisted differential of Q against every rapid-decay cycle vanishes
  relative to the scale integral |Q e^g| |du|, taken from the same run.  The
  differential is built at t, in floats, from the coefficients of Q and dg/du.
* **perfect duality** — the period matrix is robustly non-degenerate:
  |det P| must exceed a fixed fraction of the product of its row norms.
* **monodromy consistency** — continuing the cycle basis around a closed
  loop and transporting solutions along the same loop produce the same
  monodromy matrix.

Solutions are transported by Taylor series of the exact connection
``D(t) Y' = B(t) Y`` (``cohomology.transport``), the one the singular set was
derived from (``SingularSet.connection``), each leg bisected to at most
half its start's clearance from the hard singular balls; each order is one
batched matmul over a history buffer, and the stop test runs every
``max(3, m)`` orders.  Residuals are relative Frobenius norms, scaled by the
largest entry so that no square overflows.

All randomness is drawn from ``random.Random`` seeded with ``STOKES_SEED``
(or a caller-provided seed), so every run is reproducible.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cohomology import ConnectionMatrix, FiberType, ProblemSpec, fiber_basis, transport
from .cycles import CycleBasis, cycle_basis, track_cycles
from .errors import SingularProximity
from .quadrature import period_matrices, period_matrix, period_rows
from .singular import SingularSet, singular_set
from .symbolic import LaurentPoly, TPoly

# Fixed seed for all reproducible random gauge draws.
STOKES_SEED = 1729
# Pass thresholds of the checks; period tolerances of the ODE check and of duality and monodromy.
_ODE_TOL = 1e-6
_STOKES_TOL = 1e-8
_DUALITY_TOL = 1e-3
_MONODROMY_TOL = 1e-6
_ODE_PERIOD_TOL = 1e-11
_PERIOD_TOL = 1e-10
# Legs of the polygonal monodromy loop.
_LOOP_SEGMENTS = 24


@dataclass(frozen=True)
class CheckRecord(object):
    name: str
    passed: bool
    residual: float
    threshold: float
    details: dict

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "threshold": self.threshold,
            "details": self.details,
        }


@dataclass(frozen=True)
class VerificationReport(object):
    label: str
    t: complex
    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "t": [self.t.real, self.t.imag],
            "passed": self.passed,
            "checks": [r.to_json_dict() for r in self.records],
        }


@dataclass(frozen=True)
class MonodromyResult(object):
    center: complex
    basepoint: complex
    m_cycle: tuple  # row tuples of complex
    m_ode: tuple
    eigenvalues: tuple
    record: CheckRecord

    def to_json_dict(self) -> dict:
        def mat(m):
            return [[[z.real, z.imag] for z in row] for row in m]

        return {
            "center": [self.center.real, self.center.imag],
            "basepoint": [self.basepoint.real, self.basepoint.imag],
            "m_cycle": mat(self.m_cycle),
            "m_ode": mat(self.m_ode),
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "check": self.record.to_json_dict(),
        }


def _norm(m: np.ndarray) -> float:
    """Frobenius norm, taken on m over its largest entry so that no square overflows."""
    top = float(np.abs(m).max(initial=0.0))
    return top * float(np.linalg.norm(m / top)) if 0.0 < top < math.inf else top


def _vacuous(name: str, note: str) -> CheckRecord:
    return CheckRecord(
        name=name, passed=True, residual=0.0, threshold=1.0, details={"note": note}
    )


def _continue(spec, basis, A, singular, base, path, tol):
    """Period matrices at both ends of ``path``, from one kernel run, and the transport along it."""
    step = transport(A, path, singular.hard_balls())  # first: its step rule refuses hard balls
    moved = track_cycles(spec, base, path)
    P0, P1 = (P.values() for P in period_matrices(spec, basis, [base, moved], tol=tol))
    return P0, P1, step


# ---------------------------------------------------------------------------
# Solution property of the period matrix
# ---------------------------------------------------------------------------


def check_ode(
    spec: ProblemSpec,
    t: complex,
    singular: SingularSet = None,
    A: ConnectionMatrix = None,
    cycles: CycleBasis = None,
) -> CheckRecord:
    """Verify that period-matrix rows solve Y' = A(t) Y on a step from t.

    The cycle basis at t (``cycles`` when given) is continued to t + h,
    h = 0.02 * max(1, |t|), and the exact solutions are transported along the
    same step: the residual is |P(t+h) - P(t) Phi^T| / (h |P(t)|), with both
    period matrices from one kernel run.  ``A`` defaults to the connection of
    ``singular``, and ``singular`` to the set derived from ``A`` (or from
    ``spec``).  Raises SingularProximity if the step runs too close to a hard
    singular ball.
    """
    t = complex(t)
    basis = fiber_basis(spec)
    if basis.rank == 0:
        return _vacuous("ode_residual", "rank zero: the solution space is trivial")
    if singular is None:
        singular = singular_set(spec, A)
    if A is None:
        A = singular.connection
    h = 0.02 * max(1.0, abs(t))
    base = cycles if cycles is not None else cycle_basis(spec, t)
    P0, P1, step = _continue(spec, basis, A, singular, base, [t, t + h], _ODE_PERIOD_TOL)
    residual = _norm(P1 - P0 @ step.matrix.T) / (h * max(_norm(P0), 1e-300))
    return CheckRecord(
        name="ode_residual",
        passed=residual < _ODE_TOL,
        residual=residual,
        threshold=_ODE_TOL,
        details={"t": [t.real, t.imag], "h": h, "rank": basis.rank},
    )


# ---------------------------------------------------------------------------
# Vanishing of twisted coboundaries
# ---------------------------------------------------------------------------


def random_gauge(spec: ProblemSpec, rng: random.Random) -> LaurentPoly:
    """A small random Laurent form Q allowed on the fiber, coefficients c0+c1*t."""
    d = spec.top_degree
    if spec.fiber is FiberType.PUNCTURED_LINE:
        lo = spec.bottom_order - 2
    else:
        lo = 0
    hi = d + 2
    exps = rng.sample(range(lo, hi + 1), rng.randint(1, 3))
    q = LaurentPoly.zero()
    for k in exps:
        c0 = rng.randint(-3, 3)
        c1 = rng.randint(-3, 3)
        if c0 == 0 and c1 == 0:
            c0 = 1
        coeff = TPoly((Fraction(c0), Fraction(c1)))
        q = q + LaurentPoly.monomial(k, coeff)
    return q


def check_stokes(spec: ProblemSpec, t: complex, Q: LaurentPoly, cycle=None) -> CheckRecord:
    """Verify that the twisted differential of Q integrates to zero.

    The integral of (dQ/du + Q dg/du) e^{g} du over a rapid-decay cycle must
    vanish; the residual is normalized by the scale integral |Q e^{g}| |du|.
    The coboundary is formed at t, in floats, from the coefficient maps of Q
    and dg/du (an entry that comes out exactly 0 is dropped).  One kernel run
    integrates it and Q, and the scale is the resabs it sums for the Q column.
    """
    t = complex(t)
    if fiber_basis(spec).rank == 0:
        return _vacuous("stokes_residual", "rank zero: no cycles to pair against")
    if cycle is None:
        cycle = cycle_basis(spec, t).cycles[0]
    qmap, dgmap, cob = Q.coeffs_at(t), spec.dg.coeffs_at(t), {}
    for k, q in qmap.items():
        if k:
            cob[k - 1] = cob.get(k - 1, 0) + k * q
        for j, c in dgmap.items():
            cob[k + j] = cob.get(k + j, 0) + q * c
    cob = {k: c for k, c in cob.items() if c != 0}
    ((pv, _q),), resabs = period_rows(spec, [cycle], [cob, qmap], [t], tol=1e-13)
    scale = float(resabs[0, 1])
    if scale == 0.0:
        return _vacuous("stokes_residual", "gauge form vanishes on the cycle")
    residual = abs(pv.value) / scale
    return CheckRecord(
        name="stokes_residual",
        passed=residual < _STOKES_TOL,
        residual=residual,
        threshold=_STOKES_TOL,
        details={
            "t": [t.real, t.imag],
            "gauge": Q.to_str(),
            "scale": scale,
            "quadrature_error": pv.error,
        },
    )


# ---------------------------------------------------------------------------
# Perfect duality (non-degeneracy of the pairing)
# ---------------------------------------------------------------------------


def check_duality(spec: ProblemSpec, t: complex, cycles: CycleBasis = None) -> CheckRecord:
    """Verify |det P| > 1e-3 * prod(row norms): the pairing is non-degenerate.

    The threshold is scale-invariant (Hadamard's inequality bounds |det P|
    by the product of row norms, so the ratio lies in [0, 1]).  |det P| is the
    product of the singular values, from the one SVD that gives the numeric rank.
    """
    t = complex(t)
    basis = fiber_basis(spec)
    if basis.rank == 0:
        return _vacuous("duality_det", "rank zero: empty pairing is perfect")
    if cycles is None:
        cycles = cycle_basis(spec, t)
    P = period_matrix(spec, basis, cycles, tol=_PERIOD_TOL).values()
    svals = np.linalg.svd(P, compute_uv=False)
    det = math.prod(svals.tolist())  # |det P|, the product of the singular values
    row_norms = [float(np.linalg.norm(row)) for row in P]
    hadamard = math.prod(row_norms)
    numeric_rank = int(np.sum(svals > svals[0] * 1e-10)) if len(svals) else 0
    ratio = det / max(hadamard, 1e-300)
    return CheckRecord(
        name="duality_det",
        passed=ratio > _DUALITY_TOL and numeric_rank == basis.rank,
        residual=ratio,
        threshold=_DUALITY_TOL,
        details={
            "t": [t.real, t.imag],
            "det": det,
            "hadamard": hadamard,
            "numeric_rank": numeric_rank,
            "condition": float(svals[0] / svals[-1]) if len(svals) else 1.0,
        },
    )


# ---------------------------------------------------------------------------
# Monodromy: cycle continuation against ODE transport
# ---------------------------------------------------------------------------


def monodromy(
    spec: ProblemSpec,
    center: complex,
    basepoint: complex = None,
    singular: SingularSet = None,
) -> MonodromyResult:
    """Monodromy of the local system around a counterclockwise loop.

    The loop is the regular ``_LOOP_SEGMENTS``-gon about ``center`` with a
    vertex at ``basepoint``; by default the basepoint lies east of the centre
    at half the gap to the nearest other singular ball (distance less its
    radius).  Both sides walk this one polygon.  M_cycle expresses the
    continued cycle basis in the original one via the period matrices.  M_ode
    carries the solutions by :func:`cohomology.transport` of
    ``singular.connection`` (see the module docstring); ``singular`` defaults
    to the set derived from ``spec``.  They must agree to _MONODROMY_TOL in
    relative Frobenius norm.

    Raises:
        SingularProximity: if the loop runs too close to a hard singular ball
            for the transport step rule.
    """
    center = complex(center)
    basis = fiber_basis(spec)
    if singular is None:
        singular = singular_set(spec)
    if basepoint is None:
        gaps = [
            abs(b.center - center) - b.radius
            for b in singular.balls
            if abs(b.center - center) > 1e-9 * (1.0 + abs(center))
        ]
        basepoint = center + min(gaps, default=2.0) / 2.0
    basepoint = complex(basepoint)
    if basis.rank == 0:
        rec = _vacuous("monodromy_match", "rank zero: monodromy is the empty matrix")
        return MonodromyResult(
            center=center,
            basepoint=basepoint,
            m_cycle=(),
            m_ode=(),
            eigenvalues=(),
            record=rec,
        )

    rho = basepoint - center
    loop = [
        center + rho * cmath.exp(2j * math.pi * k / _LOOP_SEGMENTS)
        for k in range(_LOOP_SEGMENTS)
    ]
    loop.append(basepoint)

    base = cycle_basis(spec, basepoint)
    # One run gives P0 and P1; a cycle the loop carries back onto its own polyline
    # is integrated once, so its rows agree to the last bit.
    try:
        P0, P1, ode = _continue(spec, basis, singular.connection, singular, base, loop, _PERIOD_TOL)
    except SingularProximity as exc:
        raise SingularProximity(f"monodromy loop about {center}: {exc}") from exc
    m_cycle = np.linalg.solve(P0.T, P1.T).T
    m_ode = np.linalg.solve(P0.T, (P0 @ ode.matrix.T).T).T

    mismatch = _norm(m_cycle - m_ode) / max(_norm(m_ode), 1e-300)
    eig = sorted(np.linalg.eigvals(m_cycle), key=lambda z: (z.real, z.imag))
    rec = CheckRecord(
        name="monodromy_match",
        passed=mismatch < _MONODROMY_TOL,
        residual=mismatch,
        threshold=_MONODROMY_TOL,
        details={
            "center": [center.real, center.imag],
            "basepoint": [basepoint.real, basepoint.imag],
            "eigenvalues": [[z.real, z.imag] for z in eig],
            "transport_legs": ode.legs,
            "taylor_order": ode.order,
            "transport_amplification": ode.amplification,
        },
    )
    return MonodromyResult(
        center=center,
        basepoint=basepoint,
        m_cycle=tuple(tuple(z for z in row) for row in m_cycle.tolist()),
        m_ode=tuple(tuple(z for z in row) for row in m_ode.tolist()),
        eigenvalues=tuple(complex(z) for z in eig),
        record=rec,
    )


# ---------------------------------------------------------------------------
# Full battery
# ---------------------------------------------------------------------------


def run_all(
    spec: ProblemSpec,
    t: complex = None,
    seed: int = STOKES_SEED,
    n_stokes: int = 5,
) -> VerificationReport:
    """Run every structural check at one admissible parameter value.

    If t is omitted, the first of a fixed list of candidate points that keeps
    a safe distance from all hard singular balls is used.  The singular set,
    which carries the exact connection, and one cycle basis at t are built
    once and shared by the checks.  Monodromy loops about the hard ball
    nearest to t; with no hard ball its record is vacuous, since a loop about
    a ball that only marks critical-point degeneration cannot carry monodromy.
    """
    basis = fiber_basis(spec)
    sigma = singular_set(spec)
    hard = sigma.hard_balls()
    if t is None:
        candidates = [1.0, 2.0, 1.0 + 1.0j, 3.0, -1.5 + 0.5j]
        t = next(
            (
                c
                for c in candidates
                if all(abs(c - b.center) > 0.5 + 2.0 * b.radius for b in hard)
            ),
            1.0,
        )
    t = complex(t)

    # One cycle basis at t serves the ODE, the duality and every Stokes check;
    # at rank zero there is none, and each check is vacuous.
    cycles = cycle_basis(spec, t) if basis.rank else None
    records = [
        check_ode(spec, t, singular=sigma, cycles=cycles),
        check_duality(spec, t, cycles=cycles),
    ]
    rng = random.Random(seed)
    for i in range(n_stokes):
        cyc = cycles.cycles[i % basis.rank] if basis.rank else None
        records.append(check_stokes(spec, t, random_gauge(spec, rng), cycle=cyc))
    if hard:
        nearest = min(hard, key=lambda b: abs(b.center - t))
        records.append(monodromy(spec, nearest.center, singular=sigma).record)
    else:
        note = "no hard singular ball: A(t) is entire, every loop acts trivially"
        records.append(_vacuous("monodromy_match", note))
    return VerificationReport(label=spec.label, t=t, records=tuple(records))
