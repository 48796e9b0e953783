"""Twisted de Rham cohomology of one fiber family and its t-connection.

The family is the projection ``(t, u) -> t`` with fiber V (the affine line or
the punctured line) and twist ``exp(g(t, u))``.  For fixed t, the twisted
differential on functions is ``Q |-> (dQ/du + Q * dg/du) du``; the first
cohomology is the Laurent forms modulo that image.  A monomial window gives a
basis, the reduction onto it is exact pseudo-division over one common
denominator in Q[t], and the derivative of a period
``d/dt \\int u^k e^g du = \\int u^k dg/dt e^g du`` turns the reduction into the
connection matrix ``Y' = A(t) Y``.  Solutions of that system are carried along
paths in the t-plane by Taylor series of its exact polynomial form
(:func:`transport`).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AtSingularT, DegenerateFamily, SingularProximity, SpecFormatError
from .symbolic import (
    LaurentPoly,
    RatFun,
    TPoly,
    bareiss,
    clear_denominators,
    zpoly_derivative,
    zpoly_mul,
    zpoly_norm,
    zpoly_pack,
    zpoly_primitive_vector,
    zpoly_unpack,
)

CONNECTION_CONVENTION = (
    "Y'(t) = A(t) Y(t) with Y_j = integral of u^e_j exp(g) du; "
    "A[i][j] = coefficient of basis form j in d/dt of basis form i"
)

# Taylor transport: a leg is at most _STEP_RATIO times the clearance of its
# start (distance to the nearest obstacle ball less that ball's radius), legs
# are bisected at most _MAX_SPLITS times, and a leg's series that has not
# converged by order _MAX_ORDER raises.
_STEP_RATIO = 0.5
_MAX_SPLITS = 40
_MAX_ORDER = 400
_STOP_RUN = 3


class FiberType(enum.Enum):
    AFFINE_LINE = "affine_line"
    PUNCTURED_LINE = "punctured_line"


@dataclass(frozen=True)
class ProblemSpec:
    """One family: fiber type, phase g in Q[t][u, 1/u], and a display label."""

    fiber: FiberType
    g: LaurentPoly
    label: str = ""

    def __post_init__(self):
        if self.dg.is_zero():
            raise DegenerateFamily("g does not depend on u")
        d, o = self.top_degree, self.bottom_order
        if self.fiber is FiberType.AFFINE_LINE and o < 0:
            raise SpecFormatError("negative u-powers are not functions on the affine line")
        if self.fiber is FiberType.PUNCTURED_LINE and (d < 1 or o > -1):
            raise DegenerateFamily(
                "punctured-line phase must have a pole at infinity and at zero "
                f"(top degree {d}, bottom order {o})"
            )

    @functools.cached_property
    def dg(self) -> LaurentPoly:
        """``dg/du``, in g's term order; it has no ``u^-1`` term."""
        return self.g.partial_u()

    @property
    def top_degree(self) -> int:
        return self.g.u_degree

    @property
    def bottom_order(self) -> int:
        return self.g.u_order


@dataclass(frozen=True)
class CohomologyBasis:
    """Monomial basis ``omega_i = u^{exponents[i]} du`` of the first twisted cohomology."""

    rank: int
    exponents: tuple

    def __post_init__(self):
        assert list(self.exponents) == sorted(self.exponents)
        assert len(self.exponents) == self.rank


def fiber_basis(spec: ProblemSpec) -> CohomologyBasis:
    """Rank and monomial exponent window of the generic fiber cohomology.

    AffineLine with top degree d:     rank d-1, exponents 0..d-2.
    PuncturedLine with pole orders d at infinity and e at zero:
                                      rank d+e, exponents -e..d-1.

    A pure derivation: ``ProblemSpec`` has checked the pole pattern (``d, e >= 1``
    on the punctured line; on the affine line ``dg/du != 0`` forces ``d >= 1``).
    """
    d = spec.top_degree
    if spec.fiber is FiberType.AFFINE_LINE:
        return CohomologyBasis(rank=d - 1, exponents=tuple(range(0, d - 1)))
    e = -spec.bottom_order
    return CohomologyBasis(rank=d + e, exponents=tuple(range(-e, d)))


def reduce_form(P: LaurentPoly, spec: ProblemSpec, basis: CohomologyBasis) -> list:
    """Coordinates of the class ``[P du]`` in the monomial basis, over Q(t).

    Pseudo-division by the twisted differentials of monomial gauges.  The
    gauge of ``u^k`` is ``k u^(k-1) + u^k dg/du``: ``dg/du`` shifted by k.  A
    step cancels the current extreme term ``c u^m`` of the work with one gauge:
    from above (``m >= hi_cut``) that of ``u^(m-d+1)``, whose ``u^m``
    coefficient ``lead`` is the top coefficient of ``dg/du``, and from below
    (punctured line, ``m < -e``) that of ``u^(m+e+1)``, whose ``lead`` is the
    bottom one.  The work ends in the basis window ``-e .. hi_cut - 1``
    (``e = 0`` on the affine line).  All arithmetic is exact and fraction-free:
    the work is a ``TPoly`` numerator per exponent over one common denominator
    ``den``, the product of the leads so far.  A step multiplies every
    numerator and ``den`` by ``lead`` and subtracts ``c`` times the gauge, so
    it divides by nothing.  Each entry becomes a ``RatFun`` once, at the end.

    The reduction ends because every step cancels the current extreme
    exponent m exactly.  From above, a step adds only exponents ``<= m - 1``,
    so that pass takes at most ``max(P) - hi_cut + 1`` steps.  From below
    (``m < -e``), a step adds only exponents in ``[m + 1, m + e + d]``, all
    below d, so that pass never brings back a term above the window.
    """
    if spec.fiber is FiberType.AFFINE_LINE and not P.is_zero() and P.u_order < 0:
        raise SpecFormatError("form has negative u-powers on the affine line")
    d, dg = spec.top_degree, spec.dg
    e = -spec.bottom_order if spec.fiber is FiberType.PUNCTURED_LINE else 0
    hi_cut = basis.rank - e  # the window is -e .. hi_cut - 1
    work, den = dict(P.terms), TPoly.one()
    while work:
        hi, lo = max(work), min(work)
        if hi >= hi_cut:
            m, k, lead = hi, hi - d + 1, dg.coeff(d - 1)
        elif lo < -e:
            m, k, lead = lo, lo + e + 1, dg.coeff(-e - 1)
        else:
            break
        c = work.pop(m)
        gauge = {k + j: g for j, g in dg.terms.items()}  # dg has no u^-1 term: no key clash
        assert gauge.pop(m) == lead, "the gauge must cancel the target term exactly"
        if k:
            gauge[k - 1] = k
        work = {key: N * lead for key, N in work.items()}
        den = den * lead
        for key, g in gauge.items():
            new = work.get(key, TPoly.zero()) - c * g
            if new.is_zero():
                work.pop(key, None)
            else:
                work[key] = new

    leftovers = set(work) - set(basis.exponents)
    assert not leftovers, f"reduction left exponents {sorted(leftovers)} outside the window"
    return [RatFun(work.get(ei, TPoly.zero()), den) for ei in basis.exponents]


@dataclass(frozen=True)
class ConnectionMatrix:
    """Exact connection ``Y'(t) = A(t) Y(t)`` in a monomial cohomology basis."""

    basis: CohomologyBasis
    entries: tuple  # tuple of tuples of RatFun, rank x rank
    convention = CONNECTION_CONVENTION  # a class constant, not a field

    @property
    def rank(self) -> int:
        return self.basis.rank

    def denominators(self) -> list:
        """All entry denominators, for singular-set assembly."""
        return [x.den for row in self.entries for x in row if not x.den.is_one()]

    @functools.cached_property
    def polynomial_form(self):
        """``(B, D)`` with ``D(t) A(t) = B(t)``, as float coefficient arrays.

        From one :func:`clear_denominators` call: ``B[k]`` is the ``t^k``
        coefficient matrix, shape ``(m, r, r)``, and ``D[k]`` that of the
        common denominator, shape ``(m,)``.  Both are scaled by one power of
        two, so that every integer coefficient is a finite float.
        """
        r = self.rank
        nums, den = clear_denominators([x for row in self.entries for x in row])
        polys = [den] + nums
        m = max(len(p) for p in polys)
        bits = max(abs(c).bit_length() for p in polys for c in p)
        scale = 1 << max(0, bits - 1000)
        flat = np.array([[c / scale for c in p] + [0.0] * (m - len(p)) for p in polys])
        return flat[1:].T.reshape(m, r, r), flat[0]


def connection_matrix(spec: ProblemSpec, basis: CohomologyBasis) -> ConnectionMatrix:
    """Differentiate each basis period under the integral sign and re-reduce.

    The derivative of ``u^{e_i} e^g du`` in t is ``u^{e_i} (dg/dt) e^g du``,
    so row i of A is the reduction of ``(dg/dt) u^{e_i} du``.
    """
    gt = spec.g.partial_t()
    rows = []
    for ei in basis.exponents:
        row = reduce_form(gt * LaurentPoly.u(ei), spec, basis)
        rows.append(tuple(row))
    return ConnectionMatrix(basis=basis, entries=tuple(rows))


@dataclass(frozen=True)
class Transport:
    """Transition matrix of ``Y' = A(t) Y`` along a path: ``Y(end) = matrix @ Y(start)``."""

    matrix: np.ndarray
    legs: int
    order: int  # Taylor terms summed on every leg
    amplification: float  # prod_leg |T_leg|_2 / |matrix|_2, at least 1


def _clearance(t, balls) -> float:
    """Distance from ``t`` to the nearest ball less that ball's radius (inf without balls)."""
    return min((abs(t - ball.center) - ball.radius for ball in balls), default=math.inf)


def _legs(path, balls) -> list:
    """``(start, step)`` of each leg, bisected until ``|step| <= _STEP_RATIO * clearance``.

    The clearance of a point is its distance to the nearest ball less that
    ball's radius; it bounds from below the radius of convergence of the
    Taylor series of every solution there.
    """
    legs = []
    for a, b in zip(path, path[1:]):
        stack = [(a, b, 0)]
        while stack:
            ta, tb, depth = stack.pop()
            room = _clearance(ta, balls)
            if abs(tb - ta) <= _STEP_RATIO * room:
                legs.append((ta, tb - ta))
                continue
            if room <= 0.0 or depth >= _MAX_SPLITS:
                raise SingularProximity(
                    f"path leg [{a}, {b}] runs into the singular ball at "
                    f"{min(balls, key=lambda ball: abs(ta - ball.center)).center}"
                )
            mid = 0.5 * (ta + tb)
            stack.append((mid, tb, depth + 1))
            stack.append((ta, mid, depth + 1))
    return legs


def transport(A: ConnectionMatrix, path, balls=()) -> Transport:
    """Transition matrix of the connection along a polyline in the t-plane.

    **Step rule.**  Each leg of ``path`` is bisected until its length is at
    most ``_STEP_RATIO`` (one half) of the clearance of its start ``t0``: the
    distance to the nearest ball of ``balls``, less that ball's radius.  The
    solutions are analytic on the disk of that radius, so their Taylor terms
    at ``t0`` shrink at least like ``2^-n`` on the leg.

    **Taylor step.**  With ``t = t0 + h s`` the polynomial form
    ``D(t) Y' = B(t) Y`` becomes ``d(s) dY/ds = b(s) Y``, where
    ``d_k = D_k(t0) h^k`` and ``b_k = B_k(t0) h^(k+1)`` come from one binomial
    shift of every leg's coefficients.  The terms of ``Y(s) = sum_n Y_n s^n``
    with ``Y_0 = I`` then follow exactly from

        d_0 (n+1) Y_{n+1} = sum_j b_j Y_{n-j} - sum_{j>=1} d_j (n-j+1) Y_{n-j+1},

    and the leg's transition matrix is ``sum_n Y_n``.  Divided by ``d_0``, the
    right side is one block row ``M - n M1`` on the last ``m`` terms of a buffer
    of ``m + need`` terms: one batched matmul per order for every leg.

    **Stop rule.**  Every ``need = max(3, m)`` orders: stop once, on every leg,
    the last ``need`` terms are at most ``eps * |partial sum|`` in the largest
    entry.  The leg matrices are multiplied in path order.  ``amplification``
    is the product of their spectral norms over the result's, a reading only:
    it is at least 1, and near 1 when no leg's terms cancel in the product.

    Args:
        balls: disks with ``center`` and ``radius`` that hold every pole of
            ``A``, such as ``SingularSet.hard_balls()``.

    Raises:
        SingularProximity: if no bisection meets the step rule, because the
            path runs into a ball.
        AtSingularT: if a leg starts at a pole of ``A``, or its series has not
            converged by order ``_MAX_ORDER``; the message then names the first
            such leg's start, its length and its clearance from ``balls``, so a
            long leg is told from one near a pole.
    """
    r = A.rank
    legs = _legs([complex(p) for p in path], tuple(balls))
    if not legs:
        return Transport(matrix=np.eye(r, dtype=complex), legs=0, order=0, amplification=1.0)
    t0, h = np.array(legs).T
    B, D = A.polynomial_form
    m = len(D)
    k = np.arange(m)
    # shift[l, j, i] = C(j, i) t0_l^(j - i), the (t - t0_l)^i coefficient of t^j
    binom = np.array([[math.comb(j, i) for i in range(m)] for j in range(m)], dtype=float)
    shift = binom * t0[:, None, None] ** np.maximum(k[:, None] - k[None, :], 0)
    hk = h[:, None] ** k
    d = np.einsum("lji,j->li", shift, D) * hk
    b = np.einsum("lji,jab->liab", shift, B) * (h[:, None] * hk)[:, :, None, None]
    eps = np.finfo(float).eps
    at_pole = np.abs(d[:, 0]) <= eps * (np.abs(t0)[:, None] ** k @ np.abs(D))
    if at_pole.any():
        raise AtSingularT(f"transport leg starts at a pole of the connection: t={t0[at_pole][0]}")

    # Over d_0, the block of Y_{n-j} in (n+1) Y_{n+1} is (b_j + j d_{j+1}) - n d_{j+1}
    # (d_m = 0); M and M1 hold these blocks for j = m-1 .. 0, the order of the history
    L, need = len(legs), max(_STOP_RUN, m)
    dn = np.append(d[:, 1:], np.zeros((L, 1)), axis=1)[:, :, None, None] * np.eye(r)
    blocks = np.stack((b + k[:, None, None] * dn, dn)) / d[:, 0, None, None, None]
    M, M1 = blocks[:, :, ::-1].transpose(0, 1, 3, 2, 4).reshape(2, L, r, m * r)
    hist = np.zeros((L, (m + need) * r, r), dtype=complex)  # the last m terms (zero before Y_0), then need new
    hist[:, (m - 1) * r:m * r] = total = np.tile(np.eye(r, dtype=complex), (L, 1, 1))
    slow = np.ones(L, dtype=bool)  # the legs whose last terms are not yet below eps
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(_MAX_ORDER):
            a = (m + n % need) * r  # the first row of Y_{n+1}
            np.matmul((M - n * M1) / (n + 1), hist[:, a - m * r:a], out=hist[:, a:a + r])
            if (n + 1) % need:
                continue
            tail = hist[:, m * r:].reshape(L, need, r, r)
            total += tail.sum(axis=1)
            scale = np.abs(total).max(axis=(1, 2))
            if not np.isfinite(scale).all():
                raise AtSingularT("Taylor transport overflowed: a leg runs onto a pole")
            slow = np.abs(tail).max(axis=(1, 2, 3)) > eps * scale
            if not slow.any():
                break
            hist[:, :m * r] = hist[:, need * r:]  # the last m terms start the next need
        else:
            i = int(np.argmax(slow))
            raise AtSingularT(
                f"Taylor transport did not converge by order {_MAX_ORDER}: the leg from "
                f"t={t0[i]:.6g} of length {abs(h[i]):.3g} has clearance "
                f"{_clearance(t0[i], balls):.3g} from the hard balls"
            )
        phi = functools.reduce(lambda acc, step: step @ acc, total)  # legs in path order
        growth = np.prod(np.linalg.norm(total, 2, axis=(1, 2))) / np.linalg.norm(phi, 2)
    return Transport(matrix=phi, legs=L, order=n + 1, amplification=float(growth))


@dataclass(frozen=True)
class ScalarODE:
    """Scalar operator ``sum_j p_j(t) (d/dt)^j y = 0`` annihilating one period.

    ``coefficients[j]`` is ``p_j`` as a TPoly; denominators are cleared,
    content is removed, and the leading polynomial has positive leading
    coefficient.  Order 0 encodes ``y = 0`` for a rank-zero system.
    """

    order: int
    coefficients: tuple
    start: int = 0

    def __post_init__(self):
        assert len(self.coefficients) == self.order + 1
        assert self.order == 0 or not self.coefficients[self.order].is_zero()

    def to_str(self) -> str:
        parts = []
        for j in range(self.order, -1, -1):
            p = self.coefficients[j]
            if p.is_zero():
                continue
            dy = "y" if j == 0 else f"y^({j})"
            parts.append(f"({p.to_str()})*{dy}")
        return " + ".join(parts) + " = 0"


def cyclic_ode(A: ConnectionMatrix, start: int = 0) -> ScalarODE:
    """Minimal-order scalar operator annihilating the component ``Y_start``.

    Successive derivatives of ``y = Y_start`` are the row vectors
    ``v_{k+1} = v_k A + v_k'``; the first exact linear dependence over Q(t)
    (guaranteed at order <= rank) yields the scalar equation.

    The work is fraction-free over Z[t].  With ``A = B/D`` for an integer
    polynomial matrix ``B`` and one common denominator ``D``, the derivatives
    are ``v_k = w_k / D^k`` where ``w_{k+1} = w_k B + D w_k' - k D' w_k``.
    Each ``w_{k+1}`` is formed on integers packed at ``2^K`` (as in
    :func:`bareiss`), ``2^K`` over twice the 1-norm bound of its right side,
    and unpacked for the next derivative.  Of ``w_0 .. w_rank`` (certain to be
    dependent), :func:`bareiss` finds a dependence ``sum_k c_k w_k = 0``: the
    operator with coefficients ``c_k D^k``, which is then made primitive.
    """
    r = A.rank
    if r == 0:
        return ScalarODE(order=0, coefficients=(TPoly.one(),), start=start)
    if not 0 <= start < r:
        raise IndexError(f"start index {start} out of range for rank {r}")
    nums, D = clear_denominators([x for row in A.entries for x in row])
    B = [nums[i * r:(i + 1) * r] for i in range(r)]
    dD = zpoly_derivative(D)
    nD, ndD, nB = zpoly_norm(D), zpoly_norm(dD), [[zpoly_norm(b) for b in row] for row in B]
    columns = [[[1] if j == start else [] for j in range(r)]]
    for k in range(r):
        w = columns[-1]
        dw, nw = [zpoly_derivative(x) for x in w], [zpoly_norm(x) for x in w]
        K = max(
            nD * zpoly_norm(dw[j]) + k * ndD * nw[j] + sum(nw[i] * nB[i][j] for i in range(r))
            for j in range(r)
        ).bit_length() + 1
        pD, pdD, pw = zpoly_pack(D, K), k * zpoly_pack(dD, K), [zpoly_pack(x, K) for x in w]
        pB = [[zpoly_pack(b, K) for b in row] for row in B]
        columns.append([
            zpoly_unpack(pD * zpoly_pack(dw[j], K) - pdD * pw[j]
                         + sum(pw[i] * pB[i][j] for i in range(r)), K)
            for j in range(r)
        ])

    _, relation = bareiss(columns)
    polys, Dk = [], [1]
    for c in relation:
        polys.append(zpoly_mul(c, Dk))
        Dk = zpoly_mul(Dk, D)
    coeffs = tuple(TPoly(p) for p in zpoly_primitive_vector(polys))
    return ScalarODE(order=len(coeffs) - 1, coefficients=coeffs, start=start)
