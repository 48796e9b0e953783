"""Twisted de Rham cohomology of one fiber family and its t-connection.

The family is the projection ``(t, u) -> t`` with fiber V (the affine line or
the punctured line) and twist ``exp(g(t, u))``.  For fixed t, the twisted
differential on functions is ``Q |-> (dQ/du + Q * dg/du) du``; the first
cohomology is the Laurent forms modulo that image.  A monomial window gives a
basis, the reduction onto it is exact linear algebra over Q(t), and the
derivative of a period ``d/dt \\int u^k e^g du = \\int u^k dg/dt e^g du`` turns
the reduction into the connection matrix ``Y' = A(t) Y``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DegenerateFamily, ReductionDiverges, SpecFormatError
from .symbolic import (
    LaurentPoly,
    RatFun,
    TPoly,
    bareiss,
    clear_denominators,
    zpoly_add,
    zpoly_derivative,
    zpoly_mul,
    zpoly_primitive_vector,
    zpoly_sub,
)

CONNECTION_CONVENTION = (
    "Y'(t) = A(t) Y(t) with Y_j = integral of u^e_j exp(g) du; "
    "A[i][j] = coefficient of basis form j in d/dt of basis form i"
)


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
        if self.g.partial_u().is_zero():
            raise DegenerateFamily("g does not depend on u")
        if self.fiber is FiberType.AFFINE_LINE and self.g.u_order < 0:
            raise SpecFormatError("negative u-powers are not functions on the affine line")

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

    Raises:
        DegenerateFamily: if the fiber type does not match the pole pattern
            (a punctured-line phase must have genuine poles at both ends).
    """
    d = spec.top_degree
    if spec.fiber is FiberType.AFFINE_LINE:
        if d < 1:
            raise DegenerateFamily("phase has no positive u-degree")
        return CohomologyBasis(rank=d - 1, exponents=tuple(range(0, d - 1)))
    e = -spec.bottom_order
    if d < 1 or e < 1:
        raise DegenerateFamily(
            "punctured-line phase must have a pole at infinity and at zero "
            f"(top degree {d}, bottom order {-e})"
        )
    return CohomologyBasis(rank=d + e, exponents=tuple(range(-e, d)))


def twisted_differential(Q: LaurentPoly, spec: ProblemSpec) -> LaurentPoly:
    """du-coefficient of the twisted differential of the function Q."""
    return Q.partial_u() + Q * spec.g.partial_u()


def _gauge_terms(spec: ProblemSpec, k: int) -> dict:
    """Terms of the twisted differential of the monomial gauge u^k."""
    out = {}
    for j, aj in spec.g.terms.items():
        if j != 0:
            key = k + j - 1
            c = aj * j
            out[key] = out[key] + c if key in out else c
    if k != 0:
        key = k - 1
        c = TPoly.const(k)
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if not c.is_zero()}


def reduce_form(P: LaurentPoly, spec: ProblemSpec, basis: CohomologyBasis) -> list:
    """Coordinates of the class ``[P du]`` in the monomial basis, over Q(t).

    Repeatedly subtracts twisted differentials of monomial gauges to push the
    u-support of P into the basis window: from above using the top term of g,
    and (punctured line) from below using the bottom term.  All arithmetic is
    exact.  Every division is by ``top`` or ``bottom``, the u-leading
    coefficients of these gauges, so each work entry is carried as ``(N, a, b)``,
    the ``TPoly`` numerator ``N`` over ``top^a * bottom^b``, and reduced to a
    ``RatFun`` once, at the end.

    Raises:
        ReductionDiverges: if the support fails to shrink (cannot happen for
            well-formed specs; kept as a hard safety check).
    """
    if spec.fiber is FiberType.AFFINE_LINE and not P.is_zero() and P.u_order < 0:
        raise SpecFormatError("form has negative u-powers on the affine line")
    d = spec.top_degree
    top = spec.g.coeff(d) * d  # coefficient of u^{k+d-1} in the gauge of u^k
    work = {k: (c, 0, 0) for k, c in P.terms.items()}

    if spec.fiber is FiberType.AFFINE_LINE:
        hi_cut, bottom = d - 1, TPoly.one()  # window 0..d-2; no gauges from below
    else:
        hi_cut = d
        e = -spec.bottom_order
        bottom = spec.g.coeff(-e) * (-e)

    budget = 2 * (len(work) + (max(work) - min(work) if work else 0)) + 8 * (d + 4)
    powers = ([TPoly.one()], [TPoly.one()])  # powers of top, of bottom

    def lift(N: TPoly, a: int, b: int) -> TPoly:
        """``N * top^a * bottom^b``."""
        for base, ps, n in ((top, powers[0], a), (bottom, powers[1], b)):
            if n:
                while len(ps) <= n:
                    ps.append(ps[-1] * base)
                N = N * ps[n]
        return N

    def _subtract_gauge(m: int, k: int, da: int, db: int):
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise ReductionDiverges("reduction budget exhausted")
        N, a, b = work[m]
        a, b = a + da, b + db  # the multiplier N / (top^a * bottom^b)
        for key, tp in _gauge_terms(spec, k).items():
            M, x, y = work.get(key, (TPoly.zero(), a, b))
            A, B = max(x, a), max(y, b)
            new = lift(M, A - x, B - y) - lift(N * tp, A - a, B - b)
            if new.is_zero():
                work.pop(key, None)
            else:
                work[key] = (new, A, B)
        assert m not in work, "gauge subtraction must cancel the target term exactly"

    while work:
        m = max(work)
        if m < hi_cut:
            break
        _subtract_gauge(m, m - d + 1, 1, 0)
    if spec.fiber is FiberType.PUNCTURED_LINE:
        while work:
            m = min(work)
            if m >= -e:
                break
            _subtract_gauge(m, m + e + 1, 0, 1)

    leftovers = set(work) - set(basis.exponents)
    assert not leftovers, f"reduction left exponents {sorted(leftovers)} outside the window"
    entries = [work.get(ei, (TPoly.zero(), 0, 0)) for ei in basis.exponents]
    return [RatFun(N, lift(TPoly.one(), a, b)) for N, a, b in entries]


@dataclass(frozen=True)
class ConnectionMatrix:
    """Exact connection ``Y'(t) = A(t) Y(t)`` in a monomial cohomology basis."""

    basis: CohomologyBasis
    entries: tuple  # tuple of tuples of RatFun, rank x rank
    convention = CONNECTION_CONVENTION  # a class constant, not a field

    @property
    def rank(self) -> int:
        return self.basis.rank

    def eval(self, t) -> list:
        """Numeric matrix as nested lists of complex (raises AtSingularT at a pole)."""
        return [[x.eval(complex(t)) for x in row] for row in self.entries]

    def denominators(self) -> list:
        """All entry denominators, for singular-set assembly."""
        return [x.den for row in self.entries for x in row if not x.den.is_one()]


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
    are ``v_k = w_k / D^k`` where ``w_{k+1} = w_k B + D w_k' - k D' w_k``.  A
    dependence ``sum_k c_k w_k = 0`` found by :func:`bareiss` is the operator
    with coefficients ``c_k D^k``, which is then made primitive.
    """
    r = A.rank
    if r == 0:
        return ScalarODE(order=0, coefficients=(TPoly.one(),), start=start)
    if not 0 <= start < r:
        raise IndexError(f"start index {start} out of range for rank {r}")
    nums, D = clear_denominators([x for row in A.entries for x in row])
    B = [nums[i * r:(i + 1) * r] for i in range(r)]
    dD = zpoly_derivative(D)

    def derivatives():
        w = [[1] if j == start else [] for j in range(r)]
        k = 0
        while True:
            yield w
            kdD = [k * c for c in dD]
            nxt = []
            for j in range(r):
                acc = zpoly_sub(zpoly_mul(D, zpoly_derivative(w[j])), zpoly_mul(kdD, w[j]))
                for i in range(r):
                    if w[i] and B[i][j]:
                        acc = zpoly_add(acc, zpoly_mul(w[i], B[i][j]))
                nxt.append(acc)
            w = nxt
            k += 1

    _, relation = bareiss(derivatives())
    polys, Dk = [], [1]
    for c in relation:
        polys.append(zpoly_mul(c, Dk))
        Dk = zpoly_mul(Dk, D)
    coeffs = tuple(TPoly(p) for p in zpoly_primitive_vector(polys))
    return ScalarODE(order=len(coeffs) - 1, coefficients=coeffs, start=start)
