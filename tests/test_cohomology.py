"""Exact twisted-cohomology bases, connection matrices, and scalar ODEs."""

import cmath
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expperiods.cohomology import (
    CONNECTION_CONVENTION,
    CohomologyBasis,
    ConnectionMatrix,
    FiberType,
    ProblemSpec,
    connection_matrix,
    cyclic_ode,
    fiber_basis,
    reduce_form,
    transport,
)
from expperiods import symbolic
from expperiods.errors import AtSingularT, DegenerateFamily, SingularProximity, SpecFormatError
from expperiods.singular import RootBall, singular_set
from expperiods.symbolic import (
    LaurentPoly,
    RatFun,
    TPoly,
    clear_denominators,
    parse_laurent,
    zpoly_add,
    zpoly_derivative,
    zpoly_mul,
    zpoly_primitive_vector,
    zpoly_sub,
)

import ratfun
import transport_ref
from bareiss_ref import reference_bareiss
from test_cycles import bench_gen_and_refs, verify_cases


def make(fiber, g, label=""):
    return ProblemSpec(fiber=fiber, g=parse_laurent(g), label=label)


def twisted_differential(Q, spec):
    """du-coefficient of the twisted differential of the function Q, exactly."""
    return Q.partial_u() + Q * spec.dg


AIRY = make(FiberType.AFFINE_LINE, "u^3/3 - t*u", "airy")
BESSEL = make(FiberType.PUNCTURED_LINE, "(t/2)*(u - u^-1)", "bessel")
GAUSSIAN = make(FiberType.AFFINE_LINE, "-t*u^2", "gaussian")
LINEAR = make(FiberType.AFFINE_LINE, "t*u", "linear")
ALL = (AIRY, BESSEL, GAUSSIAN, LINEAR)

# cyclic_ode strings of the ladder rungs, captured from the Q(t) elimination
# that the Z[t] routine replaced; the output must stay byte-identical.
LADDER_ODES = [
    (
        FiberType.AFFINE_LINE,
        "u^5/5-t*u^2+u",
        (
            "(t^2)*y^(4) + (-2*t)*y^(3) + (2*t^2 + 2)*y^(2) + (4*t^4 - 2*t)*y^(1) + (2*t^3 + t^2"
            " + 2)*y = 0"
        ),
    ),
    (
        FiberType.AFFINE_LINE,
        "u^7-t*u^3+t^2*u",
        (
            "(9256148959232*t^15 - 5454516350976*t^14 + 779216621568*t^13 + 43219536640*t^12 -"
            " 11249126784*t^11 - 52065699943824*t^10 + 9545440954560*t^9 - 1009440964539*t^8 +"
            " 90128545920*t^7 + 3100286448*t^6 - 46859426545932*t^5 + 6275794905450*t^4 +"
            " 242398352448*t^3 - 2668279320*t^2 - 254121840*t + 2440586151360)*y^(6) +"
            " (-138842234388480*t^14 + 76363228913664*t^13 - 10129816080384*t^12 -"
            " 518634439680*t^11 + 123740394624*t^10 + 520656999438240*t^9 - 85908968591040*t^8 +"
            " 8075527716312*t^7 - 630899821440*t^6 - 18601718688*t^5 + 234297132729660*t^4 -"
            " 25103179621800*t^3 - 727195057344*t^2 + 5336558640*t + 254121840)*y^(5) +"
            " (35702288842752*t^17 - 21038848782336*t^16 + 3005549826048*t^15 + 166703927040*t^14"
            " + 971852251230336*t^13 - 696689965456464*t^12 + 104007853537728*t^11 -"
            " 2621006185791*t^10 - 177094686720*t^9 - 2134681219104336*t^8 + 65082928265964*t^7 +"
            " 9994750542630*t^6 + 2808215746560*t^5 + 29740726008*t^4 - 390496597709400*t^3 +"
            " 43581918897720*t^2 + 373559104800*t - 17788528800)*y^(4) + (-249916021899264*t^16 +"
            " 121982820212736*t^15 - 12674919720960*t^14 - 1057688980992*t^13 -"
            " 3887439964222080*t^12 + 2279988903056928*t^11 - 311934905916312*t^10 +"
            " 5252126352606*t^9 + 1501058178816*t^8 + 4685905647192672*t^7 - 754958530290888*t^6"
            " + 86466586922100*t^5 + 422181083520*t^4 - 102597457536*t^3 + 488113345838160*t^2 +"
            " 59271331286160*t + 498078806400)*y^(3) + (-126941471440896*t^20 +"
            " 91239182598144*t^19 - 21099566960640*t^18 + 1220146249728*t^17 + 169672715520*t^16"
            " + 1654180782742656*t^15 - 558697699325808*t^14 + 68512947028848*t^13 -"
            " 4635729647325*t^12 + 8747363621720943*t^11 - 2061812924514000*t^10 -"
            " 103282597145196*t^9 + 61853827988232*t^8 - 3651290516034*t^7 - 7653772610811432*t^6"
            " + 2186771611047408*t^5 - 123772648402620*t^4 - 1985199814080*t^3 - 52247450304*t^2"
            " - 292875529509360*t + 62757976281840)*y^(2) + (31735367860224*t^19 +"
            " 7933841965056*t^18 - 6314690543616*t^17 + 113485166592*t^16 + 123320891904*t^15 +"
            " 725941483642368*t^14 - 136009242758592*t^13 + 16052395156056*t^12 -"
            " 2464507558674*t^11 - 8747064057957120*t^10 + 5667738794956224*t^9 -"
            " 868968415169820*t^8 + 1578697719984*t^7 + 2636022175416*t^6 + 7653659522962320*t^5"
            " - 1073862594887040*t^4 + 28589874626880*t^3 - 5400597343680*t^2 - 111813609600*t +"
            " 292873242412800)*y^(1) + (84627647627264*t^23 - 64981943713792*t^22 +"
            " 16704245497856*t^21 - 1274599854080*t^20 - 116617453568*t^19 - 793361419198208*t^18"
            " + 207412593349248*t^17 - 28992992479920*t^16 + 5298750073008*t^15 -"
            " 531568122357*t^14 - 2392040954545536*t^13 + 876619433278512*t^12 -"
            " 107676148850676*t^11 + 536030282844*t^10 + 116169940260*t^9 + 1606605087081960*t^8"
            " - 404041683632832*t^7 - 20129493474720*t^6 + 1502876425680*t^5 + 40804706880*t^4 -"
            " 878613462357120*t^3 + 62757974059200*t^2 + 640387036800*t - 30494620800)*y = 0"
        ),
    ),
    (
        FiberType.PUNCTURED_LINE,
        "u^3+t*u-u^-3+t^2*u^-1",
        (
            "(2336256*t^15 - 1128960*t^12 - 3475296*t^9 - 12941568*t^6 - 325458*t^3 -"
            " 16929)*y^(6) + (-35043840*t^14 + 13547520*t^11 + 31277664*t^8 + 77649408*t^5 +"
            " 976374*t^2)*y^(5) + (-3115008*t^19 - 25751040*t^16 + 265807488*t^13 - 10479648*t^10"
            " + 126073464*t^7 - 186582042*t^4 + 2758401*t)*y^(4) + (-12460032*t^18 +"
            " 242605056*t^15 - 1033446912*t^12 + 191713920*t^9 - 338564928*t^6 + 182244276*t^3 -"
            " 1529253)*y^(3) + (36341760*t^20 + 102665728*t^17 - 1029523072*t^14 +"
            " 2033219104*t^11 - 803822328*t^8 - 141381414*t^5 - 51908553*t^2)*y^(2) +"
            " (109025280*t^19 - 411714048*t^16 + 1672063104*t^13 - 5031831072*t^10 +"
            " 385323768*t^7 + 1300257882*t^4 - 21393126*t)*y^(1) + (84105216*t^21 -"
            " 143757312*t^18 + 43295872*t^15 - 2059631872*t^12 - 2275244936*t^9 + 156794940*t^6 -"
            " 1134500454*t^3 + 13560129)*y = 0"
        ),
    ),
]


def random_section(spec, rng):
    """A random Laurent form allowed on the given fiber."""
    d = spec.top_degree
    lo = spec.bottom_order - 2 if spec.fiber is FiberType.PUNCTURED_LINE else 0
    q = LaurentPoly.zero()
    for k in rng.sample(range(lo, d + 3), rng.randint(1, 3)):
        c0, c1 = rng.randint(-4, 4), rng.randint(-4, 4)
        if c0 == 0 and c1 == 0:
            c0 = 1
        q = q + LaurentPoly.monomial(k, TPoly((Fraction(c0), Fraction(c1))))
    return q


def reference_reduce_form(P, spec, basis):
    """The reduction as it ran on RatFun before reduce_form went fraction-free.

    Every entry is a reduced RatFun, so each subtraction pays a gcd; the
    gauges are taken from the public twisted differential.
    """
    d = spec.top_degree
    top = spec.g.coeff(d) * d
    work = {k: RatFun(c) for k, c in P.terms.items()}
    if spec.fiber is FiberType.AFFINE_LINE:
        hi_cut = d - 1
    else:
        hi_cut = d
        e = -spec.bottom_order
        bottom = spec.g.coeff(-e) * (-e)

    def subtract_gauge(m, k, lead):
        c = ratfun.div(work[m], lead)
        for key, tp in twisted_differential(LaurentPoly.u(k), spec).terms.items():
            new = ratfun.sub(work.get(key, ratfun.zero()), ratfun.mul(c, tp))
            if new.num.is_zero():
                work.pop(key, None)
            else:
                work[key] = new
        assert m not in work

    while work and max(work) >= hi_cut:
        m = max(work)
        subtract_gauge(m, m - d + 1, top)
    if spec.fiber is FiberType.PUNCTURED_LINE:
        while work and min(work) < -e:
            m = min(work)
            subtract_gauge(m, m + e + 1, bottom)
    assert set(work) <= set(basis.exponents)
    return [work.get(ei, ratfun.zero()) for ei in basis.exponents]


# Families of the benchmark's random recipe: coefficients a + b*t + c*t^2 with
# a, b, c in [-2, 2] on u^2 .. u^d, a t*u term, and on the punctured line a
# pole term (k + t)*u^-e with k in {1, 2} and e in {1, 2}.
_TCOEFF = st.lists(st.integers(-2, 2), min_size=3, max_size=3)


@st.composite
def recipe_families(draw):
    punctured = draw(st.booleans())
    d = draw(st.integers(2, 4))
    terms = {d: TPoly(draw(_TCOEFF.filter(any))), 1: TPoly.t()}
    for k in range(2, d):
        terms[k] = TPoly(draw(_TCOEFF))
    if punctured:
        terms[-draw(st.integers(1, 2))] = TPoly((draw(st.integers(1, 2)), 1))
    fiber = FiberType.PUNCTURED_LINE if punctured else FiberType.AFFINE_LINE
    return ProblemSpec(fiber=fiber, g=LaurentPoly(terms))


@st.composite
def sparse_punctured_families(draw):
    """Punctured phases with poles up to order 4 at both ends and gaps in
    the u-support, so that gauge subtractions from below also meet entries
    that earlier steps from above have filled."""
    d, e = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    inner = draw(st.lists(st.integers(-e + 1, d - 1).filter(bool), max_size=3))
    terms = {j: TPoly(draw(_TCOEFF.filter(any))) for j in [d, -e] + inner}
    terms[1] = terms.get(1, TPoly.zero()) + TPoly.t()
    return ProblemSpec(fiber=FiberType.PUNCTURED_LINE, g=LaurentPoly(terms))


@st.composite
def forms_on(draw, spec):
    """A form allowed on the fiber, with support up to 8 past each window end.

    Terms far apart start separate chains of gauge subtractions, which later
    meet on the same entries.
    """
    lo = spec.bottom_order - 8 if spec.fiber is FiberType.PUNCTURED_LINE else 0
    ks = draw(st.lists(st.integers(lo, spec.top_degree + 8), min_size=1, max_size=5))
    return LaurentPoly({k: TPoly(draw(_TCOEFF)) for k in ks})


# The rational leading coefficient of the Airy phase, a family whose top and
# bottom leading coefficients both depend on t, and the rank cliff: the deg-9
# rung (rank 8) and a rank-5 family with non-constant top and bottom, on which
# the common denominator of the reduction grows most.
ORACLE_FIXED = (
    AIRY,
    BESSEL,
    make(FiberType.PUNCTURED_LINE, "(t^2 + 1)*u^3/2 + t*u - (2*t - 3)*u^-2/3"),
    make(FiberType.AFFINE_LINE, "u^9+t*u^4-(t^2+1)*u"),
    make(FiberType.PUNCTURED_LINE, "(1+t-2*t^2)*u^3+(2-t)*u^2+t*u+(1+t)*u^-2"),
)


class TestBasisWindows:
    def test_affine_ranks(self):
        assert fiber_basis(AIRY).exponents == (0, 1)
        assert fiber_basis(GAUSSIAN).exponents == (0,)
        assert fiber_basis(LINEAR).exponents == ()
        assert fiber_basis(LINEAR).rank == 0

    def test_punctured_window(self):
        assert fiber_basis(BESSEL).exponents == (-1, 0)
        wide = make(FiberType.PUNCTURED_LINE, "u^2 + t*u^-2")
        assert fiber_basis(wide).exponents == (-2, -1, 0, 1)

    def test_u_free_exponent_rejected(self):
        with pytest.raises(DegenerateFamily):
            make(FiberType.AFFINE_LINE, "t")

    def test_affine_rejects_poles(self):
        with pytest.raises(SpecFormatError):
            make(FiberType.AFFINE_LINE, "u^-1")

    def test_punctured_requires_pole(self):
        with pytest.raises(DegenerateFamily):
            make(FiberType.PUNCTURED_LINE, "t*u^2")


class TestReduction:
    def test_airy_reduction_example(self):
        # [u^2 du] = t [du] because grad(1) = (u^2 - t) du
        basis = fiber_basis(AIRY)
        coeffs = reduce_form(LaurentPoly.u(2), AIRY, basis)
        assert [c.to_str() for c in coeffs] == ["t", "0"]

    def test_bessel_reduction_example(self):
        # [u^-2 du] = -[du]: grad(u^-1 * 2/t) pivots the pole order
        basis = fiber_basis(BESSEL)
        coeffs = reduce_form(LaurentPoly.u(-2), BESSEL, basis)
        assert [c.to_str() for c in coeffs] == ["0", "-1"]

    def test_identity_on_basis_forms(self):
        for spec in (AIRY, BESSEL, GAUSSIAN):
            basis = fiber_basis(spec)
            for i, e in enumerate(basis.exponents):
                coeffs = reduce_form(LaurentPoly.u(e), spec, basis)
                expected = ["1" if j == i else "0" for j in range(basis.rank)]
                assert [c.to_str() for c in coeffs] == expected

    def test_kernel_property_random(self):
        # the twisted differential of any allowed form must reduce to zero
        rng = random.Random(41)
        for spec in ALL:
            basis = fiber_basis(spec)
            for _ in range(25):
                q = random_section(spec, rng)
                coeffs = reduce_form(twisted_differential(q, spec), spec, basis)
                assert all(c.num.is_zero() for c in coeffs)

    def test_linearity_random(self):
        rng = random.Random(43)
        for spec in (AIRY, BESSEL):
            basis = fiber_basis(spec)
            for _ in range(20):
                p = random_section(spec, rng)
                q = random_section(spec, rng)
                rp = reduce_form(p, spec, basis)
                rq = reduce_form(q, spec, basis)
                rsum = reduce_form(p + q, spec, basis)
                assert all(
                    ratfun.add(rp[i], rq[i]) == rsum[i] for i in range(basis.rank)
                )


class TestReductionOracle:
    """reduce_form equals the RatFun reduction entry for entry."""

    @staticmethod
    def check(spec, forms):
        basis = fiber_basis(spec)
        for P in forms:
            assert reduce_form(P, spec, basis) == reference_reduce_form(P, spec, basis)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.data(), st.sampled_from([recipe_families, sparse_punctured_families]))
    def test_random_families(self, data, families):
        spec = data.draw(families())
        gt = spec.g.partial_t()
        rows = [gt * LaurentPoly.u(ei) for ei in fiber_basis(spec).exponents]
        self.check(spec, rows + [data.draw(forms_on(spec))])

    @pytest.mark.parametrize(
        "spec", ORACLE_FIXED, ids=["airy", "bessel", "nonconst-top-bottom", "deg9-rung", "rank5"]
    )
    def test_fixed_families(self, spec):
        rng = random.Random(47)
        gt = spec.g.partial_t()
        rows = [gt * LaurentPoly.u(ei) for ei in fiber_basis(spec).exponents]
        self.check(spec, rows + [random_section(spec, rng) for _ in range(20)])

    def test_chains_meeting_from_below(self):
        # the gauge chains started by u^-14 and u^-1 meet from below
        spec = make(FiberType.PUNCTURED_LINE, "t*u^4 - u - (t + 1)*u^-2 + 2*t*u^-4")
        P = parse_laurent("(t + 1)*u^6 + (t - 2)*u^5 + (t + 1)*u^-1 + (t + 2)*u^-14")
        self.check(spec, [P])

    @pytest.mark.parametrize("spec, k", [(AIRY, 61), (BESSEL, -44)], ids=["airy-u^61", "bessel-u^-44"])
    def test_monomials_far_outside_the_window(self, spec, k):
        # every step shrinks the support, so a form far outside the window ends too
        self.check(spec, [LaurentPoly.u(k)])


def test_dg_is_derived_once_per_family(monkeypatch):
    from expperiods.singular import singular_set
    from expperiods.verify import check_stokes

    g = parse_laurent("u^4/4 - t*u^2 + (t + 1)*u")
    calls = []
    partial_u = LaurentPoly.partial_u

    def spy(self):
        calls.append(self is g)
        return partial_u(self)

    monkeypatch.setattr(LaurentPoly, "partial_u", spy)
    spec = ProblemSpec(fiber=FiberType.AFFINE_LINE, g=g)
    A = connection_matrix(spec, fiber_basis(spec))
    singular_set(spec, A)
    for k in range(3):
        assert check_stokes(spec, 1.0, LaurentPoly.u(k) * TPoly.t()).passed
    assert sum(calls) == 1


class TestConnection:
    def test_airy_matrix(self):
        A = connection_matrix(AIRY, fiber_basis(AIRY))
        assert [[e.to_str() for e in row] for row in A.entries] == [
            ["0", "-1"],
            ["-t", "0"],
        ]
        assert A.denominators() == []

    def test_bessel_matrix(self):
        A = connection_matrix(BESSEL, fiber_basis(BESSEL))
        assert [[e.to_str() for e in row] for row in A.entries] == [
            ["0", "1"],
            ["-1", "(-1)/(t)"],
        ]
        assert [p.to_str() for p in A.denominators()] == ["t"]

    def test_gaussian_matrix(self):
        A = connection_matrix(GAUSSIAN, fiber_basis(GAUSSIAN))
        assert [[e.to_str() for e in row] for row in A.entries] == [["(-1/2)/(t)"]]

    def test_convention_is_documented(self):
        assert "Y'(t) = A(t) Y(t)" in CONNECTION_CONVENTION

    def test_numeric_eval(self):
        A = connection_matrix(AIRY, fiber_basis(AIRY))
        m = ratfun.evaluate(A, 2.0)
        assert m[1][0] == -2.0 and m[0][1] == -1.0


class TestScalarODE:
    def test_airy_ode(self):
        ode = cyclic_ode(connection_matrix(AIRY, fiber_basis(AIRY)))
        assert ode.order == 2
        assert [c.to_str() for c in ode.coefficients] == ["-t", "0", "1"]

    def test_bessel_ode(self):
        ode = cyclic_ode(connection_matrix(BESSEL, fiber_basis(BESSEL)))
        assert [c.to_str() for c in ode.coefficients] == ["t", "1", "t"]

    def test_gaussian_ode(self):
        ode = cyclic_ode(connection_matrix(GAUSSIAN, fiber_basis(GAUSSIAN)))
        assert [c.to_str() for c in ode.coefficients] == ["1", "2*t"]

    def test_rank_zero_ode(self):
        ode = cyclic_ode(connection_matrix(LINEAR, fiber_basis(LINEAR)))
        assert ode.order == 0
        assert [c.to_str() for c in ode.coefficients] == ["1"]

    def test_bessel_second_cyclic_vector(self):
        # starting from the form du instead of du/u gives an equivalent
        # operator annihilating -2 J1: t^2 y'' + 3 t y' + (t^2+1) y... the
        # precise coefficients are pinned by normalization, so just check
        # order and leading behavior
        ode = cyclic_ode(connection_matrix(BESSEL, fiber_basis(BESSEL)), start=1)
        assert ode.order == 2
        assert ode.coefficients[-1].degree >= 1

    def test_content_from_one_integer_gcd_on_bench_families(self, monkeypatch):
        # on the ladder rungs and the exact pool, the heuristic gcd's candidate always
        # divides, so cyclic_ode never runs the PRS chain
        gen, _refs = bench_gen_and_refs()
        heuristic, fallback = [], []
        guess = symbolic._heuristic_gcd
        monkeypatch.setattr(symbolic, "_heuristic_gcd", lambda ps: heuristic.append(ps) or guess(ps))
        monkeypatch.setattr(symbolic, "_prs_gcd", fallback.append)
        families = list(gen.LADDER) + gen.pool(gen.EXACT_POOL)
        for label, fiber, g in families:
            spec = make(FiberType(fiber), g, label)
            cyclic_ode(connection_matrix(spec, fiber_basis(spec)))
        assert len(heuristic) == len(families)
        assert fallback == []

    def test_bad_start_index(self):
        with pytest.raises(IndexError):
            cyclic_ode(connection_matrix(AIRY, fiber_basis(AIRY)), start=5)

    @pytest.mark.parametrize(
        "fiber,g,expected", LADDER_ODES, ids=[g for _, g, _ in LADDER_ODES]
    )
    def test_ladder_odes_pinned(self, fiber, g, expected):
        spec = make(fiber, g)
        assert cyclic_ode(connection_matrix(spec, fiber_basis(spec))).to_str() == expected

    def test_deg9_rung_annihilates(self):
        spec = make(FiberType.AFFINE_LINE, "u^9+t*u^4-(t^2+1)*u")
        A = connection_matrix(spec, fiber_basis(spec))
        ode = cyclic_ode(A)
        assert ode.order == 8
        assert max(p.degree for p in ode.coefficients) == 38
        # sum_k p_k v_k = 0 over Q(t), with v_{k+1} = v_k A + v_k' in RatFun
        r = A.rank
        v = [ratfun.one() if j == 0 else ratfun.zero() for j in range(r)]
        total = [ratfun.zero()] * r
        for k, p in enumerate(ode.coefficients):
            total = [ratfun.add(total[j], ratfun.mul(p, v[j])) for j in range(r)]
            if k < ode.order:
                v = [
                    ratfun.add(
                        ratfun.total(ratfun.mul(v[i], A.entries[i][j]) for i in range(r)),
                        ratfun.derivative(v[j]),
                    )
                    for j in range(r)
                ]
        assert all(x.num.is_zero() for x in total)


def reference_cyclic_ode(A, start):
    """The coefficients of ``cyclic_ode(A, start)`` by the lazy recurrence on zpolys:
    ``w_{k+1} = w_k B + D w_k' - k D' w_k``, one column at a time, until
    ``reference_bareiss`` meets the first dependent one."""
    r = A.rank
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
                    acc = zpoly_add(acc, zpoly_mul(w[i], B[i][j]))
                nxt.append(acc)
            w = nxt
            k += 1

    _, relation = reference_bareiss(derivatives())
    polys, Dk = [], [1]
    for c in relation:
        polys.append(zpoly_mul(c, Dk))
        Dk = zpoly_mul(Dk, D)
    return tuple(TPoly(p) for p in zpoly_primitive_vector(polys))


def reference_ode_families():
    """(label, fiber, g) of the exact_ladder families, the deg-9 rung, a rank-5 family,
    and u^4/4 - t*u^2, whose order falls below its rank 3 at start 1."""
    gen, _refs = bench_gen_and_refs()
    return list(gen.LADDER) + gen.pool(gen.EXACT_POOL) + [
        ("ladder_deg9", "affine_line", "u^9+t*u^4-(t^2+1)*u"),
        ("rank5", "punctured_line", "(1+t-2*t^2)*u^3+(2-t)*u^2+t*u+(1+t)*u^-2"),
        ("even_quartic", "affine_line", "u^4/4 - t*u^2"),
    ]


@pytest.mark.parametrize("family", reference_ode_families(), ids=lambda f: f[0])
def test_cyclic_ode_matches_the_lazy_reference(family):
    label, fiber, g = family
    spec = make(FiberType(fiber), g, label)
    A = connection_matrix(spec, fiber_basis(spec))
    orders = []
    for start in range(A.rank):
        ode = cyclic_ode(A, start)
        assert ode.coefficients == reference_cyclic_ode(A, start)
        orders.append(ode.order)
    if label == "even_quartic":
        assert orders == [2, 1, 2]


def rank_one(entry: RatFun) -> ConnectionMatrix:
    return ConnectionMatrix(basis=CohomologyBasis(rank=1, exponents=(0,)), entries=((entry,),))


def pole(center, a) -> RatFun:
    """``a / (t - center)`` for rational ``center`` and ``a``."""
    return RatFun(TPoly((Fraction(a),)), TPoly((-Fraction(center), 1)))


def ball(center) -> RootBall:
    return RootBall(center=complex(center), radius=0.0, multiplicity=1, provenance=("ConnectionPole",))


# the 24-gon about 0 through 1 that monodromy loops walk
UNIT_LOOP = [cmath.exp(2j * math.pi * k / 24) for k in range(24)] + [1.0]


class TestTransport:
    def test_polynomial_form_clears_denominators(self):
        A = connection_matrix(BESSEL, fiber_basis(BESSEL))
        B, D = A.polynomial_form
        assert B.shape == (len(D), 2, 2)
        t = 0.7 - 0.3j
        Dt = np.polyval(D[::-1], t)
        Bt = sum(B[k] * t**k for k in range(len(D)))
        assert np.allclose(Dt * np.array(ratfun.evaluate(A, t)), Bt, rtol=1e-14, atol=0)

    def test_regular_singular_loop_is_exp_2_pi_i_a(self):
        a = Fraction(1, 3)
        result = transport(rank_one(pole(0, a)), UNIT_LOOP, [ball(0)])
        assert result.legs == 24
        assert abs(result.matrix[0, 0] - cmath.exp(2j * math.pi * a)) < 1e-13

    def test_legs_near_a_second_pole_are_split(self):
        # 1.2 lies outside the loop, 0.2 from its first vertex: half of that
        # clearance is less than a leg (2*sin(pi/24) = 0.26), so the legs
        # beside it are bisected (the first into 4, the second into 2, the
        # last into 3: 24 + 6 legs); the pole adds no monodromy.
        a = Fraction(1, 3)
        A = rank_one(ratfun.add(pole(0, a), pole(Fraction(6, 5), Fraction(1, 2))))
        result = transport(A, UNIT_LOOP, [ball(0), ball(1.2)])
        assert result.legs == 30
        assert abs(result.matrix[0, 0] - cmath.exp(2j * math.pi * a)) < 1e-13
        # without the second ball the first leg reaches past the radius of
        # convergence at its start, and its series diverges
        with pytest.raises(AtSingularT):
            transport(A, UNIT_LOOP, [ball(0)])

    def test_matches_closed_form_along_a_path(self):
        # y' = t y: y(1+i) / y(0) = exp((1+i)^2 / 2)
        A = rank_one(RatFun(TPoly((0, 1))))
        result = transport(A, [0.0, 1.0, 1.0 + 1.0j])
        assert result.legs == 2
        assert abs(result.matrix[0, 0] - cmath.exp((1 + 1j) ** 2 / 2)) < 1e-13

    def test_onto_a_pole_raises(self):
        A = rank_one(pole(0, Fraction(1, 3)))
        with pytest.raises(SingularProximity):
            transport(A, [1.0, 0.0], [ball(0)])
        with pytest.raises(AtSingularT):
            transport(A, [1.0, 0.0])
        with pytest.raises(AtSingularT):
            transport(A, [0.0, 1.0])

    def test_overflowing_series_raises_without_a_numpy_warning(self):
        # a leg 100 times longer than its start's distance to the pole: the
        # terms grow like 100^n and overflow near order 150, before _MAX_ORDER
        A = rank_one(pole(0, Fraction(1, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AtSingularT, match="overflowed"):
                transport(A, [1.0, 101.0])

    def test_series_not_converged_by_max_order_raises(self):
        # |h| is 0.95 of the radius of convergence: the terms shrink like
        # 0.95^n, still near 1e-12 of the sum at order 400
        A = rank_one(pole(0, Fraction(1, 3)))
        with pytest.raises(AtSingularT, match="did not converge by order 400"):
            transport(A, [1.0, 0.05])

    def test_path_is_the_product_of_its_pieces(self):
        A = connection_matrix(BESSEL, fiber_basis(BESSEL))
        a, b, c = 1.0, 0.5 + 0.8j, -0.7 + 0.4j
        whole = transport(A, [a, b, c], [ball(0)])
        pieces = transport(A, [b, c], [ball(0)]).matrix @ transport(A, [a, b], [ball(0)]).matrix
        assert whole.legs > 2
        assert np.abs(whole.matrix - pieces).max() < 1e-13 * np.abs(pieces).max()

    def test_more_coefficients_than_a_fixed_history_held(self):
        # A = [[0, p'], [-p p'/3, 0]] with p = t^33 clears to 66 coefficients,
        # so the recurrence reaches 66 terms back
        spec = make(FiberType.AFFINE_LINE, "u^3 + t^33*u")
        A = connection_matrix(spec, fiber_basis(spec))
        assert len(A.polynomial_form[1]) == 66
        path = [1.0, 1.02, 1.02 + 0.02j]
        T = transport(A, path)
        assert T.legs == 2
        assert transport_ref.deviation(T.matrix, transport_ref.transport(A, path, dps=30)) < 1e-12

    def test_matches_the_30_digit_reference(self):
        # the fixtures' nearest-ball monodromy loops and every verify-pool
        # check_ode step, against the same recurrence on the same legs in
        # mpmath (the full set of loops is a CI step)
        cases = []
        for label, spec, t in verify_cases():
            A = connection_matrix(spec, fiber_basis(spec))
            if A.rank == 0:
                continue
            S = singular_set(spec, A)
            cases.append((A, [t, t + 0.02 * max(1.0, abs(t))], S.hard_balls()))
            if label in ("airy", "bessel", "gaussian"):
                near = min(S.balls, key=lambda b: abs(b.center - t)).center
                cases.append((A, transport_ref.monodromy_loop(S, near), S.hard_balls()))
        assert len(cases) == 22
        for A, path, balls in cases:
            ref = transport_ref.transport(A, path, balls, dps=30)
            assert transport_ref.deviation(transport(A, path, balls).matrix, ref) < 1e-12

    def test_amplification_reading(self):
        # verify_pun01's loops about its soft balls at 7.7195 +- 7.4245i sum
        # terms far larger than the result; the fixtures' loops do not.  The
        # spectral norms put a floor of 1 under the reading
        gen, _refs = bench_gen_and_refs()
        label, fiber, g = next(f for f in gen.pool(gen.VERIFY_POOL) if f[0] == "verify_pun01")
        spec = make(FiberType(fiber), g, label)
        A = connection_matrix(spec, fiber_basis(spec))
        S = singular_set(spec, A)
        soft = [b for b in S.balls if abs(abs(b.center - 7.7195) - 7.4245) < 1e-3]
        assert len(soft) == 2
        for b in soft:
            assert transport(A, transport_ref.monodromy_loop(S, b.center), S.hard_balls()).amplification > 1e20
        for spec in (AIRY, BESSEL, GAUSSIAN):
            A = connection_matrix(spec, fiber_basis(spec))
            S = singular_set(spec, A)
            T = transport(A, transport_ref.monodromy_loop(S, 0j), S.hard_balls())
            assert 1.0 - 1e-12 < T.amplification < 1e2
        assert transport(A, [1.0]).amplification == 1.0
