"""Certified singular-set computation: resultants, isolation, clustering."""

import math
import random
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expperiods.cohomology import FiberType, ProblemSpec, connection_matrix, fiber_basis
from expperiods import singular
from expperiods.errors import DegenerateFamily, PrecisionExhausted
from expperiods.singular import (
    CONNECTION_POLE,
    CRITICAL_POINT_DEGENERATION,
    LEADING_COEFF_VANISHES,
    RootBall,
    _certify_squarefree,
    _newton_double,
    resultant_u,
    root_isolate,
    singular_set,
    squarefree_decomposition,
)
from expperiods.symbolic import (
    LaurentPoly,
    TPoly,
    parse_laurent,
    parse_tpoly,
    zpoly_exact_div,
    zpoly_gcd,
)
from bareiss_ref import reference_bareiss
from test_cycles import FIBERS, bench_gen_and_refs


def make(fiber, g, label=""):
    return ProblemSpec(fiber=fiber, g=parse_laurent(g), label=label)


AIRY = make(FiberType.AFFINE_LINE, "u^3/3 - t*u", "airy")
BESSEL = make(FiberType.PUNCTURED_LINE, "(t/2)*(u - u^-1)", "bessel")
GAUSSIAN = make(FiberType.AFFINE_LINE, "-t*u^2", "gaussian")
LINEAR = make(FiberType.AFFINE_LINE, "t*u", "linear")

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def from_roots(roots):
    p = TPoly.one()
    for r in roots:
        p = p * TPoly((-Fraction(r), Fraction(1)))
    return p


def from_gaussian_roots(points):
    """The rational polynomial with roots a + bi and a - bi for each (a, b) in
    ``points``, stopping before its degree passes 7; and its roots as pairs."""
    p, roots = TPoly.one(), []
    for a, b in points:
        pair = [(a, b), (a, -b)] if b else [(a, b)]
        if len(roots) + len(pair) > 7:
            break
        roots += pair
        p = p * (TPoly((a * a + b * b, -2 * a, 1)) if b else TPoly((-a, 1)))
    return p, roots


def isolate_strict(p):
    """root_isolate with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return root_isolate(p)


class TestSquarefree:
    def test_known_decomposition(self):
        p = parse_tpoly("(t - 1)*(t - 1)*(t^2 + 1)")
        out = squarefree_decomposition(p)
        assert [(q.to_str(), m) for q, m in out] == [("t^2 + 1", 1), ("t - 1", 2)]
        # integer content, a negative leading coefficient and a gap in the
        # multiplicities: Yun's steps stay exact over Z[t]
        p = parse_tpoly("-6*(t - 1/2)^3*(3*t + 1)")
        out = squarefree_decomposition(p)
        assert [(q.to_str(), m) for q, m in out] == [("t + 1/3", 1), ("t - 1/2", 3)]
        # rational content: the decomposition reads only the primitive part
        p = TPoly([Fraction(3, 2)]) * parse_tpoly("(t - 1)^2*(t + 2)")
        out = squarefree_decomposition(p)
        assert [(q.to_str(), m) for q, m in out] == [("t + 2", 1), ("t - 1", 2)]
        assert squarefree_decomposition(TPoly.zero()) == []
        assert squarefree_decomposition(TPoly.const(5)) == []

    def test_random_reconstruction(self):
        rng = random.Random(57)
        for _ in range(40):
            factors = []
            prod = TPoly.one()
            for _ in range(rng.randint(1, 3)):
                root = Fraction(rng.randint(-3, 3))
                mult = rng.randint(1, 3)
                factors.append((root, mult))
                lin = TPoly((-root, Fraction(1)))
                prod = math.prod([lin] * mult, start=prod)
            out = squarefree_decomposition(prod)
            rebuilt = TPoly.one()
            for q, m in out:
                rebuilt = math.prod([q] * m, start=rebuilt)
            assert rebuilt == prod.monic()


def tpolys(max_size=3):
    """Strategy for TPoly with rational coefficients."""
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.lists(fractions, min_size=1, max_size=max_size).map(TPoly)


def laurent_polys(lo=-3, hi=4, max_size=5):
    """Strategy for Laurent polynomials in u over Q[t], negative exponents included."""
    return st.dictionaries(st.integers(lo, hi), tpolys(), max_size=max_size).map(LaurentPoly)


def sylvester_resultant(p, q):
    """Reference: the determinant of the (m+n) x (m+n) Sylvester matrix of the
    pole-cleared numerators, each scaled onto Z[t] by the lcm of its content
    denominators, divided by those scales at the end."""
    a, b = singular._laurent_to_ucoeffs(p), singular._laurent_to_ucoeffs(q)
    if not a or not b:
        return TPoly.zero()
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    if size == 0:
        return TPoly.one()
    rows, scale = [], 1
    for cs, shifts in ((a, n), (b, m)):
        L = math.lcm(*(c.content.denominator for c in cs))
        scale *= L ** shifts
        coeffs = [[x * (c.content * L).numerator for x in c.prim] for c in cs]
        for i in range(shifts):
            row = [[] for _ in range(size)]
            row[i:i + len(coeffs)] = reversed(coeffs)
            rows.append(row)
    det, _ = reference_bareiss(rows)  # rows as columns: det(M^T) = det(M)
    return TPoly(det) * Fraction(1, scale)


class TestResultant:
    def test_matches_evaluation_interpolation(self):
        # independent oracle: Res_u(p, q)(t0) equals lc_p^{deg q} * prod q(roots)
        import numpy as np

        p = parse_laurent("u^2 - t")
        q = parse_laurent("2*u")
        res = resultant_u(p, q)
        assert res.to_str() == "-4*t"
        for t0 in (1.0, 2.0, -3.0):
            roots = np.roots([1.0, 0.0, -t0])  # roots of p at t0
            oracle = 1.0 ** 1 * np.prod([2.0 * r for r in roots])
            assert abs(complex(res.eval(t0)) - complex(oracle)) < 1e-9

    def test_constant_second_argument(self):
        p = parse_laurent("u^2 + t*u")  # degree 2
        q = parse_laurent("t")  # constant in u after clearing nothing
        assert resultant_u(p, q).to_str() == "t^2"

    def test_pole_clearing_keeps_positive_powers(self):
        # 2*u must stay degree 1 after clearing (no positive-power stripping)
        assert resultant_u(parse_laurent("2*u"), parse_laurent("u^2 - t")).degree == 1

    # one case each: deg p < deg q, deg p = deg q, deg p > deg q (by 1 and by 3),
    # a constant and a t-only second argument, negative exponents on either side
    @pytest.mark.parametrize("p,q", [
        ("2*u - t", "u^3/3 + t*u^2 - 1"),
        ("(t/2)*u^2 + u - 3/4", "u^2 - t^2"),
        ("u^3/3 - t*u", "u^2 - t"),
        ("u^4 + t*u - 2", "(t + 1)*u/5 + 1/3"),
        ("u^2 + t*u", "t"),
        ("u^2 - t", "7/3"),
        ("(t/2)*(u - u^-1)", "(t/2)*(1 + u^-2)"),
        ("u^3 + t*u - u^-3 + t^2*u^-1", "3*u^2 + t + 3*u^-4 - t^2*u^-2"),
        ("u^-2 + t", "u - 1/2"),
    ])
    def test_matches_sylvester_cases(self, p, q):
        p, q = parse_laurent(p), parse_laurent(q)
        assert resultant_u(p, q) == sylvester_resultant(p, q)

    @PROPERTY
    @given(laurent_polys(), laurent_polys())
    def test_matches_sylvester_random(self, p, q):
        assert resultant_u(p, q) == sylvester_resultant(p, q)

    @PROPERTY
    @given(
        st.integers(-2, 2), st.integers(1, 2), tpolys(), tpolys(),
        laurent_polys(-2, 2, 3), laurent_polys(-2, 2, 3),
    )
    def test_shared_root_gives_zero(self, k, gap, c0, c1, a, b):
        # a factor with two distinct u-exponents has a nonzero root, common to both products
        assume(not (c0.is_zero() or c1.is_zero() or a.is_zero() or b.is_zero()))
        f = LaurentPoly({k: c0, k + gap: c1})
        assert resultant_u(f * a, f * b).is_zero()
        assert sylvester_resultant(f * a, f * b).is_zero()

    @PROPERTY
    @given(tpolys(), laurent_polys(lo=0, hi=1))
    def test_shared_critical_root_is_degenerate(self, c, h):
        # g = (u + c)^3 h: dg/du has the double root u = -c for every t
        assume(not h.is_zero())
        f = LaurentPoly({1: TPoly.one(), 0: c})
        spec = ProblemSpec(FiberType.AFFINE_LINE, f * f * f * h)
        assert resultant_u(spec.dg, spec.dg.partial_u()).is_zero()
        with pytest.raises(DegenerateFamily, match="non-reduced"):
            singular_set(spec)


class TestRootIsolation:
    def test_simple_roots_with_multiplicity(self):
        p = parse_tpoly("(t - 1)*(t - 1)*(t^2 + 1)")
        balls = root_isolate(p)
        assert sorted(b.multiplicity for b in balls) == [1, 1, 2]
        centers = sorted(balls, key=lambda b: (b.center.real, b.center.imag))
        assert abs(centers[0].center - (-1j)) < 1e-10
        assert abs(centers[1].center - 1j) < 1e-10
        assert abs(centers[2].center - 1.0) < 1e-10
        assert all(b.radius < 1e-8 for b in balls)

    def test_each_ball_contains_its_root(self):
        rng = random.Random(61)
        for _ in range(25):
            roots = rng.sample(range(-8, 9), rng.randint(1, 4))
            p = TPoly.one()
            for r in roots:
                p = p * TPoly((Fraction(-r), Fraction(1)))
            balls = root_isolate(p)
            assert len(balls) == len(roots)
            for r in roots:
                assert any(abs(b.center - r) <= b.radius for b in balls)

    def test_disjointness(self):
        p = parse_tpoly("t^2 - 2")  # irrational pair +-sqrt(2)
        balls = root_isolate(p)
        (b1, b2) = balls
        assert abs(b1.center - b2.center) > b1.radius + b2.radius
        assert abs(abs(b1.center.real) - math.sqrt(2)) < 1e-12

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DegenerateFamily):
            root_isolate(TPoly.zero())


class TestIsolationRobustness:
    """Clustered and extreme inputs, with numpy and mpmath warnings as errors."""

    @pytest.mark.parametrize(
        "roots, nballs",
        [
            # closer than double precision resolves: one ball of multiplicity 2
            ([1, 1 + Fraction(1, 10**20)], 1),
            ([1, 1 + Fraction(1, 10**12), 1 - Fraction(1, 10**12)], 3),
            (list(range(1, 13)), 12),  # Wilkinson, degree 12
        ],
        ids=["pair-1e-20", "triple-1e-12", "wilkinson-12"],
    )
    def test_clustered_roots_certify(self, roots, nballs):
        balls = isolate_strict(from_roots(roots))
        assert len(balls) == nballs
        assert sum(b.multiplicity for b in balls) == len(roots)
        with mp.workdps(40):
            for b in balls:  # each ball holds exactly as many roots as it counts
                gaps = [abs(mp.mpc(b.center) - mp.mpf(r.numerator) / r.denominator) for r in roots]
                assert sum(gap <= b.radius for gap in gaps) == b.multiplicity

    def test_tiny_constant_term_certifies(self):
        # t^10 - 10^-30: ten roots on the circle |t| = 10^-3
        p = TPoly([-Fraction(1, 10**30)] + [0] * 9 + [1])
        balls = isolate_strict(p)
        assert len(balls) == 10
        for b in balls:
            assert abs(abs(b.center) - 1e-3) <= b.radius + 1e-15
            assert b.radius < 1e-6

    def test_huge_coefficient_exhausts_precision(self):
        # the float coefficients overflow, so only the mpmath rungs run, and
        # Durand-Kerner does not converge from its default points
        with pytest.raises(PrecisionExhausted):
            isolate_strict(TPoly([10**400, 0, 1]))
        with pytest.raises(PrecisionExhausted):  # the root is beyond the double range
            isolate_strict(TPoly([10**400, 1]))

    def test_first_rung_guard(self, monkeypatch):
        rungs = []
        mp_roots = singular._mp_roots
        monkeypatch.setattr(
            singular, "_mp_roots", lambda q, dps: rungs.append(dps) or mp_roots(q, dps)
        )
        huge = TPoly([10**400, 0, 1])
        assert _newton_double([10**400, 0, 1]) is None  # infinite float coefficient
        with pytest.raises(PrecisionExhausted):
            isolate_strict(huge)
        assert rungs == [singular._DPS, 2 * singular._DPS]
        rungs.clear()
        # both roots round to the double 1.0: the first rung's centers are not
        # disjoint, and the mp rung's exact centers are
        pair = from_roots([1, 1 + Fraction(1, 10**20)])
        zq = [10**20 + 1, -(2 * 10**20 + 1), 10**20]
        assert _certify_squarefree(zq, _newton_double(zq)) is None
        (ball,) = isolate_strict(pair)
        assert rungs == [singular._DPS]
        assert ball.multiplicity == 2 and abs(ball.center - 1) <= ball.radius

    def test_alpha_threshold_is_sharp(self):
        # t^2 - 1 at a real center z has beta = |z^2 - 1| / |2z| and gamma =
        # 1 / |2z|, so alpha = |z^2 - 1| / (4 z^2): 0.15 at z^2 = 2.5
        zq = [-1, 0, 1]
        above, below = Fraction(1.582), Fraction(1.58)  # exact binary fractions
        alpha = lambda z: (z * z - 1) / (4 * z * z)  # noqa: E731
        assert alpha(below) < Fraction(3, 20) < alpha(above)
        assert _certify_squarefree(zq, [(above, 0), (Fraction(-1), 0)]) is None
        (c0, r0), (c1, r1) = _certify_squarefree(zq, [(below, 0), (Fraction(-1), 0)])
        beta = (below * below - 1) / (2 * below)
        assert 3 * beta <= r0 <= 3 * beta + 1e-14 and abs(c0 - 1) <= r0
        # the exact roots have beta = 0: only the widening is left
        (c0, r0), (c1, r1) = _certify_squarefree(zq, [(Fraction(1), 0), (Fraction(-1), 0)])
        assert (c0, c1) == (1, -1) and r0 == r1 == 8 * 2.0**-52

    @PROPERTY
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-8, max_value=8, max_denominator=6),
                st.fractions(min_value=0, max_value=8, max_denominator=6),
            ),
            min_size=1,
            max_size=7,
            unique=True,
        )
    )
    def test_each_ball_holds_exactly_one_root(self, points):
        p, roots = from_gaussian_roots(points)
        balls = isolate_strict(p)
        assert sum(b.multiplicity for b in balls) == len(roots)
        with mp.workdps(60):
            exact = [mp.mpf(a.numerator) / a.denominator + mp.mpf(b.numerator) / b.denominator * 1j
                     for a, b in roots]
            for b in balls:
                assert sum(abs(mp.mpc(b.center) - r) <= b.radius for r in exact) == 1


# The certifier and Newton step over Fraction centers, one denominator per
# center, as the reference that the integer versions must reproduce ball for ball.


def ref_taylor_shift(zq, x, y, count):
    (a, da), (b, db) = x.as_integer_ratio(), y.as_integer_ratio()
    den = max(da, db)
    a, b, e, n = a * (den // da), b * (den // db), den.bit_length() - 1, len(zq) - 1
    re = [c << (e * (n - j)) for j, c in enumerate(zq)][::-1]
    im = [0] * len(re)
    out = []
    while len(out) < count:
        for i in range(1, len(re)):
            r, m = re[i - 1], im[i - 1]
            re[i], im[i] = re[i] + r * a - m * b, im[i] + r * b + m * a
        out.append((re.pop(), im.pop()))
    return out, e


def ref_norm(z):
    return z[0] * z[0] + z[1] * z[1]


def ref_sqrt_up(r):
    s = (r.numerator.bit_length() - r.denominator.bit_length()) // 2
    root = math.ldexp(math.sqrt(r / Fraction(4) ** s), s)
    return math.nextafter(math.nextafter(root, math.inf), math.inf) if r else 0.0


def ref_newton_double(q, zq):
    try:
        zs = np.roots([float(c) for c in reversed(q.coeffs)]).tolist()
        for i, z in enumerate(zs):
            for _ in range(singular._NEWTON_STEPS):
                ((r0, i0), (r1, i1)), e = ref_taylor_shift(zq, Fraction(z.real), Fraction(z.imag), 2)
                den = ref_norm((r1, i1)) << e
                step = complex((r0 * r1 + i0 * i1) / den, (i0 * r1 - r0 * i1) / den) if den else 0
                if z - step == z:
                    break
                z -= step
            zs[i] = (Fraction(z.real), Fraction(z.imag))
        return zs
    except (OverflowError, ValueError):
        return None


def ref_certify_squarefree(zq, centers):
    if centers is None:
        return None
    n, balls = len(zq) - 1, []
    try:
        for x, y in centers:
            q, e = ref_taylor_shift(zq, Fraction(x), Fraction(y), n + 1)
            n0, n1 = ref_norm(q[0]), ref_norm(q[1])
            u, v = 400 * n0, 9 * n1
            fails = (u ** (k - 1) * ref_norm(q[k]) >= v ** (k - 1) * n1 for k in range(2, n + 1))
            if not n1 or any(fails):
                return None
            balls.append((x, y, complex(x, y), 3 * ref_sqrt_up(Fraction(n0, n1 << 2 * e))))
    except OverflowError:
        return None
    for i, (x, y, _c, r) in enumerate(balls):
        for x2, y2, _c2, r2 in balls[i + 1:]:
            if (x - x2) ** 2 + (y - y2) ** 2 <= (Fraction(r) + Fraction(r2)) ** 2:
                return None
    eps = 2.0 ** -52
    return [(c, r + eps * (abs(c) + 1.0) * 4.0) for _x, _y, c, r in balls]


def bench_families():
    """(label, fiber, g) of the benchmark's ladder, exact-pool, fixture and verify-pool families."""
    gen, _refs = bench_gen_and_refs()
    return (list(gen.LADDER) + gen.pool(gen.EXACT_POOL) + list(gen.FIXTURES)
            + gen.pool(gen.VERIFY_POOL))


def bench_factors():
    """Every squarefree factor (q, zq) that singular_set certifies on the bench families."""
    factors, newton = {}, singular._newton_double

    def spy(zq):
        factors[TPoly(zq).monic()] = zq
        return newton(zq)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(singular, "_newton_double", spy)
        for label, fiber, g in bench_families():
            singular_set(make(FIBERS[fiber], g, label))
    return factors


class TestIntegerCertifier:
    def test_balls_identical_to_fraction_reference(self):
        factors = bench_factors()
        assert len(factors) >= 40
        for q, zq in factors.items():
            centers = _newton_double(zq)
            assert centers == ref_newton_double(q, zq)  # floats == their exact fractions
            balls = _certify_squarefree(zq, centers)
            assert balls is not None and balls == ref_certify_squarefree(zq, centers)

    def test_overlapping_balls_rejected(self):
        # two centers that both pass the alpha test near the root 1 of t^2 - 1:
        # their balls overlap, as the integer disjointness test must find
        zq = [-1, 0, 1]
        for centers, certified in (([(1, 0), (1 + 2.0**-10, 0)], False),
                                   ([(1.0, 0.0), (Fraction(-1), 0)], True)):
            expected = ref_certify_squarefree(zq, centers)
            assert _certify_squarefree(zq, centers) == expected
            assert (expected is not None) == certified

    def test_mp_rung_identical_to_fraction_reference(self):
        # both roots round to the double 1.0: only the mp rung's exact binary
        # fraction centers certify, through the same integer path
        pair = from_roots([1, 1 + Fraction(1, 10**20)])
        zq = pair.prim
        assert _certify_squarefree(zq, _newton_double(zq)) is None
        centers = singular._mp_roots(pair, singular._DPS)
        balls = _certify_squarefree(zq, centers)
        assert balls is not None and balls == ref_certify_squarefree(zq, centers)

    def test_larger_factors_certify_from_double_centres(self, monkeypatch):
        # the degree-10 factor of the deg-9 rung and the degree-12 factor of a
        # rank-5 family certify from _newton_double's centres, no mpmath rung
        def no_mp_rung(q, dps):
            raise AssertionError(f"the mpmath rung ran on {q.to_str()}")

        certified, certify = {}, singular._certify_squarefree

        def spy(zq, centers):
            balls = certify(zq, centers)
            certified[len(zq) - 1] = balls
            return balls

        monkeypatch.setattr(singular, "_mp_roots", no_mp_rung)
        monkeypatch.setattr(singular, "_certify_squarefree", spy)
        for fiber, g, degree in (
            (FiberType.AFFINE_LINE, "u^9+t*u^4-(t^2+1)*u", 10),
            (FiberType.PUNCTURED_LINE, "(1+t-2*t^2)*u^3+(2-t)*u^2+t*u+(1+t)*u^-2", 12),
        ):
            certified.clear()
            singular_set(make(fiber, g))
            assert len(certified[degree]) == degree


def exact_alpha_holds(n0, n1, norms):
    """Smale's test on the integers, term by term, as the reference of the filtered one."""
    u, v = 400 * n0, 9 * n1
    fails = (u ** (k - 1) * nk >= v ** (k - 1) * n1 for k, nk in enumerate(norms, 2))
    return bool(n1) and not any(fails)


class TestFilteredAlpha:
    def spy_exact(self, monkeypatch):
        calls, exact = [], singular._alpha_exact
        monkeypatch.setattr(singular, "_alpha_exact", lambda *a: calls.append(a) or exact(*a))
        return calls

    def test_random_inputs_match_the_exact_test(self):
        rng = random.Random(32)
        for _ in range(3000):
            bits = rng.choice((4, 60, 600, 3000))
            n0, n1 = (rng.getrandbits(rng.randint(0, bits)) for _ in range(2))
            norms = [rng.getrandbits(rng.randint(0, bits)) for _ in range(rng.randint(0, 12))]
            assert singular._alpha_holds(n0, n1, norms) == exact_alpha_holds(n0, n1, norms)

    def test_planted_ties_and_near_ties_run_the_exact_test(self, monkeypatch):
        # with n1 = (400 n0)^(k-1) m the term k ties at N_k = (9 n1)^(k-1) m: a
        # tie fails, as on the integers, and N_k -/+ 1 holds/fails; each is
        # within the margin of the logarithms, so the exact branch decides it
        calls = self.spy_exact(monkeypatch)
        rng = random.Random(33)
        for _ in range(100):
            k = rng.randint(2, 13)
            n0, m = rng.getrandbits(rng.randint(60, 400)) | 1, rng.randint(1, 10**6)
            n1 = (400 * n0) ** (k - 1) * m
            tie = (9 * n1) ** (k - 1) * m
            for nk, holds in ((tie - 1, True), (tie, False), (tie + 1, False)):
                norms = [0] * (k - 2) + [nk]
                calls.clear()
                assert singular._alpha_holds(n0, n1, norms) is holds
                assert exact_alpha_holds(n0, n1, norms) is holds
                assert calls == [(400 * n0, 9 * n1, n1, nk, k)]

    def test_zero_norms(self, monkeypatch):
        calls = self.spy_exact(monkeypatch)
        assert not singular._alpha_holds(5, 0, [1])  # q1 = 0: no Newton step
        assert singular._alpha_holds(0, 5, [10**900])  # the center is a root
        assert singular._alpha_holds(5, 5, [0, 0])  # vanishing higher terms
        assert calls == []


class TestSingularSet:
    def test_keeps_the_connection_it_was_built_from(self):
        A = connection_matrix(BESSEL, fiber_basis(BESSEL))
        assert singular_set(BESSEL, A).connection is A
        assert singular_set(BESSEL).connection.entries == A.entries

    def test_airy(self):
        sigma = singular_set(AIRY)
        provs = {prov for _p, prov in sigma.defining}
        assert provs == {LEADING_COEFF_VANISHES, CRITICAL_POINT_DEGENERATION}
        assert len(sigma.balls) == 1
        ball = sigma.balls[0]
        assert abs(ball.center) < 1e-12
        assert ball.provenance == (CRITICAL_POINT_DEGENERATION,)
        # the critical-point ball is soft: no hard obstacle at t = 0
        assert sigma.hard_balls() == ()

    def test_bessel_merges_three_provenances(self):
        sigma = singular_set(BESSEL)
        assert len(sigma.balls) == 1
        ball = sigma.balls[0]
        assert abs(ball.center) < 1e-12
        assert set(ball.provenance) == {
            LEADING_COEFF_VANISHES,
            CRITICAL_POINT_DEGENERATION,
            CONNECTION_POLE,
        }
        assert ball.multiplicity == 2  # the resultant t^2 vanishes doubly
        assert len(sigma.hard_balls()) == 1

    def test_gaussian(self):
        sigma = singular_set(GAUSSIAN)
        assert len(sigma.balls) == 1
        assert abs(sigma.balls[0].center) < 1e-12
        assert LEADING_COEFF_VANISHES in sigma.balls[0].provenance

    def test_linear_vacuous_collision_criterion(self):
        # dg/du is u-free, so critical points never collide; only the
        # leading coefficient contributes
        sigma = singular_set(LINEAR)
        assert [prov for _p, prov in sigma.defining] == [LEADING_COEFF_VANISHES]
        assert len(sigma.balls) == 1

    def test_nonreduced_critical_scheme_rejected(self):
        # dg/du = 3(u-1)^2 has a double critical point for every t
        spec = make(FiberType.AFFINE_LINE, "u^3 - 3*u^2 + 3*u")
        with pytest.raises(DegenerateFamily):
            singular_set(spec)

    def test_shifted_family(self):
        # g = u^3/3 - (t-2) u: the collision moves to t = 2
        spec = make(FiberType.AFFINE_LINE, "u^3/3 - (t - 2)*u")
        sigma = singular_set(spec)
        assert len(sigma.balls) == 1
        assert abs(sigma.balls[0].center - 2.0) < 1e-12

    def test_connection_poles_are_leading_coefficient_zeros(self):
        # reduce_form divides only by the u-leading coefficients of dg/du, so
        # every denominator of A divides a power of prim(lc_top * lc_bottom),
        # and every ConnectionPole ball is a LeadingCoeffVanishes ball too
        poles = 0
        for label, fiber, g in bench_families():
            spec = make(FIBERS[fiber], g, label)
            lc = spec.g.coeff(spec.top_degree)
            if spec.fiber is FiberType.PUNCTURED_LINE:
                lc = lc * spec.g.coeff(spec.bottom_order)
            A = connection_matrix(spec, fiber_basis(spec))
            for den in A.denominators():
                rest = list(den.prim)
                while len(common := zpoly_gcd(rest, list(lc.prim))) > 1:
                    rest = zpoly_exact_div(rest, common)
                assert len(rest) == 1, f"{label}: {den.to_str()} has a factor off lc"
            for ball in singular_set(spec, A).balls:
                if CONNECTION_POLE in ball.provenance:
                    assert LEADING_COEFF_VANISHES in ball.provenance, label
                    poles += 1
        assert poles > 0

    def test_clustering_merges_overlaps(self):
        b1 = RootBall(center=0j, radius=0.1, multiplicity=1, provenance=("A",))
        b2 = RootBall(center=0.15 + 0j, radius=0.1, multiplicity=2, provenance=("B",))
        from expperiods.singular import _merge_balls

        merged = _merge_balls([b1, b2])
        assert len(merged) == 1
        m = merged[0]
        assert set(m.provenance) == {"A", "B"}
        assert m.multiplicity == 2
        # the merged ball covers both inputs
        assert abs(b1.center - m.center) + b1.radius <= m.radius + 1e-15
        assert abs(b2.center - m.center) + b2.radius <= m.radius + 1e-15
