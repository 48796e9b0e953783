"""Exact polynomial, rational-function and Laurent arithmetic."""

import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expperiods import symbolic
from expperiods.errors import SpecFormatError
from expperiods.symbolic import (
    LaurentPoly,
    RatFun,
    TPoly,
    bareiss,
    clear_denominators,
    parse_laurent,
    parse_tpoly,
    tpoly_gcd,
    zpoly_add,
    zpoly_exact_div,
    zpoly_gcd,
    zpoly_mul,
    zpoly_pack,
    zpoly_primitive_vector,
    zpoly_unpack,
)
import ratfun
from bareiss_ref import reference_bareiss
from test_cycles import bench_gen_and_refs

# Derandomized so that the suite stays deterministic from run to run.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


def rand_tpoly(rng, deg=3, allow_zero=True):
    c = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, deg) + 1)]
    p = TPoly(c)
    if not allow_zero and p.is_zero():
        return TPoly((Fraction(1),))
    return p


class TestTPoly:
    def test_trim_and_degree(self):
        assert TPoly((0, 0)).is_zero()
        assert TPoly((0, 0)).degree == -1
        assert TPoly((1, 2, 0)).degree == 1
        assert TPoly.t().degree == 1

    def test_ring_axioms_random(self):
        rng = random.Random(101)
        for _ in range(200):
            a, b, c = (rand_tpoly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a - a == TPoly.zero()

    def test_exact_div(self):
        a = parse_tpoly("t^2 - 1")
        b = parse_tpoly("t - 1")
        assert a.exact_div(b) == parse_tpoly("t + 1")
        with pytest.raises(ArithmeticError):
            parse_tpoly("t^2 + 1").exact_div(b)

    def test_gcd(self):
        a = parse_tpoly("t^3 - t")  # t(t-1)(t+1)
        b = parse_tpoly("t^2 - 2*t + 1")  # (t-1)^2
        assert tpoly_gcd(a, b) == parse_tpoly("t - 1")
        assert tpoly_gcd(a, TPoly.zero()) == a.monic()

    def test_content_and_monic(self):
        p = parse_tpoly("4*t^2 + 2*t")
        assert p.monic().lc() == 1

    def test_eval_matches_exact(self):
        rng = random.Random(3)
        for _ in range(50):
            p = rand_tpoly(rng, deg=4)
            x = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            exact = Fraction(0)
            for c in reversed(p.coeffs):
                exact = exact * x + c
            assert abs(p.eval(complex(x)) - complex(exact)) < 1e-12 * (1 + abs(complex(exact)))

    def test_to_str_round_trip(self):
        rng = random.Random(11)
        for _ in range(100):
            p = rand_tpoly(rng, deg=4)
            assert parse_tpoly(p.to_str()) == p


def fracpolys(max_len=4):
    """Strategy for dense Fraction coefficient lists, lowest degree first."""
    return st.lists(st.fractions(-9, 9, max_denominator=6), max_size=max_len)


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    return trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def assert_canonical(p, want):
    """``p`` is in canonical (content, prim) form and equals the dense list ``want``."""
    assert isinstance(p.content, Fraction) and isinstance(p.prim, tuple)
    if p.prim:
        assert all(isinstance(c, int) for c in p.prim)
        assert math.gcd(*p.prim) == 1 and p.prim[-1] > 0 and p.content != 0
    else:
        assert p.content == 0
    assert list(p.coeffs) == trim(want)


class TestRepresentation:
    @PROPERTY
    @given(fracpolys(), fracpolys(), st.fractions(-5, 5, max_denominator=4))
    def test_operations_stay_canonical(self, a, b, s):
        a, b = trim(a), trim(b)
        pa, pb = TPoly(a), TPoly(b)
        assert_canonical(pa, a)
        assert_canonical(pa + pb, ref_add(a, b))
        assert_canonical(pa - pb, ref_add(a, [-c for c in b]))
        assert_canonical(pa - pa, [])
        assert_canonical(pa * pb, ref_mul(a, b))
        assert_canonical(pa * s, [c * s for c in a])
        assert_canonical(s * pa, [c * s for c in a])
        assert_canonical(pa.derivative(), [k * c for k, c in enumerate(a)][1:])
        assert_canonical(pa.monic(), [c / a[-1] for c in a] if a else [])
        if b:
            assert_canonical((pa * pb).exact_div(pb), a)
        assert_canonical(tpoly_gcd(pa, pb), fraction_gcd(a, b))

    @PROPERTY
    @given(fracpolys(), fracpolys(), st.fractions(-5, 5, max_denominator=4).filter(bool))
    def test_equal_values_equal_hashes(self, a, b, s):
        p = TPoly(a)
        for q in (TPoly([c * s for c in a]) * (1 / s), (p + TPoly(b)) - TPoly(b), -(-p)):
            assert q == p and hash(q) == hash(p)

    def test_two_constructions(self):
        p, q = TPoly([2, 4]), TPoly([1, 2]) * 2
        assert (p.content, p.prim) == (q.content, q.prim) == (2, (1, 2))
        assert p == q and hash(p) == hash(q)
        assert (TPoly.zero().content, TPoly.zero().prim) == (0, ())
        assert TPoly((0, 0)) == TPoly.const(0) == TPoly.t() * 0 == TPoly.zero()


class TestRatFun:
    def test_normalization(self):
        f = RatFun(parse_tpoly("2*t + 2"), parse_tpoly("4*t + 4"))
        assert f == ratfun.const(Fraction(1, 2))
        g = RatFun(parse_tpoly("t^2 - 1"), parse_tpoly("t - 1"))
        assert g.den.is_one()
        assert g == RatFun(parse_tpoly("t + 1"))


class TestLaurentPoly:
    def test_parse_fixture_exponents(self):
        g = parse_laurent("(t/2)*(u - u^-1)")
        assert g.u_degree == 1
        assert g.u_order == -1
        assert g.coeff(1) == TPoly((0, Fraction(1, 2)))
        assert g.coeff(-1) == TPoly((0, Fraction(-1, 2)))

    def test_partial_derivatives(self):
        g = parse_laurent("u^3/3 - t*u")
        assert g.partial_u() == parse_laurent("u^2 - t")
        assert g.partial_t() == parse_laurent("-u")

    def test_ring_random(self):
        rng = random.Random(19)
        for _ in range(100):
            terms = {
                rng.randint(-3, 4): rand_tpoly(rng, deg=2, allow_zero=False)
                for _ in range(rng.randint(1, 3))
            }
            a = LaurentPoly(terms)
            b = LaurentPoly({0: rand_tpoly(rng, deg=2, allow_zero=False)})
            assert (a + b) - b == a
            assert a * b == b * a

    def test_negative_power_only_monomial(self):
        assert parse_laurent("u^-2") == LaurentPoly.u(-2)
        assert parse_laurent("(2*u)^-1") == LaurentPoly({-1: Fraction(1, 2)})
        for bad in ("(u + 1)^-1", "(t*u)^-1", "0^-1"):
            with pytest.raises(SpecFormatError):
                parse_laurent(bad)

    def test_division_by_u_rejected(self):
        with pytest.raises(SpecFormatError):
            parse_laurent("1/u")  # write u^-1 instead: denominators must be u-free

    def test_t_denominator_rejected(self):
        with pytest.raises(SpecFormatError):
            parse_laurent("u/t")
        # a divisor must be a rational constant, even where the quotient is a polynomial
        with pytest.raises(SpecFormatError):
            parse_laurent("(t^2-t)/t*u")

    def test_coeffs_at(self):
        g = parse_laurent("(t/2)*(u - u^-1)")
        t = 1.0 + 0.5j
        cmap = g.coeffs_at(t)
        assert sorted(cmap) == [-1, 1]
        assert abs(cmap[1] - t / 2) < 1e-15 and abs(cmap[-1] + t / 2) < 1e-15

    def test_to_str_round_trip(self):
        rng = random.Random(23)
        for _ in range(100):
            terms = {
                rng.randint(-3, 4): rand_tpoly(rng, deg=2, allow_zero=False)
                for _ in range(rng.randint(1, 3))
            }
            p = LaurentPoly(terms)
            assert parse_laurent(p.to_str()) == p


def ref_join(parts):
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def ref_tpoly_str(p):
    """The printer's string, built term by term from the ``Fraction`` coefficients."""
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        num = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        v = "t" if k == 1 else f"t^{k}"
        parts.append(num if k == 0 else v if c == 1 else f"-{v}" if c == -1 else f"{num}*{v}")
    return ref_join(parts) if parts else "0"


def ref_laurent_str(p):
    parts = []
    for k in sorted(p.terms, reverse=True):
        c = p.terms[k]
        s = ref_tpoly_str(c)
        if sum(1 for x in c.coeffs if x) > 1:
            s = f"({s})"
        up = "u" if k == 1 else f"u^{k}"
        if k == 0:
            parts.append(s)
        elif c == TPoly.const(1):
            parts.append(up)
        elif c == TPoly.const(-1):
            parts.append(f"-{up}")
        else:
            parts.append(f"{s}*{up}")
    return ref_join(parts) if parts else "0"


# zeros between terms, +-1, and large numerators and denominators of either sign
PRINTED_COEFFS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(-9, 9, max_denominator=12),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)),
)
PRINTED_TPOLYS = st.builds(TPoly, st.lists(PRINTED_COEFFS, max_size=6))


class TestPrinters:
    @PROPERTY
    @given(PRINTED_TPOLYS)
    def test_tpoly_string_as_built_from_its_coefficients(self, p):
        assert p.to_str() == ref_tpoly_str(p)
        assert (-p).to_str() == ref_tpoly_str(-p)  # negative content too
        assert parse_tpoly(p.to_str()) == p

    @PROPERTY
    @given(
        st.dictionaries(st.integers(-4, 4), PRINTED_TPOLYS, max_size=5),
        st.sampled_from([None, TPoly.const(-1), TPoly.const(1), parse_tpoly("-2 + 3*t - t^2")]),
        st.integers(-4, 4),
    )
    def test_laurent_string_as_built_from_its_coefficients(self, terms, extra, k):
        if extra is not None:
            terms[k] = extra
        p = LaurentPoly(terms)
        assert p.to_str() == ref_laurent_str(p)
        assert parse_laurent(p.to_str()) == p

    def test_constant_and_unit_coefficients(self):
        p = LaurentPoly({0: parse_tpoly("-2 + 3*t"), 1: TPoly.const(-1), 2: TPoly.one(),
                         -1: TPoly.const(Fraction(-1, 3))})
        assert p.to_str() == "u^2 - u + (3*t - 2) - 1/3*u^-1" == ref_laurent_str(p)


def _long_sum():
    """A 1000-term sum as text, and the same sum built as a LaurentPoly."""
    text, value = [], LaurentPoly.zero()
    for k in range(1, 1001):
        c, e, d = (-1) ** k * k, k % 7 - 3, k % 3
        text.append(f"{c}*t^{d}*u^{e}")
        value = value + LaurentPoly({e: TPoly([0] * d + [c])})
    return "+".join(text).replace("+-", " - "), value


class TestParser:
    # each string parses to the value beside it
    ACCEPTED = [
        ("007*u", LaurentPoly({1: 7})),  # leading zeros are read
        ("u^(+2)", LaurentPoly.u(2)),
        ("u^((2))", LaurentPoly.u(2)),
        ("u^-(2)", LaurentPoly.u(-2)),  # a sign before a parenthesized integer
        ("2^-1*u", LaurentPoly({1: Fraction(1, 2)})),
        ("(1/2)^-2", LaurentPoly.const(4)),
        ("-u^2", LaurentPoly({2: -1})),  # the power binds before the sign
        ("+-+u", LaurentPoly({1: -1})),
        ("u**2 - 2*t", LaurentPoly({2: 1, 0: TPoly((0, -2))})),
        (" u\t+\nt ", LaurentPoly({1: 1, 0: TPoly.t()})),  # any whitespace separates
        ("u/2/3", LaurentPoly({1: Fraction(1, 6)})),
        ("u/(t-t+2)", LaurentPoly({1: Fraction(1, 2)})),
    ]
    REJECTED = [
        "0x10*u",
        "1_0*u",
        "1.5*u",
        "1e3*u",
        "1j*u",
        "\uff55",  # fullwidth u, which Python would fold onto u
        "\u0663*u",  # a non-ASCII digit
        "\u00b2*u",
        "2t",
        "x*u",
        "tu",
        "u^2^3",
        "u^t",
        "u//2",
        "(u)(t)",
        "u^--2",
        "()",
        "",
        "(" * 250 + "u" + ")" * 250,  # past Python's parser limit
    ]

    @pytest.mark.parametrize("text, value", ACCEPTED, ids=[a for a, _ in ACCEPTED])
    def test_accepted(self, text, value):
        assert parse_laurent(text) == value

    @pytest.mark.parametrize("text", REJECTED, ids=[ascii(r[:12]) for r in REJECTED])
    def test_rejected(self, text):
        with pytest.raises(SpecFormatError):
            parse_laurent(text)

    def test_long_chains(self):
        text, value = _long_sum()
        assert parse_laurent(text) == value
        assert parse_laurent("*".join(["(u+1)"] * 5 + ["u"] * 795)) == LaurentPoly.u(795) * (
            LaurentPoly.u() + LaurentPoly.one()
        ) ** 5

    @pytest.mark.parametrize("text", ["(u+t)^10000", "7^100000000*u", "2^-100000000*u"])
    def test_huge_power_refused_at_once(self, text):
        # by growth, (u+t)^10000 would take hours and 7^100000000 minutes
        start = time.perf_counter()
        with pytest.raises(SpecFormatError, match="too large"):
            parse_laurent(text)
        assert time.perf_counter() - start < 1.0

    def test_power_bound_keeps_every_family(self, monkeypatch):
        # the benchmark's families, the fixtures' and a large constant power
        # parse to the values they have with the bound lifted
        gen, _refs = bench_gen_and_refs()
        families = list(gen.LADDER + gen.FIXTURES + gen.SWEEP)
        families += gen.pool(gen.EXACT_POOL) + gen.pool(gen.VERIFY_POOL)
        texts = [g for _label, _fiber, g in families] + ["10^400*u^3/3 - t*u", "(u+t)^40-7^999*u"]
        root = Path(__file__).resolve().parents[1]
        for spec in sorted((root / "fixtures").glob("*.spec")):
            texts += [line.split("=", 1)[1] for line in spec.read_text().splitlines()
                      if line.replace(" ", "").startswith("g=")]
        bounded = [parse_laurent(text) for text in texts]
        monkeypatch.setattr(symbolic, "_POWER_BITS", math.inf)
        assert bounded == [parse_laurent(text) for text in texts]

    @PROPERTY
    @given(
        st.lists(
            st.sampled_from(
                ["u", "t", "0", "1", "2", "+", "-", "*", "/", "^", "**", "(", ")", " ", ".", "\u00b2"]
            ),
            max_size=16,
        )
        .map("".join)
        # one-digit exponents keep every power small
        .filter(lambda s: not re.search(r"(\^|\*\*)[\s(+\-]*\d\d", s))
    )
    def test_returns_or_raises_spec_format_error(self, text):
        try:
            assert isinstance(parse_laurent(text), LaurentPoly)
        except SpecFormatError:
            pass


def zpolys(max_len=4, bound=9):
    """Strategy for Z[t] polynomials: int lists without trailing zeros."""
    return st.lists(st.integers(-bound, bound), max_size=max_len).map(
        lambda cs: cs[: max((k + 1 for k, c in enumerate(cs) if c), default=0)]
    )


def zmatrix(n, max_len=3):
    return st.lists(st.lists(zpolys(max_len), min_size=n, max_size=n), min_size=n, max_size=n)


def fraction_gcd(a, b):
    """Reference monic gcd: plain Euclid over Q with Fraction coefficients."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        r = list(a)
        while len(r) >= len(b):
            q = r[-1] / b[-1]
            shift = len(r) - len(b)
            for j, c in enumerate(b):
                r[shift + j] -= q * c
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    return [c / a[-1] for c in a] if a else a


def tpoly_det(M):
    """Reference determinant: cofactor expansion along the first row, over TPoly."""
    if not M:
        return TPoly.one()
    total = TPoly.zero()
    for j, entry in enumerate(M[0]):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = TPoly(entry) * tpoly_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def columns_of(M):
    return [list(col) for col in zip(*M)]


def prs_primitive_vector(polys):
    """Reference: ``polys`` divided by the gcd of its entries, taken one entry at a
    time by the PRS chain of zpoly_gcd; the last nonzero entry's lead made positive."""
    g = []
    for p in polys:
        g = zpoly_gcd(g, p)
    if g:
        polys = [zpoly_exact_div(p, g) for p in polys]
    lead = next((p for p in reversed(polys) if p), None)
    if lead is not None and lead[-1] < 0:
        polys = [[-c for c in p] for p in polys]
    return list(polys)


def schoolbook_mul(a, b):
    """The general zpoly product loop, the reference for the length-1 cases."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def schoolbook_div(a, b):
    """The general exact-division loop, the reference for the length-1 cases."""
    db, lb = len(b) - 1, b[-1]
    rem = list(a)
    quo = [0] * max(len(rem) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[k + db], lb)
        if r:
            raise ArithmeticError("division was expected to be exact")
        if q:
            quo[k] = q
            for j, c in enumerate(b, k):
                rem[j] -= q * c
    if any(rem[:db]):
        raise ArithmeticError("division was expected to be exact")
    return quo


# [1], [-1] and any other nonzero constant [c]
scalars = st.one_of(
    st.sampled_from([[1], [-1]]), st.integers(-40, 40).filter(bool).map(lambda c: [c])
)


class TestScalings:
    @PROPERTY
    @given(scalars, zpolys(6, 40))
    def test_length_one_operand_matches_schoolbook(self, c, a):
        for x, y in ((c, a), (a, c)):
            product = zpoly_mul(x, y)
            assert product == schoolbook_mul(x, y)
            assert product is not x and product is not y  # a copy, even for [1]
        assert zpoly_mul([], c) == zpoly_mul(c, []) == []
        product = schoolbook_mul(c, a)
        quotient = zpoly_exact_div(product, c)
        assert quotient == schoolbook_div(product, c) == a
        assert quotient is not product

    @PROPERTY
    @given(st.integers(2, 40), st.sampled_from([1, -1]), zpolys(6, 40))
    def test_inexact_scaling_raises(self, m, sign, a):
        c = [sign * m]
        a = zpoly_add(zpoly_mul(a, c), [1])  # its constant term is 1 mod m
        for div in (zpoly_exact_div, schoolbook_div):
            with pytest.raises(ArithmeticError):
                div(a, c)


class TestLinearAlgebra:
    @PROPERTY
    @given(zpolys(), zpolys(), zpolys())
    def test_zpoly_gcd_matches_fraction_euclid(self, f, a, b):
        # a planted common factor f makes nontrivial gcds common
        a, b = zpoly_mul(f, a), zpoly_mul(f, b)
        g = zpoly_gcd(a, b)
        assert g == [] or g[-1] > 0
        monic = [Fraction(c, g[-1]) for c in g] if g else []
        assert monic == fraction_gcd(a, b)
        assert tpoly_gcd(TPoly(a), TPoly(b)) == TPoly(fraction_gcd(a, b))

    @PROPERTY
    @given(st.integers(0, 3).flatmap(zmatrix))
    def test_bareiss_det_matches_cofactor(self, M):
        det, relation = bareiss(columns_of(M))
        want = tpoly_det(M)
        assert TPoly(det) == want
        # a singular matrix is reported with a dependence among its columns
        assert (relation is not None) == want.is_zero()

    @PROPERTY
    @given(
        st.integers(1, 3).flatmap(
            lambda m: st.tuples(
                st.integers(m, 4).flatmap(
                    lambda r: st.lists(
                        st.lists(zpolys(3), min_size=r, max_size=r), min_size=m, max_size=m
                    )
                ),
                st.lists(zpolys(2), min_size=m, max_size=m),
            )
        )
    )
    def test_bareiss_finds_planted_dependence(self, planted):
        vs, a = planted
        r = len(vs[0])
        v_new = [[] for _ in range(r)]
        for ak, vk in zip(a, vs):
            v_new = [zpoly_add(x, zpoly_mul(ak, y)) for x, y in zip(v_new, vk)]
        tail = [[1] for _ in range(r)]  # never reached: the planted column depends
        _, c = bareiss(vs + [v_new, tail])
        assert c is not None and c[-1]
        cols = (vs + [v_new])[: len(c)]
        for i in range(r):
            total = []
            for ck, col in zip(c, cols):
                total = zpoly_add(total, zpoly_mul(ck, col[i]))
            assert total == []
        if len(c) == len(vs) + 1:
            # v_0..v_{m-1} were independent, so the relation is the planted one
            lead = TPoly([-x for x in c[-1]])
            assert [ratfun.div(TPoly(ck), lead) for ck in c[:-1]] == [RatFun(TPoly(x)) for x in a]

    def test_bareiss_solves_square_system_random(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(1, 3)
            A = [
                [RatFun(rand_tpoly(rng, 2), rand_tpoly(rng, 1, allow_zero=False)) for _ in range(n)]
                for _ in range(n)
            ]
            x = [RatFun(rand_tpoly(rng, 2)) for _ in range(n)]
            b = [ratfun.total(ratfun.mul(A[i][j], x[j]) for j in range(n)) for i in range(n)]
            nums, _ = clear_denominators([e for row in A for e in row] + b)
            M = [nums[i * n:(i + 1) * n] + [nums[n * n + i]] for i in range(n)]
            _, c = bareiss(columns_of(M))
            if len(c) <= n:
                continue  # the random matrix happened to be singular
            # Cramer: x_j = -c_j / c_n
            lead = TPoly([-v for v in c[n]])
            assert [ratfun.div(TPoly(cj), lead) for cj in c[:n]] == x

    @PROPERTY
    @given(
        zpolys(4, 40),
        st.integers(-12, 12).filter(bool),
        st.lists(zpolys(), min_size=1, max_size=5),
        st.sets(st.integers(0, 4), max_size=2),
    )
    def test_primitive_vector_matches_prs_chain(self, f, k, cofactors, zeros):
        # a planted common factor f, an integer content k, zero entries at the indices in zeros
        polys = [[] if i in zeros else zpoly_mul([k * c for c in f], a) for i, a in enumerate(cofactors)]
        assert zpoly_primitive_vector(polys) == prs_primitive_vector(polys)

    @PROPERTY
    @given(st.integers(-12, 12).filter(bool), st.lists(zpolys(6, 40), min_size=1, max_size=5))
    def test_primitive_vector_constant_gcd(self, k, cofactors):
        polys = [[k * c for c in a] for a in cofactors]
        assert zpoly_primitive_vector(polys) == prs_primitive_vector(polys)

    def test_primitive_vector_falls_back_when_the_digits_do_not_divide(self, monkeypatch):
        # (t + 3)(2t - 2) and (t + 3)(t^2 + 2): xi = 16, and the values 570 and 4902 have
        # the gcd 114 = 19 * 6, since the cofactors' values 30 and 258 share 6; its digits
        # read 7t + 2, which divides neither entry, so the PRS chain runs
        polys = [[-6, 4, 2], [6, 2, 3, 1]]
        assert symbolic._heuristic_gcd(polys) == [2, 7]
        calls = []
        prs = symbolic._prs_gcd
        monkeypatch.setattr(symbolic, "_prs_gcd", lambda ps: calls.append(ps) or prs(ps))
        assert zpoly_primitive_vector(polys) == prs_primitive_vector(polys) == [[-2, 2], [2, 0, 1]]
        assert calls == [polys]

    @PROPERTY
    @given(
        st.integers(1, 3).flatmap(
            lambda r: st.lists(
                st.lists(zpolys(3, 2 ** 64), min_size=r, max_size=r), min_size=1, max_size=r + 1
            )
        )
    )
    def test_bareiss_matches_reference_on_wide_coefficients(self, columns):
        det, relation = bareiss(columns)
        want_det, want_relation = reference_bareiss(columns)
        assert (relation is None) == (want_relation is None)
        if relation is None:
            if len(columns) == len(columns[0]):  # square: the determinant
                assert det == want_det
            return
        assert det == want_det == []
        # the same relation up to a factor in Q(t): normalized by the last entry
        assert len(relation) == len(want_relation)
        for c, want in zip(relation, want_relation):
            assert zpoly_mul(c, want_relation[-1]) == zpoly_mul(want, relation[-1])

    # each case's largest output coefficient is over half of 2^k for the largest k with 2^k
    # at most the product of the column norms, so a packing one bit narrower misreads it
    @pytest.mark.parametrize(
        "columns,out",
        [
            # triangular, positive constants: det 2^20 (2^64 + 1), norms 1026, 1025, 2^64 + 1
            (
                [[[1024], [1], [1]], [[], [1024], [1]], [[], [], [2 ** 64 + 1]]],
                ([2 ** 20 * (2 ** 64 + 1)], None),
            ),
            ([[[3]]], ([3], None)),
            ([[[-3]]], ([-3], None)),
            ([[[2 ** 64 + 1]]], ([2 ** 64 + 1], None)),
            # a 1x1 column after a unit one: the relation is [c, -1]
            ([[[1]], [[3]]], ([], [[3], [-1]])),
            ([[[1]], [[-(2 ** 64) - 1]]], ([], [[-(2 ** 64) - 1], [-1]])),
        ],
    )
    def test_bareiss_at_the_packing_bound(self, columns, out):
        bound = math.prod(sum(abs(c) for p in col for c in p) for col in columns)
        top = max(abs(c) for p in [out[0], *(out[1] or [])] for c in p)
        assert 2 * top > 1 << bound.bit_length()
        assert bareiss(columns) == reference_bareiss(columns) == out

    @PROPERTY
    @given(zpolys(8, 2 ** 70), st.integers(0, 8))
    def test_pack_round_trip(self, a, extra):
        k = max(map(abs, a), default=0).bit_length() + 1 + extra
        assert zpoly_unpack(zpoly_pack(a, k), k) == a

    def test_bareiss_singular_matrix_has_dependence(self):
        det, c = bareiss([[[1], [1]], [[1], [1]], [[1], []]])
        assert det == []
        assert c == [[1], [-1]]  # column 1 equals column 0
