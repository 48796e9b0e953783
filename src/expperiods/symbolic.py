"""Exact arithmetic over Q(t), over Laurent polynomials Q[t][u, 1/u], and over Z[t].

The API edge uses three small exact types:

* :class:`TPoly` — univariate polynomials in ``t`` over Q, each stored as a
  ``Fraction`` content times a primitive Z[t] polynomial;
* :class:`RatFun` — reduced fractions of two ``TPoly`` with monic denominator
  (the entries of a connection matrix ``A(t)``); it has no evaluator, since
  A's one numeric view is ``ConnectionMatrix.polynomial_form``;
* :class:`LaurentPoly` — finite sums ``sum_k c_k(t) * u^k`` with ``k`` ranging
  over the integers and ``c_k`` a ``TPoly``.

Rational scalars are plain :class:`fractions.Fraction`, which already keeps
``gcd(num, den) = 1`` and ``den > 0``.  Canonical printers serialize every
object for the CLI.  One walk over the ``ast`` of an expression reads ``TPoly``
and ``LaurentPoly`` back; every divisor in it must be a nonzero rational
constant, so ``RatFun`` prints but does not parse.

All polynomial arithmetic runs fraction-free over Z[t], on plain lists of
Python ints ("zpolys"): ``TPoly`` applies the ``zpoly_*`` helpers to its
primitive part and keeps the rational scale in its one content.

* :func:`zpoly_gcd` — the one polynomial gcd (primitive PRS); ``tpoly_gcd``
  (monic, over Q[t]), the fallback of the coefficient normalization
  :func:`zpoly_primitive_vector` and the squarefree decomposition of the
  singular set (``singular.squarefree_decomposition``, Yun's algorithm on
  ``TPoly.prim``) are built on it;
* :func:`bareiss` — the one exact elimination: fraction-free Gaussian
  elimination that returns either a determinant (the Bezoutian resultants of
  the singular set) or the first linear dependence among its columns as
  Cramer minors (the cyclic-vector ODE), on entries packed once as integers
  at ``2^k`` over twice the columns' 1-norm product, which bounds every minor;
  evaluation is a ring homomorphism, so its exact divisions stay exact;
* :func:`clear_denominators` moves ``RatFun`` data onto Z[t] with one
  common denominator.
"""

from __future__ import annotations

import ast
import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import PrecisionExhausted, SpecFormatError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class TPoly:
    """Polynomial in ``t`` over Q, stored as ``content * prim``.

    ``prim`` is a primitive Z[t] tuple, lowest degree first: its coefficients
    have gcd 1 and the last one is positive.  ``content`` is a ``Fraction``.
    The zero polynomial is ``content = 0``, ``prim = ()`` (degree ``-1``).
    The pair is unique, so ``==`` and ``hash`` compare it.  By Gauss's lemma a
    product or exact quotient of primitive polynomials is primitive, so ``*``
    and :meth:`exact_div` need no gcd, and ``+`` takes one.
    """

    __slots__ = ("content", "prim", "_fc")

    def __init__(self, coeffs: Iterable[Union[int, Fraction]] = ()):
        cs = [c if isinstance(c, int) else _as_fraction(c) for c in coeffs]
        L = math.lcm(*(c.denominator for c in cs))
        self.content, self.prim = _normalize([c.numerator * (L // c.denominator) for c in cs], 1, L)
        self._fc = None

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls) -> "TPoly":
        return _tp(_ZERO, ())

    @classmethod
    def one(cls) -> "TPoly":
        return _tp(_ONE, (1,))

    @classmethod
    def const(cls, c) -> "TPoly":
        c = _as_fraction(c)
        return _tp(c, (1,)) if c else _tp(_ZERO, ())

    @classmethod
    def t(cls) -> "TPoly":
        return _tp(_ONE, (0, 1))

    # -- structure ---------------------------------------------------------
    @property
    def coeffs(self) -> tuple:
        """``coeffs[k]`` is the ``Fraction`` coefficient of ``t^k`` (computed, not stored)."""
        c = self.content
        return tuple(c * x for x in self.prim)

    @property
    def degree(self) -> int:
        return len(self.prim) - 1

    def is_zero(self) -> bool:
        return not self.prim

    def is_one(self) -> bool:
        return self.prim == (1,) and self.content == 1

    def lc(self) -> Fraction:
        return self.content * self.prim[-1] if self.prim else _ZERO

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "TPoly") -> "TPoly":
        if not other.prim:
            return self
        if not self.prim:
            return other
        a, b, pa, pb = self.content, other.content, self.prim, other.prim
        den = math.lcm(a.denominator, b.denominator)
        na, nb = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        h = math.gcd(na, nb)
        na, nb = na // h, nb // h
        out = zpoly_add([na * c for c in pa], [nb * c for c in pb])
        return _tp(*_normalize(out, h, den))

    def __neg__(self) -> "TPoly":
        return _tp(-self.content, self.prim)

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __mul__(self, other) -> "TPoly":
        if isinstance(other, (int, Fraction)):
            return _tp(self.content * other, self.prim) if other else TPoly.zero()
        return _tp(self.content * other.content, tuple(zpoly_mul(self.prim, other.prim)))

    __rmul__ = __mul__

    def exact_div(self, other: "TPoly") -> "TPoly":
        prim = tuple(zpoly_exact_div(self.prim, other.prim))  # first: it checks for zero
        return _tp(self.content / other.content, prim)

    def derivative(self) -> "TPoly":
        c = self.content
        return _tp(*_normalize(zpoly_derivative(self.prim), c.numerator, c.denominator))

    def monic(self) -> "TPoly":
        return _tp(Fraction(1, self.prim[-1]), self.prim) if self.prim else self

    # -- evaluation ----------------------------------------------------------
    def _float_coeffs(self):
        """The coefficients, each rounded once to a double (cached).

        Raises:
            PrecisionExhausted: if a coefficient is beyond the double range.
        """
        fc = self._fc
        if fc is None:
            n, d = self.content.numerator, self.content.denominator
            try:
                fc = self._fc = tuple(n * c / d for c in self.prim)
            except OverflowError:  # then so does the coefficient of largest size
                k = max(range(len(self.prim)), key=lambda k: abs(self.prim[k]))
                size = len(str(abs(n * self.prim[k]) // d)) - 1
                raise PrecisionExhausted(
                    f"the coefficient of t^{k}, about 10^{size}, is beyond the double range"
                ) from None
        return fc

    def eval(self, x):
        """Horner evaluation; ``x`` may be complex, float, or an mpmath number."""
        if isinstance(x, (float, complex)):
            acc = 0j if isinstance(x, complex) else 0.0
            for c in reversed(self._float_coeffs()):
                acc = acc * x + c
            return acc
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + (x * 0 + c.numerator) / c.denominator
        return acc

    # -- comparison / printing ------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, TPoly) and self.prim == other.prim and self.content == other.content

    def __hash__(self):
        return hash(("TPoly", self.content, self.prim))

    def __repr__(self):
        return f"TPoly({self.to_str()!r})"

    def to_str(self) -> str:
        if self.is_zero():
            return "0"
        # coefficient k is n * prim[k] / d with gcd(n, d) = 1: one gcd puts it in lowest terms
        n, d, prim = self.content.numerator, self.content.denominator, self.prim
        parts = []
        for k in range(self.degree, -1, -1):
            if prim[k]:
                h = math.gcd(prim[k], d)
                parts.append(_term_str(n * (prim[k] // h), d // h, k))
        return _join_terms(parts)


def _tp(content: Fraction, prim: tuple) -> TPoly:
    """The ``TPoly`` with this (already canonical) content and primitive part."""
    p = object.__new__(TPoly)
    p.content, p.prim, p._fc = content, prim, None
    return p


def _normalize(zs: list, num: int, den: int):
    """``(content, prim)`` of ``(num / den) * zs`` for an integer list ``zs``."""
    prim = zpoly_primitive(_zp_trim(zs))
    return (Fraction(num * (zs[-1] // prim[-1]), den), tuple(prim)) if prim else (_ZERO, ())


def _term_str(num: int, den: int, k: int) -> str:
    """The term ``(num/den) t^k`` of a ``TPoly``, for ``num/den`` in lowest terms, ``den > 0``."""
    c = str(num) if den == 1 else f"{num}/{den}"
    if k == 0:
        return c
    v = "t" if k == 1 else f"t^{k}"
    if den == 1 and abs(num) == 1:
        return v if num == 1 else f"-{v}"
    return f"{c}*{v}"


def _join_terms(parts: Sequence[str]) -> str:
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


class RatFun:
    """Reduced rational function ``num/den`` in ``t``; the denominator is monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: TPoly, den: TPoly = None):
        if den is None:
            den = TPoly.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = TPoly.zero(), TPoly.one()
        else:
            g = tpoly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            num = num * (1 / den.lc())
            den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, RatFun) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFun", self.num, self.den))

    def __repr__(self):
        return f"RatFun({self.to_str()!r})"

    def to_str(self) -> str:
        if self.den.is_one():
            return self.num.to_str()
        return f"({self.num.to_str()})/({self.den.to_str()})"


class LaurentPoly:
    """Finite sum ``sum_k c_k(t) u^k`` with integer ``k`` and ``TPoly`` coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for k, c in (terms or {}).items():
            if isinstance(c, (int, Fraction)):
                c = TPoly.const(c)
            if not c.is_zero():
                clean[int(k)] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: TPoly.one()})

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: TPoly.const(c)})

    @classmethod
    def u(cls, k: int = 1) -> "LaurentPoly":
        return cls({k: TPoly.one()})

    @classmethod
    def monomial(cls, k: int, coeff: TPoly) -> "LaurentPoly":
        return cls({k: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def u_degree(self):
        """Largest u-exponent present, or ``None`` for the zero element."""
        return max(self.terms) if self.terms else None

    @property
    def u_order(self):
        """Smallest u-exponent present, or ``None`` for the zero element."""
        return min(self.terms) if self.terms else None

    def coeff(self, k: int) -> TPoly:
        return self.terms.get(k, TPoly.zero())

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction, TPoly)):
            c = other if isinstance(other, TPoly) else TPoly.const(other)
            return LaurentPoly({k: v * c for k, v in self.terms.items()})
        out: dict = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                k = i + j
                p = a * b
                out[k] = out[k] + p if k in out else p
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if len(self.terms) == 1:
                ((k, c),) = self.terms.items()
                if c.degree == 0:
                    return LaurentPoly({k * n: TPoly.const((1 / c.lc()) ** -n)})
            raise ValueError("only a rational monomial c*u^k has a negative power")
        r = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                r = r * base
            base = base * base
            n >>= 1
        return r

    def partial_u(self) -> "LaurentPoly":
        return LaurentPoly({k - 1: c * k for k, c in self.terms.items() if k != 0})

    def partial_t(self) -> "LaurentPoly":
        return LaurentPoly({k: c.derivative() for k, c in self.terms.items()})

    def coeffs_at(self, t) -> dict:
        """Numeric coefficient map ``{k: c_k(t)}`` for a fixed parameter value."""
        return {k: c.eval(t) for k, c in self.terms.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(("LaurentPoly", frozenset(self.terms.items())))

    def __repr__(self):
        return f"LaurentPoly({self.to_str()!r})"

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            if k == 0:
                s = c.to_str()
                parts.append(f"({s})" if len(_nonzero_terms(c)) > 1 else s)
                continue
            up = "u" if k == 1 else f"u^{k}"
            if c.is_one():
                parts.append(up)
            elif c.prim == (1,) and c.content == -1:
                parts.append(f"-{up}")
            elif len(_nonzero_terms(c)) > 1:
                parts.append(f"({c.to_str()})*{up}")
            else:
                parts.append(f"{c.to_str()}*{up}")
        return _join_terms(parts)


def _nonzero_terms(p: TPoly):
    return [c for c in p.prim if c]


# ---------------------------------------------------------------------------
# Expression parsing: Python's parser reads the expression, with ``^`` written
# ``**``, and one walk maps its syntax tree onto LaurentPoly.
# ---------------------------------------------------------------------------

# Only the grammar's characters reach the parser, so Python's other literals
# (0x10, 1_0, 1.5, 1e3, 1j) and NFKC-folded names never do.
_NOT_IN_GRAMMAR = re.compile(r"[^0-9tu+\-*/^() ]")
_SYMBOLS = {"t": LaurentPoly({0: TPoly.t()}), "u": LaurentPoly.u()}
# Most bits a power's result may hold, as ``_power`` estimates them.  The largest
# powers under it take at most 0.05 s ((u+t)^63, (1+t)^511, 7^93377), but 0.76 s
# on a u-only base ((u+u^-1)^361), whose every coefficient is its own object.
_POWER_BITS = 2 ** 18
# what each link of a chain of ``+ - * /`` and signs does to the value below it
_CHAIN = {
    ast.Add: lambda v, node: v + _value(node.right),
    ast.Sub: lambda v, node: v - _value(node.right),
    ast.Mult: lambda v, node: v * _value(node.right),
    ast.Div: lambda v, node: v * _inverse_constant(_value(node.right)),
    ast.UAdd: lambda v, node: v,
    ast.USub: lambda v, node: -v,
}


def _value(node) -> LaurentPoly:
    """The LaurentPoly of an expression node.  Chains of ``+ - * /`` and of
    signs are walked by a loop, so recursion deepens only with parentheses."""
    chain = []
    while isinstance(node, (ast.BinOp, ast.UnaryOp)) and type(node.op) in _CHAIN:
        chain.append(node)
        node = node.left if isinstance(node, ast.BinOp) else node.operand
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        v = _power(_value(node.left), _exponent(node.right))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        v = LaurentPoly.const(node.value)
    elif isinstance(node, ast.Name) and node.id in _SYMBOLS:
        v = _SYMBOLS[node.id]
    elif isinstance(node, ast.Name):
        raise SpecFormatError(f"unknown symbol {node.id!r} (only t and u are allowed)")
    else:
        raise SpecFormatError(f"unexpected {ast.unparse(node).replace('**', '^')!r}")
    for link in reversed(chain):
        v = _CHAIN[type(link.op)](v, link)
    return v


def _exponent(node) -> int:
    """An integer exponent with at most one sign (its parentheses are gone)."""
    n = node.operand if isinstance(node, ast.UnaryOp) else node
    if not (isinstance(n, ast.Constant) and type(n.value) is int):
        raise SpecFormatError("expected an integer exponent")
    return ast.literal_eval(node)


def _power(w: LaurentPoly, n: int) -> LaurentPoly:
    """``w^n``, refused before any product when its estimated size is over
    ``_POWER_BITS``.  Each of w's u-span, t-degree and coefficient bits grows
    n-fold; the bits per factor count the terms too (multinomial growth)."""
    if w.terms and abs(n) > 1:
        cs = [c for p in w.terms.values() for c in p.coeffs if c]
        den = math.lcm(*(c.denominator for c in cs))
        bits = math.log2(len(cs) * den) + max(math.log2(abs(c.numerator)) for c in cs)
        span = abs(n) * (w.u_degree - w.u_order) + 1
        degree = abs(n) * max(p.degree for p in w.terms.values()) + 1
        size = span * degree * (abs(n) * bits + 1)
        if size > _POWER_BITS:
            raise SpecFormatError(
                f"power ^{n} too large: about {size:.2g} bits, over {_POWER_BITS}"
            )
    return w ** n


def _inverse_constant(w: LaurentPoly) -> Fraction:
    """``1/w`` for a divisor ``w``, which must be a nonzero rational constant."""
    if w.is_zero():
        raise SpecFormatError("division by zero")
    if set(w.terms) != {0}:
        raise SpecFormatError("division by a u-dependent expression is not allowed")
    c = w.terms[0]
    if c.degree > 0:
        raise SpecFormatError(
            f"division by {c.to_str()}: coefficients must be polynomials in t"
        )
    return 1 / c.lc()


def parse_laurent(s: str) -> LaurentPoly:
    """Parse an expression in ``t`` and ``u`` into a LaurentPoly over Q[t].

    The expression is a sum, difference, product or quotient of integers,
    ``t``, ``u`` and parenthesized expressions, with signs and with powers
    ``x^n`` (or ``x**n``) whose exponent is an integer with at most one sign.
    Whitespace separates, and leading zeros are read (``007`` is 7).  Every
    divisor must be a nonzero rational constant: phase functions live in
    Q[t][u, 1/u], so even a t-divisor that would cancel is rejected, and only
    a rational monomial c*u^k has a negative power.
    """
    s = re.sub(r"\s", " ", s)
    bad = _NOT_IN_GRAMMAR.search(s)
    if bad:
        raise SpecFormatError(f"unexpected character {bad.group()!r} in expression")
    src = re.sub(r"\b0+(?=\d)", "", s.replace("^", "**")).strip()
    try:
        return _value(ast.parse(src, mode="eval").body)
    except (SyntaxError, ValueError) as exc:  # ValueError: a bad power, or an unprintable integer
        raise SpecFormatError(f"invalid expression: {getattr(exc, 'msg', exc)}") from None
    except (RecursionError, MemoryError):
        raise SpecFormatError("expression too deeply nested or too large") from None


def parse_tpoly(s: str) -> TPoly:
    """Parse a u-free expression into a polynomial in ``t``."""
    p = parse_laurent(s)
    if set(p.terms) - {0}:
        raise SpecFormatError("expected a u-free expression")
    return p.coeff(0)


# ---------------------------------------------------------------------------
# Fraction-free arithmetic over Z[t]
# ---------------------------------------------------------------------------
#
# A Z[t] polynomial ("zpoly") is a list of Python ints, lowest degree first,
# with no trailing zeros; the zero polynomial is [].  A TPoly's ``prim`` is a
# zpoly as a tuple, and every TPoly ring operation runs on it through these
# helpers.  Cyclic vectors, resultants and squarefree decompositions call them
# directly.  ``zpoly_mul`` and ``zpoly_exact_div`` take a length-1 operand ``[c]``
# as a scaling, a copy for ``[1]``.


def _zp_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def zpoly_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _zp_trim(out)


def zpoly_sub(a: list, b: list) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _zp_trim(out)


def zpoly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:  # a scaling
        return list(a) if b[0] == 1 else [b[0] * x for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def zpoly_derivative(a: list) -> list:
    return [k * c for k, c in enumerate(a)][1:]


def zpoly_exact_div(a: list, b: list) -> list:
    """Quotient ``a / b`` in Z[t]; raises ArithmeticError unless ``b`` divides ``a``."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lb = len(b) - 1, b[-1]
    if not db:  # a scaling
        if lb != 1 and any(c % lb for c in a):
            raise ArithmeticError("division was expected to be exact")
        return list(a) if lb == 1 else [c // lb for c in a]
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


def zpoly_primitive(a: list) -> list:
    """``a`` divided by its integer content, with positive leading coefficient."""
    if not a:
        return a
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else [x // c for x in a]


def _zp_prem(a: list, b: list) -> list:
    """``lc(b)^k * a mod b`` for some ``k >= 0`` (a sparse pseudo-remainder)."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(rem) > db:
        g = math.gcd(rem[-1], lb)
        mb, mr = lb // g, rem[-1] // g
        rem = [c * mb for c in rem]
        for j, c in enumerate(b, len(rem) - 1 - db):
            rem[j] -= mr * c
        _zp_trim(rem)
    return rem


def zpoly_gcd(a: list, b: list) -> list:
    """Gcd in Z[t], content included, with positive leading coefficient.

    Primitive polynomial remainder sequence (von zur Gathen & Gerhard,
    *Modern Computer Algebra*, ch. 6): pseudo-remainders with the integer
    content removed at every step, so coefficients stay near the size of the
    result.
    """
    if not a or not b:
        g = a or b
        return [-c for c in g] if g and g[-1] < 0 else list(g)
    content = math.gcd(math.gcd(*a), math.gcd(*b))
    a, b = zpoly_primitive(a), zpoly_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, zpoly_primitive(_zp_prem(a, b))
    g = a if not b else [1]
    return g if content == 1 else [c * content for c in g]


def zpoly_primitive_vector(polys: Sequence[list]) -> list:
    """Divide ``polys`` by their common gcd in Z[t]; make the last nonzero entry's
    leading coefficient positive.

    The result is the unique representative of the Q(t)-line through
    ``polys`` whose entries are coprime integer polynomials.  The gcd is first
    guessed by GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 7, 1989): every
    entry is evaluated at ``xi = 2^k > 2 min_i ||p_i||_inf + 2``, and the
    balanced base-``xi`` digits of the one integer gcd of the values form a
    polynomial ``h``.  The candidate, ``pp(h)`` times the integer content of
    ``polys``, is kept if it divides every entry; else :func:`_prs_gcd` runs.
    A candidate that divides is the gcd: the gcd is the candidate times a
    primitive ``c`` with ``c(xi)`` dividing the content of ``h``, so
    ``|c(xi)| <= xi/2``; but ``c`` divides the ``p_i`` of least norm, so each
    root of ``c`` lies within ``||p_i||_inf + 1`` of 0 (Cauchy's bound), and
    ``|c(xi)| > xi/2`` unless ``c`` is a constant, 1.
    """
    nonzero = [p for p in polys if p]
    if not nonzero:
        return list(polys)
    g = _heuristic_gcd(nonzero)
    try:
        polys = [zpoly_exact_div(p, g) for p in polys]
    except ArithmeticError:  # the candidate does not divide some entry
        g = _prs_gcd(nonzero)
        polys = [zpoly_exact_div(p, g) for p in polys]
    if next(p for p in reversed(polys) if p)[-1] < 0:
        polys = [[-c for c in p] for p in polys]
    return polys


def _heuristic_gcd(polys: Sequence[list]) -> list:
    """GCDHEU's candidate for the gcd of nonzero ``polys``, as
    :func:`zpoly_primitive_vector` describes it."""
    k = (2 * min(max(map(abs, p)) for p in polys) + 2).bit_length()
    h = zpoly_unpack(math.gcd(*(zpoly_pack(p, k) for p in polys)), k)
    content = math.gcd(*(c for p in polys for c in p))
    return [c * content for c in zpoly_primitive(h)]


def _prs_gcd(polys: Sequence[list]) -> list:
    """The gcd of nonzero ``polys`` by :func:`zpoly_gcd`, shortest first."""
    g = []
    for p in sorted(polys, key=len):
        g = zpoly_gcd(g, p)
        if g == [1]:
            break
    return g


def clear_denominators(fs: Sequence[RatFun]):
    """Z[t] numerators and one common Z[t] denominator: ``fs[i] = nums[i] / den``.

    Each ``f`` is ``(r.numerator * f.num.prim) / (r.denominator * f.den.prim)``
    with ``r = f.num.content / f.den.content``, a coprime Z[t] pair.
    """
    pairs = []
    for f in fs:
        r = f.num.content / f.den.content
        pairs.append(([c * r.numerator for c in f.num.prim], [c * r.denominator for c in f.den.prim]))
    den = [1]
    for _, d in pairs:
        if d != den:
            den = zpoly_mul(den, zpoly_exact_div(d, zpoly_gcd(den, d)))
    return [zpoly_mul(n, zpoly_exact_div(den, d)) for n, d in pairs], den


def tpoly_gcd(a: TPoly, b: TPoly) -> TPoly:
    """Monic gcd over Q[t]: :func:`zpoly_gcd` of the primitive parts."""
    return TPoly(zpoly_gcd(a.prim, b.prim)).monic()


def zpoly_norm(a: list) -> int:
    """The 1-norm: the sum of the coefficients' absolute values."""
    return sum(map(abs, a))


def zpoly_pack(a: list, k: int) -> int:
    """``a(2^k)``, by Horner's rule on shifts (Kronecker substitution)."""
    v = 0
    for c in reversed(a):
        v = (v << k) + c
    return v


def zpoly_unpack(v: int, k: int) -> list:
    """The balanced base-``2^k`` digits of ``v``, each in ``(-2^(k-1), 2^(k-1)]``: the
    inverse of :func:`zpoly_pack` on such coefficients (``k >= 2``)."""
    xi, out = 1 << k, []
    while v:
        d = v & (xi - 1)
        if 2 * d > xi:
            d -= xi
        out.append(d)
        v = (v - d) >> k
    return out


def bareiss(columns: Sequence[Sequence[list]]):
    """Fraction-free (Bareiss) elimination over Z[t] of columns taken in order.

    ``columns`` is a finite sequence of equal-length lists of zpolys;
    elimination stops at the first column that depends on the ones before it.
    Returns ``(det, relation)``:

    * every column has a pivot: ``relation`` is None and ``det`` is the
      determinant of the matrix with these columns (when it is square);
    * column ``m`` is the first dependent one: ``det`` is ``[]`` and
      ``relation`` is ``[c_0, ..., c_m]`` with ``sum_k c_k * column_k = 0``,
      where ``c_m`` is minus the pivot minor of the first ``m`` columns
      (nonzero) and ``c_k`` are the matching Cramer minors.

    Each new column is first brought through the earlier elimination steps.
    After step ``s`` every entry is an ``(s+1)``-minor of the input
    (Sylvester's identity; Bareiss 1968), so each division by the previous
    pivot is exact in Z[t], and back-substitution multiplied through by the
    last pivot stays in Z[t] by Cramer's rule.  All of it runs on plain
    integers, each entry packed once as its value at ``xi = 2^k`` (Kronecker
    substitution; von zur Gathen & Gerhard, *Modern Computer Algebra*, 8.4):
    evaluation is a ring homomorphism, so those divisions stay exact in Z.  A
    minor, a signed sum of products of one entry per column, has every
    coefficient at most the product ``N`` of the columns' 1-norms; with
    ``xi > 2N`` a minor is zero exactly when its value is, so pivots are
    chosen among nonzero values, and the balanced base-``xi`` digits of the
    determinant or the relation are their coefficients.
    """
    k = math.prod(max(1, sum(map(zpoly_norm, col))) for col in columns).bit_length() + 1
    rows = []  # pivot row of each step
    cols = []  # each column as it stood when its own pivot was chosen
    for col in columns:
        col = [zpoly_pack(p, k) for p in col]
        rest = list(range(len(col)))
        prev = 1
        for p, e in zip(rows, cols):
            piv, xp = e[p], col[p]
            rest.remove(p)
            for i in rest:
                col[i] = (piv * col[i] - e[i] * xp) // prev
            prev = piv
        live = [i for i in rest if col[i]]
        if live:
            rows.append(min(live, key=lambda i: abs(col[i])))
            cols.append(col)
            continue
        # Dependent: solve the triangular system on the pivot rows, scaled by
        # the last pivot so that every unknown is a Cramer minor.
        m = len(rows)
        y = [0] * m
        for s in range(m - 1, -1, -1):
            p = rows[s]
            y[s] = (prev * col[p] - sum(cols[j][p] * y[j] for j in range(s + 1, m))) // cols[s][p]
        return [], [zpoly_unpack(v, k) for v in y + [-prev]]
    if not rows:
        return [1], None
    inversions = sum(a > b for i, a in enumerate(rows) for b in rows[i + 1:])
    det = cols[-1][rows[-1]]
    return zpoly_unpack(det if inversions % 2 == 0 else -det, k), None
