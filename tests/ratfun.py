"""Field arithmetic on RatFun for the tests' reference computations.

The package only builds a RatFun from a numerator and a denominator and reads
it back; sums, products, quotients, derivatives over Q(t) and values of a
connection matrix at a point are needed only by the references that the
fraction-free code is checked against.  Every operand may be a RatFun, a TPoly
or a rational constant.
"""

from fractions import Fraction

from expperiods.symbolic import RatFun, TPoly


def const(c) -> RatFun:
    return RatFun(TPoly.const(c))


def zero() -> RatFun:
    return const(0)


def one() -> RatFun:
    return const(1)


def as_ratfun(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, TPoly):
        return RatFun(x)
    if isinstance(x, (int, Fraction)):
        return const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RatFun")


def add(a, b) -> RatFun:
    a, b = as_ratfun(a), as_ratfun(b)
    return RatFun(a.num * b.den + b.num * a.den, a.den * b.den)


def neg(a) -> RatFun:
    a = as_ratfun(a)
    return RatFun(-a.num, a.den)


def sub(a, b) -> RatFun:
    return add(a, neg(b))


def mul(a, b) -> RatFun:
    a, b = as_ratfun(a), as_ratfun(b)
    return RatFun(a.num * b.num, a.den * b.den)


def div(a, b) -> RatFun:
    a, b = as_ratfun(a), as_ratfun(b)
    if b.num.is_zero():
        raise ZeroDivisionError("division by the zero rational function")
    return RatFun(a.num * b.den, a.den * b.num)


def total(xs) -> RatFun:
    out = zero()
    for x in xs:
        out = add(out, x)
    return out


def derivative(a) -> RatFun:
    a = as_ratfun(a)
    return RatFun(a.num.derivative() * a.den - a.num * a.den.derivative(), a.den * a.den)


def evaluate(A, t) -> list:
    """The connection matrix ``A`` at ``t``, as nested lists of complex."""
    t = complex(t)
    return [[x.num.eval(t) / x.den.eval(t) for x in row] for row in A.entries]
