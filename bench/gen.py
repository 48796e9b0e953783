"""Seeded inputs for the benchmark workloads.

Everything here is pure Python and independent of the package under test:
families are strings ``(fiber, g)``, parameters are complex numbers, and the
only outside facts used are the hard singular balls recorded in the reference
file.  The same seed always gives the same inputs.

Random families follow one recipe: integer coefficients ``a + b*t (+ c*t^2)``
with ``a, b, c`` in [-2, 2] on ``u^2 .. u^d``, a ``t*u`` term, and for the
punctured line a pole term ``(k + t)*u^-e`` with ``k`` in {1, 2} and ``e`` in
{1, 2}.  Pools of such families are drawn once from fixed names, so that
their exact outputs can be stored as references; a run's seed sets the order
of the ops in each round, the gauge forms, and the CLI's parameters (drawn
from the stored points).
"""

from __future__ import annotations

import cmath
import math
import random

# The ladder of rising degree and rank.  The degree-9 rung u^9+t*u^4-(t^2+1)*u
# is left out on purpose: at the seed one cyclic_ode call on it takes about
# 606 s, longer than a whole run may last.
LADDER = (
    ("ladder_deg3", "affine_line", "u^3/3-t*u"),
    ("ladder_deg5", "affine_line", "u^5/5-t*u^2+u"),
    ("ladder_deg7", "affine_line", "u^7-t*u^3+t^2*u"),
    ("ladder_punct6", "punctured_line", "u^3+t*u-u^-3+t^2*u^-1"),
)

FIXTURES = (
    ("airy", "affine_line", "u^3/3 - t*u"),
    ("bessel", "punctured_line", "(t/2)*(u - u^-1)"),
    ("gaussian", "affine_line", "-t*u^2"),
    ("linear", "affine_line", "t*u"),
)

SWEEP = (
    ("airy", "affine_line", "u^3/3 - t*u"),
    ("bessel", "punctured_line", "(t/2)*(u - u^-1)"),
    ("gaussian", "affine_line", "-t*u^2"),
    ("quartic", "affine_line", "u^4/4-t*u"),
    ("punct4", "punctured_line", "u^2+t*u+u^-2"),
    ("ladder_deg5", "affine_line", "u^5/5-t*u^2+u"),
    ("ladder_punct6", "punctured_line", "u^3+t*u-u^-3+t^2*u^-1"),
)

# Pools: (name prefix, how many, punctured?, t-degree of coefficients,
# largest degree d, largest pole order e).  The exact pool keeps to rank <= 3:
# with t-degree 2 coefficients, rank-4 and rank-5 members already take 3 s to
# minutes per cyclic_ode at the seed, so one of them would fill a whole run.
# The rank cliff is measured by the ladder rungs instead.
EXACT_POOL = (("exact_aff", 12, False, 2, 3, 0), ("exact_pun", 12, True, 2, 2, 1))
VERIFY_POOL = (("verify_aff", 8, False, 1, 4, 0), ("verify_pun", 8, True, 1, 4, 2))

# Points per sweep family whose reference periods are stored.
SWEEP_POINTS = 8

# Parameters are drawn from the annulus R_MIN <= |t| <= R_MAX ...
R_MIN, R_MAX = 0.6, 2.2
# ... at least CLEARANCE plus twice the radius from every hard singular ball.
CLEARANCE = 0.5
# Length of the CLI's sample paths.
PATH_LENGTH = 0.4


def _coeff_str(cs) -> str:
    terms = []
    for j, c in enumerate(cs):
        if c == 0:
            continue
        mono = "" if j == 0 else ("t" if j == 1 else f"t^{j}")
        if not mono:
            terms.append(str(c))
        elif c == 1:
            terms.append(mono)
        elif c == -1:
            terms.append("-" + mono)
        else:
            terms.append(f"{c}*{mono}")
    return "+".join(terms).replace("+-", "-")


def random_family(rng: random.Random, punctured: bool, tdeg: int, dmax: int = 4, emax: int = 2):
    """One family of the recipe above, as (fiber, g), with 2 <= d <= dmax and e <= emax."""
    d = rng.randint(2, dmax)
    parts = []
    for k in range(d, 1, -1):
        cs = [rng.randint(-2, 2) for _ in range(tdeg + 1)]
        if k == d:
            while not any(cs):
                cs = [rng.randint(-2, 2) for _ in range(tdeg + 1)]
        if any(cs):
            parts.append(f"({_coeff_str(cs)})*u^{k}")
    parts.append("t*u")
    if punctured:
        e = rng.randint(1, emax)
        parts.append(f"({rng.randint(1, 2)}+t)*u^-{e}")
    fiber = "punctured_line" if punctured else "affine_line"
    return fiber, "+".join(parts)


def pool(spec) -> list:
    """The fixed family pool named by spec, as [(label, fiber, g)]."""
    out = []
    for prefix, count, punctured, tdeg, dmax, emax in spec:
        for i in range(count):
            label = f"{prefix}{i:02d}"
            fiber, g = random_family(random.Random(label), punctured, tdeg, dmax, emax)
            out.append((label, fiber, g))
    return out


def admissible(t: complex, balls) -> bool:
    """True when t keeps CLEARANCE + 2*radius from every ball (center, radius)."""
    return all(abs(t - complex(*c)) > CLEARANCE + 2.0 * r for c, r in balls)


def admissible_point(rng: random.Random, balls) -> complex:
    """A seeded parameter in the sampling annulus, clear of every hard ball."""
    while True:
        r = R_MIN + (R_MAX - R_MIN) * rng.random()
        t = r * cmath.exp(2j * math.pi * rng.random())
        t = complex(round(t.real, 6), round(t.imag, 6))
        if admissible(t, balls):
            return t


def segment_distance(a: complex, b: complex, p: complex) -> float:
    """Distance from p to the segment [a, b]."""
    ab = b - a
    if ab == 0:
        return abs(p - a)
    s = max(0.0, min(1.0, ((p - a) * ab.conjugate()).real / abs(ab) ** 2))
    return abs(a + s * ab - p)


def admissible_path(rng: random.Random, start: complex, balls):
    """A straight path of length PATH_LENGTH from start that stays clear of the balls."""
    while True:
        end = start + PATH_LENGTH * cmath.exp(2j * math.pi * rng.random())
        end = complex(round(end.real, 6), round(end.imag, 6))
        if all(
            segment_distance(start, end, complex(*c)) > CLEARANCE + 2.0 * r
            for c, r in balls
        ):
            return [start, end]


def fmt_complex(t: complex) -> str:
    """The CLI's 're,im' form.

    argparse reads a value such as '-1.5,0.2' as an unknown option; a leading
    space (which float() ignores) keeps it a value, as quoting does in a shell.
    """
    text = f"{t.real!r},{t.imag!r}"
    return " " + text if text.startswith("-") else text
