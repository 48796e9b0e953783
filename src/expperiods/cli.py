"""Command-line interface.

Subcommands operate on a small key = value problem file::

    fiber = affine_line        # or punctured_line
    g = u^3/3 - t*u            # exponent polynomial, rational coefficients
    label = airy               # optional
    tol = 1e-10                # optional period error target (default 1e-10)

Structured results go to stdout (JSON, or CSV for ``samples``); diagnostics
go to stderr.  Exit codes: 0 success, 1 problem-file error, 2 precondition
violated (degenerate family, singular parameter, unsafe path), 3 a numeric
check failed, 4 tolerance or precision budget exhausted.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import re
import sys

from .cohomology import (
    CONNECTION_CONVENTION,
    FiberType,
    ProblemSpec,
    connection_matrix,
    cyclic_ode,
    fiber_basis,
)
from .cycles import cycle_basis, track_cycles
from .errors import (
    AtSingularT,
    DegenerateFamily,
    EngineError,
    NonDecayingTail,
    PrecisionExhausted,
    RankZero,
    SingularProximity,
    SpecFormatError,
    ToleranceNotMet,
)
from .quadrature import period_matrix, period_rows
from .singular import singular_set
from .symbolic import parse_laurent
from .verify import STOKES_SEED, monodromy, run_all

_SPEC_KEYS = ("fiber", "g", "label", "tol")
# argparse reads an argument that starts with '-' as a value only if this matches it; its own
# pattern takes '-1' and '-1.5' but not a complex '-1.5,0.5', which it would take for an option
_NEGATIVE_VALUE = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)


def load_problem(path: str):
    """Parse a key = value problem file into (ProblemSpec, default_tol)."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SpecFormatError(f"cannot read problem file {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SPEC_KEYS:
            raise SpecFormatError(
                f"{path}:{lineno}: unknown key {key!r} (allowed: {', '.join(_SPEC_KEYS)})"
            )
        if key in values:
            raise SpecFormatError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    for required in ("fiber", "g"):
        if required not in values:
            raise SpecFormatError(f"{path}: missing required key {required!r}")
    try:
        fiber = FiberType(values["fiber"])
    except ValueError:
        raise SpecFormatError(
            f"{path}: fiber must be 'affine_line' or 'punctured_line', "
            f"got {values['fiber']!r}"
        )
    g = parse_laurent(values["g"])
    label = values.get("label", "")
    tol = 1e-10
    if "tol" in values:
        try:
            tol = parse_tol_arg(values["tol"])
        except argparse.ArgumentTypeError as exc:
            raise SpecFormatError(f"{path}: {exc}")
    return ProblemSpec(fiber=fiber, g=g, label=label), tol


def parse_tol_arg(text: str) -> float:
    """Parse a tolerance, a float in (0, 1) (argparse type)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < 1.0:
        raise argparse.ArgumentTypeError(f"tol must be a float in (0, 1), got {text!r}")
    return tol


def _parse_int(text: str, low: int, what: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = low - 1
    if n < low:
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return n


def parse_count_arg(text: str) -> int:
    """Parse a non-negative integer (argparse type)."""
    return _parse_int(text, 0, "a non-negative integer")


def parse_positive_arg(text: str) -> int:
    """Parse a positive integer (argparse type)."""
    return _parse_int(text, 1, "a positive integer")


def parse_complex_arg(text: str) -> complex:
    """Parse 're' or 're,im', both parts finite, into a complex number (argparse type)."""
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            z = complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0)
            if cmath.isfinite(z):
                return z
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected finite 're' or 're,im', got {text!r}")


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True))
    sys.stdout.write("\n")


def _assert_admissible(spec: ProblemSpec, t: complex) -> None:
    """Refuse evaluation inside (twice) a hard certified singular ball."""
    for ball in singular_set(spec).hard_balls():
        if abs(t - ball.center) <= 2.0 * ball.radius:
            raise AtSingularT(
                f"t={t} lies inside the certified singular ball at "
                f"{ball.center} (radius {ball.radius:.3e}, "
                f"provenance {', '.join(ball.provenance)})"
            )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def derive_payload(spec, basis, A, ode) -> dict:
    """The JSON object ``derive`` prints: the family, its basis, connection ``A`` and scalar ODE."""
    return {
        "label": spec.label,
        "fiber": spec.fiber.value,
        "g": spec.g.to_str(),
        "basis": {"rank": basis.rank, "exponents": list(basis.exponents)},
        "connection": {
            "convention": CONNECTION_CONVENTION,
            "matrix": [[entry.to_str() for entry in row] for row in A.entries],
            "denominators": [p.to_str() for p in A.denominators()],
        },
        "scalar_ode": {
            "start": ode.start,
            "order": ode.order,
            "coefficients": [c.to_str() for c in ode.coefficients],
            "string": ode.to_str(),
        },
    }


def cmd_derive(args) -> int:
    spec, _tol = load_problem(args.problem)
    basis = fiber_basis(spec)
    # rank 0 has no basis index; its order-0 operator keeps the default start 0
    if not 0 <= args.start < max(basis.rank, 1):
        sys.stderr.write(
            f"precondition violated: --start {args.start} is not a basis index "
            f"for rank {basis.rank}\n"
        )
        return 2
    A = connection_matrix(spec, basis)
    _emit(derive_payload(spec, basis, A, cyclic_ode(A, start=args.start)))
    return 0


def cmd_singular(args) -> int:
    spec, _tol = load_problem(args.problem)
    sigma = singular_set(spec)
    payload = {
        "label": spec.label,
        "defining": [
            {"polynomial": p.to_str(), "provenance": prov} for p, prov in sigma.defining
        ],
        "balls": [
            {
                "center": [b.center.real, b.center.imag],
                "radius": b.radius,
                "multiplicity": b.multiplicity,
                "provenance": list(b.provenance),
            }
            for b in sigma.balls
        ],
    }
    _emit(payload)
    return 0


def cmd_cycles(args) -> int:
    spec, _tol = load_problem(args.problem)
    _assert_admissible(spec, args.t)
    try:
        basis = cycle_basis(spec, args.t)
    except RankZero:
        _emit({"label": spec.label, "rank": 0, "cycles": [], "note": "rank zero"})
        return 0
    payload = {"label": spec.label, "rank": basis.rank}
    payload.update(basis.to_json_dict())
    _emit(payload)
    return 0


def cmd_periods(args) -> int:
    spec, default_tol = load_problem(args.problem)
    tol = args.tol if args.tol is not None else default_tol
    _assert_admissible(spec, args.t)
    basis = fiber_basis(spec)
    if basis.rank == 0:
        _emit({"label": spec.label, "rank": 0, "entries": [], "note": "rank zero"})
        return 0
    cycles = cycle_basis(spec, args.t)
    P = period_matrix(spec, basis, cycles, tol=tol, dps=args.dps)
    payload = {"label": spec.label, "rank": basis.rank, "tol": tol}
    payload.update(P.to_json_dict())
    _emit(payload)
    return 0


def cmd_samples(args) -> int:
    spec, default_tol = load_problem(args.problem)
    tol = args.tol if args.tol is not None else default_tol
    path = args.path
    if len(path) < 2:
        raise AtSingularT("a sample path needs at least two points")
    basis = fiber_basis(spec)
    if basis.rank == 0:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["t_re", "t_im"])
        return 0
    _assert_admissible(spec, path[0])
    if not 0 <= args.cycle < basis.rank:
        raise AtSingularT(
            f"cycle index {args.cycle} out of range for rank {basis.rank}"
        )

    # sample points: max(1, n // legs) per leg, after the path start
    samples = [path[0]]
    per_leg = max(1, args.n // max(1, len(path) - 1))
    for a, b in zip(path, path[1:]):
        for k in range(1, per_leg + 1):
            samples.append(a + (b - a) * k / per_leg)

    # track the cycle to every sample, then integrate all of them in one kernel run
    tracked = [cycle_basis(spec, samples[0])]
    for a, b in zip(samples, samples[1:]):
        tracked.append(track_cycles(spec, tracked[-1], [a, b]))
    cycles = [cb.cycles[args.cycle] for cb in tracked]
    rows, _resabs = period_rows(spec, cycles, basis.exponents, samples, tol)

    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = ["t_re", "t_im"]
    for e in basis.exponents:
        header += [f"p{e}_re", f"p{e}_im", f"p{e}_err"]
    writer.writerow(header)
    for t, pvs in zip(samples, rows):
        row = [format(t.real, ".17g"), format(t.imag, ".17g")]
        for pv in pvs:
            row += [
                format(pv.value.real, ".17g"),
                format(pv.value.imag, ".17g"),
                format(pv.error, ".3e"),
            ]
        writer.writerow(row)
    return 0


def cmd_verify(args) -> int:
    spec, _tol = load_problem(args.problem)
    report = run_all(spec, t=args.t, seed=args.seed, n_stokes=args.stokes)
    for rec in report.records:
        status = "ok  " if rec.passed else "FAIL"
        sys.stderr.write(
            f"{status} {rec.name:18s} residual {rec.residual:.3e} "
            f"(threshold {rec.threshold:.1e})\n"
        )
    _emit(report.to_json_dict())
    return 0 if report.passed else 3


def cmd_monodromy(args) -> int:
    spec, _tol = load_problem(args.problem)
    result = monodromy(spec, args.center, basepoint=args.basepoint)
    sys.stderr.write(
        f"{'ok  ' if result.record.passed else 'FAIL'} monodromy around "
        f"{args.center}: mismatch {result.record.residual:.3e}\n"
    )
    _emit(result.to_json_dict())
    return 0 if result.record.passed else 3


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expperiods",
        description="Exact connections and certified period integrals for "
        "families of exponentials on a line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive the connection and a scalar ODE")
    p.add_argument("problem", help="problem file (key = value)")
    p.add_argument("--start", type=int, default=0, help="basis index for the cyclic vector")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("singular", help="certified singular parameter balls")
    p.add_argument("problem")
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("cycles", help="rapid-decay cycle basis at a parameter")
    p.add_argument("problem")
    p.add_argument("--t", type=parse_complex_arg, required=True, help="parameter 're' or 're,im'")
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("periods", help="full period matrix at a parameter")
    p.add_argument("problem")
    p.add_argument("--t", type=parse_complex_arg, required=True)
    p.add_argument("--tol", type=parse_tol_arg, default=None, help="relative error target")
    p.add_argument("--dps", type=parse_positive_arg, default=None, help="extended-precision digits")
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("samples", help="CSV of periods sampled along a parameter path")
    p.add_argument("problem")
    p.add_argument("--path", type=parse_complex_arg, nargs="+", required=True,
                   help="polyline vertices 're,im' in the parameter plane")
    p.add_argument("--n", type=parse_positive_arg, default=16,
                   help="max(1, n // legs) samples per leg: 1 + legs * max(1, n // legs) rows")
    p.add_argument("--cycle", type=int, default=0, help="cycle index to sample")
    p.add_argument("--tol", type=parse_tol_arg, default=None)
    p.set_defaults(func=cmd_samples)

    p = sub.add_parser("verify", help="run all structural checks")
    p.add_argument("problem")
    p.add_argument("--t", type=parse_complex_arg, default=None)
    p.add_argument("--seed", type=int, default=STOKES_SEED)
    p.add_argument("--stokes", type=parse_count_arg, default=5, help="number of random gauge forms")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("monodromy", help="monodromy around a loop in the parameter plane")
    p.add_argument("problem")
    p.add_argument("--center", type=parse_complex_arg, required=True)
    p.add_argument("--basepoint", type=parse_complex_arg, default=None)
    p.set_defaults(func=cmd_monodromy)
    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (DegenerateFamily, AtSingularT, SingularProximity) as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return 2
    except (ToleranceNotMet, PrecisionExhausted, NonDecayingTail) as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return 4
    except EngineError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
