"""The four workloads: set-up, the ops of each round, and each op's check.

A workload's ``setup(pkg, refs, seed)`` returns a generator of *rounds* and,
for ``cli_cold``, the ``CliProcess`` that runs its commands.  A
round is a list of *groups* and a group a list of ``Op``.  Ops of one group
share state; when a group's first op raises, the rest of the group cannot
run and is not attempted.  Runs are made of whole rounds, so every run sees
the same mix of ops and its throughput does not depend on where the clock
stopped.

An op's check returns ``(reason, rel_errs)``: ``reason`` is None when the
output is right, else a one-line description of the failure, and
``rel_errs`` lists ``|value - oracle| / |oracle|`` for every period entry the
op returned.

The ops that fail at the seed baseline (``known_failures`` in the reference
file) are left out of the rounds, so that a run's ops all succeed;
``known_failures.py`` runs them and reports which still fail.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
REFS_PATH = Path(__file__).resolve().parent / "refs" / "references.json"
RESULTS = ROOT / ".bench_results"

SWEEP_TOL = 1e-10
EPS = 2.0 ** -52
STOKES_PER_FAMILY = 5
SAMPLES_N = 8
# cli_cold's requests: every subcommand, each on one fixture, so that every
# fixture serves two of them.  A round makes each request once; a run makes
# several rounds, so that each request's latency is a median.
CLI_REQUESTS = (
    ("derive", "linear"),
    ("singular", "bessel"),
    ("cycles", "gaussian"),
    ("periods", "bessel"),
    ("periods_dps", "airy"),
    ("samples", "gaussian"),
    ("verify", "linear"),
    ("monodromy", "airy"),
)

# One BLAS thread: the machine has two cores and the program is single-threaded.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class Op:
    """One request: ``run()`` calls the program, ``check(out)`` judges the output."""

    __slots__ = ("key", "run", "check", "gate")

    def __init__(self, key, run, check, gate=False):
        self.key = key
        self.run = run
        self.check = check
        self.gate = gate


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def make_spec(pkg, label, fiber, g):
    return pkg.ProblemSpec(pkg.FiberType(fiber), pkg.parse_laurent(g), label)


# ---------------------------------------------------------------------------
# Exact digests (shared with the reference script)
# ---------------------------------------------------------------------------


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def derive_payload(spec, basis, A, ode, convention) -> dict:
    """The JSON that ``expperiods derive`` prints for this family."""
    return {
        "label": spec.label,
        "fiber": spec.fiber.value,
        "g": spec.g.to_str(),
        "basis": {"rank": basis.rank, "exponents": list(basis.exponents)},
        "connection": {
            "convention": convention,
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


def connection_digest(basis, A) -> str:
    return digest(
        [list(basis.exponents), [[e.to_str() for e in row] for row in A.entries]]
    )


def singular_digest(defining, n_balls) -> str:
    """Digest of the exact defining polynomials (as strings) and the ball count."""
    return digest([[list(d) for d in defining], n_balls])


def sigma_defining(S):
    return [(p.to_str(), prov) for p, prov in S.defining]


# ---------------------------------------------------------------------------
# Period-matrix check
# ---------------------------------------------------------------------------


def check_entries(rows, point, tol):
    """Check period entries [(value, error)] against a stored reference point.

    ``period_matrix`` documents that every entry it returns satisfies
    ``error <= tol*|entry| + max(1e-30*max|entries|, 100*eps*resabs)``, where
    ``resabs`` is the integral of ``|integrand|`` along the contour (the
    roundoff floor of double precision).  An entry fails when its own error
    exceeds twice that target, with ``resabs`` as stored with the reference,
    or when it misses the reference by more than its own error bound.
    ``4*eps*|ref|`` allows for the double rounding of the printed value.
    """
    ref = point["ref"]
    if len(rows) != len(ref) or any(len(r) != len(q) for r, q in zip(rows, ref)):
        return "period matrix shape differs from the reference", []
    scale = max((abs(v) for row in rows for v, _ in row), default=0.0)
    rel_errs = []
    reason = None
    for i, (row, qrow) in enumerate(zip(rows, ref)):
        for j, ((value, error), (re_, im_, ref_err, resabs)) in enumerate(zip(row, qrow)):
            exact = complex(re_, im_)
            miss = abs(value - exact)
            rel_errs.append(miss / abs(exact))
            if reason is not None:
                continue
            target = tol * abs(value) + max(1e-30 * scale, 100.0 * EPS * resabs)
            if not error <= 2.0 * target:
                reason = f"entry ({i},{j}) error bound {error:.2e} exceeds twice its target {target:.2e}"
            elif not miss <= error + ref_err + 4.0 * EPS * abs(exact):
                reason = f"entry ({i},{j}) misses its reference by {miss:.2e} > its error {error:.2e}"
    return reason, rel_errs


def rows_of_matrix(P):
    return [[(e.value, e.error) for e in row] for row in P.entries]


def rows_of_json(entries):
    return [[(complex(*e["value"]), e["error"]) for e in row] for row in entries]


# ---------------------------------------------------------------------------
# exact_ladder
# ---------------------------------------------------------------------------


def setup_exact_ladder(pkg, refs, seed):
    fams = [
        (label, make_spec(pkg, label, fiber, g))
        for label, fiber, g in list(gen.LADDER) + gen.pool(gen.EXACT_POOL)
    ]
    rng = random.Random(f"exact_ladder:{seed}")
    convention = pkg.CONNECTION_CONVENTION

    def op_for(label, spec):
        want = refs["digests"][label]

        def run():
            basis = pkg.fiber_basis(spec)
            A = pkg.connection_matrix(spec, basis)
            ode = pkg.cyclic_ode(A)
            S = pkg.singular_set(spec, A)
            return basis, A, ode, S

        def check(out):
            basis, A, ode, S = out
            if digest(derive_payload(spec, basis, A, ode, convention)) != want["derive"]:
                return "derive output differs from the stored exact reference", []
            if singular_digest(sigma_defining(S), len(S.balls)) != want["singular"]:
                return "singular defining polynomials differ from the stored reference", []
            return None, []

        return Op(f"exact_ladder:{label}", run, check)

    ops = [op_for(label, spec) for label, spec in fams]

    def rounds():
        while True:
            order = list(ops)
            rng.shuffle(order)
            yield [[op] for op in order]

    return rounds(), None


# ---------------------------------------------------------------------------
# period_sweep
# ---------------------------------------------------------------------------


def setup_period_sweep(pkg, refs, seed):
    # The connection and the singular set of each family are built here, as a
    # library user builds them once per family before sweeping t.
    fams = []
    for label, fiber, g in gen.SWEEP:
        spec = make_spec(pkg, label, fiber, g)
        basis = pkg.fiber_basis(spec)
        A = pkg.connection_matrix(spec, basis)
        pkg.singular_set(spec, A)
        fams.append((label, spec, basis, refs["sweep"][label]["points"]))
    rng = random.Random(f"period_sweep:{seed}")

    def op_for(label, spec, basis, idx, point):
        t = complex(*point["t"])

        def run():
            cycles = pkg.cycle_basis(spec, t)
            return pkg.period_matrix(spec, basis, cycles, tol=SWEEP_TOL)

        def check(P):
            return check_entries(rows_of_matrix(P), point, SWEEP_TOL)

        return Op(f"period_sweep:{label}:p{idx}", run, check)

    skip = set(refs["known_failures"].get("period_sweep", []))
    ops = [
        op_for(label, spec, basis, idx, point)
        for label, spec, basis, points in fams
        for idx, point in enumerate(points)
    ]
    ops = [op for op in ops if op.key not in skip]

    def rounds():
        # every stored point once per round, in seeded order
        while True:
            order = list(ops)
            rng.shuffle(order)
            yield [[op] for op in order]

    return rounds(), None


# ---------------------------------------------------------------------------
# verify_battery
# ---------------------------------------------------------------------------


def verify_families():
    return list(gen.FIXTURES) + gen.pool(gen.VERIFY_POOL)


def verify_group(pkg, refs, label, spec, gauge_rng, skip=frozenset()):
    """The ops of one family, in run_all's order, sharing one state dict.

    Ops whose key is in ``skip`` are left out (the exact op, which the others
    need, never is).
    """
    info = refs["verify"][label]
    want = refs["digests"][label]
    t = complex(*info["t"])
    st = {}

    def exact():
        st.clear()
        st["basis"] = pkg.fiber_basis(spec)
        st["A"] = pkg.connection_matrix(spec, st["basis"])
        st["S"] = pkg.singular_set(spec, st["A"])
        return st["basis"], st["A"], st["S"]

    def check_exact(out):
        basis, A, S = out
        if connection_digest(basis, A) != want["connection"]:
            return "connection differs from the stored exact reference", []
        if singular_digest(sigma_defining(S), len(S.balls)) != want["singular"]:
            return "singular defining polynomials differ from the stored reference", []
        return None, []

    def check_record(rec):
        record = getattr(rec, "record", rec)
        if record.passed:
            return None, []
        return f"{record.name} FAIL: residual {record.residual:.3e} vs {record.threshold:.1e}", []

    def stokes(i, Q):
        def run():
            if "cycles" not in st:
                st["cycles"] = pkg.cycle_basis(spec, t)
            cycles = st["cycles"].cycles
            return pkg.check_stokes(spec, t, Q, cycle=cycles[i % len(cycles)])

        return run

    def mono():
        S = st["S"]
        nearest = min(S.balls, key=lambda b: abs(b.center - t))
        return pkg.monodromy(spec, nearest.center, singular=S)

    key = f"verify_battery:{label}"
    ops = [
        Op(f"{key}:exact", exact, check_exact, gate=True),
        Op(f"{key}:check_ode", lambda: pkg.check_ode(spec, t, singular=st["S"], A=st["A"]), check_record),
        Op(f"{key}:check_duality", lambda: pkg.check_duality(spec, t), check_record),
    ]
    if info["rank"] > 0:
        for i in range(STOKES_PER_FAMILY):
            Q = pkg.random_gauge(spec, gauge_rng)
            ops.append(Op(f"{key}:check_stokes", stokes(i, Q), check_record))
        if info["n_balls"] > 0:
            ops.append(Op(f"{key}:monodromy", mono, check_record))
    return [op for op in ops if op.gate or op.key not in skip]


def setup_verify_battery(pkg, refs, seed):
    fams = [(label, make_spec(pkg, label, fiber, g)) for label, fiber, g in verify_families()]
    rng = random.Random(f"verify_battery:{seed}")
    skip = frozenset(refs["known_failures"].get("verify_battery", []))

    def rounds():
        n = 0
        while True:
            order = list(fams)
            rng.shuffle(order)
            yield [
                verify_group(pkg, refs, label, spec, random.Random(f"{seed}:{n}:{label}"), skip)
                for label, spec in order
            ]
            n += 1

    return rounds(), None


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

LAUNCH = "import sys; from expperiods.cli import main; sys.exit(main(sys.argv[1:]))"


def write_fixture_specs() -> dict:
    work = RESULTS / "work"
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for label, fiber, g in gen.FIXTURES:
        path = work / f"{label}.spec"
        path.write_text(f"fiber = {fiber}\ng = {g}\nlabel = {label}\n", encoding="utf-8")
        paths[label] = str(path)
    return paths


def cli_argv(refs, rng, command, label, spec_path):
    """Arguments of one CLI op, its key suffix, and what its output is checked against.

    Parameters come from the stored period_sweep points where the fixture has
    them, so that period output can be checked against the references; the
    key then names the point (and the cycle, for ``samples``).
    """
    info = refs["verify"][label]
    balls = info["hard_balls"]
    points = refs["sweep"][label]["points"] if label in refs["sweep"] else None
    point, where = None, ""
    if points:
        idx = rng.randrange(len(points))
        point, where = points[idx], f":p{idx}"
        t = complex(*point["t"])
    else:
        t = gen.admissible_point(rng, balls)
    at = ["--t", gen.fmt_complex(t)]
    if command in ("derive", "singular", "verify"):
        return [command, spec_path], "", None
    if command == "cycles":
        return ["cycles", spec_path] + at, "", None
    if command == "periods":
        return ["periods", spec_path] + at, where, point
    if command == "periods_dps":
        return ["periods", spec_path] + at + ["--dps", "30"], where, point
    if command == "samples":
        a, b = gen.admissible_path(rng, t, balls)
        cycle = rng.randrange(max(info["rank"], 1))
        argv = ["samples", spec_path, "--path", gen.fmt_complex(a), gen.fmt_complex(b)]
        argv += ["--n", str(SAMPLES_N), "--cycle", str(cycle)]
        return argv, f"{where}:c{cycle}" if point else "", (point, cycle)
    if command == "monodromy":
        center = complex(*info["centers"][0]) if info["centers"] else 0j
        base = center + (0.5 + rng.random()) * cmath.exp(2j * math.pi * rng.random())
        base = complex(round(base.real, 6), round(base.imag, 6))
        argv = ["monodromy", spec_path, "--center", gen.fmt_complex(center)]
        return argv + ["--basepoint", gen.fmt_complex(base)], "", None
    raise ValueError(command)


def cli_check(refs, command, label, expect):
    """Check of one CLI op's (exit code, stdout)."""
    info = refs["verify"][label]
    want = refs["digests"][label]

    def check(out):
        code, stdout = out
        if code != 0:
            return f"exit code {code}", []
        if command == "samples":
            return _check_samples(stdout, info, expect)
        try:
            data = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON", []
        if command == "derive":
            ok = digest(data) == want["derive"]
            return (None if ok else "derive output differs from the stored exact reference"), []
        if command == "singular":
            defining = [(d["polynomial"], d["provenance"]) for d in data["defining"]]
            ok = singular_digest(defining, len(data["balls"])) == want["singular"]
            return (None if ok else "singular output differs from the stored reference"), []
        if command == "cycles":
            ok = data["rank"] == info["rank"] and len(data["cycles"]) == info["rank"]
            return (None if ok else "cycle count differs from the rank"), []
        if command in ("periods", "periods_dps"):
            if info["rank"] == 0:
                return (None if data["entries"] == [] else "rank-zero family returned entries"), []
            return check_entries(rows_of_json(data["entries"]), expect, data["tol"])
        if command == "verify":
            return (None if data["passed"] else "verify reported FAIL"), []
        if command == "monodromy":
            return (None if data["check"]["passed"] else "monodromy check FAIL"), []
        raise ValueError(command)

    return check


def _check_samples(stdout, info, expect):
    rows = list(csv.reader(io.StringIO(stdout)))
    rank = info["rank"]
    if rank == 0:
        return (None if rows == [["t_re", "t_im"]] else "rank-zero samples are not header-only"), []
    if len(rows) != 2 + SAMPLES_N or any(len(r) != 2 + 3 * rank for r in rows):
        return "samples CSV has the wrong shape", []
    point, cycle = expect
    if point is None:
        return None, []
    first = [float(x) for x in rows[1]]
    got = [[(complex(first[2 + 3 * j], first[3 + 3 * j]), first[4 + 3 * j]) for j in range(rank)]]
    return check_entries(got, {"ref": [point["ref"][cycle]]}, SWEEP_TOL)


def setup_cli_cold(pkg, refs, seed):
    paths = write_fixture_specs()
    proc = CliProcess(child_env())
    # Compile the package's bytecode once, as an installed package would have it.
    subprocess.run(
        [sys.executable, "-c", "import expperiods.cli"], env=proc.env, check=True, timeout=120
    )
    rng = random.Random(f"cli_cold:{seed}")
    skip = set(refs["known_failures"].get("cli_cold", []))

    def op_for(command, label):
        argv, where, expect = cli_argv(refs, rng, command, label, paths[label])
        key = f"cli_cold:{command}:{label}{where}"
        return Op(key, proc.op(argv), cli_check(refs, command, label, expect))

    def rounds():
        # every request once per round, in seeded order
        while True:
            pairs = list(CLI_REQUESTS)
            rng.shuffle(pairs)
            ops = [op_for(c, label) for c, label in pairs]
            yield [[op] for op in ops if op.key not in skip]

    return rounds(), proc


class CliProcess:
    """Runs one ``expperiods`` command in a fresh interpreter.

    When ``tracer`` is set (traced runs), the command goes through the span
    launcher under ``python -X importtime`` and ``tracer`` absorbs what the
    launcher wrote.
    """

    def __init__(self, env):
        self.env = env
        self.tracer = None

    def op(self, argv):
        def run():
            if self.tracer is None:
                cmd = [sys.executable, "-c", LAUNCH] + argv
                proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=150)
            else:
                proc = self.tracer.run_launcher(argv, self.env)
            return proc.returncode, proc.stdout

        return run


SETUP = {
    "cli_cold": setup_cli_cold,
    "exact_ladder": setup_exact_ladder,
    "period_sweep": setup_period_sweep,
    "verify_battery": setup_verify_battery,
}
