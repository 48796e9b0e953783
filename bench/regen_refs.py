"""Rebuild ``bench/refs/references.json`` from the package at the current commit.

    python3 bench/regen_refs.py            (from the root of a checkout)

The file holds, for the inputs that ``gen.py`` defines:

* ``sweep``: for each period_sweep family its hard singular balls and
  ``gen.SWEEP_POINTS`` admissible points; at each point the period matrix
  along the program's cycles, by mpmath quadrature at 34 digits (any
  homologous contour gives the same value, so the reference stays valid when
  the contours change).  Closed forms replace the quadrature where they
  exist: ``sqrt(pi/t)`` on the branch fixed by the cycle's end direction for
  the Gaussian, and ``2*pi*i*J0(t)`` by its power series for the Bessel loop
  entry (exponent -1); both are cross-checked against the quadrature.  Each
  entry also stores the integral of ``|integrand|`` along the same polyline
  (``resabs``), which sets the documented roundoff floor of the entry's error.
* ``digests``: exact ``derive`` output, connection and singular defining
  polynomials of every exact_ladder and verify_battery family;
* ``verify``: rank, hard balls, ball centres and the verify point of every
  verify_battery family and fixture;
* ``known_failures``: the ops that fail at this commit (the seed baseline);
  the timed workloads leave them out and ``known_failures.py`` runs them.

Only run this when the benchmark's inputs change, or to record a new
baseline on purpose: the stored digests and failures are what later commits
are checked against.
"""

from __future__ import annotations

import json
import random
import sys
import time

import mpmath as mp
import numpy as np

import gen
import run
import workloads

REF_DPS = 34
PIECES = 3
# Gauss-Legendre nodes for the integral of |integrand| along a contour: only
# its size matters (it sets the roundoff floor of the period check).
ABS_NODES, ABS_PIECES = np.polynomial.legendre.leggauss(32), 16


def hard_balls(S):
    return [[[b.center.real, b.center.imag], b.radius] for b in S.hard_balls()]


def mp_entry(spec, cycle, e, t):
    """Integral of u^e exp(g) along the cycle's polyline plus its exact end rays."""
    tm = mp.mpc(t)
    gm = {
        k: sum(mp.mpf(c.numerator) / c.denominator * tm ** j for j, c in enumerate(p.coeffs))
        for k, p in spec.g.terms.items()
    }

    def f(u):
        return u ** e * mp.exp(sum(c * u ** k for k, c in gm.items()))

    nodes = [mp.mpc(z) for z in cycle.nodes]
    total, err = mp.mpc(0), mp.mpf(0)
    for a, b in zip(nodes, nodes[1:]):
        if a == b:
            continue
        for i in range(PIECES):
            lo = a + (b - a) * i / PIECES
            hi = a + (b - a) * (i + 1) / PIECES
            v, er = mp.quad(lambda s: f(lo + s * (hi - lo)) * (hi - lo), [0, 1], error=True)
            total += v
            err += er
    for tag, z, sign in ((cycle.start, nodes[0], -1), (cycle.end, nodes[-1], 1)):
        if tag.kind == "valley_inf":
            d = z / abs(z)
            v, er = mp.quad(lambda s: f(z + s * d) * d, [0, mp.inf], error=True)
        elif tag.kind == "valley_zero":
            v, er = mp.quad(lambda s: -f(z * (1 - s)) * z, [0, 1], error=True)
        else:
            continue
        total += sign * v
        err += er
    return total, err


def abs_integral(spec, cycle, e, t):
    """Integral of |u^e exp(g)| |du| along the cycle's polyline (resabs)."""
    gm = {k: complex(c.eval(t)) for k, c in spec.g.terms.items()}
    x, w = ABS_NODES
    s = (x + 1.0) / 2.0
    total = 0.0
    for a, b in zip(cycle.nodes, cycle.nodes[1:]):
        for i in range(ABS_PIECES):
            lo = a + (b - a) * i / ABS_PIECES
            hi = a + (b - a) * (i + 1) / ABS_PIECES
            u = lo + s * (hi - lo)
            f = u ** e * np.exp(sum(c * u ** k for k, c in gm.items()))
            total += 0.5 * abs(hi - lo) * float(np.sum(w * np.abs(f)))
    return total


def closed_form(label, cycle, e, t):
    """The closed-form value of an entry, or None."""
    tm = mp.mpc(t)
    if label == "gaussian" and e == 0:
        s = mp.sqrt(tm)
        end = mp.mpc(cycle.nodes[-1])
        if mp.re(s * end) < 0:
            s = -s
        return mp.sqrt(mp.pi) / s
    if label == "bessel" and e == -1 and cycle.closed:
        x = -(tm ** 2) / 4
        term, total, k = mp.mpc(1), mp.mpc(0), 0
        while abs(term) > mp.mpf(10) ** (-REF_DPS - 5):
            total += term
            k += 1
            term = term * x / (k * k)
        return 2j * mp.pi * total
    return None


def sweep_refs(pkg):
    out = {}
    for label, fiber, g in gen.SWEEP:
        t0 = time.perf_counter()
        spec = workloads.make_spec(pkg, label, fiber, g)
        basis = pkg.fiber_basis(spec)
        S = pkg.singular_set(spec)
        balls = hard_balls(S)
        rng = random.Random(f"sweep:{label}")
        points = []
        for _ in range(gen.SWEEP_POINTS):
            t = gen.admissible_point(rng, balls)
            cycles = pkg.cycle_basis(spec, t)
            ref = []
            for cyc in cycles.cycles:
                row = []
                for e in basis.exponents:
                    with mp.workdps(REF_DPS):
                        v, er = mp_entry(spec, cyc, e, t)
                        exact = closed_form(label, cyc, e, t)
                        if exact is not None:
                            gap = abs(exact - v) / abs(exact)
                            if gap > 1e-20:
                                raise SystemExit(f"{label}: closed form and quadrature differ by {gap}")
                            v, er = exact, abs(exact) * mp.mpf(10) ** (-REF_DPS + 4)
                        resabs = abs_integral(spec, cyc, e, t)
                        row.append([float(mp.re(v)), float(mp.im(v)), float(er), resabs])
                ref.append(row)
            points.append({"t": [t.real, t.imag], "exponents": list(basis.exponents), "ref": ref})
        out[label] = {"fiber": fiber, "g": g, "hard_balls": balls, "points": points}
        print(f"sweep {label}: {len(points)} points in {time.perf_counter() - t0:.1f}s", flush=True)
    return out


def exact_refs(pkg):
    digests, verify = {}, {}
    convention = pkg.CONNECTION_CONVENTION
    for label, fiber, g in list(gen.LADDER) + gen.pool(gen.EXACT_POOL) + list(gen.FIXTURES):
        spec = workloads.make_spec(pkg, label, fiber, g)
        basis = pkg.fiber_basis(spec)
        A = pkg.connection_matrix(spec, basis)
        ode = pkg.cyclic_ode(A)
        S = pkg.singular_set(spec, A)
        digests[label] = {
            "derive": workloads.digest(workloads.derive_payload(spec, basis, A, ode, convention)),
            "connection": workloads.connection_digest(basis, A),
            "singular": workloads.singular_digest(workloads.sigma_defining(S), len(S.balls)),
        }
    for label, fiber, g in workloads.verify_families():
        spec = workloads.make_spec(pkg, label, fiber, g)
        basis = pkg.fiber_basis(spec)
        A = pkg.connection_matrix(spec, basis)
        S = pkg.singular_set(spec, A)
        digests.setdefault(label, {}).update(
            connection=workloads.connection_digest(basis, A),
            singular=workloads.singular_digest(workloads.sigma_defining(S), len(S.balls)),
        )
        balls = hard_balls(S)
        t = gen.admissible_point(random.Random(f"verify:{label}"), balls)
        verify[label] = {
            "rank": basis.rank,
            "hard_balls": balls,
            "n_balls": len(S.balls),
            "centers": [[b.center.real, b.center.imag] for b in S.balls],
            "t": [t.real, t.imag],
        }
    return digests, verify


def baseline(pkg, refs):
    """Run every period_sweep point, the CLI's period paths at those points of
    the fixtures, and every verify family once; list the ops that fail."""
    failing = {"period_sweep": [], "cli_cold": [], "verify_battery": []}

    def note(workload, key, reason):
        if reason is not None and key not in failing[workload]:
            failing[workload].append(key)
            print(f"  baseline failure {key}: {reason}", flush=True)

    def attempt(fn, point):
        try:
            return workloads.check_entries(fn(), point, workloads.SWEEP_TOL)[0]
        except Exception as exc:
            return f"raised {type(exc).__name__}"

    tol = workloads.SWEEP_TOL
    for label, fiber, g in gen.SWEEP:
        spec = workloads.make_spec(pkg, label, fiber, g)
        basis = pkg.fiber_basis(spec)
        for i, point in enumerate(refs["sweep"][label]["points"]):
            t = complex(*point["t"])

            def matrix(dps=None):
                P = pkg.period_matrix(spec, basis, pkg.cycle_basis(spec, t), tol=tol, dps=dps)
                return workloads.rows_of_matrix(P)

            reason = attempt(matrix, point)
            note("period_sweep", f"period_sweep:{label}:p{i}", reason)
            if label not in refs["verify"]:
                continue
            # the CLI's periods, periods --dps 30 and the first samples row
            note("cli_cold", f"cli_cold:periods:{label}:p{i}", reason)
            note("cli_cold", f"cli_cold:periods_dps:{label}:p{i}", attempt(lambda: matrix(30), point))
            for c in range(basis.rank):

                def first_row():
                    cyc = pkg.cycle_basis(spec, t).cycles[c]
                    pvs = [pkg.integrate_period(spec, cyc, e, t, tol=tol) for e in basis.exponents]
                    return [[(pv.value, pv.error) for pv in pvs]]

                one = {"ref": [point["ref"][c]]}
                note("cli_cold", f"cli_cold:samples:{label}:p{i}:c{c}", attempt(first_row, one))
    for label, fiber, g in workloads.verify_families():
        spec = workloads.make_spec(pkg, label, fiber, g)
        for op in workloads.verify_group(pkg, refs, label, spec, random.Random(f"baseline:{label}")):
            try:
                reason = op.check(op.run())[0]
            except Exception as exc:
                note("verify_battery", op.key, f"raised {type(exc).__name__}")
                if op.gate:
                    break
                continue
            note("verify_battery", op.key, reason)
    return failing


def main() -> int:
    pkg = run.load_package()
    refs = {}
    refs["digests"], refs["verify"] = exact_refs(pkg)
    print("digests and verify points done", flush=True)
    refs["sweep"] = sweep_refs(pkg)
    refs["known_failures"] = baseline(pkg, refs)
    workloads.REFS_PATH.parent.mkdir(exist_ok=True)
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
