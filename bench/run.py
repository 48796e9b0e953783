"""Benchmark of expperiods: four seeded workloads, end-to-end metrics, traced layers.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 bench/run.py --workload period_sweep --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one client; see BENCHMARK.json for why each exists):

* ``cli_cold``       one ``expperiods`` process per op, each of the eight
                     subcommands on one of the four fixtures;
* ``exact_ladder``   fiber_basis, connection_matrix, cyclic_ode, singular_set
                     on the ladder rungs and a pool of random families;
* ``period_sweep``   cycle_basis + period_matrix(tol=1e-10) at every stored point;
* ``verify_battery`` the verify functions in run_all's order, one op each.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics, measured with no tracing.  With ``--trace 1`` the first rounds of
the timed pass are run again with every public function of the package
wrapped (see ``spans.py``) and once more without, and the JSON holds the
per-layer metrics and the tracing overhead.  The lines before it are a
readable report.  Each run also writes its full result to
``.bench_results/<workload>-seed<seed>-trace<t>.json``, which
``bench/compare.py`` reads.

Every timing is wall time scaled to a reference machine speed by the
calibration suites of ``calib.py``, run between ops (a fresh-interpreter
suite for ``cli_cold``'s ops and for set-up, an in-process one otherwise).
An op's latency is the median scaled time of the run's ops that make the
same request, and the latency metrics are taken over one round of requests
(see ``summarize``); ``ops_per_s`` is ops divided by their summed latency
(harness time between ops is not counted).  ``setup_s`` is the median scaled
set-up time of five fresh interpreters.

Every op's output is checked (see ``workloads.py``).  The ops that failed at
the seed baseline (``known_failures`` in ``bench/refs/references.json``) are
not in the rounds; ``bench/known_failures.py`` runs those.  ``failed``
counts the failed ops, and ``correct`` is false when any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
# A traced run replays the first rounds of the timed run, at least this
# share of --seconds of them, once traced and once untraced.
TRACE_SHARE = 0.3

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def package_src() -> Path:
    """This checkout's src/ directory; exit 2 when it holds no package."""
    src = ROOT / "src"
    if not (src / "expperiods" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package at {src / 'expperiods'}; run from a checkout\n")
        sys.exit(2)
    return src


def load_package():
    """Import expperiods from this checkout's src/, and nowhere else."""
    src = package_src()
    sys.path.insert(0, str(src))
    import expperiods

    if Path(expperiods.__file__).resolve().parent != (src / "expperiods").resolve():
        sys.stderr.write(f"error: imported expperiods from {expperiods.__file__}\n")
        sys.exit(2)
    return expperiods


def setup(workload, seed):
    # cli_cold runs the package only in child processes
    pkg = None if workload == "cli_cold" else load_package()
    refs = workloads.load_refs()
    rounds, cli = workloads.SETUP[workload](pkg, refs, seed)
    return pkg, refs, rounds, cli


def probe_setup(workload, seed, env) -> float:
    """Seconds from starting a fresh interpreter until its first op could run."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        sys.stderr.write(f"error: set-up probe failed (exit {code})\n")
        sys.exit(2)
    return elapsed


def setup_times(workload, seed) -> list:
    """``SETUP_PROBES`` set-up times, scaled to the reference machine speed by
    the median of the fresh-interpreter suite times run around them."""
    env = workloads.child_env()
    suite = [calib.process_s(env)]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(probe_setup(workload, seed, env))
        suite.append(calib.process_s(env))
    factor = calib.REF_PROCESS_S / statistics.median(suite)
    return [t * factor for t in raw]


def run_ops(rounds, seconds, results, check=True, clock=None):
    """Run whole rounds until ``seconds`` have passed.

    Returns the rounds run, as (round, number of ops run in it).  Appends
    (key, wall seconds, failure reason or None, relative errors) per op.
    With ``check=False`` (replays of ops already checked) outputs are not
    judged and only raising counts.  A ``calib.Clock`` is ticked between ops.
    """
    done = []
    start = time.perf_counter()
    for rnd in rounds:
        before = len(results)
        for group in rnd:
            for op in group:
                if clock is not None:
                    clock.tick()
                    clock.mark()
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # a raising op is a failed op, not a harness error
                    lat = time.perf_counter() - t0
                    results.append((op.key, lat, f"raised {type(exc).__name__}: {exc}", []))
                    if op.gate:
                        break
                    continue
                lat = time.perf_counter() - t0
                reason, rel_errs = op.check(out) if check else (None, [])
                results.append((op.key, lat, reason, rel_errs))
        done.append((rnd, len(results) - before))
        if time.perf_counter() - start >= seconds:
            break
    if clock is not None:
        clock.tick(force=True)
    return done


def replay(done):
    """Run the same rounds again, unchecked; return their results."""
    results = []
    run_ops(iter(rnd for rnd, _ in done), float("inf"), results, check=False)
    return results


def quantile(values, q):
    """Linear-interpolation quantile (statistics' inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def same_request(key: str) -> str:
    """The part of an op key that names the request: workload, family or
    command, and point or check (cli_cold keys drop the point)."""
    return ":".join(key.split(":")[:3])


def summarize(results, factors, n_round):
    """Counts, and the timing metrics over each op's typical latency.

    ``factors`` scales each op's wall time to the reference machine speed
    (``calib.Clock.factors``).  The time of one op still swings with the
    machine, so each op is timed at the median scaled time of all ops of the
    run that make the same request (``same_request``).  Every round makes
    the same requests, so the metrics are taken over the first round's
    ``n_round`` ops, each at its typical latency: they then do not depend on
    how many rounds fitted in the run.
    """
    by_request = {}
    for r, f in zip(results, factors):
        by_request.setdefault(same_request(r[0]), []).append(r[1] * f)
    typical = {k: statistics.median(v) for k, v in by_request.items()}
    lat_ms = [1e3 * typical[same_request(r[0])] for r in results[:n_round]]
    failures = [(r[0], r[2]) for r in results if r[2] is not None]
    rel = [e for r in results for e in r[3]]
    return {
        "attempted": len(results),
        "failed": len(failures),
        "fail_share": len(failures) / len(results),
        "oracle_rel_err_max": max(rel) if rel else None,
        "period_entries": len(rel),
        "latency_samples": len(results),
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "latency_p50_ms": quantile(lat_ms, 0.5),
        "latency_p90_ms": quantile(lat_ms, 0.9),
        "failures": sorted({f"{key}: {reason}" for key, reason in failures}),
        "ops": [[r[0], 1e3 * r[1], f] for r, f in zip(results, factors)],
    }


def first_rounds(done, results, seconds):
    """The first of the ``done`` rounds whose ops took ``seconds`` (at least one)."""
    spent, i, n = 0.0, 0, 0
    while n < len(done) and (n == 0 or spent < seconds):
        size = done[n][1]
        spent += sum(r[1] for r in results[i : i + size])
        i += size
        n += 1
    return done[:n]


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(workloads.THREAD_ENV)

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    package_src()
    calib.warm()
    setup_samples = setup_times(args.workload, args.seed)
    pkg, refs, rounds, cli = setup(args.workload, args.seed)
    results = []
    out_dir = workloads.RESULTS
    out_dir.mkdir(parents=True, exist_ok=True)

    if cli is not None:
        clock = calib.Clock(lambda: calib.process_s(cli.env), calib.REF_PROCESS_S, calib.PROCESS_EVERY_S)
    elif args.workload == "exact_ladder":
        clock = calib.Clock(calib.exact_suite_s)
    else:
        clock = calib.Clock()
    done = run_ops(rounds, args.seconds, results, clock=clock)
    summary = summarize(results, clock.factors(), n_round=done[0][1])
    rounds_run = len(done)
    if args.trace:
        # the timed pass only chose and warmed up the ops: run its first
        # rounds again traced, and once more untraced for the overhead
        done = first_rounds(done, results, TRACE_SHARE * args.seconds)
        rec = spans.Recorder()
        trace_dir = out_dir / f"trace-{args.workload}"
        trace_dir.mkdir(exist_ok=True)
        tracer = spans.CliTracer(rec, trace_dir)
        if cli is not None:
            cli.tracer = tracer
        else:
            restore = spans.install(rec)
        traced = replay(done)
        if cli is not None:
            cli.tracer = None
        else:
            restore()
            rec.write(str(trace_dir / "spans.json"))
            # the cli layer of an in-process workload: one import of the package
            tracer.run_launcher([], workloads.child_env())
        plain = replay(done)
        traced_s = sum(lat for _, lat, _, _ in traced)
        plain_s = sum(lat for _, lat, _, _ in plain)
        metrics = spans.layer_metrics(rec)
        metrics.update(tracer.cli)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
        units = spans.PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": summary["ops_per_s"],
            "latency_p50_ms": summary["latency_p50_ms"],
            "latency_p90_ms": summary["latency_p90_ms"],
            "peak_rss_mb": peak_rss_mb(args.workload),
        }
        units = UNITS
    correct = summary["failed"] == 0 and summary["attempted"] > 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds_run,
        "setup_samples_s": setup_samples,
        "metrics": metrics,
        "units": {k: units[k] for k in metrics},
        "correct": correct,
        **summary,
    }
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    report(record)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def report(r):
    print(
        f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
        f"closed loop, 1 client: {r['rounds']} rounds, {r['attempted']} ops"
    )
    for k, v in r["metrics"].items():
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {k:32s} {shown:>14s} {r['units'][k]}")
    print(f"  {'latency samples':32s} {r['latency_samples']:>14d}")
    print(
        f"  {'fail_share':32s} {r['fail_share']:>14.6g} "
        f"({r['failed']} failed of {r['attempted']} attempted)"
    )
    err = r["oracle_rel_err_max"]
    print(
        f"  {'oracle_rel_err_max':32s} {'n/a' if err is None else format(err, '.3e'):>14s} "
        f"(over {r['period_entries']} period entries)"
    )
    for f in r["failures"]:
        print(f"  failed: {f}")


if __name__ == "__main__":
    sys.exit(main())
