"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 bench/compare.py BASE NEW

BASE and NEW are each a directory of result files written by ``bench/run.py``
(``<workload>-seed<seed>-trace0.json``) or a list of such files separated by
commas.  Runs of the same workload are paired by seed where both sides have
it, else in order.  For every end-to-end metric of ``BENCHMARK.json`` and the
two harness metrics of ``bench/metrics.json`` (``fail_share``,
``oracle_rel_err_max``) it prints the medians and quartiles of both sides,
the pair wins of each side (ties count for neither), and a verdict:

* ``improved``   NEW wins at least 9 of 10 pairs and its median beats BASE's
                 by more than BASE's own quartile spread;
* ``worse``      NEW's median is worse than BASE's by more than the bound;
* ``unresolved`` BASE's quartile spread is wider than the bound, unless every
                 NEW run is better than every BASE run;
* ``no worse``   otherwise.

``fail_share`` is printed with the summed attempted and failed op counts, and
every failing op is listed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def load_set(arg: str) -> dict:
    """{workload: [result dict, ...]} of the untraced results named by arg."""
    p = Path(arg)
    files = sorted(p.glob("*-trace0.json")) if p.is_dir() else [Path(x) for x in arg.split(",")]
    out = {}
    for f in files:
        with open(f, encoding="utf-8") as fh:
            r = json.load(fh)
        if r.get("trace") == 0:
            out.setdefault(r["workload"], []).append(r)
    for runs in out.values():
        runs.sort(key=lambda r: r["seed"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pairs(base, new):
    by_seed = {r["seed"]: r for r in base}
    matched = [(by_seed[r["seed"]], r) for r in new if r["seed"] in by_seed]
    if matched:
        return matched
    return list(zip(base, new))


def verdict(a, b, bound, better, wins_new, n_pairs):
    """The rule of the module docstring; a, b are value lists, bound a share."""
    sign = 1.0 if better == "higher" else -1.0
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    spread = qa3 - qa1
    gain = sign * (mb - ma)
    if n_pairs and wins_new >= 0.9 * n_pairs and gain > spread:
        return "improved"
    scale = abs(ma) if ma else max(abs(mb), 1e-300)
    if spread > bound * scale:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "no worse"
        return "unresolved"
    if -gain > bound * scale:
        return "worse"
    return "no worse"


def metric_rows(base_runs, new_runs, metrics):
    rows = []
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]

        def value(r):
            if name in r["metrics"]:
                return r["metrics"][name]
            return r.get(name)

        a = [value(r) for r in base_runs if value(r) is not None]
        b = [value(r) for r in new_runs if value(r) is not None]
        if not a or not b:
            rows.append((name, None))
            continue
        sign = 1.0 if better == "higher" else -1.0
        wins_new = wins_base = 0
        prs = [(value(x), value(y)) for x, y in pairs(base_runs, new_runs)]
        prs = [(x, y) for x, y in prs if x is not None and y is not None]
        for x, y in prs:
            if sign * (y - x) > 0:
                wins_new += 1
            elif sign * (x - y) > 0:
                wins_base += 1
        rows.append(
            (
                name,
                {
                    "base": quartiles(a),
                    "new": quartiles(b),
                    "wins": (wins_base, wins_new, len(prs)),
                    "verdict": verdict(a, b, bound, better, wins_new, len(prs)),
                    "unit": m.get("unit", ""),
                },
            )
        )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, new = load_set(argv[0]), load_set(argv[1])
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        e2e = json.load(fh)["end_to_end"]
    with open(BENCH / "metrics.json", encoding="utf-8") as fh:
        harness = json.load(fh)["harness_metrics"]
    for workload in sorted(set(base) | set(new)):
        a, b = base.get(workload, []), new.get(workload, [])
        print(f"== {workload}: {len(a)} base runs, {len(b)} new runs")
        if not a or not b:
            print("   (missing on one side)")
            continue
        for name, row in metric_rows(a, b, e2e + harness):
            if row is None:
                print(f"   {name:20s} n/a")
                continue
            (a1, am, a3), (b1, bm, b3) = row["base"], row["new"]
            wb, wn, n = row["wins"]
            print(
                f"   {name:20s} base {am:.6g} [{a1:.6g}, {a3:.6g}]  new {bm:.6g} [{b1:.6g}, {b3:.6g}] "
                f"{row['unit']}  wins base/new {wb}/{wn} of {n}  -> {row['verdict']}"
            )
        for side, runs in (("base", a), ("new", b)):
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            failing = sorted({f for r in runs for f in r["failures"]})
            print(f"   {side}: fail_share {fail / att:.4f} ({fail} failed of {att} attempted)")
            for f in failing:
                print(f"   {side}: failed: {f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
