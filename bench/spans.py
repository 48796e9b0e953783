"""Span recorder for the traced benchmark run.

The package is not edited.  ``install`` replaces each public function listed
in ``FUNCS`` by a timing wrapper in every module of the package that binds
it (``expperiods.verify.period_matrix`` as well as
``expperiods.quadrature.period_matrix``), so calls between modules are seen
exactly as the program makes them.  Each span records its name, start, end
and parent in compact arrays that stay in memory until ``write`` is called.

Self time of a span is its duration minus the durations of its direct child
spans.  Every span also belongs to a *bucket* (the metric it feeds), so the
``*_ms`` self times partition the traced wall time.  Top-level layers
(``verify`` and ``cli.command``) report inclusive time instead, with the
monodromy self time (the ODE transport) reported on its own.
"""

from __future__ import annotations

import importlib
import inspect
import json
import subprocess
import sys
import time
from array import array
from pathlib import Path

MODULES = ("symbolic", "cohomology", "singular", "cycles", "quadrature", "verify", "cli")

# layer -> {function name: bucket}; a bucket may depend on the call (dps path).
FUNCS = {
    "symbolic": {
        "parse_laurent": "parse",
        "parse_tpoly": "parse",
        "parse_ratfun": "parse",
        "tpoly_gcd": "gcd",
    },
    "cohomology": {
        "fiber_basis": "connection",
        "connection_matrix": "connection",
        "reduce_form": "connection",
        "twisted_differential": "connection",
        "cyclic_ode": "cyclic_ode",
    },
    "singular": {
        "singular_set": "singular_set",
        "resultant_u": "resultant",
        "root_isolate": "root_isolate",
        "squarefree_decomposition": "root_isolate",
    },
    "cycles": {
        "cycle_basis": "cycle_basis",
        "valley_config": "cycle_basis",
        "track_cycles": "track",
    },
    "quadrature": {
        "period_matrix": "period_matrix",
        "integrate_period": "integrate_period",
        "integrate_absolute": "integrate_absolute",
        "adaptive_polyline": "adaptive",
    },
    "verify": {
        "check_ode": "check_ode",
        "check_duality": "check_duality",
        "check_stokes": "check_stokes",
        "random_gauge": "check_stokes",
        "monodromy": "monodromy",
        "run_all": "run_all",
    },
    "cli": {"main": "command"},
}

# Buckets reported as inclusive time of their outermost spans.
INCLUSIVE = {
    "verify.check_ode",
    "verify.check_duality",
    "verify.check_stokes",
    "verify.monodromy",
    "cli.command",
}

# Per-layer metrics: name -> unit.  Times are summed over the traced run.
PER_LAYER = {
    "cli.interp_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_scipy_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_mpmath_ms": "ms",
    "cli.command_ms": "ms",
    "symbolic.parse_ms": "ms",
    "symbolic.gcd_calls": "count",
    "symbolic.gcd_ms": "ms",
    "cohomology.connection_ms": "ms",
    "cohomology.reduce_form_calls": "count",
    "cohomology.cyclic_ode_ms": "ms",
    "cohomology.ode_degree_max": "count",
    "cohomology.ode_coeff_bits_max": "bits",
    "singular.singular_set_ms": "ms",
    "singular.resultant_ms": "ms",
    "singular.root_isolate_ms": "ms",
    "singular.root_isolate_calls": "count",
    "singular.defining_degree_max": "count",
    "singular.balls": "count",
    "cycles.cycle_basis_ms": "ms",
    "cycles.track_ms": "ms",
    "cycles.track_calls": "count",
    "cycles.nodes_per_cycle_max": "count",
    "cycles.contour_length_max": "1",
    "quadrature.period_matrix_ms": "ms",
    "quadrature.integrate_period_ms": "ms",
    "quadrature.integrate_absolute_ms": "ms",
    "quadrature.adaptive_ms": "ms",
    "quadrature.adaptive_calls": "count",
    "quadrature.neval": "count",
    "quadrature.neval_per_entry": "count",
    "quadrature.mp_ms": "ms",
    "quadrature.cancellation_max": "ratio",
    "quadrature.err_over_tol_max": "ratio",
    "quadrature.tol_not_met": "count",
    "verify.check_ode_ms": "ms",
    "verify.check_duality_ms": "ms",
    "verify.check_stokes_ms": "ms",
    "verify.monodromy_ms": "ms",
    "verify.monodromy_self_ms": "ms",
    "verify.checks_failed": "count",
    "verify.errors_raised": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

# metric -> the function whose absence makes it n/a
_SOURCE = {
    "symbolic.parse_ms": "symbolic.parse_laurent",
    "symbolic.gcd_calls": "symbolic.tpoly_gcd",
    "symbolic.gcd_ms": "symbolic.tpoly_gcd",
    "cohomology.connection_ms": "cohomology.connection_matrix",
    "cohomology.reduce_form_calls": "cohomology.reduce_form",
    "cohomology.cyclic_ode_ms": "cohomology.cyclic_ode",
    "cohomology.ode_degree_max": "cohomology.cyclic_ode",
    "cohomology.ode_coeff_bits_max": "cohomology.cyclic_ode",
    "singular.singular_set_ms": "singular.singular_set",
    "singular.resultant_ms": "singular.resultant_u",
    "singular.root_isolate_ms": "singular.root_isolate",
    "singular.root_isolate_calls": "singular.root_isolate",
    "singular.defining_degree_max": "singular.singular_set",
    "singular.balls": "singular.singular_set",
    "cycles.cycle_basis_ms": "cycles.cycle_basis",
    "cycles.track_ms": "cycles.track_cycles",
    "cycles.track_calls": "cycles.track_cycles",
    "cycles.nodes_per_cycle_max": "cycles.cycle_basis",
    "cycles.contour_length_max": "cycles.cycle_basis",
    "quadrature.period_matrix_ms": "quadrature.period_matrix",
    "quadrature.integrate_period_ms": "quadrature.integrate_period",
    "quadrature.integrate_absolute_ms": "quadrature.integrate_absolute",
    "quadrature.adaptive_ms": "quadrature.adaptive_polyline",
    "quadrature.adaptive_calls": "quadrature.adaptive_polyline",
    "quadrature.neval": "quadrature.adaptive_polyline",
    "quadrature.neval_per_entry": "quadrature.period_matrix",
    "quadrature.mp_ms": "quadrature.integrate_period",
    "quadrature.cancellation_max": "quadrature.adaptive_polyline",
    "quadrature.err_over_tol_max": "quadrature.period_matrix",
    "quadrature.tol_not_met": "quadrature.period_matrix",
    "verify.check_ode_ms": "verify.check_ode",
    "verify.check_duality_ms": "verify.check_duality",
    "verify.check_stokes_ms": "verify.check_stokes",
    "verify.monodromy_ms": "verify.monodromy",
    "verify.monodromy_self_ms": "verify.monodromy",
    "verify.checks_failed": "verify.check_ode",
    "verify.errors_raised": "verify.check_ode",
    "cli.command_ms": "cli.main",
}


class Recorder:
    """In-memory spans plus the running aggregates derived from them."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # (span index, key, bucket, start, child time)
        self._open_buckets = {}
        self.self_ms = {}
        self.incl_ms = {}
        self.calls = {}
        self.counters = {
            "ode_degree_max": 0,
            "ode_coeff_bits_max": 0,
            "defining_degree_max": 0,
            "balls": 0,
            "nodes_per_cycle_max": 0,
            "contour_length_max": 0.0,
            "neval": 0,
            "entries": 0,
            "entry_neval": 0,
            "cancellation_max": 0.0,
            "err_over_tol_max": 0.0,
            "tol_not_met": 0,
            "checks_failed": 0,
            "errors_raised": 0,
        }
        self.missing = set()
        self.absorbed_spans = 0

    def _name_id(self, key):
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.names)
            self.names.append(key)
        return i

    def open(self, key, bucket):
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(self._name_id(key))
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._open_buckets[bucket] = self._open_buckets.get(bucket, 0) + 1
        start = time.perf_counter()
        self.span_start[idx] = start
        self._stack.append([idx, key, bucket, start, 0.0])
        return idx

    def close(self):
        end = time.perf_counter()
        idx, key, bucket, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.self_ms[bucket] = self.self_ms.get(bucket, 0.0) + 1e3 * (dur - child)
        self._open_buckets[bucket] -= 1
        if self._open_buckets[bucket] == 0:
            self.incl_ms[bucket] = self.incl_ms.get(bucket, 0.0) + 1e3 * dur
        self.calls[key] = self.calls.get(key, 0) + 1
        if self._stack:
            self._stack[-1][4] += dur

    def parent_layer(self):
        return self._stack[-1][1].split(".")[0] if self._stack else None

    def snapshot(self) -> dict:
        """The aggregates, for a parent process to absorb."""
        return {
            "self_ms": self.self_ms,
            "incl_ms": self.incl_ms,
            "calls": self.calls,
            "counters": self.counters,
            "missing": sorted(self.missing),
            "spans": len(self.span_start),
        }

    def absorb(self, snap: dict):
        """Add the aggregates of another traced process."""
        for field in ("self_ms", "incl_ms", "calls"):
            mine = getattr(self, field)
            for k, v in snap[field].items():
                mine[k] = mine.get(k, 0) + v
        for k, v in snap["counters"].items():
            if k.endswith("_max"):
                self.counters[k] = max(self.counters[k], v)
            else:
                self.counters[k] += v
        self.missing.update(snap["missing"])
        self.absorbed_spans += snap["spans"]

    def write(self, path):
        """Write every span as JSON: names, and rows (name, parent, start, end)."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "parent", "start_s", "end_s"],
                    "spans": [
                        [n, p, round(s - t0, 7), round(e - t0, 7)]
                        for n, p, s, e in zip(
                            self.span_name, self.span_parent, self.span_start, self.span_end
                        )
                    ],
                },
                fh,
                separators=(",", ":"),
            )


# ---------------------------------------------------------------------------
# Counters read from return values
# ---------------------------------------------------------------------------


def _on_cyclic_ode(rec, out):
    c = rec.counters
    for p in out.coefficients:
        c["ode_degree_max"] = max(c["ode_degree_max"], p.degree)
        for q in p.coeffs:
            bits = max(q.numerator.bit_length(), q.denominator.bit_length())
            c["ode_coeff_bits_max"] = max(c["ode_coeff_bits_max"], bits)


def _on_singular_set(rec, out):
    c = rec.counters
    c["balls"] += len(out.balls)
    for p, _prov in out.defining:
        c["defining_degree_max"] = max(c["defining_degree_max"], p.degree)


def _on_cycle_basis(rec, out):
    c = rec.counters
    for cyc in out.cycles:
        nodes = cyc.nodes
        c["nodes_per_cycle_max"] = max(c["nodes_per_cycle_max"], len(nodes))
        length = sum(abs(b - a) for a, b in zip(nodes, nodes[1:]))
        c["contour_length_max"] = max(c["contour_length_max"], length)


def _on_adaptive(rec, out):
    value, _err, resabs, neval = out
    c = rec.counters
    c["neval"] += neval
    if abs(value) > 0:
        c["cancellation_max"] = max(c["cancellation_max"], resabs / abs(value))


def _on_period_matrix(rec, out, tol):
    c = rec.counters
    for row in out.entries:
        for e in row:
            c["entries"] += 1
            c["entry_neval"] += e.neval
            if abs(e.value) > 0:
                c["err_over_tol_max"] = max(c["err_over_tol_max"], e.error / (tol * abs(e.value)))


def _on_record(rec, out):
    record = getattr(out, "record", out)
    if not record.passed:
        rec.counters["checks_failed"] += 1


_HOOKS = {
    "cohomology.cyclic_ode": _on_cyclic_ode,
    "singular.singular_set": _on_singular_set,
    "cycles.cycle_basis": _on_cycle_basis,
    "cycles.track_cycles": _on_cycle_basis,
    "quadrature.adaptive_polyline": _on_adaptive,
    "verify.check_ode": _on_record,
    "verify.check_duality": _on_record,
    "verify.check_stokes": _on_record,
    "verify.monodromy": _on_record,
}


def _wrap(rec, key, fn, bucket):
    layer = key.split(".")[0]
    hook = _HOOKS.get(key)
    sig = inspect.signature(fn) if key == "quadrature.period_matrix" else None
    mp_bucket = key == "quadrature.integrate_period"
    tol_error = getattr(importlib.import_module("expperiods.errors"), "ToleranceNotMet", ())

    def wrapper(*args, **kwargs):
        b = bucket
        if mp_bucket and kwargs.get("dps") is not None:
            b = "quadrature.mp"
        outer = rec.parent_layer() != layer
        rec.open(key, b)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close()
            if outer and layer == "verify":
                rec.counters["errors_raised"] += 1
            if outer and layer == "quadrature" and isinstance(exc, tol_error):
                rec.counters["tol_not_met"] += 1
            raise
        rec.close()
        if hook is not None:
            hook(rec, out)
        elif sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            _on_period_matrix(rec, out, bound.arguments["tol"])
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def install(rec: Recorder):
    """Wrap every listed function at every package module that binds it.

    Returns an undo callable that restores the original bindings.
    """
    pkg = importlib.import_module("expperiods")
    mods = [pkg]
    for name in MODULES:
        try:
            mods.append(importlib.import_module(f"expperiods.{name}"))
        except ImportError:
            continue
    undo = []
    for layer, funcs in FUNCS.items():
        try:
            home = importlib.import_module(f"expperiods.{layer}")
        except ImportError:
            rec.missing.update(f"{layer}.{f}" for f in funcs)
            continue
        for fname, bucket in funcs.items():
            key = f"{layer}.{fname}"
            fn = getattr(home, fname, None)
            if not callable(fn):
                rec.missing.add(key)
                continue
            wrapper = _wrap(rec, key, fn, f"{layer}.{bucket}")
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, fn))

    def restore():
        for mod, attr, fn in reversed(undo):
            setattr(mod, attr, fn)

    return restore


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer metrics of the package layers (the cli import split is separate)."""
    c = rec.counters

    def ms(bucket):
        source = rec.incl_ms if bucket in INCLUSIVE else rec.self_ms
        return source.get(bucket, 0.0)

    out = {
        "cli.command_ms": ms("cli.command"),
        "symbolic.parse_ms": ms("symbolic.parse"),
        "symbolic.gcd_calls": rec.calls.get("symbolic.tpoly_gcd", 0),
        "symbolic.gcd_ms": ms("symbolic.gcd"),
        "cohomology.connection_ms": ms("cohomology.connection"),
        "cohomology.reduce_form_calls": rec.calls.get("cohomology.reduce_form", 0),
        "cohomology.cyclic_ode_ms": ms("cohomology.cyclic_ode"),
        "cohomology.ode_degree_max": c["ode_degree_max"],
        "cohomology.ode_coeff_bits_max": c["ode_coeff_bits_max"],
        "singular.singular_set_ms": ms("singular.singular_set"),
        "singular.resultant_ms": ms("singular.resultant"),
        "singular.root_isolate_ms": ms("singular.root_isolate"),
        "singular.root_isolate_calls": rec.calls.get("singular.root_isolate", 0),
        "singular.defining_degree_max": c["defining_degree_max"],
        "singular.balls": c["balls"],
        "cycles.cycle_basis_ms": ms("cycles.cycle_basis"),
        "cycles.track_ms": ms("cycles.track"),
        "cycles.track_calls": rec.calls.get("cycles.track_cycles", 0),
        "cycles.nodes_per_cycle_max": c["nodes_per_cycle_max"],
        "cycles.contour_length_max": c["contour_length_max"],
        "quadrature.period_matrix_ms": ms("quadrature.period_matrix"),
        "quadrature.integrate_period_ms": ms("quadrature.integrate_period"),
        "quadrature.integrate_absolute_ms": ms("quadrature.integrate_absolute"),
        "quadrature.adaptive_ms": ms("quadrature.adaptive"),
        "quadrature.adaptive_calls": rec.calls.get("quadrature.adaptive_polyline", 0),
        "quadrature.neval": c["neval"],
        "quadrature.neval_per_entry": c["entry_neval"] / c["entries"] if c["entries"] else 0.0,
        "quadrature.mp_ms": ms("quadrature.mp"),
        "quadrature.cancellation_max": c["cancellation_max"],
        "quadrature.err_over_tol_max": c["err_over_tol_max"],
        "quadrature.tol_not_met": c["tol_not_met"],
        "verify.check_ode_ms": ms("verify.check_ode"),
        "verify.check_duality_ms": ms("verify.check_duality"),
        "verify.check_stokes_ms": ms("verify.check_stokes"),
        "verify.monodromy_ms": ms("verify.monodromy"),
        "verify.monodromy_self_ms": rec.self_ms.get("verify.monodromy", 0.0),
        "verify.checks_failed": c["checks_failed"],
        "verify.errors_raised": c["errors_raised"],
        "trace.spans": len(rec.span_start) + rec.absorbed_spans,
    }
    for metric, source in _SOURCE.items():
        if source in rec.missing:
            out[metric] = None
    return out


def parse_importtime(stderr: str) -> dict:
    """Summed self time (ms) of the scipy, numpy and mpmath module imports."""
    split = {"scipy": 0.0, "numpy": 0.0, "mpmath": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        self_us = float(fields[0])
        top = fields[2].strip().split(".")[0]
        if top in split:
            split[top] += self_us
    return {
        "cli.import_scipy_ms": split["scipy"] / 1e3,
        "cli.import_numpy_ms": split["numpy"] / 1e3,
        "cli.import_mpmath_ms": split["mpmath"] / 1e3,
    }


CLI_METRICS = (
    "cli.interp_start_ms",
    "cli.import_ms",
    "cli.import_scipy_ms",
    "cli.import_numpy_ms",
    "cli.import_mpmath_ms",
)


class CliTracer:
    """Runs CLI commands through ``cli_launcher.py`` and absorbs their spans."""

    def __init__(self, rec: Recorder, out_dir):
        self.rec = rec
        self.out_dir = out_dir
        self.n = 0
        self.cli = dict.fromkeys(CLI_METRICS, 0.0)

    def run_launcher(self, argv, env):
        self.n += 1
        out = self.out_dir / f"op{self.n:04d}.json"
        launcher = str(Path(__file__).resolve().parent / "cli_launcher.py")
        cmd = [sys.executable, "-X", "importtime", launcher, str(out), repr(time.time())]
        proc = subprocess.run(
            cmd + list(argv), env=env, capture_output=True, text=True, timeout=150
        )
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
        self.rec.absorb(data["aggregates"])
        split = parse_importtime(proc.stderr)
        self.cli["cli.interp_start_ms"] += data["interp_start_ms"]
        self.cli["cli.import_ms"] += data["import_ms"]
        for k in ("cli.import_scipy_ms", "cli.import_numpy_ms", "cli.import_mpmath_ms"):
            self.cli[k] += split[k]
        return proc
