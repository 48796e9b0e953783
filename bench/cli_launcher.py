"""Run one ``expperiods`` command with its spans recorded (traced cli_cold run).

    python -X importtime bench/cli_launcher.py OUT SPAWN_TIME [ARGV ...]

It imports the package, wraps its public functions (see ``spans.py``) and
calls ``expperiods.cli.main(ARGV)``, exiting with its code.  OUT receives the
interpreter start time (from SPAWN_TIME, the parent's clock just before it
started this process), the wall time of the package import and the span
aggregates; the spans themselves go to OUT with ``.spans.json`` appended.
With no ARGV it only imports the package.
"""

import time

T_FIRST = time.time()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out, spawn = sys.argv[1], float(sys.argv[2])
    argv = sys.argv[3:]
    import spans

    t0 = time.perf_counter()
    import expperiods.cli as cli

    import_ms = (time.perf_counter() - t0) * 1e3
    rec = spans.Recorder()
    spans.install(rec)
    code = cli.main(argv) if argv else 0
    rec.write(out + ".spans.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "interp_start_ms": (T_FIRST - spawn) * 1e3,
                "import_ms": import_ms,
                "aggregates": rec.snapshot(),
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
