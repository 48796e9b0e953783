#!/bin/sh
# Run every workload once and print each report (metrics by name and unit,
# attempted and failed op counts).  From the root of a checkout:
#     sh bench/all.sh [SEED] [SECONDS]
# Result files land in .bench_results/, for bench/compare.py.
set -e
for w in cli_cold exact_ladder period_sweep verify_battery; do
    python3 bench/run.py --workload "$w" --seed "${1:-1}" --seconds "${2:-25}" --trace 0 | grep -v '^{'
done
# The ops that fail at the seed baseline are not in the workloads' rounds:
python3 bench/known_failures.py | grep -v '^  baseline failure'
