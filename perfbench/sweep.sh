#!/usr/bin/env bash
# Runs one workload once per seed and keeps each run's standard output,
# for compare.py:
#   bash perfbench/sweep.sh OUTDIR WORKLOAD TRACE SECONDS SEED...
# e.g. bash perfbench/sweep.sh .bench_build/runs/base table1 0 15 1 2 3 4 5
set -euo pipefail
out="$1" workload="$2" trace="$3" seconds="$4"
shift 4
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$out"
for seed in "$@"; do
	bash "$root/perfbench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
		>"$out/$workload-t$trace-seed$seed.out"
	tail -n 1 "$out/$workload-t$trace-seed$seed.out"
done
