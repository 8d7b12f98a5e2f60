#!/usr/bin/env bash
# Regenerate the checked-in per-subsystem baselines: BENCH_compress.json
# (v3 codec) and BENCH_treebuild.json (plan scaling). Run on a quiet machine;
# the numbers are recorded for trajectory comparison across PRs, never gated
# on in CI. Read-path numbers (scan_warm_mpps, scan_cold_mpps, box_query_ms,
# bat.parallel_speedup, bat.cache.hit_rate, ...) come from the full-trip
# benchmark instead: go run ./benchmark -seed 1 -seconds 30 -out r.json
#
# Usage:
#   scripts/bench.sh   # write both baselines at the repo root
#                      # (COMPRESSBENCH_OUT / TREEBENCH_OUT override the paths)
set -euo pipefail
cd "$(dirname "$0")/.."

compress_out="${COMPRESSBENCH_OUT:-BENCH_compress.json}"
compress_particles="${COMPRESSBENCH_PARTICLES:-400000}"

# The compression benchmark is serial (build + single-worker scans), so it
# is meaningful on any machine.
go run ./cmd/batbench -compressbench -compressbench-out "$compress_out" \
	-compress-particles "$compress_particles"

# The plan-scaling benchmark compares centralized vs distributed planning:
# real small-world runs plus a modeled weak-scaling table, neither of which
# needs multiple cores to be meaningful.
treebuild_out="${TREEBENCH_OUT:-BENCH_treebuild.json}"
treebench_flags=()
if [ "${TREEBENCH_QUICK:-0}" != 0 ]; then
	treebench_flags+=(-treebench-quick)
fi
go run ./cmd/batbench -treebench -treebench-out "$treebuild_out" "${treebench_flags[@]}"
