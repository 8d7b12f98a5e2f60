#!/usr/bin/env bash
# Regenerate the checked-in per-subsystem baseline BENCH_compress.json (v3
# codec). Run on a quiet machine; the numbers are recorded for trajectory
# comparison across PRs, never gated on in CI. Read-path and planner numbers
# (scan_warm_mpps, box_query_ms, bat.cache.hit_rate, aggtree.build_ms,
# aggtree.dist_rounds, ...) come from the full-trip benchmark instead:
# go run ./benchmark -seed 1 -seconds 30 -out r.json
#
# Usage:
#   scripts/bench.sh   # write the baseline at the repo root
#                      # (COMPRESSBENCH_OUT overrides the path)
set -euo pipefail
cd "$(dirname "$0")/.."

compress_out="${COMPRESSBENCH_OUT:-BENCH_compress.json}"
compress_particles="${COMPRESSBENCH_PARTICLES:-400000}"

# The compression benchmark is serial (build + single-worker scans), so it
# is meaningful on any machine.
go run ./cmd/batbench -compressbench -compressbench-out "$compress_out" \
	-compress-particles "$compress_particles"
