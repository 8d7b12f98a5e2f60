#!/bin/sh
# Regenerates every experiment in EXPERIMENTS.md into ./results (text + CSV
# per table) and runs the test suite and the BAT microbenchmarks. Takes a
# few minutes. Perf numbers of the pipeline itself come from
# `go run ./benchmark`, not from here.
set -eu

cd "$(dirname "$0")/.."
OUT=${1:-results}

echo "== building =="
go build ./...
go vet ./...

echo "== tests =="
go test ./...

echo "== figures, tables, ablations, extensions -> $OUT =="
go run ./cmd/batbench -all -outdir "$OUT"

echo "== BAT microbenchmarks =="
go test -run '^$' -bench=. -benchmem ./internal/bat/

echo "done; tables are under $OUT/"
