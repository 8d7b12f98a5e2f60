#!/bin/sh
# Pre-PR check: batlint + vet + test the whole module, once plain and once
# under the race detector, repeat the collective read and write protocols'
# tests in one stage (their error agreement, outcome texts and exact
# traffic included, and the particle Exchange's), then the read's answer
# order and phase clocks, and the query engine's stop paths (cancellation,
# a visitor's error) and parallel delivery, under the race detector, smoke
# the benchmarks and the five examples, and (unless CHECK_FUZZ=0) give the
# six decode fuzzers and the /points query fuzzer a short pass. Run it
# from the repository root before sending a PR.
#
# Stages keep running after a failure; the script reports a per-stage
# summary at the end and exits non-zero if anything failed.
set -u

cd "$(dirname "$0")/.."

failed=""

# run <name> <cmd...> executes one stage, recording failures instead of
# aborting so one broken stage does not hide the rest.
run() {
	name="$1"
	shift
	echo "== $name"
	if ! "$@"; then
		echo "-- FAILED: $name"
		failed="$failed
  FAIL $name"
	fi
}

# The repo's own static-analysis suite: format endianness, unguarded
# narrowing of uint64s in the format packages, build-pipeline determinism,
# dropped fabric/pfs errors, uncancellable bare
# time.Sleep, dropped or replaced contexts. Zero unwaived findings is the
# bar (go test ./cmd/batlint holds the same bar plus the expected waiver
# list).
run "batlint ./..." go run ./cmd/batlint ./...

run "go vet ./..." go vet ./...

# A treelet load allocates its columns, its bitmap column and its one
# unpack chunk once, whatever its section count. A buffer declared in a
# decoder and handed to the block loop's sink, a func value the compiler
# cannot see into, moves to the heap on every call. TestColdScanAllocsPerTreelet
# counts that only on the decoders its builds reach (key-for, int-for,
# quant-for under per-node-cols frames, sign-key-for); this stage also
# covers escapes on error paths and in paths no build of it runs. The
# compiler's escape analysis (go build -gcflags=-m, replayed from the build
# cache on a second run) names every such variable: any line from the read
# path's files fails the stage, and so does a build that fails. Its wording
# is the compiler's, so a toolchain that rewords it needs the pattern here
# updated.
bat_escapes() {
	out="$(go build -gcflags=-m ./internal/bat 2>&1)" || { echo "$out"; return 1; }
	moved="$(echo "$out" | grep -E '^internal/bat/(codec|poscodec|attrcodec|nodetable|reader)\.go:[0-9]+:[0-9]+: moved to heap')"
	[ -z "$moved" ] || { echo "$moved"; return 1; }
}
run "bat read path: nothing moved to heap" bat_escapes

# The whole suite once without the race detector. This is where the figure
# harness is held: cmd/batbench's tests run every registry entry at a small
# scale and compare the modeled tables with their goldens byte for byte (no
# separate stage), next to batlint's TestRepoClean.
run "go test ./..." go test ./...

# The whole suite again under the race detector, with GOMAXPROCS forced
# above 1 so the simulated fabric's per-rank goroutines, the fused BAT build
# workers, the query engine's traversal workers and batserve's handlers
# truly interleave even on single-core runners. The -timeout means a wedged
# goroutine fails the stage with a full goroutine dump (go test's panic
# output; leak failures print their own dump via internal/leakcheck)
# instead of hanging the script.
run "go test -race ./..." env GOMAXPROCS=4 go test -race -timeout 300s ./...

# The collective read and write protocols' tests again, ten times over
# in one stage: each read rank's receiver goroutine, its own serves and
# the closing barrier race differently on every run, and one pass of the
# suite above sees only one schedule of each, while the requester must
# hold every reply in its leaf's slot and answer in ascending leaf order
# whatever the arrival order. The write's side: the plan agreement after
# the assignment scatter (a plan that fails on rank 0, an assignment a
# rank cannot use, a member count beyond what arrives), aggregators
# receiving their members' particles, a leaf or metadata write that fails
# and is rolled back with every rank's error pinned, the closing gather of
# timings and leaf reports and rank 0's verdict, whose bytes and message
# counts must match between identical writes. The error agreement both
# pipelines use, which must carry no payload when nobody fails, rides
# along, and so does Exchange, whose back-to-back rounds must each receive
# their own payloads in rank order. TestReadDeterminism's 20 whole-domain
# reads take ~20 s under the race detector, so it runs in the next stage
# instead.
run "go test -race -count=10 read and write protocols" env GOMAXPROCS=4 go test -race -count=10 -run 'Read|Recv|Barrier|Spin|Agreement|Exchange|TrafficExact|WriteOutcomeText|WritePlanAbort|WritePlanRefuses|WriteRefusesHostileCount|WriteFailureCompletes|PhaseMaxAggregation|WriteDeterminism' -skip '^TestReadDeterminism$' ./internal/core/ ./internal/fabric/

# The read's answer order and the phase clocks with each rank's two
# goroutines and the requester sharing one P: every rank's answer must
# hash the same over 20 reads (the test itself cycles GOMAXPROCS through
# 1, 2 and 8 for the reads), and every phase time of a write and a
# restart read must equal its spans.
run "go test -race -count=3 read order and phase clocks" env GOMAXPROCS=1 go test -race -count=3 -run 'ReadDeterminism|PhaseTimesAreSpans' ./internal/core/

# The query engine's stop paths ten times over: a context cancelled or
# timed out mid-query, a stalled read, a visitor that fails, concurrent
# queries on one File, and a dataset's cold scan cancelled while its
# helpers load ahead or stopped by a corrupt leaf
# (TestDatasetWalkCancelMidLoad). Each run must stop every helper, leave no
# read running after Query returns (TestQueryReadsBeforeReturn) and leak no
# goroutine, and where the stop meets the helpers differs between runs.
# The tests that hold every worker count to the serial visit sequence ride
# along, on one file and over a dataset's leaves (TestDatasetWalk*), and so
# do the route drivers whose 2-, 4- and 8-worker routes ask a cold cache
# every time (*MatchesBruteForce, TestProgressiveTilesExactly): they hand
# many treelets from the helpers' ring to the walking caller.
run "go test -race -count=10 query stop paths" env GOMAXPROCS=4 go test -race -count=10 -run 'Cancel|ParallelVisitorError|QueryReadsBeforeReturn|ConcurrentQuery|ParallelMatchesSerial|OrderedParallelPreservesOrder|DatasetWalk|MatchesBruteForce|ProgressiveTilesExactly' ./internal/bat/ ./internal/core/

# Bench smoke: one iteration of every benchmark of internal/bat (the
# builds, the progressive and filtered reads over opened files, and the
# section kernels: the ns/value figures DESIGN §13, results/cell-frames and
# results/sorted-nodes quote, positions as sorted-cell-for, then the
# attribute codecs) and of internal/radix (the sort), of the
# aggregation-tree build's (BenchmarkBuild1536Ranks), of the generators'
# (the ns/particle and ns/rank figures EXPERIMENTS.md quotes), of
# Box.Extend's and of the dataset query's (BenchmarkDatasetQuery), just to
# keep the benchmark code compiling and runnable (no timing assertions;
# BenchmarkDecodeSection does check that each column encodes to the stream
# its case names and decodes).
run "bench smoke internal/bat and internal/radix" go test -run=NONE -bench=. -benchtime=1x ./internal/bat/ ./internal/radix/
run "bench smoke BenchmarkBuild1536Ranks" go test -run=NONE -bench=Build1536Ranks -benchtime=1x ./internal/aggtree/
run "bench smoke generators" go test -run=NONE -bench='Generate|Counts' -benchtime=1x ./internal/workloads/
run "bench smoke geom" go test -run=NONE -bench=BoxExtend -benchtime=1x ./internal/geom/
run "bench smoke BenchmarkDatasetQuery" go test -run=NONE -bench=DatasetQuery -benchtime=1x ./internal/core/

# The examples are only compiled by the stages above; run each end to end
# and require the line it prints when its own check holds: the quickstart
# (public API only: collective write, open, box / filter / progressive
# counts) its particle count, the restart (checkpoint, crash, restart on a
# different rank count) an exact recovery, the in-transit one (query the
# in-memory image, write it, read it back) that both views agree, the coal
# boiler (growing injection, adaptive vs AUG dumps) its filtered sample, the
# dam break (imbalanced dumps) the final dump's particle count.
example_smoke() {
	out="$(go run "./examples/$1")" || return 1
	echo "$out" | grep -q "$2" ||
		{ echo "$1 printed:"; echo "$out"; return 1; }
}
run "examples quickstart" example_smoke quickstart '^dataset: 80000 particles, '
run "examples restart" example_smoke restart '^restart successful$'
run "examples instransit" example_smoke instransit 'in situ and post hoc views agree$'
run "examples coalboiler" example_smoke coalboiler '^hot lower-boiler sample: '
run "examples dambreak" example_smoke dambreak '^final dump holds 12000 particles'

# batserve end-to-end smoke: write a small dataset, serve it, drive a few
# queries over HTTP, and require /metrics, /debug/access, and /debug/queries
# to answer well-formed, with exact telemetry: one attribute touch for the
# one filter query, per-treelet loads summing to the total, and each query
# record's own cache hit ratio (0 cold, 1 warm). Then restart the binary with the flags the
# benchmark starts it with (two unordered query workers, a bounded cache)
# and require the same box query to return the same number of bytes. This
# is the only stage that exercises the real binary over a real socket.
batserve_smoke() {
	dir="$(mktemp -d)" || return 1
	bin="$dir/batserve"
	log="$dir/serve.log"
	port="${BATSERVE_SMOKE_PORT:-18931}"
	base="http://127.0.0.1:$port"
	rc=1
	pid=""
	# serve <flags...> starts the binary and waits for /info to answer.
	serve() {
		"$bin" -in "$dir/data" -name smoke -addr "127.0.0.1:$port" "$@" >"$log" 2>&1 &
		pid=$!
		for _ in $(seq 1 50); do
			curl -sf "$base/info" >/dev/null 2>&1 && return 0
			kill -0 "$pid" 2>/dev/null || break
			sleep 0.2
		done
		echo "batserve $* never came up; log:"
		cat "$log"
		return 1
	}
	stop() {
		kill -TERM "$pid" 2>/dev/null
		wait "$pid" 2>/dev/null
		pid=""
	}
	box="$base/points?box=0.1,0.2,0.3,0.6,0.7,0.8"
	while :; do
		go run ./cmd/batwrite -workload uniform -ranks 4 -particles 20000 \
			-out "$dir/data" -name smoke >/dev/null || break
		go build -o "$bin" ./cmd/batserve || break
		serve || break
		# A clustered workload plus one filtered query, so the telemetry
		# endpoints have per-treelet hits, heatmap mass, and a query log.
		ok=1
		for i in 1 2 3; do
			curl -sf "$base/points?box=0,0,0,0.5,0.5,0.5" >/dev/null || ok=""
		done
		curl -sf "$base/points?box=0,0,0,1,1,1&filter=0,5,1e30" >/dev/null || ok=""
		[ -n "$ok" ] || { echo "query requests failed"; break; }
		curl -sf "$base/metrics" | grep -q '^http_requests_total' ||
			{ echo "/metrics missing http_requests_total"; break; }
		curl -sf "$base/metrics" | grep -q '^go_goroutines' ||
			{ echo "/metrics missing go runtime series"; break; }
		curl -sf "$base/metrics" | grep -q '_p99' ||
			{ echo "/metrics missing quantile gauges"; break; }
		# The live export's shape: the snapshot and query-record keys and
		# the fixed heatmap depth.
		curl -sf "$base/debug/access" | python3 -c '
import json, sys
d = json.load(sys.stdin)["datasets"]
assert d and d[0]["treelets"], "no per-treelet hits"
assert d[0]["heatmap"], "no heatmap mass"
assert d[0]["grid_bits"] == 4, d[0]["grid_bits"]
keys = {"dataset", "bounds", "grid_bits", "wall_unix", "queries_total",
        "treelet_hits_total", "treelet_bytes_total", "treelet_loads_total",
        "treelets", "heatmap", "attrs", "recent_queries"}
assert set(d[0]) == keys, sorted(set(d[0]) ^ keys)
assert d[0]["queries_total"] == 4, d[0]["queries_total"]
# The filter query reads both leaf files and touches its attribute once.
touches = sum(a["count"] for a in d[0]["attrs"])
assert touches == 1, d[0]["attrs"]
loads = sum(t.get("loads", 0) for t in d[0]["treelets"])
assert loads == d[0]["treelet_loads_total"], (loads, d[0]["treelet_loads_total"])
' || { echo "/debug/access malformed"; break; }
		curl -sf "$base/debug/queries?n=2" | python3 -c '
import json, sys
q = json.load(sys.stdin)["queries"]
assert len(q) == 2, f"n=2 returned {len(q)}"
assert all(r["source"] == "batserve:/points" for r in q)
keys = {"dataset", "unix_nano", "source", "box", "quality", "workers",
        "treelets", "particles", "pruned", "seconds", "cache_hit_ratio"}
assert keys <= set(q[-1]), sorted(keys - set(q[-1]))
assert "filters" in q[-1] and "rank" not in q[-1], sorted(q[-1])
' || { echo "/debug/queries malformed"; break; }
		# Each record's cache_hit_ratio is its own: the first box query
		# loads every treelet it reads, its two repeats none.
		curl -sf "$base/debug/queries?n=4" | python3 -c '
import json, sys
q = json.load(sys.stdin)["queries"]
assert len(q) == 4, f"n=4 returned {len(q)}"
ratios = [r["cache_hit_ratio"] for r in q[:3]]
assert ratios == [0, 1, 1], ratios
' || { echo "/debug/queries hit ratios wrong"; break; }
		curl -sf "$base/debug/access?format=prometheus" | grep -q '^access_queries_total' ||
			{ echo "/debug/access prometheus export malformed"; break; }
		want=$(curl -sf "$box" -o /dev/null -w '%{size_download}') ||
			{ echo "box query failed under default flags"; break; }
		stop
		serve -query-workers 2 -query-unordered -cache-mb 1 || break
		got=$(curl -sf "$box" -o /dev/null -w '%{size_download}') ||
			{ echo "box query failed under the benchmark's flags"; break; }
		[ "$got" = "$want" ] && [ "$want" -gt 0 ] ||
			{ echo "box query: $got bytes under the benchmark's flags, $want under the defaults"; break; }
		rc=0
		break
	done
	[ -z "$pid" ] || stop
	rm -rf "$dir"
	return $rc
}
run "batserve smoke" batserve_smoke

# Short fuzz pass over the decoders uintcast guards (BAT files and the
# treelet parser behind their checksums, both seeded from version-5 builds,
# a multi-treelet one among them; the section decoders underneath — raw,
# the one for quant-for and int-for, the one for key-for and sign-key-for,
# and sorted-cell-for — and the packed node table, fed
# payloads, node tables and a bounds box directly, the retired codec ids and
# frame mode among the seeds; the metadata file, a retired version-2 image,
# leaf counts past int64 and a dataset of no leaves among its seeds;
# particle wire encoding; the four control messages of the collective
# write and read, an empty-bounds query and an error-marked leaf report
# among the seeds, each accepted input re-encoded byte for byte) and over
# batserve's /points query-string parser: seconds, not a soak — enough to
# catch parser regressions on the corpus + fresh mutations. Every pattern is
# anchored: -fuzz refuses a pattern that matches two targets, so a second
# target added to a package cannot break its stage.
# (-fuzzminimizetime keeps a newly found interesting input from eating the
# whole budget in minimization.) CHECK_FUZZ=0 skips it for quick local
# iterations.
if [ "${CHECK_FUZZ:-1}" != "0" ]; then
	run "fuzz FuzzDecode bat" go test -fuzz='^FuzzDecode$' -fuzztime=10s -fuzzminimizetime=5x ./internal/bat/
	run "fuzz FuzzTreelet bat" go test -fuzz='^FuzzTreelet$' -fuzztime=10s -fuzzminimizetime=5x ./internal/bat/
	run "fuzz FuzzDecodeSections bat" go test -fuzz='^FuzzDecodeSections$' -fuzztime=10s -fuzzminimizetime=5x ./internal/bat/
	run "fuzz FuzzDecode meta" go test -fuzz='^FuzzDecode$' -fuzztime=10s -fuzzminimizetime=5x ./internal/meta/
	run "fuzz FuzzAppendMarshaled particles" go test -fuzz='^FuzzAppendMarshaled$' -fuzztime=10s -fuzzminimizetime=5x ./internal/particles/
	run "fuzz FuzzDecodeMessages core" go test -fuzz='^FuzzDecodeMessages$' -fuzztime=10s -fuzzminimizetime=5x ./internal/core/
	run "fuzz FuzzPointsQuery batserve" go test -fuzz='^FuzzPointsQuery$' -fuzztime=10s -fuzzminimizetime=5x ./cmd/batserve/
else
	echo "== fuzz stages skipped (CHECK_FUZZ=0)"
fi

if [ -n "$failed" ]; then
	echo "check.sh: FAILED stages:$failed"
	exit 1
fi
echo "check.sh: OK"
