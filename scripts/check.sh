#!/bin/sh
# Pre-PR check: batlint + vet + test the whole module, run the concurrency-
# sensitive packages under the race detector, smoke the benchmarks and the
# five examples, and (unless CHECK_FUZZ=0) give the six decode fuzzers
# a short pass. Run it from the repository root before sending a PR.
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

# The whole suite once without the race detector. This is where the figure
# harness is held: cmd/batbench's tests run every registry entry at a small
# scale and compare the modeled tables with their goldens byte for byte (no
# separate stage), next to the batconvert round trip and batlint's
# TestRepoClean.
run "go test ./..." go test ./...

run "go test -race fabric+core" go test -race ./internal/fabric/... ./internal/core/...

# The distributed-planning equivalence property under the race detector:
# DistributedBuild must reproduce the centralized oracle byte-for-byte
# across world sizes, bounds distributions, and consolidation thresholds
# with the per-rank peak state independent of the world size. GOMAXPROCS
# forced above 1 so the per-rank goroutines of the simulated fabric truly
# interleave.
run "go test -race distributed plan" env GOMAXPROCS=4 go test -race \
	-run 'TestDistributed' ./internal/aggtree/

# The generators under the race detector: every rank of one workload value
# generated at once (the calls benchmark/ and the fabric ranks make) against
# the shared Counts memo, plus the golden digests and the cut-off evaluator's
# bit-equality property.
run "go test -race workloads+particles" env GOMAXPROCS=4 go test -race ./internal/workloads/ ./internal/particles/

# The chaos suite injects storage faults into full 16-rank collectives;
# running it under the race detector is the strongest deadlock/race signal
# the repo has, so it gets its own invocation even though the package run
# above already covered it once.
run "go test -race TestChaos" go test -race -run 'TestChaos' ./internal/core/

# The BAT build byte-identity property (serial path vs every worker count)
# under the race detector, with GOMAXPROCS forced above 1 so the fused
# treelet/bitmap workers and the parallel compact stage actually interleave
# even on single-core CI runners.
run "go test -race TestBuildDeterminism" env GOMAXPROCS=4 go test -race -run 'TestBuildDeterminism' ./internal/bat/

# The v3 codec layer under the race detector: the max-error property
# (random per-attribute bounds, lossless bit-exactness of attributes and
# positions, LOD two-grid bounds), the position and attribute block codecs'
# round-trip properties (cell-for positions over real k-d treelets, both
# quant-for frame modes), the goldens (today's two layouts read, every retired
# one refused), the corruption matrices of the frameless streams
# (TestCellFOR*, TestFrameColumn*), the packed node table
# (TestPackedNodeTable*: what the reader unpacks is the builder's node, field
# by field; its corruption matrix) and the tiling of unpadded treelets
# (TestUnpaddedTreeletsTile), plus encode determinism across worker counts,
# with decode running fused inside the concurrent query workers.
run "go test -race compression" env GOMAXPROCS=4 go test -race -run 'TestCompressed|TestCompressionInfo|TestGolden|TestCellFOR|TestFrameColumn|TestPacked|TestUnpadded|TestQuantFOR|TestBitPack' ./internal/bat/

# The query engine under the race detector: shared-File queries, Workers=N
# vs Workers=1 multiset identity, the treelet cache singleflight, the
# batserve overlapping-request tests and batread's -count smoke (one cache
# budget over two leaf files at -query-workers 1 and 2). GOMAXPROCS forced
# above 1 so the traversal workers genuinely interleave on single-core
# runners.
run "go test -race query engine" env GOMAXPROCS=4 go test -race -run 'TestConcurrent|TestParallel|TestOrdered|TestCache|TestFileCache|TestReadahead|TestCloseWaits|TestProgressiveTiles' ./internal/bat/
run "go test -race batserve+batread" env GOMAXPROCS=4 go test -race ./cmd/batserve/ ./cmd/batread/
# The one dataset reader under every read route: libbat.Dataset's suites
# (TestDatasetCacheBudget holds the one-budget contract of the dataset-wide
# treelet cache under overlapping queries), the shared leaf singleflight
# table (internal/core) and the route-agreement test (Dataset vs collective
# read on 1 and 4 ranks vs brute force).
run "go test -race Dataset" env GOMAXPROCS=4 go test -race -run 'TestDataset|TestOpenDataset|TestRouteAgreement' . ./internal/core/

# Chaos-latency: the cancellation/deadline suites across every read-path
# layer under combined error+latency injection — cancel storms against the
# traversal engine, singleflight detach, stalled-mount 504s, batserve
# kill/restart cycles. The short -timeout means a wedged goroutine fails
# the stage with a full goroutine dump (go test's panic output; leak
# failures print their own dump via internal/leakcheck) instead of hanging
# the script.
run "go test -race chaos-latency" env GOMAXPROCS=4 go test -race -timeout 120s \
	-run 'TestChaos|TestCancel|TestReadQueryCtx|TestDatasetQueryCtx|TestDatasetLeaf|TestAdmission' \
	./internal/bat/ ./internal/core/ ./cmd/batserve/ .

# Bench smoke: one iteration of every BAT build benchmark and of the section
# kernels' (the ns/value figures DESIGN §13 and results/cell-frames quote),
# just to keep the benchmark code compiling and runnable (no timing
# assertions; BenchmarkDecodeSection does check that each column encodes to
# the stream its case names and decodes).
run "bench smoke BenchmarkBATBuild" go test -run=NONE -bench=BATBuild -benchtime=1x ./internal/bat/
run "bench smoke section kernels" go test -run=NONE -bench='EncodeSection|DecodeSection' -benchtime=1x ./internal/bat/

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
# to answer well-formed. This is the only stage that exercises the real
# binary over a real socket.
batserve_smoke() {
	dir="$(mktemp -d)" || return 1
	bin="$dir/batserve"
	log="$dir/serve.log"
	port="${BATSERVE_SMOKE_PORT:-18931}"
	base="http://127.0.0.1:$port"
	rc=1
	pid=""
	while :; do
		go run ./cmd/batwrite -workload uniform -ranks 4 -particles 20000 \
			-out "$dir/data" -name smoke >/dev/null || break
		go build -o "$bin" ./cmd/batserve || break
		"$bin" -in "$dir/data" -name smoke -addr "127.0.0.1:$port" \
			-access-persist >"$log" 2>&1 &
		pid=$!
		up=""
		for _ in $(seq 1 50); do
			if curl -sf "$base/info" >/dev/null 2>&1; then
				up=1
				break
			fi
			kill -0 "$pid" 2>/dev/null || break
			sleep 0.2
		done
		if [ -z "$up" ]; then
			echo "batserve never came up; log:"
			cat "$log"
			break
		fi
		# A clustered workload plus one filtered query, so the telemetry
		# endpoints have per-treelet hits, heatmap mass, and a query log.
		ok=1
		for i in 1 2 3; do
			curl -sf "$base/points?box=0,0,0,0.5,0.5,0.5" >/dev/null || ok=""
		done
		curl -sf "$base/points?box=0,0,0,1,1,1&filter=0,0,1e30" >/dev/null || ok=""
		[ -n "$ok" ] || { echo "query requests failed"; break; }
		curl -sf "$base/metrics" | grep -q '^http_requests_total' ||
			{ echo "/metrics missing http_requests_total"; break; }
		curl -sf "$base/metrics" | grep -q '^go_goroutines' ||
			{ echo "/metrics missing go runtime series"; break; }
		curl -sf "$base/metrics" | grep -q '_p99' ||
			{ echo "/metrics missing quantile gauges"; break; }
		curl -sf "$base/debug/access" | python3 -c '
import json, sys
d = json.load(sys.stdin)["datasets"]
assert d and d[0]["treelets"], "no per-treelet hits"
assert d[0]["heatmap"], "no heatmap mass"
' || { echo "/debug/access malformed"; break; }
		curl -sf "$base/debug/queries?n=2" | python3 -c '
import json, sys
q = json.load(sys.stdin)["queries"]
assert len(q) == 2, f"n=2 returned {len(q)}"
assert all(r["source"] == "batserve:/points" for r in q)
' || { echo "/debug/queries malformed"; break; }
		curl -sf "$base/debug/access?format=prometheus" | grep -q '^access_queries_total' ||
			{ echo "/debug/access prometheus export malformed"; break; }
		rc=0
		break
	done
	if [ -n "$pid" ]; then
		kill -TERM "$pid" 2>/dev/null
		wait "$pid" 2>/dev/null
	fi
	# -access-persist: the shutdown path must have written the sidecar.
	if [ "$rc" = 0 ] && [ ! -s "$dir/data/smoke.bata" ]; then
		echo "access sidecar not persisted on shutdown"
		rc=1
	fi
	rm -rf "$dir"
	return $rc
}
run "batserve smoke" batserve_smoke

# Short fuzz pass over the decoders uintcast guards (BAT files, the treelet
# parser behind their checksums, the v3 section codecs underneath it — raw,
# delta, quant-for, cell-for and the packed node table, fed payloads, node
# tables and a bounds box directly, the retired codec ids and frame mode
# among the seeds —, the metadata file, particle wire encoding, .bata sidecars):
# seconds, not a soak — enough to catch
# parser regressions on the corpus + fresh mutations. The bat patterns are
# anchored: -fuzz refuses a pattern that matches two targets.
# (-fuzzminimizetime keeps a newly found interesting input from eating the
# whole budget in minimization.) CHECK_FUZZ=0 skips it for quick local
# iterations.
if [ "${CHECK_FUZZ:-1}" != "0" ]; then
	run "fuzz FuzzDecode bat" go test -fuzz='^FuzzDecode$' -fuzztime=10s -fuzzminimizetime=5x ./internal/bat/
	run "fuzz FuzzTreelet bat" go test -fuzz='^FuzzTreelet$' -fuzztime=10s -fuzzminimizetime=5x ./internal/bat/
	run "fuzz FuzzDecodeSections bat" go test -fuzz='^FuzzDecodeSections$' -fuzztime=10s -fuzzminimizetime=5x ./internal/bat/
	run "fuzz FuzzDecode meta" go test -fuzz=FuzzDecode -fuzztime=10s -fuzzminimizetime=5x ./internal/meta/
	run "fuzz FuzzUnmarshal particles" go test -fuzz=FuzzUnmarshal -fuzztime=10s -fuzzminimizetime=5x ./internal/particles/
	run "fuzz FuzzUnmarshal access" go test -fuzz=FuzzUnmarshal -fuzztime=10s -fuzzminimizetime=5x ./internal/obs/access/
else
	echo "== fuzz stages skipped (CHECK_FUZZ=0)"
fi

if [ -n "$failed" ]; then
	echo "check.sh: FAILED stages:$failed"
	exit 1
fi
echo "check.sh: OK"
