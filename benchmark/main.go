// Command benchmark measures libbat's whole trip — particles on ranks →
// core.Write → BAT files → OpenDataset → queries → bytes out of batserve —
// on four workloads, checks every timed result against a brute-force oracle,
// and reports end-to-end metrics (untraced run) or per-layer metrics (traced
// run). See README.md.
//
//	go run ./benchmark --workload coal16-v2 --seed 1 --seconds 20 --trace 0   # one workload, driver contract
//	go run ./benchmark -seed 1 -out report.json -trace trace.json            # all workloads, rounds interleaved
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds. A round takes about
// roundSeconds on the reference box in a quiet hour (the batch sizes in
// workloads.go were chosen for that), so --seconds fixes the number of
// rounds before anything is timed (see rounds): a slow hour lengthens a run
// and does not thin its samples.
const (
	defaultSeconds = 20
	roundSeconds   = 2
	// minRounds is the floor of samples per timing.
	minRounds = 9
	// setUps is how often a run sets up: setup_s is the median. The driver's
	// traced run, whose set-up times carry no bound, sets up three times.
	setUps       = 9
	tracedSetUps = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and print the driver's one-line JSON result (default: all workloads, rounds interleaved)")
	seed := fs.Int("seed", 1, "seed of the benchmark's box/filter/request generators, and the step argument of Workload.Generate")
	seconds := fs.Float64("seconds", defaultSeconds, "nominal length of the measuring rounds; fixes their number")
	trace := fs.String("trace", "0", "0: untraced rounds only, end-to-end metrics; 1 or a file name: traced rounds and layer probes too, per-layer metrics, Chrome trace written to the file")
	out := fs.String("out", "", "write the JSON report of an all-workloads run here")
	quick := fs.Bool("quick", false, "tiny sizes (8 ranks, 20k particles, 3 rounds): a smoke test, not a measurement")
	compare := fs.Bool("compare", false, "compare two reports: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// The driver allows reads and writes only inside the checkout, so build
	// outputs, datasets and traces live in a git-ignored directory of it.
	h := &harness{root: root, scratch: filepath.Join(root, ".bench_build"), seed: *seed,
		seconds: *seconds, setUps: setUps, quick: *quick, log: stderr}
	if err := os.MkdirAll(h.scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if h.serverBin, err = buildServer(root, h.scratch); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	traced, traceFile := *trace != "0" && *trace != "", ""
	if traced && *trace != "1" {
		traceFile = *trace
	}
	var todo []spec
	if *workload == "" {
		todo = specs(*quick)
	} else {
		s, err := findSpec(*workload, *quick)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		todo = []spec{s}
		if traced {
			h.setUps = tracedSetUps
			if traceFile == "" {
				traceFile = filepath.Join(h.scratch, fmt.Sprintf("trace-%s-seed%d.json", s.Name, h.seed))
			}
		}
	}
	rep, err := h.measure(todo, traced, traceFile)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *workload != "" {
		return h.driverLine(rep, traced, stdout)
	}
	return h.fullReport(rep, *out, stdout)
}

// repoRoot finds the module root (the directory holding go.mod and
// cmd/batserve) from the working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "batserve")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("run from inside the libbat checkout: no go.mod with cmd/batserve found above the working directory")
		}
		dir = parent
	}
}

// harness holds what every workload run shares.
type harness struct {
	root      string
	scratch   string // build outputs and datasets, inside the checkout
	serverBin string
	seed      int
	seconds   float64
	setUps    int
	quick     bool
	log       io.Writer
	dirs      int
}

// workloadReport is one workload's section of a report.
type workloadReport struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	WallS     float64                `json:"wall_s"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	FailRatio float64                `json:"fail_ratio"`
	Trip      map[string]metricValue `json:"trip"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

type metricValue struct {
	metric
	stat
}

// report is the -out file.
type report struct {
	Env       map[string]any   `json:"env"`
	Seed      int              `json:"seed"`
	Workloads []workloadReport `json:"workloads"`
}

func (h *harness) newDir(name string) string {
	h.dirs++
	return filepath.Join(h.scratch, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), h.dirs))
}

// rounds is how many untraced rounds each workload runs and after how many
// of them a traced round follows (0: never). The counts are fixed before
// anything is timed: one per roundSeconds of --seconds, never fewer than
// minRounds. A traced run adds a traced round after every third untraced one.
func (h *harness) rounds(traced bool) (plain, tracedEvery int) {
	plain = max(int(math.Round(h.seconds/roundSeconds)), minRounds)
	if h.quick {
		plain = 3
	}
	if traced {
		return plain, 3
	}
	return plain, 0
}

// measure sets up every workload of todo, then runs their rounds interleaved
// — round k of every workload before round k+1 of any — so a slow stretch of
// machine time lands on all workloads and all operations alike. Trip metrics
// and the layers' own counters come from untraced rounds. With traced set,
// every third turn of untraced rounds is followed by a turn of traced ones
// (the wall-time ratio of the two kinds is the tracing overhead), and
// afterwards each layer is probed from outside.
func (h *harness) measure(todo []spec, traced bool, traceFile string) (*report, error) {
	env := environment(h)
	plain, tracedEvery := h.rounds(traced)
	trips := make([]*trip, 0, len(todo))
	tracers := make([]*tracer, len(todo))
	starts := make([]time.Time, len(todo))
	defer func() {
		for _, t := range trips {
			t.tearDown()
		}
	}()
	for i, s := range todo {
		starts[i] = time.Now()
		t, err := setUp(s, h.seed, h.newDir(s.Name), h.serverBin, h.setUps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		trips = append(trips, t)
		if err := t.warmUp(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		if traced {
			tracers[i] = newTracer()
		}
	}
	walls := make([]time.Duration, len(todo))
	for i := range trips {
		walls[i] = time.Since(starts[i])
	}
	for id := 0; id < plain; id++ {
		for i, t := range trips {
			r0 := time.Now()
			t.round(2*id, nil)
			walls[i] += time.Since(r0)
		}
		if tracedEvery == 0 || id%tracedEvery != tracedEvery-1 {
			continue
		}
		for i, t := range trips {
			r0 := time.Now()
			t.round(2*id+1, tracers[i])
			walls[i] += time.Since(r0)
		}
	}

	rep := &report{Env: env, Seed: h.seed}
	wallS, roundS := map[string]float64{}, map[string]float64{}
	for i, t := range trips {
		p0 := time.Now()
		wr := t.report()
		if traced {
			file := traceFile
			if file != "" && len(trips) > 1 {
				file = strings.TrimSuffix(traceFile, ".json") + "-" + t.spec.Name + ".json"
			}
			var err error
			if wr.PerLayer, err = h.perLayer(t, tracers[i], wr.Trip, file); err != nil {
				return nil, fmt.Errorf("%s: %w", t.spec.Name, err)
			}
			// The probes check their results too.
			wr.Attempted, wr.Failed = t.attempted, t.failed
		}
		wr.WallS = (walls[i] + time.Since(p0)).Seconds()
		wallS[wr.Name] = wr.WallS
		roundS[wr.Name] = median(t.plainWall)
		rep.Workloads = append(rep.Workloads, wr)
	}
	env["load_1m_end"] = loadAverage()
	env["wall_s"] = wallS
	env["round_s"] = roundS
	env["rounds"] = plain
	return rep, nil
}

// report summarizes the untraced rounds: every trip metric, demoted or not.
func (t *trip) report() workloadReport {
	rep := workloadReport{Name: t.spec.Name, Why: t.spec.Why, Attempted: t.attempted, Failed: t.failed,
		Trip: map[string]metricValue{}}
	if t.attempted > 0 {
		rep.FailRatio = float64(t.failed) / float64(t.attempted)
	}
	for _, m := range tripMetrics {
		var st stat
		switch m.Name {
		case "setup_s":
			st = summarize(t.setup[m.Name])
		case "http_p50_ms":
			st = latencyStat(t.latencies, 50)
		case "http_p95_ms":
			st = latencyStat(t.latencies, 95)
		default:
			st = summarize(t.samples[m.Name])
		}
		rep.Trip[m.Name] = metricValue{m, st}
	}
	return rep
}

// latencyStat reports the p-th latency percentile pooled over every pass;
// its quartiles are those of the passes' own p-th percentiles.
func latencyStat(passes [][]float64, p float64) stat {
	var pooled, perPass []float64
	for _, lat := range passes {
		pooled = append(pooled, lat...)
		perPass = append(perPass, percentile(lat, p))
	}
	if len(pooled) == 0 {
		return stat{}
	}
	st := summarize(perPass)
	st.Median, st.N = percentile(pooled, p), len(pooled)
	return st
}

// traceOverheadLimit is what obs.trace_overhead_ratio must stay below for the
// spans of a traced round to describe an untraced one.
const traceOverheadLimit = 1.10

// perLayer fills the per-layer table of one workload: the demoted trip
// metrics and the layers' own counters from the untraced rounds, the tracing
// overhead from the traced ones, and a probe of each layer from outside.
func (h *harness) perLayer(t *trip, tr *tracer, tripValues map[string]metricValue, traceFile string) (map[string]metricValue, error) {
	samples := map[string][]float64{}
	for k, v := range t.layers {
		samples[k] = v
	}
	for _, k := range []string{"workloads.generate_s", "oracle.build_s", "batserve.start_ms"} {
		samples[k] = t.setup[k]
	}
	out := map[string]float64{}
	for k, v := range samples {
		out[k] = median(v)
	}
	if err := t.probes(out); err != nil {
		return nil, err
	}
	out["proc.heap_alloc_mb_per_write"] = heapPerWrite(t)
	out["batserve.overhead_ratio"] = median(t.samples["scan_warm_mpps"]) / out["batserve.full_scan_mpps"]
	overhead := median(t.tracedWall) / median(t.plainWall)
	out["obs.trace_overhead_ratio"] = overhead
	procStats(out)

	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return nil, err
		}
		if err := errors.Join(tr.writeChrome(f), f.Close()); err != nil {
			return nil, err
		}
	}
	printSelfTimes(h.log, t.spec.Name, selfTimes(tr.spans), len(t.tracedWall))
	if overhead >= traceOverheadLimit {
		fmt.Fprintf(h.log, "WARNING %s: obs.trace_overhead_ratio = %.2f, not below %.2f: the spans of this trace are stretched by the program's own collector; the per-layer numbers are not (they come from untraced rounds)\n",
			t.spec.Name, overhead, traceOverheadLimit)
	}

	values := map[string]metricValue{}
	for _, m := range perLayer() {
		if tv, ok := tripValues[m.Name]; ok {
			values[m.Name] = metricValue{m, tv.stat}
			continue
		}
		v, ok := out[m.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		st := stat{Median: v, Q1: v, Q3: v, N: 1}
		if len(samples[m.Name]) > 0 {
			st = summarize(samples[m.Name])
		}
		values[m.Name] = metricValue{m, st}
	}
	return values, nil
}

// heapPerWrite is the heap one collective write allocates.
func heapPerWrite(t *trip) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t.write(nil)
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1e6
}

func printSelfTimes(w io.Writer, name string, self map[string]time.Duration, trips int) {
	fmt.Fprintf(w, "%s: self time per traced trip (span minus child coverage), %d trips\n", name, trips)
	for _, k := range sortedKeys(self) {
		fmt.Fprintf(w, "  %-34s %10.3f ms\n", k, ms(self[k])/float64(trips))
	}
}

// driverLine is the contract with the benchmark driver: one workload, one
// JSON object as the last line of standard output, holding every end-to-end
// metric (untraced run) or every per-layer metric (traced run).
func (h *harness) driverLine(rep *report, traced bool, stdout io.Writer) int {
	wr := rep.Workloads[0]
	envJSON, _ := json.Marshal(rep.Env)
	fmt.Fprintf(h.log, "env: %s\n", envJSON)
	fmt.Fprintf(h.log, "%s: trip metrics (untraced rounds)\n", wr.Name)
	printTable(h.log, wr.Trip)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		fmt.Fprintf(h.log, "%s: per layer\n", wr.Name)
		printTable(h.log, wr.PerLayer)
		for name, v := range wr.PerLayer {
			metrics[name] = value{v.Median, v.Unit}
		}
	} else {
		for _, m := range endToEnd() {
			metrics[m.Name] = value{wr.Trip[m.Name].Median, m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{"correct": wr.Failed == 0, "attempted": wr.Attempted,
		"failed": wr.Failed, "metrics": metrics})
	if err != nil {
		fmt.Fprintln(h.log, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if wr.Failed > 0 {
		return 1
	}
	return 0
}

// fullReport prints every metric of every workload and writes the report.
func (h *harness) fullReport(rep *report, out string, stdout io.Writer) int {
	failed := false
	for _, wr := range rep.Workloads {
		failed = failed || wr.Failed > 0
		fmt.Fprintf(stdout, "\n== %s: %s\n   %d operations checked, %d failed (fail_ratio %g), %.1f s\n",
			wr.Name, wr.Why, wr.Attempted, wr.Failed, wr.FailRatio, wr.WallS)
		fmt.Fprintln(stdout, "   trip metrics (untraced rounds; \"cold\" = fresh Dataset, program caches empty, OS page cache warm):")
		printTable(stdout, wr.Trip)
		if wr.PerLayer != nil {
			fmt.Fprintln(stdout, "   per layer:")
			printTable(stdout, wr.PerLayer)
		}
	}
	envJSON, _ := json.Marshal(rep.Env)
	fmt.Fprintf(stdout, "\nenv: %s\n", envJSON)
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(h.log, "benchmark:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

func printTable(w io.Writer, values map[string]metricValue) {
	fmt.Fprintf(w, "  %-34s %-13s %14s %14s %14s %6s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, name := range sortedKeys(values) {
		v := values[name]
		fmt.Fprintf(w, "  %-34s %-13s %14.6g %14.6g %14.6g %6d\n", name, v.Unit, v.Median, v.Q1, v.Q3, v.N)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// environment describes the machine and the run.
func environment(h *harness) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = h.root
	if outb, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(outb))
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpu,
		"go_version":    runtime.Version(),
		"git_commit":    commit,
		"seed":          h.seed,
		"tmpdir":        h.scratch,
		"tmpdir_fs":     fsType(h.scratch),
		"pfs_os_sync":   false, // pfs.OS default: atomic rename, no fsync
		"page_cache":    "warm (cold = fresh Dataset, program caches empty)",
		"godebug":       os.Getenv("GODEBUG"),
		"seconds":       h.seconds,
		"quick":         h.quick,
		"load_1m_start": loadAverage(),
	}
}

func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	var v float64
	fmt.Sscan(string(data), &v)
	return v
}

// fsType names the filesystem holding dir, from /proc/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
