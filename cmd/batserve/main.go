// Command batserve is the paper's Figure-4 prototype: an HTTP server that
// progressively streams particles out of a written dataset, applying
// spatial and attribute filters server-side through the BAT layout. The
// bundled web page fetches increasing quality levels and renders them.
//
//	batserve -in /tmp/ds -name coal-boiler-0050 -addr :8080
//
// Endpoints:
//
//	GET /info                          dataset metadata (JSON)
//	GET /points?quality=0.4&prev=0.2   binary stream of xyz float32 triples
//	    [&box=x0,y0,z0,x1,y1,z1][&filter=attr,min,max][&attr=i]
//	GET /metrics                       Prometheus metrics (+ Go runtime health)
//	GET /debug/access                  per-dataset access telemetry snapshots
//	GET /debug/queries                 recent structured query log
//	GET /debug/pprof/                  profiling (only with -pprof)
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"libbat"
	"libbat/internal/cliutil"
	"libbat/internal/obs"
	"libbat/internal/obs/access"
	"libbat/internal/pfs"
)

type server struct {
	// mu fences dataset lifetime against request handling: every handler
	// that touches a dataset holds the read lock for the request's
	// duration, and only closeDatasets takes the write lock. Queries on
	// the same dataset run concurrently — Dataset and the BAT treelet
	// cache underneath are concurrency-safe — so there is no per-query
	// serialization anywhere.
	mu    sync.RWMutex
	store libbat.Storage
	names []string // time series of dataset base names

	openMu sync.Mutex // guards the map open; no open or query runs under it
	open   map[int]*libbat.Dataset

	col  *obs.Collector     // backs /metrics
	qcfg libbat.QueryConfig // applied to every dataset at open
	// cacheBytes bounds each dataset's treelet cache (0 = unbounded).
	cacheBytes int64

	// access holds one recorder per open dataset, served on /debug/access
	// and /debug/queries; pprofOn mounts net/http/pprof under /debug/pprof/.
	access  *libbat.AccessRegistry
	pprofOn bool

	// queryTimeout bounds each /points query (0 = no deadline); adm is the
	// admission gate for /points (nil = unlimited concurrency). Both exist
	// so a slow filesystem or a query storm degrades to prompt 504/429/503
	// responses instead of unbounded goroutine and cache pressure.
	queryTimeout time.Duration
	adm          *admission
}

// jsonError replies with a JSON error body and the given status code.
func jsonError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// statusRecorder captures the status code a handler sent (200 if it only
// ever wrote the body) so request counters can be labeled by outcome.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code, r.wrote = code, true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if !r.wrote {
		r.code, r.wrote = http.StatusOK, true
	}
	return r.ResponseWriter.Write(p)
}

// instrument wraps a handler with a per-path request counter (labeled by
// status code) and a request latency histogram, both served on /metrics.
func (s *server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	dur := s.col.Histogram("http_request_duration_seconds",
		obs.DefLatencyBuckets(), obs.L("path", path))
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(rec, r)
		dur.Observe(time.Since(start).Seconds())
		s.col.Add("http_requests_total", 1,
			obs.L("path", path), obs.L("code", strconv.Itoa(rec.code)))
	}
}

// metrics exposes every counter and histogram in Prometheus text format,
// plus the Go runtime health series (goroutines, heap, GC).
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.col.WritePrometheus(w)
	obs.WriteRuntimeMetrics(w)
}

// dataset lazily opens timestep i of the series. openMu guards only the map:
// the open itself runs outside it, so a step whose open stalls holds up no
// request for another step. Two requests that open one step at once both
// open it; the first to finish keeps its handle and the other closes its
// own.
func (s *server) dataset(i int) (*libbat.Dataset, error) {
	if i < 0 || i >= len(s.names) {
		return nil, fmt.Errorf("step %d out of range [0,%d)", i, len(s.names))
	}
	s.openMu.Lock()
	ds, ok := s.open[i]
	s.openMu.Unlock()
	if ok {
		return ds, nil
	}
	ds, err := libbat.OpenDataset(s.store, s.names[i])
	if err != nil {
		return nil, err
	}
	s.openMu.Lock()
	defer s.openMu.Unlock()
	if first, ok := s.open[i]; ok {
		ds.Close() // nothing was read through the duplicate
		return first, nil
	}
	ds.SetQueryConfig(s.qcfg)
	if s.cacheBytes > 0 {
		ds.SetCacheLimit(s.cacheBytes)
	}
	ds.SetObserver(s.col, obs.L("step", strconv.Itoa(i)))
	ds.SetAccessRecorder(s.access.Get(s.names[i], ds.Bounds()))
	s.open[i] = ds
	return ds, nil
}

// seriesOf finds the dataset base names matching prefix (all of them when
// the prefix names a series; exactly one when it names a single dataset).
func seriesOf(store libbat.Storage, prefix string) ([]string, error) {
	names, err := libbat.ListDatasets(store, prefix)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no datasets matching %q", prefix)
	}
	return names, nil
}

// routes builds the server's request mux.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.instrument("/", s.page))
	mux.HandleFunc("/info", s.instrument("/info", s.info))
	mux.HandleFunc("/points", s.instrument("/points", s.points))
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/debug/access", s.instrument("/debug/access", s.debugAccess))
	mux.HandleFunc("/debug/queries", s.instrument("/debug/queries", s.debugQueries))
	if s.pprofOn {
		registerPprof(mux)
	}
	return mux
}

// newHTTPServer wraps the mux in an http.Server with request timeouts: a
// slow or stalled client cannot pin a connection open forever. The write
// timeout must cover a full progressive /points stream, so it is much
// longer than the header/idle limits.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// closeDatasets releases every cached dataset handle. The write lock waits
// out all in-flight requests (which hold read locks), so no query can be
// traversing a dataset while it is closed.
func (s *server) closeDatasets() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.openMu.Lock()
	defer s.openMu.Unlock()
	for _, ds := range s.open {
		ds.Close()
	}
	s.open = map[int]*libbat.Dataset{}
}

func main() {
	var (
		in    = flag.String("in", "bat-out", "dataset directory")
		name  = flag.String("name", "", "dataset base name, or a prefix matching a time series (required)")
		addr  = flag.String("addr", "127.0.0.1:8080", "listen address")
		drain = flag.Duration("drain", 10*time.Second, "how long to wait for in-flight requests on shutdown")

		queryWorkers = flag.Int("query-workers", 0,
			"goroutines per query: the one that walks and delivers, the rest load treelets ahead of it (0 = GOMAXPROCS, 1 = serial)")
		_ = flag.Bool("query-unordered", false,
			"no effect, accepted so older command lines still start: every query delivers its points in one order at every -query-workers")
		cacheMB = flag.Int64("cache-mb", 0,
			"treelet cache budget per dataset in MiB, one budget over all of its leaf files (0 = unbounded)")
		pprofOn = flag.Bool("pprof", false,
			"serve net/http/pprof profiling endpoints under /debug/pprof/")
		queryTimeout = flag.Duration("query-timeout", 0,
			"per-query deadline for /points, including queue wait (0 = none)")
		maxInflight = flag.Int("max-inflight", 0,
			"maximum concurrently running /points queries (0 = unlimited)")
		queueDepth = flag.Int("queue-depth", 16,
			"requests allowed to wait for a query slot when -max-inflight is saturated")
	)
	flag.Parse()
	if *name == "" {
		log.Fatal("batserve: -name is required")
	}
	store, err := libbat.DirStorage(*in)
	if err != nil {
		log.Fatal(err)
	}
	names, err := seriesOf(store, *name)
	if err != nil {
		log.Fatal("batserve: ", err)
	}
	qcfg := libbat.QueryConfig{Workers: *queryWorkers}
	if qcfg.Workers == 0 {
		qcfg.Workers = -1 // bat: negative means GOMAXPROCS
	}
	s := &server{store: store, names: names, open: map[int]*libbat.Dataset{},
		col: obs.New(), qcfg: qcfg, cacheBytes: *cacheMB << 20,
		access:  libbat.NewAccessRegistry(),
		pprofOn: *pprofOn, queryTimeout: *queryTimeout}
	s.adm = newAdmission(s.col, *maxInflight, *queueDepth)
	ds, err := s.dataset(0)
	if err != nil {
		log.Fatal(err)
	}
	srv := newHTTPServer(*addr, s.routes())
	log.Printf("batserve: %d timesteps (first: %d particles in %d files); listening on http://%s",
		len(names), ds.NumParticles(), ds.NumFiles(), *addr)

	// Serve until SIGINT/SIGTERM, then drain in-flight requests and close
	// the dataset handles before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal("batserve: ", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("batserve: shutting down (draining for up to %s)", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("batserve: shutdown: %v", err)
	}
	s.closeDatasets()
	log.Printf("batserve: stopped")
}

// stepParam parses the ?step=N parameter (default 0).
func (s *server) stepParam(r *http.Request) (int, error) {
	v := r.URL.Query().Get("step")
	if v == "" {
		return 0, nil
	}
	return strconv.Atoi(v)
}

// openStep resolves the request's timestep to an open dataset, replying
// with 400 for bad/out-of-range steps and 500 for datasets that fail to
// open. Callers must hold s.mu.RLock for as long as they use the dataset.
func (s *server) openStep(w http.ResponseWriter, r *http.Request) (*libbat.Dataset, int, bool) {
	step, err := s.stepParam(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, fmt.Errorf("bad step: %v", err))
		return nil, 0, false
	}
	if step < 0 || step >= len(s.names) {
		jsonError(w, http.StatusBadRequest,
			fmt.Errorf("step %d out of range [0,%d)", step, len(s.names)))
		return nil, 0, false
	}
	ds, err := s.dataset(step)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err)
		return nil, 0, false
	}
	return ds, step, true
}

func (s *server) info(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, step, ok := s.openStep(w, r)
	if !ok {
		return
	}
	b := ds.Bounds()
	attrs := make([]map[string]any, ds.Schema().NumAttrs())
	for a := range attrs {
		min, max, _ := ds.AttrRange(a)
		attrs[a] = map[string]any{"name": ds.Schema().Attrs[a].Name, "min": min, "max": max}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"steps":     len(s.names),
		"step":      step,
		"name":      s.names[step],
		"particles": ds.NumParticles(),
		"files":     ds.NumFiles(),
		"lower":     []float64{b.Lower.X, b.Lower.Y, b.Lower.Z},
		"upper":     []float64{b.Upper.X, b.Upper.Y, b.Upper.Z},
		"attrs":     attrs,
	})
}

// parseFloats parses n comma-separated finite numbers.
func parseFloats(s string, n int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("want %d comma-separated values", n)
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%q is not a finite number", p)
		}
		out[i] = v
	}
	return out, nil
}

func (s *server) points(w http.ResponseWriter, r *http.Request) {
	q := libbat.Query{Quality: 1}
	for _, p := range []struct {
		name string
		dst  *float64
	}{{"quality", &q.Quality}, {"prev", &q.PrevQuality}} {
		if v := r.URL.Query().Get(p.name); v != "" {
			vals, err := parseFloats(v, 1)
			if err != nil {
				jsonError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %v", p.name, err))
				return
			}
			*p.dst = vals[0]
		}
	}
	if v := r.URL.Query().Get("box"); v != "" {
		vals, err := parseFloats(v, 6)
		if err != nil {
			jsonError(w, http.StatusBadRequest, fmt.Errorf("bad box: %v", err))
			return
		}
		box := libbat.NewBox(libbat.V3(vals[0], vals[1], vals[2]), libbat.V3(vals[3], vals[4], vals[5]))
		q.Bounds = &box
	}
	for _, v := range r.URL.Query()["filter"] {
		// The attribute's range is checked once the dataset is open.
		flt, err := cliutil.ParseFilter(v)
		if err != nil {
			jsonError(w, http.StatusBadRequest, fmt.Errorf("bad filter: %v", err))
			return
		}
		q.Filters = append(q.Filters, flt)
	}
	// The request context carries client disconnects; the server's query
	// deadline stacks on top. Established BEFORE admission so time spent
	// queued counts against the deadline, and a disconnected client leaves
	// the queue immediately.
	ctx := r.Context()
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
		defer cancel()
	}
	// Admission is acquired before the dataset read lock so queued requests
	// never delay closeDatasets.
	release, admStatus := s.adm.acquire(ctx)
	if admStatus != 0 {
		s.adm.reject(w, admStatus)
		return
	}
	defer release()
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, step, ok := s.openStep(w, r)
	if !ok {
		return
	}
	attr := -1
	if v := r.URL.Query().Get("attr"); v != "" {
		a, err := strconv.Atoi(v)
		if err != nil || a < 0 || a >= ds.Schema().NumAttrs() {
			jsonError(w, http.StatusBadRequest, fmt.Errorf("bad attr %q", v))
			return
		}
		attr = a
	}
	for _, flt := range q.Filters {
		if flt.Attr < 0 || flt.Attr >= ds.Schema().NumAttrs() {
			jsonError(w, http.StatusBadRequest, fmt.Errorf("bad filter: attribute %d out of range", flt.Attr))
			return
		}
	}
	if q.Quality <= 0 || q.PrevQuality >= q.Quality {
		// An empty quality window loads nothing. It must not reach the
		// query layer, where a zero Quality means "full".
		w.Header().Set("Content-Type", "application/octet-stream")
		return
	}
	// Stream xyz (and optionally one attribute) as little-endian float32.
	// The Content-Type only commits once the first point is written, so a
	// query that fails before producing any data can still return a real
	// error status instead of an empty 200. Points are encoded into one
	// block and written a block at a time: the response writer is called
	// once per ~3-4 k points, not once per point.
	block := make([]byte, 0, pointBlockBytes)
	flush := func() error {
		if len(block) == 0 {
			return nil
		}
		_, err := w.Write(block)
		block = block[:0]
		return err
	}
	var points int64
	qStart := time.Now()
	err := ds.QueryCtx(access.WithSource(ctx, "batserve:/points"), q, func(p libbat.Vec3, attrs []float64) error {
		if points == 0 {
			// Declare the trailers before the status commits: if the query
			// dies mid-stream the truncation is announced in-band instead of
			// silently ending a 200.
			w.Header().Set("Trailer", "X-Batserve-Status, X-Batserve-Points")
			w.Header().Set("Content-Type", "application/octet-stream")
		}
		points++
		block = binary.LittleEndian.AppendUint32(block, math.Float32bits(float32(p.X)))
		block = binary.LittleEndian.AppendUint32(block, math.Float32bits(float32(p.Y)))
		block = binary.LittleEndian.AppendUint32(block, math.Float32bits(float32(p.Z)))
		if attr >= 0 {
			block = binary.LittleEndian.AppendUint32(block, math.Float32bits(float32(attrs[attr])))
		}
		if len(block) == cap(block) {
			return flush()
		}
		return nil
	})
	// Whatever was counted goes on the wire before any trailer says how much
	// that is, whether the query completed, failed or timed out mid-stream.
	if ferr := flush(); err == nil {
		err = ferr
	}
	s.col.Histogram("query_duration_seconds", obs.DefLatencyBuckets(),
		obs.L("step", strconv.Itoa(step))).Observe(time.Since(qStart).Seconds())
	s.col.Add("points_streamed_total", points)
	if err != nil {
		if points == 0 {
			// Nothing on the wire yet: a real error status is still possible.
			if pfs.IsContextErr(err) {
				// Deadline (or client gone) before the first point. 504 with
				// partial-result accounting so the client knows how much of
				// the answer it has (none) and that retrying may succeed.
				w.Header().Set("Retry-After", "1")
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusGatewayTimeout)
				json.NewEncoder(w).Encode(map[string]any{
					"error":           err.Error(),
					"partial":         true,
					"points_streamed": points,
				})
				return
			}
			jsonError(w, http.StatusInternalServerError, err)
			return
		}
		// Mid-stream failure: the 200 header is already on the wire, so the
		// truncation is reported in the declared trailers and the log.
		status := "error"
		if pfs.IsContextErr(err) {
			status = "timeout"
		}
		w.Header().Set("X-Batserve-Status", status)
		w.Header().Set("X-Batserve-Points", strconv.FormatInt(points, 10))
		log.Printf("batserve: query aborted after %d points: %v", points, err)
		return
	}
	if points == 0 {
		w.Header().Set("Content-Type", "application/octet-stream")
		return
	}
	w.Header().Set("X-Batserve-Status", "complete")
	w.Header().Set("X-Batserve-Points", strconv.FormatInt(points, 10))
}

// pointBlockBytes is the size of the block /points encodes into before each
// write: a whole number of records at either stride (12 bytes xyz, 16 with
// an attribute), so a block never splits a point.
const pointBlockBytes = 48 << 10

func (s *server) page(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, pageHTML)
}

const pageHTML = `<!doctype html>
<meta charset="utf-8">
<title>libbat progressive viewer</title>
<style>body{font:14px sans-serif;margin:1em}canvas{border:1px solid #999}</style>
<h3>libbat progressive particle viewer</h3>
<div>quality <input id="q" type="range" min="5" max="100" value="20"> <span id="qv"></span>
step <input id="s" type="number" min="0" value="0" style="width:4em">/<span id="smax"></span>
points: <span id="n">0</span></div>
<canvas id="c" width="800" height="600"></canvas>
<script>
const c = document.getElementById('c').getContext('2d');
let info, loaded = 0, pts = [], step = 0;
async function init() {
  info = await (await fetch('/info?step=' + step)).json();
  document.getElementById('s').max = info.steps - 1;
  document.getElementById('smax').textContent = info.steps - 1;
  draw(); load();
}
async function load() {
  const q = document.getElementById('q').value / 100;
  document.getElementById('qv').textContent = q.toFixed(2);
  if (q <= loaded) { return; }
  const r = await fetch('/points?step=' + step + '&prev=' + loaded + '&quality=' + q);
  const buf = await r.arrayBuffer();
  const f = new Float32Array(buf);
  for (let i = 0; i + 2 < f.length; i += 3) pts.push([f[i], f[i+1], f[i+2]]);
  loaded = q;
  document.getElementById('n').textContent = pts.length;
  draw();
}
async function changeStep() {
  step = +document.getElementById('s').value;
  loaded = 0; pts = [];
  await init();
}
document.getElementById('s').addEventListener('change', changeStep);
function draw() {
  if (!info) return;
  c.fillStyle = '#fff'; c.fillRect(0, 0, 800, 600);
  const sx = 800 / (info.upper[0] - info.lower[0] || 1);
  const sy = 600 / (info.upper[2] - info.lower[2] || 1);
  c.fillStyle = 'rgba(30,60,160,0.5)';
  for (const p of pts) {
    const x = (p[0] - info.lower[0]) * sx;
    const y = 600 - (p[2] - info.lower[2]) * sy;
    c.fillRect(x, y, 2, 2);
  }
}
document.getElementById('q').addEventListener('change', load);
init();
</script>`
