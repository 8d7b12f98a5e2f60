package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"libbat"
	"libbat/internal/core"
	"libbat/internal/fabric"
	"libbat/internal/geom"
	"libbat/internal/obs"
	"libbat/internal/particles"
	"libbat/internal/pfs"
	"libbat/internal/workloads"
)

const (
	base        = "trip"
	histBins    = 64
	gridSide    = 32
	lodWindows  = 10
	boxVolume   = 0.03 // share of the domain volume one box query covers
	filterWidth = 0.05 // share of an attribute's range one filter keeps
)

// expectations is what the oracle answered ahead of time.
type expectations struct {
	ranks   []result // restart read, per rank
	boxes   []result
	filters []bracket
	windows []result // learned in warm-up, verified to tile the full set
	hist    []int64
	grid    []int64
	mean    float64
}

// trip is one workload's whole trip: the generated inputs, the oracle's
// expectations, the running batserve, and the samples collected so far.
type trip struct {
	spec spec
	seed int
	dir  string

	w      workloads.Workload
	sets   []*particles.Set
	bounds []geom.Box
	cfg    core.WriteConfig
	store  *pfs.OS
	o      *oracle

	boxes    []geom.Box
	filters  []libbat.AttrFilter
	exp      expectations
	requests []request

	cacheLimit int64 // bytes; 0 = unbounded
	srv        *server
	warm       *libbat.Dataset
	clients    int

	// tr and col are nil outside traced rounds.
	tr  *tracer
	col *obs.Collector

	mu        sync.Mutex
	attempted int64
	failed    int64
	// samples, latencies and layers come from untraced rounds only, one
	// entry per round; setup holds one entry per set-up.
	samples    map[string][]float64
	latencies  [][]float64 // per-request HTTP latency in ms, one slice per pass
	layers     map[string][]float64
	setup      map[string][]float64
	plainWall  []float64 // seconds per untraced round
	tracedWall []float64 // seconds per traced round
}

// check records one oracle-checked operation.
func (t *trip) check(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", t.spec.Name, fmt.Sprintf(format, args...))
		}
	}
}

func (t *trip) sample(name string, v float64) {
	t.samples[name] = append(t.samples[name], v)
}

// setUp is phase 0, run `times` times so that setup_s is a median: generate
// the per-rank particles, build the oracle and its expectations, start
// batserve. The dataset batserve serves is written once, after the first
// preparation, and is no part of setup_s; neither is go build.
func setUp(s spec, seed int, dir, serverBin string, times int) (_ *trip, err error) {
	t := &trip{spec: s, seed: seed, dir: dir, clients: min(runtime.GOMAXPROCS(0), 2),
		samples: map[string][]float64{}, layers: map[string][]float64{}, setup: map[string][]float64{}}
	defer func() {
		if err != nil {
			t.tearDown() // no batserve and no dataset outlive a failed set-up
		}
	}()
	if t.store, err = pfs.NewOS(dir); err != nil {
		return nil, err
	}
	args := s.serveArgs
	for i := 0; i < times; i++ {
		runtime.GC()
		gen, orc, err := t.prepare()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			if _, _, err := t.write(nil); err != nil {
				return nil, fmt.Errorf("set-up write: %w", err)
			}
			if s.cacheFraction > 0 {
				decoded, err := t.decodedBytes()
				if err != nil {
					return nil, err
				}
				mb := max(int64(float64(decoded)*s.cacheFraction)>>20, 1)
				t.cacheLimit = mb << 20
				args = append(append([]string(nil), args...), "-cache-mb", strconv.FormatInt(mb, 10))
			}
		}
		if err := t.srv.stop(); err != nil {
			return nil, fmt.Errorf("batserve exit: %v\n%s", err, t.srv.stderr.String())
		}
		var startup time.Duration
		if t.srv, startup, err = startServer(serverBin, dir, base, args, t.clients); err != nil {
			return nil, err
		}
		t.setup["workloads.generate_s"] = append(t.setup["workloads.generate_s"], gen.Seconds())
		t.setup["oracle.build_s"] = append(t.setup["oracle.build_s"], orc.Seconds())
		t.setup["batserve.start_ms"] = append(t.setup["batserve.start_ms"], ms(startup))
		t.setup["setup_s"] = append(t.setup["setup_s"], (gen + orc + startup).Seconds())
	}
	return t, nil
}

// prepare generates the inputs from the seed and has the oracle answer what
// it can ahead of time. Every call rebuilds the same inputs.
func (t *trip) prepare() (gen, orc time.Duration, err error) {
	s := t.spec
	start := time.Now()
	if t.w, err = s.generator(s, t.seed); err != nil {
		return 0, 0, err
	}
	t.generate()
	gen = time.Since(start)

	start = time.Now()
	t.o = newOracle(t.sets)
	t.cfg = core.DefaultWriteConfig(s.target)
	if s.compress {
		t.cfg.BAT.Compress = true
		for a := range t.o.bound {
			t.o.bound[a] = errFraction * (t.o.max[a] - t.o.min[a])
		}
		t.cfg.BAT.AttrErrorBounds = t.o.bound
	}
	rng := rand.New(rand.NewSource(int64(t.seed)))
	t.boxes, t.filters, t.exp = nil, nil, expectations{}
	t.makeBoxes(rng)
	t.makeFilters(rng)
	t.expect()
	return gen, time.Since(start), nil
}

// tearDown stops batserve and removes the dataset.
func (t *trip) tearDown() {
	if t.warm != nil {
		t.warm.Close()
	}
	if err := t.srv.stop(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: batserve exit: %v\n%s", t.spec.Name, err, t.srv.stderr.String())
	}
	os.RemoveAll(t.dir)
}

func (t *trip) generate() {
	p := t.w.Decomp().NumRanks()
	t.sets = make([]*particles.Set, p)
	t.bounds = make([]geom.Box, p)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0)) // at most nproc generators at once
	for r := 0; r < p; r++ {
		t.bounds[r] = t.w.Decomp().RankBounds(r)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sem <- struct{}{}
			t.sets[r] = t.w.Generate(t.seed, r)
			<-sem
		}(r)
	}
	wg.Wait()
}

// particleAt returns the position of the i-th particle in rank order.
func (t *trip) particleAt(i int64) geom.Vec3 {
	for _, s := range t.sets {
		if i < int64(s.Len()) {
			return s.Position(int(i))
		}
		i -= int64(s.Len())
	}
	panic("particle index out of range")
}

// makeBoxes places the query boxes: each covers boxVolume of the domain
// (same aspect) and is centred on a particle. Centres are stratified over
// the rank-ordered particle list — one per equal slice, at a seeded offset —
// so every seed asks for about the same amount of data. With hotspots, four
// times as many candidates are taken from the middles of their slices, the
// most populated quarter become the hotspots, and the boxes are dealt over
// them by a Zipf law (exponent 1.1), the most crowded the most popular, each
// jittered by up to 5 % of the box size: every seed hammers the same few
// crowded regions.
func (t *trip) makeBoxes(rng *rand.Rand) {
	size := t.w.Decomp().Domain.Size()
	half := size.Scale(math.Cbrt(boxVolume) / 2)
	around := func(c geom.Vec3) geom.Box { return geom.NewBox(c.Sub(half), c.Add(half)) }
	centres := t.spec.boxes
	if t.spec.hotspots > 0 {
		centres = 4 * t.spec.hotspots // candidates: the most populated quarter become hotspots
	}
	pts := make([]geom.Vec3, centres)
	for k := range pts {
		offset := 0.5
		if t.spec.hotspots == 0 {
			offset = rng.Float64()
		}
		pts[k] = t.particleAt(int64((float64(k) + offset) * float64(t.o.n) / float64(centres)))
	}
	t.boxes = make([]geom.Box, 0, t.spec.boxes)
	if t.spec.hotspots == 0 {
		for _, c := range pts {
			t.boxes = append(t.boxes, around(c))
		}
		return
	}
	crowd := make(map[geom.Vec3]int64, centres)
	for _, c := range pts {
		crowd[c] = t.o.box(around(c)).Count
	}
	sort.SliceStable(pts, func(a, b int) bool { return crowd[pts[a]] > crowd[pts[b]] })
	pts = pts[:t.spec.hotspots]
	var norm float64
	for k := range pts {
		norm += math.Pow(float64(k+1), -1.1)
	}
	for k, c := range pts {
		quota := int(math.Ceil(math.Pow(float64(k+1), -1.1) / norm * float64(t.spec.boxes)))
		for ; quota > 0 && len(t.boxes) < t.spec.boxes; quota-- {
			jitter := geom.V3((rng.Float64()-0.5)*half.X, (rng.Float64()-0.5)*half.Y, (rng.Float64()-0.5)*half.Z).Scale(0.1)
			t.boxes = append(t.boxes, around(c.Add(jitter)))
		}
	}
}

// makeFilters places the attribute filters: spec.filters per attribute, each
// keeping filterWidth of the attribute's range. The slices of one attribute
// sit at the centres of equal parts of its range, moved by a seeded tenth of
// a part, so every seed sweeps the same dense and sparse values.
func (t *trip) makeFilters(rng *rand.Rand) {
	per := t.spec.filters
	for a := 0; a < t.o.attrs; a++ {
		span := t.o.max[a] - t.o.min[a]
		for j := 0; j < per; j++ {
			at := (float64(j) + 0.5 + 0.1*(rng.Float64()-0.5)) / float64(per)
			lo := t.o.min[a] + at*(1-filterWidth)*span
			t.filters = append(t.filters, libbat.AttrFilter{Attr: a, Min: lo, Max: lo + filterWidth*span})
		}
	}
}

// expect has the oracle answer everything it can answer ahead of time.
func (t *trip) expect() {
	t.exp.ranks = make([]result, len(t.bounds))
	for r, b := range t.bounds {
		t.exp.ranks[r] = t.o.box(b)
	}
	for _, b := range t.boxes {
		t.exp.boxes = append(t.exp.boxes, t.o.box(b))
	}
	for _, f := range t.filters {
		t.exp.filters = append(t.exp.filters, t.o.filterBracket(f))
	}
	t.exp.hist = t.o.histogram(0, histBins)
	t.exp.mean = t.o.mean(0)
}

// storeFor returns the dataset store, observed when the pass is traced.
func (t *trip) storeFor() pfs.Storage { return pfs.Observe(t.store, t.col) }

// write is phase 1: one collective core.Write on P goroutine ranks.
func (t *trip) write(layer map[string]float64) (time.Duration, *core.WriteStats, error) {
	fab := fabric.New(len(t.sets))
	fab.SetObserver(t.col)
	store := t.storeFor()
	before := t.store.Stats()
	var root *core.WriteStats
	start := time.Now()
	err := fab.Run(func(c *fabric.Comm) error {
		st, err := core.Write(c, store, base, t.sets[c.Rank()], t.bounds[c.Rank()], t.cfg)
		if c.Rank() == 0 {
			root = st
		}
		return err
	})
	el := time.Since(start)
	if err != nil {
		return el, nil, err
	}
	if layer != nil {
		after := t.store.Stats()
		layer["fabric.write_msgs"] = float64(fab.MessagesSent())
		layer["fabric.write_bytes"] = float64(fab.BytesSent())
		layer["pfs.files_written"] = float64(after.FilesWritten - before.FilesWritten)
		layer["pfs.bytes_written"] = float64(after.BytesWritten - before.BytesWritten)
	}
	return el, root, nil
}

// storedBytes sums the dataset's .bat and .batm files on disk.
func (t *trip) storedBytes() (int64, error) {
	ents, err := os.ReadDir(t.dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".bat") || strings.HasSuffix(e.Name(), ".batm") {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			total += info.Size()
		}
	}
	return total, nil
}

// restartRead is phase 2: every rank reads back its own bounds.
func (t *trip) restartRead(layer map[string]float64) (time.Duration, int64, error) {
	fab := fabric.New(len(t.sets))
	fab.SetObserver(t.col)
	store := t.storeFor()
	got := make([]*particles.Set, len(t.sets))
	stats := make([]*core.ReadStats, len(t.sets))
	start := time.Now()
	err := fab.Run(func(c *fabric.Comm) error {
		var err error
		got[c.Rank()], stats[c.Rank()], err = core.Read(c, store, base, t.bounds[c.Rank()])
		return err
	})
	el := time.Since(start)
	if err != nil {
		return el, 0, err
	}
	var returned int64
	for r, set := range got {
		var res result
		for i := 0; i < set.Len(); i++ {
			res.add(set.X[i], set.Y[i], set.Z[i])
		}
		returned += res.Count
		t.check(res == t.exp.ranks[r], "restart read rank %d: got %+v want %+v", r, res, t.exp.ranks[r])
	}
	if layer != nil {
		var m, f, x time.Duration
		for _, st := range stats {
			m, f, x = max(m, st.Metadata), max(f, st.FileRead), max(x, st.Transfer)
		}
		layer["core.read.metadata_ms"] = ms(m)
		layer["core.read.file_read_ms"] = ms(f)
		layer["core.read.transfer_ms"] = ms(x)
		layer["fabric.read_msgs"] = float64(fab.MessagesSent())
		layer["fabric.read_bytes"] = float64(fab.BytesSent())
	}
	return el, returned, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// open opens the dataset with the workload's engine and cache settings.
func (t *trip) open() (*libbat.Dataset, error) {
	ds, err := libbat.OpenDataset(t.storeFor(), base)
	if err != nil {
		return nil, err
	}
	ds.SetQueryConfig(t.spec.qcfg)
	if t.cacheLimit > 0 {
		ds.SetCacheLimit(t.cacheLimit)
	}
	if t.col != nil {
		ds.SetObserver(t.col)
	}
	return ds, nil
}

// coldQuery is a fresh Dataset, one query to its last point, and Close:
// program caches empty, OS page cache warm.
func (t *trip) coldQuery(q libbat.Query) (time.Duration, result, error) {
	start := time.Now()
	ds, err := t.open()
	if err != nil {
		return 0, result{}, err
	}
	var res result
	err = ds.Query(q, res.visitor())
	cerr := ds.Close()
	el := time.Since(start)
	if err == nil {
		err = cerr
	}
	return el, res, err
}

// decodedBytes is the in-memory size of every parsed treelet: what an
// unbounded cache holds after a full scan.
func (t *trip) decodedBytes() (int64, error) {
	ds, err := libbat.OpenDataset(t.store, base)
	if err != nil {
		return 0, err
	}
	defer ds.Close()
	if _, err := ds.Count(libbat.Query{}); err != nil {
		return 0, err
	}
	return ds.CacheStats().Bytes, nil
}

// window is the k-th of the ten progressive quality windows (Table I).
func window(k int) libbat.Query {
	return libbat.Query{PrevQuality: float64(k) / lodWindows, Quality: float64(k+1) / lodWindows}
}

// warmUp primes the long-lived Dataset and batserve, learns the quality
// windows (checking they tile the full set), and builds the request list.
// Nothing here is timed.
func (t *trip) warmUp() error {
	var err error
	if t.warm, err = t.open(); err != nil {
		return err
	}
	t.exp.windows = make([]result, lodWindows)
	for k := range t.exp.windows {
		if err := t.warm.Query(window(k), t.exp.windows[k].visitor()); err != nil {
			return err
		}
	}
	if err := t.o.windows(t.exp.windows); err != nil {
		return err
	}
	t.exp.grid = t.o.densityGrid(t.warm.Bounds(), gridSide, gridSide, gridSide)
	t.makeRequests()
	// One whole untimed trip: the heap, the page cache and batserve's caches
	// reach their steady state before the first sample.
	t.round(-1, nil)
	t.samples, t.latencies, t.layers, t.plainWall = map[string][]float64{}, nil, map[string][]float64{}, nil
	if t.failed > 0 {
		return fmt.Errorf("warm-up trip failed %d of %d checks", t.failed, t.attempted)
	}
	return nil
}

// makeRequests builds the seeded batserve request mix: 50 % boxes at
// quality 1 with attr=0, 25 % progressive windows, 15 % one filter, 10 %
// whole-domain quality 0.3, each share rounded down to whole requests and the
// boxes taking the rest; the order is shuffled.
func (t *trip) makeRequests() {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	n := t.spec.requests
	nWin, nFil, nWhole := n/4, n*15/100, n/10
	var reqs []request
	for i := 0; i < n-nWin-nFil-nWhole; i++ {
		b, want := t.boxes[i%len(t.boxes)], t.exp.boxes[i%len(t.boxes)]
		reqs = append(reqs, request{kind: "box", stride: 16,
			query: fmt.Sprintf("quality=1&attr=0&box=%s,%s,%s,%s,%s,%s", f(b.Lower.X), f(b.Lower.Y), f(b.Lower.Z), f(b.Upper.X), f(b.Upper.Y), f(b.Upper.Z)),
			want:  exactly(want)})
	}
	for i := 0; i < nWin; i++ {
		q, want := window(i%lodWindows), t.exp.windows[i%lodWindows]
		reqs = append(reqs, request{kind: "window", stride: 12,
			query: fmt.Sprintf("quality=%s&prev=%s", f(q.Quality), f(q.PrevQuality)),
			want:  exactly(want)})
	}
	for i := 0; i < nFil; i++ {
		fl, want := t.filters[i%len(t.filters)], t.exp.filters[i%len(t.filters)]
		reqs = append(reqs, request{kind: "filter", stride: 12,
			query: fmt.Sprintf("filter=%d,%s,%s", fl.Attr, f(fl.Min), f(fl.Max)),
			want:  want})
	}
	var coarse result
	for k := 0; k < 3; k++ {
		coarse.merge(t.exp.windows[k])
	}
	for i := 0; i < nWhole; i++ {
		reqs = append(reqs, request{kind: "coarse", stride: 12, query: "quality=" + f(window(2).Quality),
			want: exactly(coarse)})
	}
	rand.New(rand.NewSource(int64(t.seed)+1)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	t.requests = reqs
}

// round runs the whole trip once, every timed operation in turn, so a noisy
// stretch of machine time lands on all of them. With tr nil the round is
// untraced: it yields one sample of every trip metric and the per-layer
// numbers the trip itself exposes (WriteStats, ReadStats, fabric and pfs
// counters need no collector). With tr set the round is traced: every call
// into a layer is wrapped in a span and an obs.Collector is attached, so its
// timings are distorted by whatever tracing costs and only its spans and its
// wall time are kept.
func (t *trip) round(id int, tr *tracer) {
	t.tr = tr
	start := time.Now()
	root := t.tr.begin("trip", -1, id, 0)
	var layer map[string]float64
	var colEpoch time.Time
	if tr != nil {
		t.col, colEpoch = obs.New(), time.Now()
		t.warm.SetObserver(t.col)
	} else {
		layer = map[string]float64{}
	}
	sample := func(name string, v float64) {
		if tr == nil {
			t.sample(name, v)
		}
	}
	var phases []int
	phase := func(name string, f func(sp int)) {
		runtime.GC() // every sample starts from a collected heap, outside its timed region
		sp := t.tr.begin(name, root, id, 0)
		f(sp)
		t.tr.end(sp)
		phases = append(phases, sp)
	}
	n := float64(t.o.n)

	phase("core.Write", func(int) {
		el, st, err := t.write(layer)
		t.check(err == nil && st.TotalCount == t.o.n, "write: %v", err)
		if err != nil {
			return
		}
		sample("write_mpps", n/el.Seconds()/1e6)
		stored, err := t.storedBytes()
		t.check(err == nil && stored > 0, "stored bytes: %v", err)
		sample("stored_bytes_per_particle", float64(stored)/n)
		if layer != nil {
			pm := st.PhaseMax
			layer["core.write.tree_ms"] = ms(pm.TreeBuild)
			layer["core.write.gather_scatter_ms"] = ms(pm.GatherScatter)
			layer["core.write.transfer_ms"] = ms(pm.Transfer)
			layer["core.write.bat_build_ms"] = ms(pm.BATBuild)
			layer["core.write.file_write_ms"] = ms(pm.FileWrite)
			layer["core.write.metadata_ms"] = ms(pm.Metadata)
			layer["aggtree.leaves"] = float64(st.NumFiles)
			layer["aggtree.leaf_max_over_avg"] = float64(st.LeafSizes.MaxB) / st.LeafSizes.MeanB
		}
	})
	phase("core.Read", func(int) {
		el, returned, err := t.restartRead(layer)
		t.check(err == nil, "restart read: %v", err)
		if err == nil {
			sample("restart_read_mpps", float64(returned)/el.Seconds()/1e6)
		}
	})
	phase("libbat.open+lod", func(int) {
		el, res, err := t.coldQuery(window(0))
		t.check(err == nil && res == t.exp.windows[0], "cold quality-0.1 read: got %+v want %+v err %v", res, t.exp.windows[0], err)
		sample("open_lod_cold_ms", ms(el))
	})
	phase("libbat.open+scan", func(int) {
		el, res, err := t.coldQuery(libbat.Query{})
		t.check(err == nil && res == t.o.full, "cold scan: got %+v want %+v err %v", res, t.o.full, err)
		sample("scan_cold_mpps", n/el.Seconds()/1e6)
	})
	phase("libbat.scan", func(int) {
		start := time.Now()
		for i := 0; i < t.spec.warmScans; i++ {
			var res result
			err := t.warm.Query(libbat.Query{}, res.visitor())
			t.check(err == nil && res == t.o.full, "warm scan: got %+v want %+v err %v", res, t.o.full, err)
		}
		sample("scan_warm_mpps", float64(t.spec.warmScans)*n/time.Since(start).Seconds()/1e6)
	})
	phase("libbat.boxes", func(int) {
		start := time.Now()
		for i := range t.boxes {
			var res result
			err := t.warm.Query(libbat.Query{Bounds: &t.boxes[i]}, res.visitor())
			t.check(err == nil && res == t.exp.boxes[i], "box %d: got %+v want %+v err %v", i, res, t.exp.boxes[i], err)
		}
		sample("box_query_ms", ms(time.Since(start))/float64(len(t.boxes)))
	})
	phase("libbat.filters", func(int) {
		start := time.Now()
		for i, f := range t.filters {
			var res result
			err := t.warm.Query(libbat.Query{Filters: []libbat.AttrFilter{f}}, res.visitor())
			t.check(err == nil && t.exp.filters[i].matches(res), "filter %d: got %+v want %+v err %v", i, res, t.exp.filters[i], err)
		}
		sample("filter_query_ms", ms(time.Since(start))/float64(len(t.filters)))
	})
	phase("libbat.lod-sweep", func(int) {
		got := make([]result, lodWindows)
		start := time.Now()
		var err error
		for k := 0; k < lodWindows && err == nil; k++ {
			err = t.warm.Query(window(k), got[k].visitor())
		}
		el := time.Since(start)
		if err == nil {
			err = t.o.windows(got)
		}
		t.check(err == nil, "quality sweep: %v", err)
		sample("lod_increment_ms", ms(el)/lodWindows)
	})
	phase("libbat.aggregates", func(int) {
		start := time.Now()
		hist, herr := t.warm.Histogram(0, histBins, libbat.Query{})
		grid, gerr := t.warm.DensityGrid(gridSide, gridSide, gridSide, libbat.Query{})
		sum, serr := t.warm.Summarize(0, libbat.Query{})
		el := time.Since(start)
		t.check(herr == nil && t.histogramOK(hist), "histogram: %v", herr)
		t.check(gerr == nil && slices.Equal(grid, t.exp.grid), "density grid: %v", gerr)
		tol := t.o.bound[0] + 1e-9*(t.o.max[0]-t.o.min[0])
		t.check(serr == nil && sum.Count == t.o.n && math.Abs(sum.Mean-t.exp.mean) <= tol,
			"summary: count %d mean %g want %d %g err %v", sum.Count, sum.Mean, t.o.n, t.exp.mean, serr)
		sample("aggregate_ms", ms(el))
	})
	phase("batserve", func(sp int) {
		res := t.srv.pass(t.requests, t.clients, t.tr, sp, id)
		t.mu.Lock()
		t.attempted += int64(len(t.requests))
		t.failed += int64(res.failed)
		t.mu.Unlock()
		if res.firstErr != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: batserve: %v\n", t.spec.Name, res.firstErr)
		}
		sample("http_points_mpps", float64(res.points)/res.wall.Seconds()/1e6)
		if tr == nil {
			t.latencies = append(t.latencies, res.latencies)
		}
		if layer != nil && res.points > 0 {
			layer["batserve.bytes_per_point"] = float64(res.bytes) / float64(res.points)
		}
	})
	t.tr.end(root)
	wall := time.Since(start).Seconds()
	if tr != nil {
		t.tr.adopt(t.col, colEpoch, phases, root, id)
		t.warm.SetObserver(nil)
		t.tr, t.col = nil, nil
		t.tracedWall = append(t.tracedWall, wall)
		return
	}
	t.plainWall = append(t.plainWall, wall)
	for k, v := range layer {
		t.layers[k] = append(t.layers[k], v)
	}
}

// histogramOK compares a histogram of attribute 0 with the oracle's. A
// lossless layout must match bin for bin; under an error bound b a value
// within b of a bin edge may move to the neighbouring bin.
func (t *trip) histogramOK(got []int64) bool {
	if len(got) != len(t.exp.hist) {
		return false
	}
	var total, moved int64
	for i := range got {
		total += got[i]
		moved += abs64(got[i] - t.exp.hist[i])
	}
	if total != t.o.n {
		return false
	}
	width := (t.o.max[0] - t.o.min[0]) / float64(len(got))
	allowed := 0.0
	if width > 0 {
		allowed = 4 * t.o.bound[0] / width * float64(t.o.n)
	}
	return float64(moved) <= allowed
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
