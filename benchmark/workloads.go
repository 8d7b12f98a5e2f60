package main

import (
	"fmt"

	"libbat"
	"libbat/internal/workloads"
)

// spec is one benchmark workload: a particle distribution, a write
// configuration, and how queries are executed. Every workload runs the whole
// trip; they differ in which layer does the work.
type spec struct {
	Name string
	Why  string

	ranks     int
	particles int64
	target    int64 // aggregation target file size
	generator func(s spec, seed int) (workloads.Workload, error)

	// compress writes v3 files with an absolute error bound of
	// errFraction of each attribute's range.
	compress bool
	// qcfg is the in-process query engine; serveArgs the matching
	// batserve flags.
	qcfg      libbat.QueryConfig
	serveArgs []string
	// cacheFraction bounds the treelet cache (Dataset and batserve) to this
	// share of the decoded dataset size; 0 leaves it unbounded.
	cacheFraction float64
	// hotspots > 0 skews box centres: the boxes are dealt over this many
	// centres by a Zipf law, so a few regions are asked for again and again.
	hotspots int

	// Per-sample batch sizes: each timed sample should be >= ~50 ms of work.
	// filters is per attribute.
	boxes, filters, requests, warmScans int
}

const errFraction = 1e-3

func coal(s spec, seed int) (workloads.Workload, error) {
	w, err := workloads.NewCoalBoiler(s.ranks)
	if err != nil {
		return nil, err
	}
	// The seed is the generators' step argument. Pin the growth schedule
	// around it so every seed gives the same population and plume shape
	// (mid-schedule) and only the random draws differ.
	w.SetGrowth(seed-2000, seed+2000, s.particles, s.particles)
	return w, nil
}

func uniform(s spec, _ int) (workloads.Workload, error) {
	return workloads.NewUniform(s.ranks, s.particles/int64(s.ranks), 4)
}

func cosmo(s spec, _ int) (workloads.Workload, error) {
	w, err := workloads.NewCosmo(s.ranks, s.particles, 24)
	if err != nil {
		return nil, err
	}
	w.FormSteps = 1 // halos fully formed at every step >= 1
	return w, nil
}

var serial = []string{"-query-workers", "1"}

// specs returns the four workloads at full or -quick size.
func specs(quick bool) []spec {
	all := []spec{
		{
			Name:  "coal16-v2",
			Why:   "plain baseline: clustered coal-boiler particles, lossless v2, serial engine; per-particle layers dominate (bat.Build in writes, the traversal loop in reads)",
			ranks: 16, particles: 1_000_000, target: 8 << 20, generator: coal,
			serveArgs: serial,
			boxes:     32, filters: 1, requests: 60, warmScans: 1,
		},
		{
			Name:  "coal16-v3",
			Why:   "same particles with the 1e-3-of-range lossy codec: the only workload where the codec works (encode in build, decode on cold loads) and stored bytes can move",
			ranks: 16, particles: 1_000_000, target: 8 << 20, generator: coal,
			compress:  true,
			serveArgs: serial,
			boxes:     32, filters: 1, requests: 60, warmScans: 1,
		},
		{
			Name:  "uniform512-plan",
			Why:   "512 ranks x 800 particles into 32 small files: planning and fabric dominate the write (PlanAuto goes distributed at 512), open/metadata costs spread over many small leaves",
			ranks: 512, particles: 512 * 800, target: 1 << 20, generator: uniform,
			serveArgs: serial,
			boxes:     96, filters: 6, requests: 120, warmScans: 3,
		},
		{
			Name:  "cosmo64-cachebound",
			Why:   "halo-clustered cosmology, treelet cache at 1/4 of the decoded data, 2-worker unordered engine, Zipf-skewed boxes: warm queries evict and reload, so cache, pfs read and parse work",
			ranks: 64, particles: 1_000_000, target: 4 << 20, generator: cosmo,
			qcfg:          libbat.QueryConfig{Workers: 2},
			serveArgs:     []string{"-query-workers", "2", "-query-unordered"},
			cacheFraction: 0.25, hotspots: 12,
			boxes: 16, filters: 2, requests: 30, warmScans: 2,
		},
	}
	if quick {
		for i := range all {
			s := &all[i]
			s.ranks, s.particles, s.target = 8, 20_000, 256<<10
			s.boxes, s.filters, s.requests, s.warmScans = 8, 1, 20, 1
		}
	}
	return all
}

func findSpec(name string, quick bool) (spec, error) {
	for _, s := range specs(quick) {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// metric describes one reported number. Bound is the share of the baseline
// median by which a trip metric may worsen before it is a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Demoted marks a trip metric that cannot hold its bound on the reference
	// box (README.md, "Bounds"): it is measured in every untraced round and
	// judged by -compare like the others, but BENCHMARK.json lists it under
	// per_layer, where the driver applies no bound.
	Demoted bool `json:"demoted,omitempty"`
}

// tripMetrics lists what a user of the system sees, with the issue's bounds.
var tripMetrics = []metric{
	// The driver's contract asks for the largest bound (0.25) on setup_s.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "write_mpps", Unit: "Mparticles/s", Better: "higher", Bound: 0.10, Demoted: true},
	// Exact for one seed; over the driver's ten seeds the layout's own size
	// spreads by up to 0.2 %, so the bound is three times that.
	{Name: "stored_bytes_per_particle", Unit: "B", Better: "lower", Bound: 0.005},
	{Name: "restart_read_mpps", Unit: "Mparticles/s", Better: "higher", Bound: 0.10, Demoted: true},
	{Name: "open_lod_cold_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	{Name: "scan_cold_mpps", Unit: "Mparticles/s", Better: "higher", Bound: 0.10, Demoted: true},
	{Name: "scan_warm_mpps", Unit: "Mparticles/s", Better: "higher", Bound: 0.10, Demoted: true},
	{Name: "box_query_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	{Name: "filter_query_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	{Name: "lod_increment_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	{Name: "aggregate_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	{Name: "http_points_mpps", Unit: "Mpoints/s", Better: "higher", Bound: 0.10, Demoted: true},
	{Name: "http_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Demoted: true},
	{Name: "http_p95_ms", Unit: "ms", Better: "lower", Bound: 0.15, Demoted: true},
}

// endToEnd is BENCHMARK.json's end_to_end list: the trip metrics that hold
// their bound.
func endToEnd() []metric {
	var out []metric
	for _, m := range tripMetrics {
		if !m.Demoted {
			out = append(out, m)
		}
	}
	return out
}

// perLayer is BENCHMARK.json's per_layer list: the demoted trip metrics,
// then the layers' own.
func perLayer() []metric {
	var out []metric
	for _, m := range tripMetrics {
		if m.Demoted {
			out = append(out, metric{Name: m.Name, Unit: m.Unit, Better: m.Better})
		}
	}
	return append(out, layerMetrics...)
}
