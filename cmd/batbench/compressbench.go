// Compression benchmark: builds the same cosmology-shaped corpus as a
// plain v2 file and as v3 files at two relative error bounds, then records
// payload ratios, build (encode) time, and cold/warm full-scan (decode)
// time in a JSON report (BENCH_compress.json at the repo root via
// scripts/bench.sh). Every lossy configuration is self-validated against
// its declared bounds before the report is written; a violated bound fails
// the run rather than producing a report.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"libbat/internal/bat"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

// compressBenchReport is the schema of BENCH_compress.json.
type compressBenchReport struct {
	GeneratedBy string `json:"generated_by"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Particles   int    `json:"particles"`

	// Per-attribute value ranges the relative bounds were scaled by.
	AttrRanges map[string]float64 `json:"attr_ranges"`

	Configs map[string]compressBenchConfig `json:"configs"`

	// Headline numbers: treelet attribute payload shrink factor and warm /
	// cold full-scan time relative to the uncompressed v2 baseline, both at
	// the moderate (1e-3 relative) bound.
	PayloadRatioRel1e3    float64 `json:"payload_ratio_rel_1e3"`
	ColdScanVsV2Rel1e3    float64 `json:"cold_scan_vs_v2_rel_1e3"`
	WarmScanVsV2Rel1e3    float64 `json:"warm_scan_vs_v2_rel_1e3"`
	FileBytesVsV2Rel1e3   float64 `json:"file_bytes_vs_v2_rel_1e3"`
	BoundsValidatedPoints int     `json:"bounds_validated_points"`
}

type compressBenchConfig struct {
	Bounds        []float64 `json:"bounds,omitempty"`
	FileBytes     int       `json:"file_bytes"`
	PayloadRaw    uint64    `json:"attr_payload_raw_bytes,omitempty"`
	PayloadEnc    uint64    `json:"attr_payload_enc_bytes,omitempty"`
	PayloadRatio  float64   `json:"attr_payload_ratio,omitempty"`
	BuildSeconds  float64   `json:"build_seconds"`
	EncodeMBPerS  float64   `json:"encode_mb_per_sec"`
	ColdSeconds   float64   `json:"full_scan_cold_seconds"`
	WarmSeconds   float64   `json:"full_scan_warm_seconds"`
	DecodeMBPerS  float64   `json:"cold_decode_mb_per_sec"`
	MaxScaledErr  float64   `json:"max_scaled_error,omitempty"` // max |err|/bound over lossy attrs
	LosslessExact bool      `json:"lossless_exact"`
}

// compressBenchCorpus is a cosmology-shaped mix: clustered positions,
// lognormal mass, gaussian velocity, a smooth float32 potential, and a
// unique integral id used as the join key for self-validation.
func compressBenchCorpus(n int) (*particles.Set, geom.Box) {
	r := rand.New(rand.NewSource(20250808))
	schema := particles.Schema{Attrs: []particles.AttrDesc{
		{Name: "mass", Type: particles.Float64},
		{Name: "vx", Type: particles.Float64},
		{Name: "phi", Type: particles.Float32},
		{Name: "id", Type: particles.Float64},
	}}
	s := particles.NewSet(schema, n)
	for i := 0; i < n; i++ {
		var p geom.Vec3
		if i%4 != 0 {
			c := geom.V3(float64(i%3)*0.3+0.1, float64((i/3)%3)*0.3+0.1, 0.5)
			p = geom.V3(c.X+r.NormFloat64()*0.02, c.Y+r.NormFloat64()*0.02, c.Z+r.NormFloat64()*0.02)
		} else {
			p = geom.V3(r.Float64(), r.Float64(), r.Float64())
		}
		s.Append(p, []float64{
			math.Exp(r.NormFloat64()),
			r.NormFloat64() * 300,
			math.Sin(p.X*7) + p.Y*0.5,
			float64(i),
		})
	}
	return s, geom.NewBox(geom.V3(-1, -1, -1), geom.V3(2, 2, 2))
}

// scanAll runs a full serial scan collecting every particle, returning the
// wall time and the decoded values keyed by the id attribute.
func scanAll(f *bat.File, nAttrs int) (time.Duration, map[float64][]float64, error) {
	vals := make(map[float64][]float64)
	start := time.Now()
	_, err := f.Query(context.Background(), bat.Query{}, bat.QueryConfig{}, func(_ geom.Vec3, attrs []float64) error {
		vals[attrs[nAttrs-1]] = append([]float64(nil), attrs...)
		return nil
	})
	return time.Since(start), vals, err
}

// timeScan is scanAll without the collection overhead, for the timing runs.
func timeScan(f *bat.File) (time.Duration, int64, error) {
	var n int64
	start := time.Now()
	_, err := f.Query(context.Background(), bat.Query{}, bat.QueryConfig{}, func(geom.Vec3, []float64) error {
		n++
		return nil
	})
	return time.Since(start), n, err
}

// runCompressConfig builds the set under cfg, times a cold and a warm full
// scan, and (for lossy configs) validates every decoded value against the
// declared per-attribute bound.
func runCompressConfig(set *particles.Set, domain geom.Box, cfg bat.BuildConfig, bounds []float64) (compressBenchConfig, error) {
	out := compressBenchConfig{Bounds: bounds}
	start := time.Now()
	built, err := bat.Build(set, domain, cfg)
	if err != nil {
		return out, err
	}
	buildDur := time.Since(start)
	out.FileBytes = len(built.Buf)
	out.BuildSeconds = buildDur.Seconds()
	rawPayload := float64(set.Len() * set.Schema.BytesPerParticle())
	if buildDur > 0 {
		out.EncodeMBPerS = rawPayload / (1 << 20) / buildDur.Seconds()
	}

	cold, err := bat.FromBuffer(built.Buf)
	if err != nil {
		return out, err
	}
	defer cold.Close()
	coldDur, n, err := timeScan(cold)
	if err != nil {
		return out, err
	}
	if n != int64(set.Len()) {
		return out, fmt.Errorf("cold scan visited %d of %d particles", n, set.Len())
	}
	out.ColdSeconds = coldDur.Seconds()
	if coldDur > 0 {
		out.DecodeMBPerS = rawPayload / (1 << 20) / coldDur.Seconds()
	}
	// The treelet cache now holds every decoded treelet: the warm scan
	// measures the query path with decode already paid.
	warmDur, _, err := timeScan(cold)
	if err != nil {
		return out, err
	}
	out.WarmSeconds = warmDur.Seconds()

	if ci := cold.Compression(); ci != nil {
		out.PayloadRaw = ci.RawPayloadBytes
		out.PayloadEnc = ci.EncPayloadBytes
		out.PayloadRatio = ci.Ratio()
	}

	// Self-validation: join decoded values back to the originals on id and
	// check every attribute against its declared bound (bit-exact when the
	// bound is zero). Error is measured against the type-rounded value the
	// lossless layout stores.
	_, got, err := scanAll(cold, set.Schema.NumAttrs())
	if err != nil {
		return out, err
	}
	out.LosslessExact = true
	for i := 0; i < set.Len(); i++ {
		id := set.Attrs[len(set.Attrs)-1][i]
		dec, ok := got[id]
		if !ok {
			return out, fmt.Errorf("particle id %g missing from the decoded scan", id)
		}
		for a := range set.Attrs {
			want := set.Attrs[a][i]
			if set.Schema.Attrs[a].Type == particles.Float32 {
				want = float64(float32(want))
			}
			diff := math.Abs(dec[a] - want)
			bound := 0.0
			if bounds != nil {
				bound = bounds[a]
			}
			if bound == 0 {
				if diff != 0 {
					out.LosslessExact = false
					return out, fmt.Errorf("attr %s declared lossless but differs by %g", set.Schema.Attrs[a].Name, diff)
				}
			} else {
				if diff > bound {
					return out, fmt.Errorf("attr %s exceeds bound: |err|=%g > %g", set.Schema.Attrs[a].Name, diff, bound)
				}
				if scaled := diff / bound; scaled > out.MaxScaledErr {
					out.MaxScaledErr = scaled
				}
			}
		}
	}
	return out, nil
}

// runCompressBench executes the benchmark and writes the JSON report to
// outPath, validating the written artifact the same way readbench does.
func runCompressBench(nParticles int, outPath string) error {
	set, domain := compressBenchCorpus(nParticles)
	nA := set.Schema.NumAttrs()

	rep := compressBenchReport{
		GeneratedBy: "batbench -compressbench",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Particles:   nParticles,
		AttrRanges:  map[string]float64{},
		Configs:     map[string]compressBenchConfig{},
	}

	// Relative bounds scale to each attribute's value range; the id
	// attribute always stays lossless.
	relBounds := func(rel float64) []float64 {
		bounds := make([]float64, nA)
		for a := 0; a < nA-1; a++ {
			r := set.AttrRange(a)
			bounds[a] = rel * (r.Max - r.Min)
		}
		return bounds
	}
	for a := 0; a < nA; a++ {
		r := set.AttrRange(a)
		rep.AttrRanges[set.Schema.Attrs[a].Name] = r.Max - r.Min
	}

	base := bat.DefaultBuildConfig()
	v2, err := runCompressConfig(set, domain, base, nil)
	if err != nil {
		return fmt.Errorf("compressbench: v2 baseline: %w", err)
	}
	rep.Configs["v2_lossless"] = v2

	for _, tc := range []struct {
		name string
		rel  float64
	}{
		{"v3_rel_1e3", 1e-3},
		{"v3_rel_1e5", 1e-5},
	} {
		cfg := base
		cfg.Compress = true
		cfg.AttrErrorBounds = relBounds(tc.rel)
		run, err := runCompressConfig(set, domain, cfg, cfg.AttrErrorBounds)
		if err != nil {
			return fmt.Errorf("compressbench: %s: %w", tc.name, err)
		}
		rep.Configs[tc.name] = run
	}

	mid := rep.Configs["v3_rel_1e3"]
	rep.PayloadRatioRel1e3 = mid.PayloadRatio
	if v2.ColdSeconds > 0 {
		rep.ColdScanVsV2Rel1e3 = mid.ColdSeconds / v2.ColdSeconds
	}
	if v2.WarmSeconds > 0 {
		rep.WarmScanVsV2Rel1e3 = mid.WarmSeconds / v2.WarmSeconds
	}
	rep.FileBytesVsV2Rel1e3 = float64(mid.FileBytes) / float64(v2.FileBytes)
	rep.BoundsValidatedPoints = nParticles * len(rep.Configs)

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		return err
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	var check compressBenchReport
	if err := json.Unmarshal(raw, &check); err != nil {
		return fmt.Errorf("compressbench: report is not valid JSON: %w", err)
	}
	for _, key := range []string{"v2_lossless", "v3_rel_1e3", "v3_rel_1e5"} {
		c, ok := check.Configs[key]
		if !ok || c.FileBytes <= 0 || c.ColdSeconds < 0 {
			return fmt.Errorf("compressbench: report missing or malformed config %q", key)
		}
	}
	if check.Configs["v3_rel_1e3"].PayloadRatio <= 0 {
		return fmt.Errorf("compressbench: v3 config recorded no payload ratio")
	}

	fmt.Printf("compressbench: %d particles, gomaxprocs %d\n", nParticles, rep.GoMaxProcs)
	for _, key := range []string{"v2_lossless", "v3_rel_1e3", "v3_rel_1e5"} {
		c := rep.Configs[key]
		extra := ""
		if c.PayloadRatio > 0 {
			extra = fmt.Sprintf(", payload %.2fx (%d -> %d B), max scaled err %.3f",
				c.PayloadRatio, c.PayloadRaw, c.PayloadEnc, c.MaxScaledErr)
		}
		fmt.Printf("  %-12s file %8d B, build %.3fs, cold scan %.3fs, warm scan %.3fs%s\n",
			key, c.FileBytes, c.BuildSeconds, c.ColdSeconds, c.WarmSeconds, extra)
	}
	fmt.Printf("  v3@1e-3 vs v2: payload %.2fx smaller, file %.2fx, cold scan %.2fx, warm scan %.2fx\n",
		rep.PayloadRatioRel1e3, rep.FileBytesVsV2Rel1e3, rep.ColdScanVsV2Rel1e3, rep.WarmScanVsV2Rel1e3)
	fmt.Printf("  report: %s\n", outPath)
	return nil
}
