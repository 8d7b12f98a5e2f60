package bat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"libbat/internal/geom"
	"libbat/internal/particles"
)

// benchSet generates a clustered particle set: most of the write-phase cost
// profiles (coal boiler, dam break) are spatially clustered, so this is the
// representative shape for the build hot path.
func benchSet(n int, seed int64) (*particles.Set, geom.Box) {
	r := rand.New(rand.NewSource(seed))
	s := particles.NewSet(particles.NewSchema("energy", "mass"), n)
	nClusters := 32
	centers := make([]geom.Vec3, nClusters)
	for i := range centers {
		centers[i] = geom.V3(r.Float64(), r.Float64(), r.Float64())
	}
	for i := 0; i < n; i++ {
		c := centers[i%nClusters]
		p := geom.V3(
			c.X+r.NormFloat64()*0.02,
			c.Y+r.NormFloat64()*0.02,
			c.Z+r.NormFloat64()*0.02,
		)
		s.Append(p, []float64{r.Float64() * 100, r.Float64()})
	}
	domain := geom.NewBox(geom.V3(-0.5, -0.5, -0.5), geom.V3(1.5, 1.5, 1.5))
	return s, domain
}

// BenchmarkBATBuild times the full bat.Build pipeline at three scales,
// serial vs parallel. Run with -benchmem to see the allocation profile of
// the treelet stage.
func BenchmarkBATBuild(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		set, domain := benchSet(n, int64(n))
		for _, mode := range []string{"serial", "parallel"} {
			cfg := DefaultBuildConfig()
			if mode == "serial" {
				cfg.Workers = 1
			}
			b.Run(fmt.Sprintf("n=%.0e/%s", float64(n), mode), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(set.Bytes())
				for i := 0; i < b.N; i++ {
					if _, err := Build(set, domain, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// sectionBenchN is the column length of the section kernels' benchmarks.
const sectionBenchN = 1 << 20

// sectionBenchCase is one column of sectionBenchN values laid out as a single
// treelet whose node ranges alternate an inner node's 8 LOD samples with a
// leaf's ~90 particles — the shapes DefaultBuildConfig produces.
type sectionBenchCase struct {
	name  string
	t     *treelet
	nodes []diskNode
	pos   []float32 // a position column, or
	attr  []float64 // an attribute column under sectionBenchBound
	mode  string    // the frame mode the attribute column must choose
	// flat is attr's grid indices as the flat quant stream writers before
	// codecQuantFOR stored: decode only, nothing writes it any more.
	flat bool
}

const sectionBenchBound = 1e-3

func sectionBenchCases() []sectionBenchCase {
	r := rand.New(rand.NewSource(7))
	var counts []int
	for n := 0; n < sectionBenchN; {
		c := 8
		if len(counts)%2 == 1 {
			c = 60 + r.Intn(61)
		}
		c = min(c, sectionBenchN-n)
		counts = append(counts, c)
		n += c
	}
	t, nodes := forTreelet(counts)
	// Positions and the smooth attribute follow their node: neighbours in
	// the layout are neighbours in space. The noise attribute ignores it.
	pos := make([]float32, sectionBenchN)
	smooth := make([]float64, sectionBenchN)
	noise := make([]float64, sectionBenchN)
	for ni, n := range nodes {
		centre := 0.5 + 0.4*math.Sin(float64(ni)/400)
		for i := n.start; i < n.start+n.count; i++ {
			pos[i] = float32(centre + 0.002*r.Float64())
			smooth[i] = centre + 0.02*r.Float64()
			noise[i] = r.Float64()
		}
	}
	return []sectionBenchCase{
		{name: "positions", t: t, nodes: nodes, pos: pos},
		{name: "quant-flat", t: t, nodes: nodes, attr: noise, flat: true},
		{name: "quant-for/one-frame", t: t, nodes: nodes, attr: noise, mode: "one-frame"},
		{name: "quant-flat/smooth", t: t, nodes: nodes, attr: smooth, flat: true},
		{name: "quant-for/per-node", t: t, nodes: nodes, attr: smooth, mode: "per-node"},
	}
}

// sectionSink keeps the benchmarked encoders' results alive.
var sectionSink encodedAttr

// encode runs the case's encoder once.
func (c *sectionBenchCase) encode(a *buildArena) encodedAttr {
	if c.pos != nil {
		return encodeFOR(c.pos, c.t, a)
	}
	return encodeAttr(c.attr, c.t, particles.Float64, sectionBenchBound, 1, a)
}

// reportPerValue adds ns/value, the figure the write-ups quote.
func reportPerValue(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/sectionBenchN, "ns/value")
}

// BenchmarkEncodeSection times the section encoders on one million values:
// a position column, and an attribute column that keeps one frame (noise) or
// takes one per node range (spatially coherent).
func BenchmarkEncodeSection(b *testing.B) {
	for _, c := range sectionBenchCases() {
		if c.flat {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			var a buildArena
			b.SetBytes(int64(len(c.encode(&a).data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sectionSink = c.encode(&a)
			}
			reportPerValue(b)
		})
	}
}

// BenchmarkDecodeSection times the section decoders on the same columns,
// plus the flat quant stream of earlier writers holding the same grid indices
// as each quant-for case, through the same unpack loop.
func BenchmarkDecodeSection(b *testing.B) {
	for _, c := range sectionBenchCases() {
		b.Run(c.name, func(b *testing.B) {
			var a buildArena
			enc := c.encode(&a)
			if c.pos != nil {
				b.SetBytes(int64(len(enc.data)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := decodeFOR(enc.data, c.nodes, sectionBenchN, nil); err != nil {
						b.Fatal(err)
					}
				}
				reportPerValue(b)
				return
			}
			var info SectionInfo
			want, err := decodeAttrSection(enc.codec, enc.data, c.nodes, sectionBenchN, particles.Float64, sectionBenchBound, 1, &info)
			if err != nil {
				b.Fatal(err)
			}
			codec, payload := enc.codec, enc.data
			if c.flat {
				codec, payload = codecQuant, flatQuantStream(c.nodes, want, enc.data, sectionBenchBound, 1)
			} else if info.Mode != c.mode {
				b.Fatalf("column chose %s frames, the case is named for %s", info.Mode, c.mode)
			}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := decodeAttrSection(codec, payload, c.nodes, sectionBenchN, particles.Float64, sectionBenchBound, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && !slices.Equal(got, want) {
					b.Fatal("decoded column differs from the quant-for decode of the same indices")
				}
			}
			reportPerValue(b)
		})
	}
}
