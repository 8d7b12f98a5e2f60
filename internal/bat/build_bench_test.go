package bat

import (
	"fmt"
	"math/rand"
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

const sectionBenchBound = 1e-3

// sectionBench is one treelet of sectionBenchN clustered particles, built by
// the real k-d builder with DefaultBuildConfig — inner nodes of 8 LOD samples
// over leaves of up to 128 particles — with an attribute that follows the
// position ("smooth": neighbours in the layout are neighbours in value), one
// that ignores it ("noise", uniform in [1, 2): one binade, so a node's own
// frame saves no key bits over the treelet's), and the two under random signs
// ("signed smooth", "signed noise": zero-mean columns, whose order keys span
// 64 bits where their sign keys do not).
type sectionBench struct {
	set   *particles.Set
	t     *treelet
	cells [3]keyCell
}

const sectionBenchSmooth, sectionBenchNoise, sectionBenchSignedSmooth, sectionBenchSignedNoise = 0, 1, 2, 3

func newSectionBench(tb testing.TB) *sectionBench {
	r := rand.New(rand.NewSource(7))
	signs := rand.New(rand.NewSource(8)) // r's draws stay those of the unsigned columns
	set := particles.NewSet(particles.NewSchema("smooth", "noise", "signed smooth", "signed noise"), sectionBenchN)
	centers := make([]geom.Vec3, 32)
	for i := range centers {
		centers[i] = geom.V3(r.Float64(), r.Float64(), r.Float64())
	}
	for i := 0; i < sectionBenchN; i++ {
		c := centers[i%len(centers)]
		p := geom.V3(c.X+r.NormFloat64()*0.02, c.Y+r.NormFloat64()*0.02, c.Z+r.NormFloat64()*0.02)
		smooth, noise := p.X+0.004*r.Float64(), 1+r.Float64()
		sign := float64(1 - 2*signs.Intn(2))
		set.Append(p, []float64{smooth, noise, sign * smooth, sign * noise})
	}
	_, order := sortByMorton(set, geom.NewBox(geom.V3(-0.5, -0.5, -0.5), geom.V3(1.5, 1.5, 1.5)), 1)
	var a buildArena
	t := buildTreelet(set, order, DefaultBuildConfig(), &a)
	sortNodes(set, t, &a)
	if err := encodeTreeletPositions(t, &a); err != nil {
		tb.Fatal(err)
	}
	return &sectionBench{set: set, t: t, cells: t.cells}
}

// sectionBenchCase is one stream of one column of the bench treelet.
type sectionBenchCase struct {
	name string
	pos  bool // the X column, as codec; otherwise attribute attr under bound
	attr int
	// bound is the attribute's error bound: sectionBenchBound, or 0 for the
	// lossless key-for and sign-key-for streams.
	bound float64
	// codec and mode are the codec and frame mode the column's encoder must
	// choose.
	codec uint8
	mode  string
}

func sectionBenchCases() []sectionBenchCase {
	return []sectionBenchCase{
		{name: "positions/sorted-cell-for", pos: true, codec: codecSortedCellFOR},
		{name: "quant-for/one-frame", attr: sectionBenchNoise, bound: sectionBenchBound, codec: codecQuantFOR, mode: "one-frame"},
		{name: "quant-for/per-node-cols", attr: sectionBenchSmooth, bound: sectionBenchBound, codec: codecQuantFOR, mode: "per-node-cols"},
		{name: "key-for/one-frame", attr: sectionBenchNoise, codec: codecKeyFOR, mode: "one-frame"},
		{name: "key-for/per-node-cols", attr: sectionBenchSmooth, codec: codecKeyFOR, mode: "per-node-cols"},
		{name: "sign-key-for/one-frame", attr: sectionBenchSignedNoise, codec: codecSignKeyFOR, mode: "one-frame"},
		{name: "sign-key-for/per-node-cols", attr: sectionBenchSignedSmooth, codec: codecSignKeyFOR, mode: "per-node-cols"},
	}
}

// sectionSink keeps the benchmarked encoders' results alive.
var sectionSink encodedAttr

// encode runs the case's encoder once: all three position columns (the X
// section is returned) — their keys, the k-d cells and the node sort, which
// finds the bench treelet sorted, then the packing —, or the one attribute
// column.
func (c *sectionBenchCase) encode(b *testing.B, sb *sectionBench, a *buildArena) encodedAttr {
	if c.pos {
		sortNodes(sb.set, sb.t, a)
		if err := encodeTreeletPositions(sb.t, a); err != nil {
			b.Fatal(err)
		}
		return sb.t.posEnc[0]
	}
	return encodeAttr(sb.set.Attrs[c.attr], sb.t, particles.Float64, c.bound, 1, a)
}

// reportPerValue adds ns/value, the figure the write-ups quote.
func reportPerValue(b *testing.B, values int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(values), "ns/value")
}

// BenchmarkEncodeSection times the section encoders on the bench treelet:
// its three position columns, and an attribute column, lossy or lossless,
// that keeps one frame (noise) or takes one per node range (smooth) — the
// zero-mean ones as sign-key-for.
func BenchmarkEncodeSection(b *testing.B) {
	sb := newSectionBench(b)
	for _, c := range sectionBenchCases() {
		b.Run(c.name, func(b *testing.B) {
			var a buildArena
			values := sectionBenchN
			if c.pos {
				values *= 3
			}
			b.SetBytes(int64(len(c.encode(b, sb, &a).data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sectionSink = c.encode(b, sb, &a)
			}
			reportPerValue(b, values)
		})
	}
}

// BenchmarkDecodeSection times the section decoders on the same columns; the
// X column's time includes deriving the k-d cells, which a treelet load does
// once for its three position sections.
func BenchmarkDecodeSection(b *testing.B) {
	sb := newSectionBench(b)
	nb := newNodeBlocks(sb.t.nodes, sectionBenchN)
	for _, c := range sectionBenchCases() {
		b.Run(c.name, func(b *testing.B) {
			var a buildArena
			enc := c.encode(b, sb, &a)
			var info SectionInfo
			decode := func(info *SectionInfo) error {
				if c.pos {
					_, err := decodePos(enc.codec, enc.data, nb, nb.kdCells(sb.cells), geom.X, info)
					return err
				}
				_, err := decodeAttr(enc.codec, enc.data, nb, particles.Float64, c.bound, 1, info)
				return err
			}
			if err := decode(&info); err != nil {
				b.Fatal(err)
			}
			if enc.codec != c.codec || info.Mode != c.mode {
				b.Fatalf("the column encoded as %s %s, the case needs %s %s", CodecName(enc.codec), info.Mode, c.name, c.mode)
			}
			b.SetBytes(int64(len(enc.data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := decode(nil); err != nil {
					b.Fatal(err)
				}
			}
			reportPerValue(b, sectionBenchN)
		})
	}
}
