package bat

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"libbat/internal/geom"
	"libbat/internal/particles"
)

// determinismCorpora builds the particle-set shapes the byte-identity
// property is asserted over: seeded random, clustered, coincident-heavy
// (maximal Morton-code ties), clustered with zero-mean attributes, and small
// edge sizes.
func determinismCorpora() []struct {
	name   string
	set    *particles.Set
	domain geom.Box
} {
	domain := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	mk := func(name string, n int, gen func(r *rand.Rand, i int) (geom.Vec3, []float64)) struct {
		name   string
		set    *particles.Set
		domain geom.Box
	} {
		r := rand.New(rand.NewSource(int64(len(name)) * 1013))
		s := particles.NewSet(particles.NewSchema("a", "b"), n)
		for i := 0; i < n; i++ {
			p, attrs := gen(r, i)
			s.Append(p, attrs)
		}
		return struct {
			name   string
			set    *particles.Set
			domain geom.Box
		}{name, s, domain}
	}
	uniform := func(r *rand.Rand, i int) (geom.Vec3, []float64) {
		return geom.V3(r.Float64(), r.Float64(), r.Float64()), []float64{r.Float64(), float64(i)}
	}
	clustered := func(r *rand.Rand, i int) (geom.Vec3, []float64) {
		// Attribute a is noise; b follows the position, so under Compress a
		// k-d node's values are neighbours and its section takes per-node
		// frames where a's keeps one.
		cx, cy, cz := float64(i%4)*0.25+0.1, float64((i/4)%4)*0.25+0.1, 0.5
		p := geom.V3(cx+r.NormFloat64()*0.01, cy+r.NormFloat64()*0.01, cz+r.NormFloat64()*0.01)
		return p, []float64{r.Float64() * 10, p.X + 3*p.Y + r.Float64()*1e-3}
	}
	signed := func(r *rand.Rand, i int) (geom.Vec3, []float64) {
		// clustered's columns under random signs: zero-mean, so the
		// lossless sections are sign-key-for, one frame for a and per-node
		// frames for b.
		p, attrs := clustered(r, i)
		if r.Intn(2) == 0 {
			attrs[0], attrs[1] = -attrs[0], -attrs[1]
		}
		return p, attrs
	}
	coincident := func(r *rand.Rand, i int) (geom.Vec3, []float64) {
		// Eight distinct positions shared by thousands of particles:
		// every treelet sees massive Morton ties and degenerate splits.
		p := geom.V3(float64(i%2), float64((i/2)%2), float64((i/4)%2)).Scale(0.5)
		return p, []float64{float64(i % 13), r.Float64()}
	}
	return []struct {
		name   string
		set    *particles.Set
		domain geom.Box
	}{
		mk("uniform", 20000, uniform),
		mk("clustered", 20000, clustered),
		mk("coincident", 8000, coincident),
		mk("signed", 20000, signed),
		mk("tiny", 3, uniform),
		mk("empty", 0, uniform),
	}
}

// TestBuildDeterminism asserts the build's core format invariant: the
// serial build (Workers=1) and every multi-worker build produce
// byte-identical images. Run
// under -race by scripts/check.sh with Workers > 1 so the fused treelet
// stage's sharing discipline is exercised, not assumed.
func TestBuildDeterminism(t *testing.T) {
	frameModes := map[string]bool{}
	for _, c := range determinismCorpora() {
		t.Run(c.name, func(t *testing.T) {
			for _, compress := range []bool{false, true} {
				base := DefaultBuildConfig()
				base.MaxLeafSize = 64
				base.LODPerNode = 4
				// Every build encodes its position and attribute sections
				// in the fused treelet workers from per-worker arenas: the
				// lossless key-for and sign-key-for attribute codecs, and with
				// Compress the lossy quant-for one.
				base.Compress = compress
				base.AttrErrorBounds = []float64{1e-3, 1e-3}

				ref := base
				ref.Workers = 1
				want, err := Build(c.set, c.domain, ref)
				if err != nil {
					t.Fatalf("serial build: %v", err)
				}
				f, err := FromBuffer(want.Buf)
				if err != nil {
					t.Fatal(err)
				}
				// The packed node tables are sized serially and packed by
				// the fill workers.
				for ti := 0; ti < f.NumTreelets(); ti++ {
					lay, err := f.TreeletLayout(context.Background(), ti)
					if err != nil {
						t.Fatal(err)
					}
					for _, sec := range lay.Sections {
						switch sec.Codec {
						case codecQuantFOR, codecKeyFOR, codecSignKeyFOR:
							frameModes[CodecName(sec.Codec)+" "+sec.Mode] = true
						case codecSortedCellFOR:
							if sec.EF.Nodes > 0 {
								frameModes["sorted-cell-for"] = true
							}
						}
					}
				}

				for _, workers := range []int{2, 7, 0, runtime.GOMAXPROCS(0)} {
					cfg := base
					cfg.Workers = workers
					got, err := Build(c.set, c.domain, cfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if !bytes.Equal(got.Buf, want.Buf) {
						t.Fatalf("compress=%v workers=%d: output differs from serial build (%d vs %d bytes)",
							compress, workers, len(got.Buf), len(want.Buf))
					}
				}
			}
		})
	}
	for _, want := range []string{"sorted-cell-for", "quant-for one-frame", "quant-for per-node-cols", "key-for one-frame", "key-for per-node-cols",
		"sign-key-for one-frame", "sign-key-for per-node-cols"} {
		if !frameModes[want] {
			t.Errorf("frame kinds among the builds: %v, want sorted-cell-for positions with Elias–Fano blocks and both modes of quant-for, key-for and sign-key-for covered", frameModes)
			break
		}
	}
}

// TestBuildDeterminismRepeated rebuilds the same input several times with
// the full worker pool: scheduling noise must never reach the bytes.
func TestBuildDeterminismRepeated(t *testing.T) {
	c := determinismCorpora()[1] // clustered
	cfg := DefaultBuildConfig()
	cfg.MaxLeafSize = 32
	var want []byte
	for i := 0; i < 5; i++ {
		b, err := Build(c.set, c.domain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = b.Buf
			continue
		}
		if !bytes.Equal(b.Buf, want) {
			t.Fatalf("rebuild %d differs", i)
		}
	}
}

// TestBuildWorkersValidation pins the Workers knob contract: negatives are
// rejected, zero means GOMAXPROCS.
func TestBuildWorkersValidation(t *testing.T) {
	s, domain := randomSet(100, 5)
	cfg := DefaultBuildConfig()
	cfg.Workers = -1
	if _, err := Build(s, domain, cfg); err == nil {
		t.Fatal("negative Workers accepted")
	}
	cfg.Workers = 0
	if got := cfg.effectiveWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers=0 resolved to %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	cfg.Workers = 8
	if got := cfg.effectiveWorkers(); got != 8 {
		t.Fatalf("Workers=8 resolved to %d", got)
	}
}

// TestBuildReadBackAfterParallelBuild sanity-checks that a multi-worker
// build round-trips through the reader (guards against a determinism test
// that only compares two equally wrong buffers).
func TestBuildReadBackAfterParallelBuild(t *testing.T) {
	for _, c := range determinismCorpora()[:3] {
		cfg := DefaultBuildConfig()
		cfg.Workers = 4
		b, err := Build(c.set, c.domain, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		f, err := FromBuffer(b.Buf)
		if err != nil {
			t.Fatalf("%s: decoding: %v", c.name, err)
		}
		got, err := f.ReadAll()
		if err != nil {
			t.Fatalf("%s: read: %v", c.name, err)
		}
		if got.Len() != c.set.Len() {
			t.Fatalf("%s: read %d particles, wrote %d", c.name, got.Len(), c.set.Len())
		}
		// The read-back set is a reordering of the input; compare each
		// attribute column as a sorted multiset so order drops out.
		for a := 0; a < 2; a++ {
			wantVals := append([]float64(nil), c.set.Attrs[a]...)
			gotVals := append([]float64(nil), got.Attrs[a]...)
			sort.Float64s(wantVals)
			sort.Float64s(gotVals)
			for i := range wantVals {
				if wantVals[i] != gotVals[i] {
					t.Fatalf("%s: attr %d multiset mismatch at %d: %v != %v",
						c.name, a, i, gotVals[i], wantVals[i])
				}
			}
		}
	}
}

func ExampleBuildConfig_workers() {
	cfg := DefaultBuildConfig()
	cfg.Workers = 2 // cap the build pool regardless of GOMAXPROCS
	fmt.Println(cfg.effectiveWorkers())
	// Output: 2
}
