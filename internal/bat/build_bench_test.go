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
